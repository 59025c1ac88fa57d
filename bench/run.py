"""Benchmark of gradreg: registration time, quality and self-consistency.

Usage, from the repository root:

    python3 bench/run.py --workload phantom48-s2 [--seed N] [--seconds S] [--trace 0|1]

Workloads: phantom48-s2, unsup64-s1, cli-batch32 (see bench/README.md).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The package under measurement is ``src/gradreg`` of this
checkout; without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path

import envinfo

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="phantom48-s2, unsup64-s1 or cli-batch32")
    p.add_argument("--seed", type=int, default=None,
                   help="phantom noise seed (default 7)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measuring time; at least two rounds run regardless")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_checkout_package():
    """Import gradreg from this checkout's src/, refusing any other copy."""
    if not (SRC / "gradreg" / "__init__.py").is_file():
        raise ImportError(f"no gradreg package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gradreg

    origin = Path(gradreg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"gradreg imported from {origin}, not from {SRC}")


def main(argv=None) -> int:
    args = _parse(argv)
    cpus = envinfo.nproc()
    threads = envinfo.pin_threads(cpus)
    try:
        _import_checkout_package()
    except ImportError as e:
        print(f"bench: cannot import the package under test: {e}", file=sys.stderr)
        return 2
    import workloads
    from tracing import PER_LAYER

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    if w.pairs:
        try:
            report = workloads.run_batch(w, seed, args.seconds, bool(args.trace),
                                         WORK / f"{w.name}-{os.getpid()}", SRC, threads, cpus)
        finally:
            with contextlib.suppress(OSError):
                WORK.rmdir()
    else:
        report = workloads.run_inprocess(w, seed, args.seconds, bool(args.trace))

    outcome = report.outcome
    print("env " + json.dumps(envinfo.environment_block(ROOT, cpus)))
    rounds = report.registration_times
    print(f"workload {w.name} seed {seed}: {len(rounds)} untraced rounds, registration s "
          + " ".join(f"{t:.3f}" for t in rounds))
    for name, unit, _ in workloads.END_TO_END:
        print(f"  {name:<16} {report.end_to_end[name]!r} {unit}")
    print(f"  {'rewarp_max_abs':<16} {report.rewarp_max_abs!r} intensity")
    print(f"  {'failure_ratio':<16} {outcome.failed / outcome.attempted!r} "
          f"({outcome.failed} of {outcome.attempted} checks failed)")
    for problem in outcome.problems:
        print(f"  FAILED: {problem}")
    if args.trace:
        table = [(name, unit, report.per_layer[name]) for name, unit, _ in PER_LAYER]
    else:
        table = [(name, unit, report.end_to_end[name])
                 for name, unit, _ in workloads.END_TO_END]
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, unit, value in table},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark harness at tiny dims (about a minute on 2 cores).

    python3 bench/selftest.py

Checks that BENCHMARK.json names exactly the metrics the harness emits, that
every workload shape emits every metric, that the traced sampling-call count
matches the hand count, and that the output checks are not vacuous: a folded
field and a non-finite volume must each count as a failure.  Exits 0 when
every check passes.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import envinfo
import run

TINY = 24
ITERATIONS = 8


def hand_count(steps: int, labels: bool) -> int:
    """Trilinear sampling calls per optimizer iteration, counted by hand.

    Forward, per step: upsample, 2 image warps, 2 one-hot warps with labels,
    and in loss_inv 2 composes plus 2 vjp_composes.  Between steps: 2 composes
    that build the exposed fields.  Backward, per step: one warp adjoint per
    warp made, then upsample again and vjp_upsample.
    """
    warps = 2 + (2 if labels else 0)
    forward = 1 + warps + 4
    backward = warps + 2
    return steps * (forward + backward) + 2 * (steps - 1)


class Checks:
    def __init__(self):
        self.failures = 0

    def __call__(self, ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}: {what}", flush=True)
        self.failures += not ok


def main() -> int:
    envinfo.pin_threads(envinfo.nproc())
    run._import_checkout_package()
    import workloads
    from gradreg import deform, volume
    from gradreg.deform import DeformationField
    from tracing import PER_LAYER

    check = Checks()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
          == list(workloads.END_TO_END), "BENCHMARK.json end_to_end matches the harness")
    check([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
          == list(PER_LAYER), "BENCHMARK.json per_layer matches the harness")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match the harness")
    check(hand_count(2, True) == 32 and hand_count(1, False) == 11,
          "hand counts: 32 for steps=2 with labels, 11 for steps=1 without")

    e2e_names = [name for name, _, _ in workloads.END_TO_END]
    layer_names = [name for name, _, _ in PER_LAYER]
    run.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        for name, full in workloads.WORKLOADS.items():
            w = dataclasses.replace(full, dims=TINY, iterations=ITERATIONS,
                                    pairs=min(full.pairs, 2))
            if w.pairs:
                report = workloads.run_batch(w, 3, 0.0, True, scratch / name, run.SRC,
                                             1, envinfo.nproc())
            else:
                report = workloads.run_inprocess(w, 3, 0.0, True)
            e2e, layers = report.end_to_end, report.per_layer
            check(report.outcome.failed == 0 and report.outcome.attempted > 0,
                  f"{name}: {report.outcome.attempted} output checks, none failed "
                  f"{report.outcome.problems}")
            check(list(e2e) == e2e_names and all(math.isfinite(v) and v > 0
                                                 for v in e2e.values()),
                  f"{name}: every end-to-end metric emitted, finite and nonzero")
            check(sorted(layers) == sorted(layer_names)
                  and all(math.isfinite(v) for v in layers.values()),
                  f"{name}: every per-layer metric emitted and finite")
            got = layers["deform.sample_calls_per_iter"]
            want = hand_count(w.steps, w.labels)
            check(got == want, f"{name}: {got:g} sampling calls per iteration, hand count "
                               f"{want}")
            check(layers["engine.iterations_run"] == w.iterations,
                  f"{name}: traced iterations equal the budget")
            used = ["deform.warp_1ch.ms", "deform.compose.ms", "deform.vjp_compose.ms",
                    "losses.loss_inv.ms", "phantom.make_pair.ms", "metrics.hd95.ms"]
            if w.pairs:
                used += ["volume.write_volume.ms", "volume.read_mb_per_s",
                         "cli.phantom.s", "cli.register.s", "cli.apply.s", "cli.pool_speedup"]
            if w.labels:
                used += ["deform.warp_3ch.ms", "deform.vjp_warp_both_3ch.ms",
                         "losses.loss_seg.ms"]
            check(all(layers[m] > 0 for m in used),
                  f"{name}: the layers this workload calls report nonzero")

        identity = deform.identity_field((TINY,) * 3)
        folded = identity.values.copy()
        folded[1][:, [5, 6], :] = folded[1][:, [6, 5], :]
        check(workloads.field_is_monotone(identity)
              and not workloads.field_is_monotone(DeformationField(folded)),
              "a folded field fails the monotonicity check")

        w = dataclasses.replace(workloads.WORKLOADS["cli-batch32"], dims=TINY,
                                iterations=ITERATIONS, pairs=1)
        outcome = workloads.Outcome()
        cli = workloads._InProcessCli(outcome)
        root = scratch / "corrupt"
        workloads.write_batch_inputs(cli, root, w, 3)
        workloads.register_batch(cli, root, 1)
        printed = workloads.apply_batch(cli, root, w)
        workloads.check_batch_outputs(root, w, printed, outcome)
        check(outcome.failed == 0, "intact batch outputs pass their checks")

        field_raw = root / "out0" / "phi_moving_to_fixed.raw"
        intact = field_raw.read_bytes()
        volume.write_volume(deform.field_to_volume(DeformationField(folded)),
                            field_raw.with_suffix(""))
        outcome = workloads.Outcome()
        workloads.check_batch_outputs(root, w, printed, outcome)
        check(any("monotone" in p for p in outcome.problems),
              "a folded saved field counts as a failure")
        field_raw.write_bytes(intact)

        warped_raw = root / "out0" / "warped_moving.raw"
        nan = np.frombuffer(warped_raw.read_bytes(), dtype="<f4").copy()
        nan[len(nan) // 2] = np.nan
        warped_raw.write_bytes(nan.tobytes())
        outcome = workloads.Outcome()
        workloads.check_batch_outputs(root, w, printed, outcome)
        check(any("warped_moving" in p for p in outcome.problems),
              "a non-finite saved volume counts as a failure")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()

    print(f"selftest: {check.failures} failure(s)")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())

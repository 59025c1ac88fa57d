"""Command-line interface.

Subcommands: register, warp, jacobian, metrics, phantom, gradcheck.
Exit codes: 0 success, 1 user error (bad paths, malformed inputs, shape
mismatches), 2 numerical failure (divergence, failed gradient check).  A
malformed JSON input exits 1 naming its file and key; in a batch, a bad
manifest, ``--jobs`` or ``--inference-steps`` stops before any pair runs and a
bad volume header fails its pair alone.
Scalars print with 6 significant digits; CSV files keep full precision.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import deform, engine, metrics, phantom
from .engine import DivergenceError, RegistrationConfig, gradient_check, register_pair
from .losses import LossBreakdown
from .metrics import PairMetrics, evaluate_pair, write_metrics_csv
from .volume import (REQUIRED, LabelVolume, Volume, one_hot, read_keys, read_volume,
                     write_volume)

GRADCHECK_TOLERANCE = 1e-5
GRADCHECK_MAX_DIM = 8


class _CliError(Exception):
    """User-level failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _CliError(f"{self.prog}: error: {message}")


# Failures reported as an exit code and a message rather than a traceback.
_REPORTED = (_CliError, DivergenceError, ValueError, OSError)


def _failure(e: Exception) -> tuple[int, str]:
    """Exit code and message for one of the ``_REPORTED`` failures."""
    if isinstance(e, _CliError):
        return 1, str(e)
    if isinstance(e, DivergenceError):
        return 2, f"numerical failure: {e}"
    return 1, f"error: {e}"


def _fmt(x: float) -> str:
    return f"{float(x):.6g}"


def _read_image(path) -> Volume:
    v = read_volume(path)
    if not isinstance(v, Volume):
        raise _CliError(f"{path} holds labels, expected an image volume")
    return v


def _read_labels(path) -> LabelVolume:
    v = read_volume(path)
    if not isinstance(v, LabelVolume):
        raise _CliError(f"{path} holds an image, expected a label volume (u16)")
    return v


def _read_field(path) -> deform.DeformationField:
    return deform.volume_to_field(_read_image(path))


def _read_input(path, what: str, parse):
    """``parse`` of the text of an input file; ``what`` names the file if it
    does not exist, and an error raised while parsing ends with its path."""
    p = Path(path)
    if not p.exists():
        raise _CliError(f"{what} not found: {p}")
    try:
        return parse(p.read_text())
    except ValueError as e:
        raise ValueError(f"{e} (in {p})") from e


def _load_config(path) -> RegistrationConfig:
    return _read_input(path, "config file", RegistrationConfig.from_json)


def _write_trace_csv(path, trace: list[LossBreakdown]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", *(f.name for f in fields(LossBreakdown))])
        for i, bd in enumerate(trace):
            writer.writerow([i, *map(repr, astuple(bd))])


# ---------------------------------------------------------------------------
# register


def _label_union(moving_labels: LabelVolume, fixed_labels: LabelVolume) -> list[int]:
    ids = set(np.unique(moving_labels.labels).tolist())
    ids |= set(np.unique(fixed_labels.labels).tolist())
    ids.discard(0)
    return sorted(ids)


def _pair_name(job: dict) -> str:
    return job.get("pair_id", Path(job["out_dir"]).name)


def _register_one(job: dict) -> str:
    moving = _read_image(job["moving"])
    fixed = _read_image(job["fixed"])
    moving_labels = fixed_labels = None
    segs = None
    label_set: list[int] = []
    if job.get("moving_labels") and job.get("fixed_labels"):
        moving_labels = _read_labels(job["moving_labels"])
        fixed_labels = _read_labels(job["fixed_labels"])
        label_set = _label_union(moving_labels, fixed_labels)
        if label_set:
            segs = (one_hot(moving_labels, label_set), one_hot(fixed_labels, label_set))
    elif job.get("moving_labels") or job.get("fixed_labels"):
        raise _CliError("give both --moving-labels and --fixed-labels or neither")
    out_dir = Path(job["out_dir"])  # made only once every input has been read
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        result = register_pair(moving, fixed, job["config"], segs=segs,
                               inference_steps=job.get("inference_steps"))
    except DivergenceError as e:
        _write_trace_csv(out_dir / "loss_trace.csv", e.trace)
        raise

    spacing = fixed.spacing_mm
    write_volume(deform.field_to_volume(result.phi_ab, spacing),
                 out_dir / "phi_moving_to_fixed")
    write_volume(deform.field_to_volume(result.phi_ba, spacing),
                 out_dir / "phi_fixed_to_moving")
    write_volume(result.a_warp, out_dir / "warped_moving")
    write_volume(result.b_warp, out_dir / "warped_fixed")
    _write_trace_csv(out_dir / "loss_trace.csv", result.trace)

    before = None
    if moving_labels is not None and label_set:
        warped_moving_labels = deform.warp_labels(moving_labels, result.phi_ab)
        warped_fixed_labels = deform.warp_labels(fixed_labels, result.phi_ba)
        write_volume(warped_moving_labels, out_dir / "warped_moving_labels")
        write_volume(warped_fixed_labels, out_dir / "warped_fixed_labels")
        identity = deform.identity_field(fixed.dims)
        before = evaluate_pair(fixed_labels, moving_labels, identity, label_set, spacing)
        after = evaluate_pair(fixed_labels, warped_moving_labels, result.phi_ab,
                              label_set, spacing)
    else:
        after = PairMetrics({}, {}, None, metrics.sdlogj(result.phi_ab))
    rows = [("after", after)] if before is None else [("before", before), ("after", after)]
    write_metrics_csv(out_dir / "metrics.csv", rows)

    summary = (
        f"{_pair_name(job)}: iterations={result.iterations_run} "
        f"total={_fmt(result.final.total)}"
    )
    if before is not None and before.mean_dice is not None and after.mean_dice is not None:
        summary += f" dice {_fmt(before.mean_dice)} -> {_fmt(after.mean_dice)}"
    summary += f" sdlogj={_fmt(after.sdlogj)}"
    return summary


def _run_pair(job: dict) -> tuple[int, str]:
    """Exit code and summary line of one pair; a failed pair's line names its error."""
    try:
        return 0, _register_one(job)
    except _REPORTED as e:
        code, message = _failure(e)
        return code, f"{_pair_name(job)}: {message}"


# the paths of one pair; a labels path may be null
_PAIR_KEYS = {"moving": (str, REQUIRED), "fixed": (str, REQUIRED), "out_dir": (str, REQUIRED),
              "moving_labels": (str, None), "fixed_labels": (str, None)}


def _parse_manifest(text: str) -> list[dict]:
    entries = json.loads(text)
    if not isinstance(entries, list) or not entries:
        raise ValueError("pairs manifest must be a non-empty JSON list")
    return [read_keys(f"pairs manifest entry {i}", e,
                      dict(_PAIR_KEYS, pair_id=(str, f"pair{i:03d}")))
            for i, e in enumerate(entries)]


def _read_manifest(path) -> list[dict]:
    """Every pair of a batch manifest, each entry checked before any pair runs."""
    pairs = _read_input(path, "pairs manifest", _parse_manifest)
    first: dict[Path, int] = {}  # pairs that share an out_dir overwrite each other
    for i, pair in enumerate(pairs):
        if (j := first.setdefault(Path(pair["out_dir"]).resolve(), i)) != i:
            raise _CliError(f"pairs manifest entries {j} and {i} share out_dir "
                            f"{pair['out_dir']}")
    return pairs


def _use_cores(cores: int) -> None:
    """Pool-worker initializer: the worker's share of the cores, for its directions."""
    engine.CORES = cores


def _cmd_register(args) -> int:
    config = _load_config(args.config)  # validate before spawning work
    if args.inference_steps is not None and not 1 <= args.inference_steps <= config.steps:
        raise _CliError(f"--inference-steps must be in [1, {config.steps}] (the config's "
                        f"steps), got {args.inference_steps}")
    if args.pairs:
        pairs = _read_manifest(args.pairs)
    elif args.fixed and args.moving and args.out_dir:
        pairs = [{key: getattr(args, key) for key in _PAIR_KEYS}]
    else:
        raise _CliError("register needs --fixed, --moving and --out-dir (or --pairs)")
    jobs = [dict(pair, config=config, inference_steps=args.inference_steps)
            for pair in pairs]
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        # loaded before the fork, so that forked workers share one copy of what
        # registration (scipy.special, and scipy.sparse for its backward pass)
        # and its metrics (scipy.spatial) import
        import scipy.sparse  # noqa: F401
        import scipy.spatial  # noqa: F401
        import scipy.special  # noqa: F401
        with ProcessPoolExecutor(max_workers=workers, initializer=_use_cores,
                                 initargs=(max(1, engine.CORES // workers),)) as pool:
            results = list(pool.map(_run_pair, jobs))
    else:
        results = [_run_pair(job) for job in jobs]
    for code, line in results:
        if code:
            print(line, file=sys.stderr)
        elif not args.quiet:
            print(line)
    return max(code for code, _ in results)


# ---------------------------------------------------------------------------
# other subcommands


def _cmd_warp(args) -> int:
    field = _read_field(args.field)
    if args.image:
        out = deform.warp(_read_image(args.image), field)
    else:
        out = deform.warp_labels(_read_labels(args.labels), field)
    write_volume(out, args.out)
    return 0


def _cmd_jacobian(args) -> int:
    field = _read_field(args.field)
    det = deform.jacobian_det(field)
    write_volume(det, args.out)
    if args.sdlogj:
        print(_fmt(metrics.sdlogj_from_det(det.data[0])))
    return 0


def _cmd_metrics(args) -> int:
    fixed_labels = _read_labels(args.fixed_labels)
    warped_labels = _read_labels(args.warped_labels)
    field = _read_field(args.field)
    try:
        label_set = [int(tok) for tok in args.labels.split(",") if tok.strip()]
    except ValueError as e:
        raise _CliError(f"bad --labels list {args.labels!r}: {e}") from e
    if not label_set:
        raise _CliError("--labels must name at least one label id")
    outside = [lid for lid in label_set if not 0 < lid <= np.iinfo(np.uint16).max]
    if outside:
        raise _CliError(f"--labels ids must be in 1..65535, got {outside}")
    pm = evaluate_pair(fixed_labels, warped_labels, field, label_set,
                       fixed_labels.spacing_mm)
    write_metrics_csv(args.out, [(args.pair_id, pm)])
    if not args.quiet:
        mean = "absent" if pm.mean_dice is None else _fmt(pm.mean_dice)
        print(f"mean_dice={mean} sdlogj={_fmt(pm.sdlogj)}")
    return 0


def _cmd_phantom(args) -> int:
    spec = _read_input(args.spec, "phantom spec", phantom.PhantomSpec.from_json)
    warp_spec = _read_input(args.warp, "warp spec", phantom.AnalyticWarp.from_json)
    pair = phantom.make_pair(spec, warp_spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_volume(pair.fixed, out_dir / "fixed")
    write_volume(pair.fixed_labels, out_dir / "fixed_labels")
    write_volume(pair.moving, out_dir / "moving")
    write_volume(pair.moving_labels, out_dir / "moving_labels")
    write_volume(deform.field_to_volume(pair.phi_gt), out_dir / "phi_gt")
    write_volume(deform.field_to_volume(pair.phi_gt_inv), out_dir / "phi_gt_inv")
    if not args.quiet:
        print(f"phantom written to {out_dir}")
    return 0


def _cmd_gradcheck(args) -> int:
    try:
        dims = tuple(int(tok) for tok in args.dims.split(","))
    except ValueError as e:
        raise _CliError(f"bad --dims {args.dims!r}: {e}") from e
    if len(dims) != 3 or min(dims) < 3:
        raise _CliError(f"--dims must be three counts >= 3, got {args.dims!r}")
    if max(dims) > GRADCHECK_MAX_DIM:
        raise _CliError(
            f"dims {dims} too large for finite differencing "
            f"(max {GRADCHECK_MAX_DIM} per axis)"
        )
    config = _load_config(args.config) if args.config else RegistrationConfig(
        steps=2, control_stride=2
    )
    report = gradient_check(dims, config, seed=args.seed)
    worst = max(report.values())
    for name, err in report.items():
        print(f"{name}: max relative error {_fmt(err)}")
    if worst < GRADCHECK_TOLERANCE:
        print(f"gradient check passed (worst {_fmt(worst)} < {GRADCHECK_TOLERANCE:g})")
        return 0
    print(f"gradient check FAILED (worst {_fmt(worst)} >= {GRADCHECK_TOLERANCE:g})")
    return 2


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(
        prog="gradreg",
        description="Symmetric deformable 3D registration via integrated "
                    "spatial-gradient fields.",
    )
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for batch registration (default 1)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress summary output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("register", help="optimize a deformation for a volume pair")
    p.add_argument("--fixed", help="fixed image volume")
    p.add_argument("--moving", help="moving image volume")
    p.add_argument("--fixed-labels", help="fixed label volume (optional)")
    p.add_argument("--moving-labels", help="moving label volume (optional)")
    p.add_argument("--config", required=True, help="registration config JSON")
    p.add_argument("--out-dir", help="output directory")
    p.add_argument("--pairs", help="batch manifest: JSON list of "
                                   "{fixed, moving, fixed_labels?, moving_labels?, out_dir}")
    p.add_argument("--inference-steps", type=int, default=None,
                   help="apply only the first N trained steps")
    p.set_defaults(func=_cmd_register)

    p = sub.add_parser("warp", help="apply a deformation field to a volume")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--image", help="image volume (trilinear sampling)")
    group.add_argument("--labels", help="label volume (nearest-neighbor sampling)")
    p.add_argument("--field", required=True, help="deformation field volume")
    p.add_argument("--out", required=True, help="output volume path")
    p.set_defaults(func=_cmd_warp)

    p = sub.add_parser("jacobian", help="Jacobian determinant map of a field")
    p.add_argument("--field", required=True, help="deformation field volume")
    p.add_argument("--out", required=True, help="output determinant volume path")
    p.add_argument("--sdlogj", action="store_true",
                   help="also print the std of the log determinant")
    p.set_defaults(func=_cmd_jacobian)

    p = sub.add_parser("metrics", help="evaluation metrics for a registered pair")
    p.add_argument("--fixed-labels", required=True)
    p.add_argument("--warped-labels", required=True)
    p.add_argument("--field", required=True, help="deformation field volume")
    p.add_argument("--labels", required=True, help="comma-separated label ids")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--pair-id", default="pair", help="identifier for CSV rows")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("phantom", help="generate a synthetic pair with ground truth")
    p.add_argument("--spec", required=True, help="phantom spec JSON")
    p.add_argument("--warp", required=True, help="analytic warp JSON")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("gradcheck", help="verify analytic gradients against "
                                         "finite differences")
    p.add_argument("--dims", default="5,5,5", help="volume dims, e.g. 5,5,5 (max 8)")
    p.add_argument("--config", help="registration config JSON (optional)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.jobs < 1:
            parser.error(f"argument --jobs: must be >= 1, got {args.jobs}")
        return args.func(args)
    except _REPORTED as e:
        code, message = _failure(e)
        print(message, file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())

"""The three benchmark workloads, their output checks and their metrics.

Each workload builds its inputs from a seed, runs rounds until the time
budget is spent, checks every output it produces and returns the end-to-end
metrics (medians over rounds) and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Layer functions are called through their modules so that the tracer's
# wrappers on the module attributes see every call.
from gradreg import cli, deform, engine, metrics, phantom, volume
from gradreg.deform import DeformationField
from gradreg.engine import RegistrationConfig
from gradreg.phantom import AnalyticWarp, PhantomSpec
from gradreg.volume import LabelVolume, Volume

from envinfo import THREAD_VARS
from tracing import Tracer, layer_metrics

LABELS = [1, 2, 3]
DEFAULT_SEED = 7           # the noise seed of the acceptance-criteria phantom

# (metric, unit, better) of every end-to-end metric, in report order
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("registration_s", "s", "lower"),
    ("iteration_s", "s", "lower"),
    ("pairs_per_s", "1/s", "higher"),
    ("mean_dice", "1", "higher"),
    ("sdlogj", "1", "lower"),
    ("final_loss", "1", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
SETUP_SAMPLES = 9          # setups timed per in-process run (median reported)
BATCH_DEADLINE_S = 150.0   # CLI calls still running this long after the batch started are killed


@dataclass(frozen=True)
class Workload:
    name: str
    dims: int
    steps: int
    labels: bool
    iterations: int
    pairs: int = 0         # > 0: a CLI batch of this many pairs
    jobs: int = 1          # worker processes for the batch register call


WORKLOADS = {
    w.name: w for w in (
        Workload("phantom48-s2", 48, steps=2, labels=True, iterations=3),
        Workload("unsup64-s1", 64, steps=1, labels=False, iterations=3),
        Workload("cli-batch32", 32, steps=2, labels=True, iterations=3, pairs=4, jobs=2),
    )
}


def phantom_spec(n: int, seed: int) -> dict:
    """The criterion-8 three-ellipsoid phantom, scaled from 48^3 to n^3."""
    s = n / 48.0
    ellipsoids = [((22, 22, 24), (12, 9, 10), 1, 1.0),
                  ((33, 30, 20), (5, 4, 6), 2, 0.6),
                  ((14, 32, 28), (4, 5, 4), 3, 0.8)]
    return {
        "dims": [n, n, n], "background": 0.0, "noise_sigma": 0.02, "seed": seed,
        "ellipsoids": [{"center": [c * s for c in center], "semi_axes": [r * s for r in axes],
                        "label": label, "intensity": value}
                       for center, axes, label, value in ellipsoids],
    }


def warp_spec(n: int, amplitude: float = 3.0) -> dict:
    """Sinusoidal x-shear; ``amplitude`` and wavelength 24 are in 48^3 voxels."""
    s = n / 48.0
    return {"kind": "sinusoidal", "amplitude": amplitude * s, "wavelength": 24.0 * s}


# amplitudes (48^3 voxels) of the batch pairs; pair i uses noise seed seed*16+i
BATCH_AMPLITUDES = (1.5, 2.0, 2.5, 3.0)


def batch_seed(seed: int, i: int) -> int:
    return seed * 16 + i


def config_for(w: Workload) -> RegistrationConfig:
    """Reference weights, stride 4, and a fixed budget: convergence is off."""
    return RegistrationConfig(steps=w.steps, iterations=w.iterations, convergence_tol=0.0)


# ---------------------------------------------------------------------------
# output checks


@dataclass
class Outcome:
    """Counts of checked operations; ``problems`` names each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def field_is_monotone(phi: DeformationField) -> bool:
    """Finite and strictly increasing along each component's own axis."""
    v = phi.values
    return bool(np.all(np.isfinite(v))
                and all(np.all(np.diff(v[a], axis=a) > 0.0) for a in range(3)))


def volume_reads_finite(path) -> bool:
    """The volume at ``path`` reads back and holds only finite values."""
    try:
        v = volume.read_volume(path)
    except (OSError, ValueError):
        return False
    data = v.labels if isinstance(v, LabelVolume) else v.data
    return bool(np.all(np.isfinite(data)))


def mean_identity_dice(fixed_labels: LabelVolume, moving_labels: LabelVolume) -> float:
    scores = [metrics.dice(fixed_labels, moving_labels, lb) for lb in LABELS]
    return math.fsum(scores) / len(scores)


def rewarp_max_abs(moving: np.ndarray, phi: np.ndarray, warped: np.ndarray) -> float:
    """Largest gap between re-warping with a saved field and the saved warp."""
    out = deform.warp(Volume(moving), DeformationField(phi))
    return float(np.max(np.abs(out.data - warped)))


def _f32(a: np.ndarray) -> np.ndarray:
    """Values as written to an f32 payload."""
    return a.astype(np.float32).astype(np.float64)


def peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _bits(*values: float) -> tuple:
    return tuple(float(v).hex() for v in values)


@dataclass
class Report:
    end_to_end: dict[str, float]
    per_layer: dict[str, float] | None    # only from a traced run
    outcome: Outcome
    rewarp_max_abs: float
    registration_times: list[float]       # per untraced round


def _keep_going(start: float, seconds: float, rounds: list[float], minimum: int) -> bool:
    """Another round if fewer than ``minimum`` ran or the next one fits the budget."""
    if len(rounds) < minimum:
        return True
    return time.perf_counter() - start + statistics.median(rounds) <= seconds


# ---------------------------------------------------------------------------
# in-process workloads


def build_inputs(w: Workload, seed: int):
    """Phantom pair plus one-hot segmentations (None when unsupervised)."""
    spec = PhantomSpec.from_json(json.dumps(phantom_spec(w.dims, seed)))
    pair = phantom.make_pair(spec, AnalyticWarp.from_json(json.dumps(warp_spec(w.dims))))
    segs = None
    if w.labels:
        segs = (volume.one_hot(pair.moving_labels, LABELS),
                volume.one_hot(pair.fixed_labels, LABELS))
    return pair, segs


def run_inprocess(w: Workload, seed: int, seconds: float, trace: bool) -> Report:
    outcome = Outcome()
    config = config_for(w)
    start = time.perf_counter()
    setup_times = []
    reference = None
    for _ in range(SETUP_SAMPLES - 1):
        t0 = time.perf_counter()
        pair, _ = build_inputs(w, seed)
        setup_times.append(time.perf_counter() - t0)
        if reference is None:
            reference = pair
        outcome.check(np.array_equal(pair.moving.data, reference.moving.data),
                      "setup: phantom inputs differ between repeats")
    identity_dice = mean_identity_dice(reference.fixed_labels, reference.moving_labels)

    round_times, reg_times = [], []
    quality = None
    rewarp = None
    traced_reg = None
    spans = None
    while _keep_going(start, seconds, round_times, 1 if trace else 2):
        tracer = Tracer() if trace and traced_reg is None else None
        with tracer or contextlib.nullcontext():
            t0 = time.perf_counter()
            pair, segs = build_inputs(w, seed)
            t1 = time.perf_counter()
            try:
                result = engine.register_pair(pair.moving, pair.fixed, config, segs=segs)
            except Exception as e:  # noqa: BLE001 - any raise is a failed registration
                outcome.check(False, f"registration raised {type(e).__name__}: {e}")
                round_times.append(time.perf_counter() - t0)
                continue
            t2 = time.perf_counter()
            warped_labels = deform.warp_labels(pair.moving_labels, result.phi_ab)
            pm = metrics.evaluate_pair(pair.fixed_labels, warped_labels, result.phi_ab,
                                       LABELS, pair.fixed.spacing_mm)
            t3 = time.perf_counter()
        if tracer is not None:
            traced_reg = t2 - t1
            spans = tracer.spans
        else:
            setup_times.append(t1 - t0)
            reg_times.append(t2 - t1)
            round_times.append(t3 - t0)

        outcome.check(True, "registration")
        outcome.check(all(np.isfinite(bd.total) for bd in result.trace),
                      "loss trace holds a non-finite total")
        outcome.check(result.iterations_run == w.iterations,
                      f"ran {result.iterations_run} iterations, budget {w.iterations}")
        outcome.check(field_is_monotone(result.phi_ab), "phi_ab not finite and monotone")
        outcome.check(field_is_monotone(result.phi_ba), "phi_ba not finite and monotone")
        outcome.check(pm.mean_dice is not None and pm.mean_dice > identity_dice,
                      f"mean Dice {pm.mean_dice} does not beat identity {identity_dice}")
        got = _bits(pm.mean_dice, pm.sdlogj, result.final.total)
        if quality is None:
            quality = got
            rewarp = rewarp_max_abs(pair.moving.data, _f32(result.phi_ab.values),
                                    _f32(result.a_warp.data))
        else:
            outcome.check(got == quality, "quality metrics differ between repeats")
        del result, pair, segs

    if not reg_times:
        raise RuntimeError("no registration completed: " + "; ".join(outcome.problems))
    mean_dice, sdlogj, final_loss = (float.fromhex(b) for b in quality)
    registration_s = statistics.median(reg_times)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "registration_s": registration_s,
        "iteration_s": registration_s / w.iterations,
        "pairs_per_s": 1.0 / statistics.median(round_times),
        "mean_dice": mean_dice,
        "sdlogj": sdlogj,
        "final_loss": final_loss,
        "peak_rss_mb": peak_rss_mb(),
    }
    per_layer = None
    if trace:
        per_layer = layer_metrics(spans)
        per_layer["trace.overhead_s"] = traced_reg - registration_s
        per_layer["cli.pool_speedup"] = 0.0
        per_layer["outputs.rewarp_max_abs"] = rewarp
    return Report(e2e, per_layer, outcome, rewarp, reg_times)


# ---------------------------------------------------------------------------
# CLI batch workload


class _Cli:
    """Runs ``gradreg`` subcommands as child processes of this one."""

    def __init__(self, src: Path, threads: int, nproc: int, outcome: Outcome):
        self.outcome = outcome
        self.deadline = time.perf_counter() + BATCH_DEADLINE_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.threads = threads
        self.nproc = nproc

    def __call__(self, argv: list[str], jobs: int = 1) -> str:
        env = dict(self.env)
        per_process = str(max(1, min(self.threads, self.nproc // jobs)))
        for var in THREAD_VARS:
            env[var] = per_process
        proc = subprocess.Popen([sys.executable, "-m", "gradreg.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
        self.outcome.check(proc.returncode == 0,
                           f"gradreg {' '.join(argv[:3])} exited {proc.returncode}: "
                           f"{err.strip()[-200:]}")
        return out


def _pair_dirs(root: Path, w: Workload):
    return [(root / f"pair{i}", root / f"out{i}") for i in range(w.pairs)]


def write_batch_inputs(run, root: Path, w: Workload, seed: int) -> None:
    """Phantom pairs made with ``gradreg phantom``, plus manifest and config."""
    root.mkdir(parents=True)
    cfg = config_for(w)
    (root / "config.json").write_text(cfg.to_json())
    manifest = []
    for i, (pair_dir, out_dir) in enumerate(_pair_dirs(root, w)):
        spec_path = root / f"spec{i}.json"
        warp_path = root / f"warp{i}.json"
        spec_path.write_text(json.dumps(phantom_spec(w.dims, batch_seed(seed, i))))
        warp_path.write_text(json.dumps(warp_spec(w.dims, BATCH_AMPLITUDES[i])))
        run(["--quiet", "phantom", "--spec", str(spec_path), "--warp", str(warp_path),
             "--out-dir", str(pair_dir)])
        manifest.append({
            "pair_id": f"pair{i}", "out_dir": str(out_dir),
            "moving": str(pair_dir / "moving"), "fixed": str(pair_dir / "fixed"),
            "moving_labels": str(pair_dir / "moving_labels"),
            "fixed_labels": str(pair_dir / "fixed_labels"),
        })
    (root / "manifest.json").write_text(json.dumps(manifest))


def register_batch(run, root: Path, jobs: int) -> None:
    run(["--quiet", "--jobs", str(jobs), "register", "--pairs", str(root / "manifest.json"),
         "--config", str(root / "config.json")], jobs=jobs)


def apply_batch(run, root: Path, w: Workload) -> list[str]:
    """Re-apply every saved moving->fixed field; returns the printed SDlogJ lines."""
    printed = []
    labels = ",".join(str(lb) for lb in LABELS)
    for pair_dir, out_dir in _pair_dirs(root, w):
        field_path = str(out_dir / "phi_moving_to_fixed")
        run(["warp", "--image", str(pair_dir / "moving"), "--field", field_path,
             "--out", str(out_dir / "rewarped_moving")])
        run(["warp", "--labels", str(pair_dir / "moving_labels"), "--field", field_path,
             "--out", str(out_dir / "rewarped_labels")])
        printed.append(run(["jacobian", "--field", field_path, "--out",
                            str(out_dir / "jacobian"), "--sdlogj"]).strip())
        run(["--quiet", "metrics", "--fixed-labels", str(pair_dir / "fixed_labels"),
             "--warped-labels", str(out_dir / "rewarped_labels"), "--field", field_path,
             "--labels", labels, "--out", str(out_dir / "applied_metrics.csv")])
    return printed


def _summary_rows(path: Path) -> list[dict]:
    try:
        with open(path, newline="") as fh:
            return [row for row in csv.DictReader(fh) if row["label"] == "summary"]
    except (OSError, KeyError):
        return []


def check_batch_outputs(root: Path, w: Workload, printed: list[str],
                        outcome: Outcome) -> dict[str, float] | None:
    """Check every written output; returns the batch quality numbers."""
    for path in sorted(root.rglob("*.json")):
        if path.with_suffix(".raw").exists():
            outcome.check(volume_reads_finite(path), f"{path.name} does not read back finite")
    dices, sdlogjs, losses, rewarps = [], [], [], []
    for i, (pair_dir, out_dir) in enumerate(_pair_dirs(root, w)):
        outcome.check(len(_summary_rows(out_dir / "metrics.csv")) == 2,
                      f"pair{i}: metrics.csv lacks its before/after summary rows")
        applied = _summary_rows(out_dir / "applied_metrics.csv")
        if not outcome.check(len(applied) == 1, f"pair{i}: applied metrics lack a summary"):
            continue
        dices.append(float(applied[0]["mean_dice"]))
        sdlogjs.append(float(applied[0]["sdlogj"]))
        outcome.check(i < len(printed) and printed[i] == f"{sdlogjs[-1]:.6g}",
                      f"pair{i}: jacobian --sdlogj disagrees with metrics")
        try:
            with open(out_dir / "loss_trace.csv", newline="") as fh:
                totals = [float(row["total"]) for row in csv.DictReader(fh)]
            rewarped = volume.read_volume(out_dir / "rewarped_moving").data
            saved = volume.read_volume(out_dir / "warped_moving").data
            field_ok = field_is_monotone(
                deform.volume_to_field(volume.read_volume(out_dir / "phi_moving_to_fixed")))
        except (OSError, ValueError, KeyError) as e:
            outcome.check(False, f"pair{i}: outputs unreadable: {e}")
            continue
        outcome.check(len(totals) == w.iterations and all(map(math.isfinite, totals)),
                      f"pair{i}: loss trace has {len(totals)} rows or a non-finite total")
        outcome.check(field_ok, f"pair{i}: saved field not finite and monotone")
        identity = mean_identity_dice(volume.read_volume(pair_dir / "fixed_labels"),
                                      volume.read_volume(pair_dir / "moving_labels"))
        outcome.check(dices[-1] > identity,
                      f"pair{i}: mean Dice {dices[-1]} does not beat identity {identity}")
        losses.append(totals[-1])
        rewarps.append(float(np.max(np.abs(rewarped - saved))))
    if len(dices) != w.pairs or len(losses) != w.pairs:
        return None
    return {"mean_dice": math.fsum(dices) / w.pairs, "sdlogj": math.fsum(sdlogjs) / w.pairs,
            "final_loss": math.fsum(losses) / w.pairs, "rewarp_max_abs": max(rewarps)}


class _InProcessCli:
    """Runs ``gradreg`` subcommands through ``cli.main`` in this process."""

    def __init__(self, outcome: Outcome):
        self.outcome = outcome

    def __call__(self, argv: list[str], jobs: int = 1) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        self.outcome.check(code == 0, f"gradreg {' '.join(argv[:3])} exited {code}")
        return buf.getvalue()


def run_batch(w: Workload, seed: int, seconds: float, trace: bool, root: Path,
              src: Path, threads: int, nproc: int) -> Report:
    outcome = Outcome()
    run = _Cli(src, threads, nproc, outcome)
    start = time.perf_counter()
    setup_times, reg_times, round_times = [], [], []
    quality = None
    try:
        while _keep_going(start, seconds, round_times, 2):
            work = root / f"round{len(round_times)}"
            t0 = time.perf_counter()
            write_batch_inputs(run, work, w, seed)
            t1 = time.perf_counter()
            register_batch(run, work, w.jobs)
            t2 = time.perf_counter()
            printed = apply_batch(run, work, w)
            t3 = time.perf_counter()
            setup_times.append(t1 - t0)
            reg_times.append(t2 - t1)
            round_times.append(t3 - t0)
            got = check_batch_outputs(work, w, printed, outcome)
            if got is not None:
                if quality is None:
                    quality = got
                else:
                    outcome.check(_bits(*got.values()) == _bits(*quality.values()),
                                  "batch quality differs between repeats")
            shutil.rmtree(work)
        # one more setup so that setup_s is a median of at least three
        if len(setup_times) < 3:
            t0 = time.perf_counter()
            write_batch_inputs(run, root / "setup", w, seed)
            setup_times.append(time.perf_counter() - t0)
            shutil.rmtree(root / "setup")

        per_layer = None
        if trace:
            per_layer = _traced_batch(w, seed, root, statistics.median(reg_times), outcome)
            per_layer["outputs.rewarp_max_abs"] = quality["rewarp_max_abs"] if quality else 0.0
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if quality is None:
        raise RuntimeError("no batch round produced checked outputs: "
                           + "; ".join(outcome.problems))
    registration_s = statistics.median(reg_times) / w.pairs
    e2e = {
        "setup_s": statistics.median(setup_times),
        "registration_s": registration_s,
        "iteration_s": registration_s / w.iterations,
        "pairs_per_s": w.pairs / statistics.median(round_times),
        "mean_dice": quality["mean_dice"],
        "sdlogj": quality["sdlogj"],
        "final_loss": quality["final_loss"],
        "peak_rss_mb": peak_rss_mb(),
    }
    return Report(e2e, per_layer, outcome, quality["rewarp_max_abs"], reg_times)


def _traced_batch(w: Workload, seed: int, root: Path, pool_register_s: float,
                  outcome: Outcome) -> dict[str, float]:
    """The batch once more in this process at ``--jobs 1``, traced.

    Then its register call once untraced, for the tracing overhead.
    """
    work = root / "traced"
    run = _InProcessCli(outcome)
    with Tracer() as tracer:
        write_batch_inputs(run, work, w, seed)
        t0 = time.perf_counter()
        register_batch(run, work, 1)
        traced_register_s = time.perf_counter() - t0
        printed = apply_batch(run, work, w)
    check_batch_outputs(work, w, printed, outcome)
    t0 = time.perf_counter()
    register_batch(run, work, 1)
    untraced_register_s = time.perf_counter() - t0
    out = layer_metrics(tracer.spans)
    serial = sum(s[2] - s[1] for s in tracer.spans if s[0] == "engine.register_pair")
    out["cli.pool_speedup"] = serial / pool_register_s
    out["trace.overhead_s"] = traced_register_s - untraced_register_s
    return out

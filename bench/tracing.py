"""In-memory span tracer that wraps gradreg's public functions from outside.

Entering a ``Tracer`` replaces every public function of the traced layers
with a timing wrapper, both on its defining module and on every ``gradreg`` module
that imported it by name (``engine`` holds ``loss_total``, ``cli`` holds
``register_pair`` and the volume I/O functions).  Leaving it puts the
originals back.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent, note]``; ``parent`` is the index of the
enclosing span or -1, ``note`` a small per-call detail (channel count, bytes
implied by the argument shapes, CLI subcommand) computed at call time so that
no array is kept alive.  Calls are single-threaded, so child spans never
overlap and a span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

LAYERS = ("phantom", "volume", "deform", "losses", "engine", "metrics", "cli")

# deform entry points that run a trilinear gather or scatter
SAMPLING = ("upsample", "warp", "compose", "vjp_warp", "vjp_warp_both", "vjp_compose",
            "vjp_upsample", "vjp_warp_image")

F64 = 8


def _voxels(dims) -> int:
    return int(np.prod(tuple(dims)))


def _gather_bytes(n: int, c: int) -> int:
    # coordinates in, 8 corner reads per channel, one value out per channel
    return F64 * n * (3 + 9 * c)


def _coord_vjp_bytes(n: int, c: int) -> int:
    # coordinates and upstream in, 8 corner reads per channel, coordinate grad out
    return F64 * n * (6 + 9 * c)


def _fused_vjp_bytes(n: int, c: int) -> int:
    # as above plus 8 scatter-adds per channel for the values grad
    return F64 * n * (6 + 17 * c)


def _values_vjp_bytes(n: int, c: int) -> int:
    # coordinates and upstream in, 8 scatter-adds per channel
    return F64 * n * (3 + 9 * c)


def _deform_note(name, args):
    """(channels, computed bytes) of a sampling call, from its argument shapes."""
    if name == "upsample":
        return 3, _gather_bytes(_voxels(args[1]), 3)
    if name == "warp":
        return args[0].channels, _gather_bytes(_voxels(args[1].dims), args[0].channels)
    if name == "compose":
        return 3, _gather_bytes(_voxels(args[1].dims), 3)
    if name == "vjp_warp":
        return args[0].channels, _coord_vjp_bytes(_voxels(args[1].dims), args[0].channels)
    if name == "vjp_warp_both":
        return args[0].channels, _fused_vjp_bytes(_voxels(args[1].dims), args[0].channels)
    if name == "vjp_compose":
        return 3, _fused_vjp_bytes(_voxels(args[1].dims), 3)
    if name == "vjp_upsample":
        return 3, _values_vjp_bytes(_voxels(args[0].shape[1:]), 3)
    if name == "vjp_warp_image":
        c = args[1].shape[0]
        return c, _values_vjp_bytes(_voxels(args[1].shape[1:]), c)
    return None


def _volume_bytes(v) -> int:
    if hasattr(v, "labels"):
        return v.labels.size * 2
    return v.data.size * (4 if v.dtype == "f32" else 8)


def _cli_subcommand(argv) -> str | None:
    return next((tok for tok in (argv or sys.argv[1:]) if not tok.startswith("-")
                 and not tok.isdigit()), None)


class Tracer:
    """Collects spans while entered as a context manager; see the module docstring."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        layer, short = name.split(".", 1)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            note = None
            if layer == "deform" and short in SAMPLING:
                note = _deform_note(short, args)
            elif name == "volume.write_volume":
                note = _volume_bytes(args[0])
            elif name == "cli.main":
                note = _cli_subcommand(args[0] if args else kwargs.get("argv"))
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1, note])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if name == "volume.read_volume":
                spans[index][4] = _volume_bytes(result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"gradreg.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "gradreg" and not mod_name.startswith("gradreg."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# spans -> per-layer metrics


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _within(spans, roots: set[int]) -> list[bool]:
    """Whether each span is one of ``roots`` or nested under one."""
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        inside[i] = i in roots or (s[3] >= 0 and inside[s[3]])
    return inside


def _median_ms(durations) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


# (metric, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    [(f"deform.{n}.ms", "ms", "lower") for n in (
        "upsample", "vjp_upsample", "activate", "integrate", "vjp_activate",
        "vjp_integrate", "compose", "vjp_compose", "vjp_warp", "warp_labels",
        "jacobian_det", "warp_1ch", "warp_3ch", "vjp_warp_both_1ch",
        "vjp_warp_both_3ch")]
    + [("deform.self_share", "1", "lower"),
       ("deform.sample_gbytes_per_s", "GB/s", "higher"),
       ("deform.sample_calls_per_iter", "count", "lower")]
    + [(f"losses.{n}.ms", "ms", "lower") for n in (
        "loss_sim", "loss_seg", "loss_reg", "loss_jac", "loss_inv", "loss_total")]
    + [("losses.loss_inv.share", "1", "lower"),
       ("engine.multistep_forward.ms", "ms", "lower"),
       ("engine.backward_ms_per_iter", "ms", "lower"),
       ("engine.self_ms_per_iter", "ms", "lower"),
       ("engine.iterations_run", "count", "higher"),
       ("phantom.make_pair.ms", "ms", "lower"),
       ("phantom.make_phantom.ms", "ms", "lower")]
    + [(f"volume.{n}.ms", "ms", "lower") for n in ("write_volume", "read_volume", "one_hot")]
    + [("volume.write_mb_per_s", "MB/s", "higher"),
       ("volume.read_mb_per_s", "MB/s", "higher")]
    + [(f"metrics.{n}.ms", "ms", "lower") for n in ("evaluate_pair", "hd95", "sdlogj")]
    + [("cli.phantom.s", "s", "lower"), ("cli.register.s", "s", "lower"),
       ("cli.apply.s", "s", "lower"), ("cli.pool_speedup", "1", "higher"),
       ("trace.overhead_s", "s", "lower"),
       ("outputs.rewarp_max_abs", "intensity", "lower")]
)

_CLI_PHASES = {"phantom": "phantom", "register": "register", "warp": "apply",
               "jacobian": "apply", "metrics": "apply"}


def layer_metrics(spans) -> dict[str, float]:
    """Every span-derived per-layer metric; a layer never called reports 0.

    ``.ms`` entries are the median inclusive duration per call over the whole
    traced pass.  Shares, sampling throughput and per-iteration figures are
    taken over the ``engine.register_pair`` spans only.
    """
    names = [s[0] for s in spans]
    dur = [s[2] - s[1] for s in spans]
    own = self_times(spans)
    out: dict[str, float] = {}

    def calls(name, note=None):
        return [dur[i] for i, s in enumerate(spans)
                if names[i] == name
                and (note is None or s[4] is not None and s[4][0] == note)]

    for metric, _, _ in PER_LAYER:
        if not metric.endswith(".ms"):
            continue
        layer, short = metric[:-3].split(".", 1)
        for suffix, channels in (("_1ch", 1), ("_3ch", 3)):
            if short.endswith(suffix):
                out[metric] = _median_ms(calls(f"{layer}.{short[:-4]}", channels))
                break
        else:
            out[metric] = _median_ms(calls(f"{layer}.{short}"))

    reg_roots = {i for i, n in enumerate(names) if n == "engine.register_pair"}
    in_reg = _within(spans, reg_roots)
    reg_time = sum(dur[i] for i in reg_roots)
    deform_self = sum(own[i] for i, n in enumerate(names)
                      if in_reg[i] and n.startswith("deform."))
    inv_time = sum(dur[i] for i, n in enumerate(names)
                   if in_reg[i] and n == "losses.loss_inv")
    sampling = [i for i, n in enumerate(names)
                if in_reg[i] and n.startswith("deform.") and n[7:] in SAMPLING]
    sample_self = sum(own[i] for i in sampling)
    out["deform.self_share"] = deform_self / reg_time if reg_time else 0.0
    out["losses.loss_inv.share"] = inv_time / reg_time if reg_time else 0.0
    out["deform.sample_gbytes_per_s"] = (
        sum(spans[i][4][1] for i in sampling) / sample_self / 1e9 if sample_self else 0.0)

    # An iteration runs from one multistep_forward inside optimize to the next;
    # the last one optimize makes is the final forward after the loop.
    per_iter_calls, backward, iterations = [], [], []
    optimize_self = 0.0
    sample_starts = sorted(spans[i][1] for i in sampling)
    for root, name in enumerate(names):
        if name != "engine.optimize":
            continue
        optimize_self += own[root]
        forwards = [f for f in spans if f[3] == root and f[0] == "engine.multistep_forward"]
        iterations.append(len(forwards) - 1)
        for cur, nxt in zip(forwards, forwards[1:]):
            per_iter_calls.append(sum(cur[1] <= t < nxt[1] for t in sample_starts))
            backward.append((nxt[1] - cur[1]) - (cur[2] - cur[1]))
    total_iters = sum(iterations)
    out["deform.sample_calls_per_iter"] = (
        float(statistics.median(per_iter_calls)) if per_iter_calls else 0.0)
    out["engine.backward_ms_per_iter"] = _median_ms(backward)
    out["engine.self_ms_per_iter"] = 1e3 * optimize_self / total_iters if total_iters else 0.0
    out["engine.iterations_run"] = float(statistics.median(iterations)) if iterations else 0.0

    for kind, metric in (("write", "volume.write_mb_per_s"), ("read", "volume.read_mb_per_s")):
        idx = [i for i, n in enumerate(names) if n == f"volume.{kind}_volume"]
        seconds = sum(dur[i] for i in idx)
        out[metric] = sum(spans[i][4] for i in idx) / seconds / 1e6 if seconds else 0.0

    phase_time = {"phantom": 0.0, "register": 0.0, "apply": 0.0}
    for i, n in enumerate(names):
        if n == "cli.main" and spans[i][3] < 0 and spans[i][4] in _CLI_PHASES:
            phase_time[_CLI_PHASES[spans[i][4]]] += dur[i]
    pairs = sum(1 for i, n in enumerate(names)
                if n == "cli.main" and spans[i][4] == "phantom")
    for phase, seconds in phase_time.items():
        out[f"cli.{phase}.s"] = seconds / pairs if pairs else 0.0
    return out

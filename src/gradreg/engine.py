"""Symmetric registration optimizer.

A single antisymmetric parameter field per refinement step drives both warp
directions: the positive field generates the A-to-B deformation, its negation
the B-to-A one, so swapping the inputs and negating the parameters exchanges
the two directions exactly.  Each step re-registers the previously warped
volumes onto the original targets; the objective is the sum of the five-term
loss over all steps.  A forward pass is its steps and their summed loss.  One
final pass turns the optimized deltas into the registration result, a plain
value: the composition of the step fields, the inputs warped once with it (so
re-applying a saved field reproduces the saved warp, while the losses saw the
sequential per-step warps), the final loss and the history.

The forward pass computes values only and keeps the loss pullbacks; the
backward pass runs them.  Gradients are exact reverse-mode vector-Jacobian
products chained through warp -> integrate -> activate -> upsample for every
step and direction, including the finite-difference determinant path of the
Jacobian penalty and the composition path of the inverse-consistency penalty.
Each step field gets one adjoint sweep over everything sampled at it, and all
of it is double precision and bit-deterministic for fixed inputs and config.
The two directions of a step share little, so with a second core each stage
runs them side by side, direction 1 on a thread of its own; the bits do not
depend on the core count.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import threading
from collections.abc import Callable
from dataclasses import astuple, dataclass, field, fields, replace

import numpy as np

from . import deform
from .deform import DeformationField, GradientField, PreActivationField
from .losses import LossBreakdown, LossWeights, direction_terms, sum_directions
from .volume import LabelVolume, Volume, one_hot, read_keys


class DivergenceError(RuntimeError):
    """Raised when the objective or the parameters turn non-finite; carries the loss trace."""

    def __init__(self, message: str, trace: list[LossBreakdown]):
        super().__init__(message)
        self.trace = trace


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8

# Cores this process may run on; a ``gradreg register --jobs`` worker gets its share.
CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)
# Smaller fields run their directions on one thread: their numpy calls are too
# short to leave the interpreter lock to the other thread for long, and two
# threads took longer (on 2 cores, steps=2: 1.15x at 20^3, 0.9x from 24^3 on).
THREAD_MIN_VOXELS = 16384


@functools.cache
def _one_malloc_arena() -> None:
    """Have glibc's malloc serve every thread from its main arena.

    A thread that starts before the last one has handed back its arena gets
    a new one, and each arena keeps the freed arrays it served: phantom48-s2
    then stepped up by 14-18 MB of RSS at a random round (2 of 4 runs of 25
    rounds; none in one arena, nor on one thread).  Elsewhere this is a no-op.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-8, 1)  # M_ARENA_MAX


def _both(fn: Callable, voxels: int):
    """``(fn(0), fn(1))``, for fields of ``voxels`` voxels; direction 1 runs on a
    second thread if there is a second core and the fields are large enough.

    The thread lives for this call only (a forked process inherits no pool)
    and is always joined; an error of either direction is raised here.  The
    two directions share no mutable state, so the results do not depend on
    the core count.
    """
    if CORES < 2 or voxels < THREAD_MIN_VOXELS:
        return fn(0), fn(1)
    _one_malloc_arena()
    out, errors = [None, None], []

    def second():
        try:
            out[1] = fn(1)
        except BaseException as e:  # noqa: BLE001 - raised again on the calling thread
            errors.append(e)

    thread = threading.Thread(target=second)
    thread.start()
    try:
        out[0] = fn(0)
    finally:
        thread.join()
    if errors:
        raise errors[0]
    return out[0], out[1]


@dataclass(frozen=True)
class RegistrationConfig:
    weights: LossWeights = field(default_factory=LossWeights)
    steps: int = 2
    iterations: int = 500
    learning_rate: float = 1e-2
    control_stride: int = 4
    convergence_tol: float = 1e-6

    def __post_init__(self):
        for key, ok, need in (
                ("steps", self.steps >= 1, ">= 1"),
                ("iterations", self.iterations >= 0, ">= 0"),
                ("learning_rate", 0 < self.learning_rate < math.inf, "finite and > 0"),
                ("control_stride", self.control_stride >= 1, ">= 1"),
                ("convergence_tol", math.isfinite(self.convergence_tol), "finite")):
            if not ok:
                raise ValueError(f"config key {key!r} must be {need}, got {getattr(self, key)}")

    def _flat(self) -> dict:
        """The weights' fields, then every other field, as one flat mapping."""
        flat = {f.name: getattr(self.weights, f.name) for f in fields(LossWeights)}
        flat.update((f.name, getattr(self, f.name)) for f in fields(self)
                    if f.name != "weights")
        return flat

    def to_json(self) -> str:
        return json.dumps(self._flat())

    @classmethod
    def from_json(cls, text: str) -> "RegistrationConfig":
        """Parse a flat JSON object; omitted keys take the defaults.

        ``seed`` is accepted and ignored: initialization is all zeros.
        """
        keys = {key: (type(d), d) for key, d in cls()._flat().items()}
        values = read_keys("config", json.loads(text), dict(keys, seed=(object, None)))
        del values["seed"]
        weights = LossWeights(**{f.name: values.pop(f.name) for f in fields(LossWeights)})
        return cls(weights=weights, **values)


@dataclass
class StepForward:
    """What the backward pass reads of one refinement step.

    ``gs`` (the activated gradient fields, which ``vjp_activate`` and the reg
    pullback read) and ``phis`` are pairs in direction order (A-to-B, B-to-A),
    as are ``terms``, each direction's five ``(value, pullback)`` pairs from
    ``direction_terms`` (no pullback for a term of weight 0), and ``sampled``,
    what each direction's field sampled in its one gather, in order: the
    image, any one-hot labels, then the other field's values.  A step's warps
    are the next step's sampled volumes; the last step's are the run's.
    """

    gs: tuple[GradientField, GradientField]
    phis: tuple[DeformationField, DeformationField]
    breakdown: LossBreakdown
    terms: tuple[list[tuple], list[tuple]]
    sampled: tuple[list[np.ndarray], list[np.ndarray]]


def _check_pair(a: Volume, b: Volume, segs) -> None:
    if a.dims != b.dims or a.channels != b.channels:
        raise ValueError(
            f"volumes must share dims and channels: {a.data.shape} vs {b.data.shape}"
        )
    if segs is not None:
        a_seg, b_seg = segs
        if a_seg.dims != a.dims or b_seg.dims != b.dims:
            raise ValueError("segmentation dims must match image dims")
        if a_seg.channels != b_seg.channels:
            raise ValueError(
                f"segmentations must share channels: {a_seg.channels} vs {b_seg.channels}"
            )


@dataclass
class MultistepForward:
    """All steps of one forward pass, their summed loss and the last step's
    warps: per direction, the warped image, then any warped one-hot labels."""

    steps: list[StepForward]
    breakdown: LossBreakdown
    warps: tuple[tuple[Volume, ...], tuple[Volume, ...]]


@dataclass
class RegistrationResult:
    """The final forward pass's exposed fields, warps and loss, its deltas, the history."""

    phi_ab: DeformationField
    phi_ba: DeformationField
    a_warp: Volume
    b_warp: Volume
    final: LossBreakdown
    deltas: list[PreActivationField]
    trace: list[LossBreakdown]
    iterations_run: int
    converged: bool


def _direction_fields(x: PreActivationField, d: int):
    """Direction d's gradient field and deformation, from +x (A-to-B) or -x (B-to-A)."""
    g = deform.activate(x if d == 0 else PreActivationField(-x.values, stride=1))
    return g, deform.integrate(g)


def _direction_loss(phis, d: int, volumes, targets, g, weights: LossWeights):
    """Direction d's warps of ``volumes`` (the image, then any one-hot labels),
    what its field sampled and its five loss terms against ``targets``, the
    pullback of a term of weight 0 dropped with what it kept.  One gather at its
    field samples the volumes and the other field, the outer map of its loss_inv
    composition."""
    sampled = [v.data for v in volumes] + [phis[1 - d].values]
    *outs, composed = deform.sample(phis[d], sampled)
    warped = tuple(replace(v, data=out) for v, out in zip(volumes, outs))
    (warp, *seg_warp), (target, *seg_target) = warped, targets
    terms = direction_terms(warp, target, g, phis[d], composed, *seg_warp, *seg_target)
    return warped, sampled, [(v, pb if w else None) for w, (v, pb) in zip(astuple(weights), terms)]


def multistep_forward(a: Volume, b: Volume, deltas: list[PreActivationField],
                      weights: LossWeights, segs=None) -> MultistepForward:
    """Run every refinement step; each re-warps the previous step's output.

    Each step generates the A-to-B direction from +delta and the B-to-A
    direction from -delta, so swapping the inputs and negating the deltas
    yields the exact mirror.  Each field is sampled at once by one gather: the
    previous warped image, the previous warped one-hot labels and the other
    field, the outer map of its loss_inv composition.  The loss applies to
    every step's warped volumes against the original targets and the step
    totals add up.  Each step keeps what the backward pass reads, the run the
    last step's warps.  The two directions of a step run side by side
    (``_both``): first their fields, then their warps and loss terms.
    """
    if not deltas:
        raise ValueError("at least one parameter field is required")
    _check_pair(a, b, segs)
    volumes = [(a,), (b,)] if segs is None else list(zip((a, b), segs))
    targets = [(b,), (a,)] if segs is None else list(zip((b, a), segs[::-1]))
    steps: list[StepForward] = []
    voxels = math.prod(a.dims)
    for delta in deltas:
        x = deform.upsample(delta, a.dims)
        gs, phis = zip(*_both(lambda d: _direction_fields(x, d), voxels))
        volumes, sampled, terms = zip(*_both(
            lambda d: _direction_loss(phis, d, volumes[d], targets[d], gs[d], weights), voxels))
        steps.append(StepForward(gs, phis, sum_directions(terms, weights), terms, sampled))
    breakdown = LossBreakdown(*(sum(getattr(s.breakdown, f.name) for s in steps)
                                for f in fields(LossBreakdown)))
    return MultistepForward(steps, breakdown, volumes)


def _cotangent(terms: list[tuple | None], i: int, w: float) -> np.ndarray | None:
    """Term ``i`` of one direction's ``terms`` as a cotangent scaled in place by its
    weight ``w``; None without a pullback, as where ``w`` is 0.  The term leaves
    the list, so its pullback runs once and is released with what it kept."""
    _, pullback = terms[i]
    terms[i] = None
    if pullback is None:
        return None
    cot = pullback()
    cot *= w
    return cot


def _backward(run: MultistepForward, deltas: list[PreActivationField],
              weights: LossWeights) -> list[np.ndarray]:
    """Reverse-mode chain through every step of ``run``, back to each parameter
    field.  It consumes the run: the last warps go before the first sweep, as
    no stage reads them, and each step's record once its turn is done.

    One sweep at direction d's field carries the sim, seg and inv cotangents,
    those of what it sampled (``step.sampled[d]``): the warped image, the warped
    labels and the other field, the outer map of its loss_inv composition.  The
    two directions run side by side (``_both``) twice per step: their sweeps,
    then, as each needs the value gradient of the other's composition, the
    chain back through integrate and activate, which forms the jac cotangent
    just before it adds it and the reg one just after ``vjp_integrate``.
    """
    ws = astuple(weights)
    steps, run.warps = run.steps, None
    carry: list[list[np.ndarray | None]] = [[], []]
    grads: list[np.ndarray | None] = [None] * len(steps)
    voxels = math.prod(steps[0].phis[0].dims)
    for k in reversed(range(len(steps))):
        step = steps.pop()

        def sweep(d: int):
            """The coordinate gradient at direction d's field, and the value
            gradients of the other field and of what it warped; the latter only
            matter if an earlier step warped it."""
            sim, seg, inv = (_cotangent(step.terms[d], i, ws[i]) for i in (0, 1, 4))
            ups = [sim, inv] if len(step.sampled[d]) == 2 else [sim, seg, inv]
            for up, g in zip(ups, carry[d]):
                if up is not None:
                    up += g
            gphi, values = deform.vjp_sample(step.phis[d], step.sampled[d], ups,
                                             [k > 0] * (len(ups) - 1) + [True])
            *carry[d], outer = values
            return gphi, outer

        def chain(d: int) -> np.ndarray:
            """Direction d's coordinate gradient back to the upsampled field.  Each
            array goes once added; only thread d takes ``gphis[d]`` and
            ``outers[1 - d]``, the other composition's value gradient."""
            gphi = gphis[d]
            if outers[1 - d] is not None:
                gphi += outers[1 - d]
            gphis[d] = outers[1 - d] = None
            jac = _cotangent(step.terms[d], 3, ws[3])
            if jac is not None:
                gphi += jac
            del jac
            gg = deform.vjp_integrate(gphi)
            del gphi
            reg = _cotangent(step.terms[d], 2, ws[2])
            if reg is not None:
                gg += reg
            del reg
            return deform.vjp_activate(step.gs[d].values, gg)

        gphis, outers = map(list, zip(*_both(sweep, voxels)))
        gx, gx_ba = _both(chain, voxels)
        gx -= gx_ba
        grads[k] = deform.vjp_upsample(gx, deltas[k].stride, deltas[k].control_dims)
        del gx, gx_ba  # nothing of this step reaches the next one
    return grads


def objective_and_gradient(a: Volume, b: Volume, deltas: list[PreActivationField],
                           config: RegistrationConfig, segs=None):
    """Total multistep loss and its exact gradient w.r.t. every delta field."""
    run = multistep_forward(a, b, deltas, config.weights, segs=segs)
    grads = _backward(run, deltas, config.weights)
    return run.breakdown.total, grads


def _adam(a: Volume, b: Volume, config: RegistrationConfig,
          segs) -> tuple[list[PreActivationField], list[LossBreakdown], bool]:
    """The Adam loop: the optimized deltas, the loss trace and whether it converged."""
    shape = (3,) + deform.control_dims_for(a.dims, config.control_stride)
    # every step starts at the identity deformation
    deltas = [PreActivationField(np.zeros(shape), stride=config.control_stride)
              for _ in range(config.steps)]
    m = [np.zeros(shape) for _ in deltas]
    v = [np.zeros(shape) for _ in deltas]
    trace: list[LossBreakdown] = []
    beta1, beta2 = ADAM_BETAS
    for t in range(1, config.iterations + 1):
        run = multistep_forward(a, b, deltas, config.weights, segs=segs)
        trace.append(run.breakdown)
        if not np.isfinite(run.breakdown.total):
            raise DivergenceError(f"objective became non-finite at iteration {t - 1}", trace)
        grads = _backward(run, deltas, config.weights)
        for k, g in enumerate(grads):
            with np.errstate(all="ignore"):  # the finiteness check below reports an overflow
                m[k] = beta1 * m[k] + (1.0 - beta1) * g
                v[k] = beta2 * v[k] + (1.0 - beta2) * (g * g)
                m_hat = m[k] / (1.0 - beta1**t)
                v_hat = v[k] / (1.0 - beta2**t)
                update = config.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                values = deltas[k].values - update
            if not np.all(np.isfinite(values)):  # as they are where the update is not
                raise DivergenceError(f"parameters became non-finite at update {t}", trace)
            deltas[k] = PreActivationField(values, stride=config.control_stride)
        del run, grads  # free this iteration's arrays before the next forward
        if len(trace) >= 11:
            ref = trace[-11].total
            if abs(trace[-1].total - ref) < config.convergence_tol * max(abs(ref), 1e-300):
                return deltas, trace, True
    return deltas, trace, False


def _final_pass(a: Volume, b: Volume, deltas: list[PreActivationField],
                config: RegistrationConfig, segs, trace: list[LossBreakdown],
                converged: bool) -> RegistrationResult:
    """The result of one forward pass over ``deltas``: the composed step fields
    and the inputs warped once with them (with one step, the step's own).

    No backward pass follows, so the run goes, with its pullbacks and their
    residual arrays, once its fields, loss and any warps it serves are read.
    """
    run = multistep_forward(a, b, deltas, config.weights, segs=segs)
    if not np.isfinite(run.breakdown.total):
        raise DivergenceError("objective became non-finite after the last update", trace)
    step_phis = [[s.phis[d] for s in run.steps] for d in (0, 1)]
    warps = [w for w, *_ in run.warps] if len(deltas) == 1 else None
    breakdown = run.breakdown
    del run
    phis = [functools.reduce(deform.compose, p) for p in step_phis]
    if warps is None:
        warps = [deform.warp(v, phi) for v, phi in zip((a, b), phis)]
    return RegistrationResult(*phis, *warps, breakdown, deltas, trace, len(trace), converged)


def optimize(a: Volume, b: Volume, config: RegistrationConfig,
             segs=None) -> RegistrationResult:
    """Adam-optimize the per-step parameter fields for one volume pair.

    Runs for ``config.iterations`` iterations or until the relative change of
    the total loss over a 10-iteration window drops below the convergence
    tolerance, then builds the result in one final forward pass.
    Bit-reproducible for identical inputs and config.
    """
    deltas, trace, converged = _adam(a, b, config, segs)
    return _final_pass(a, b, deltas, config, segs, trace, converged)


def register_pair(a: Volume, b: Volume, config: RegistrationConfig, segs=None,
                  inference_steps: int | None = None) -> RegistrationResult:
    """Optimize a pair end to end and assemble the final fields and warps.

    ``inference_steps`` may be lower than the trained step count to apply only
    the leading refinement steps; exceeding it is rejected since there are no
    trained parameter fields beyond it.
    """
    if inference_steps is not None and not 1 <= inference_steps <= config.steps:
        raise ValueError(
            f"inference steps must be in [1, {config.steps}], got {inference_steps}"
        )
    if inference_steps is None or inference_steps == config.steps:
        return optimize(a, b, config, segs=segs)
    deltas, trace, converged = _adam(a, b, config, segs)
    return _final_pass(a, b, deltas[:inference_steps], config, segs, trace, converged)


def gradient_check(dims, config: RegistrationConfig, seed: int = 0) -> dict[str, float]:
    """Compare analytic gradients against central finite differences.

    Builds a random registration instance of the given (small) dims and
    reports, per loss term and for the combined configured weights, the
    maximum absolute gradient deviation relative to the largest
    finite-difference entry.  Degenerate all-zero comparisons report 0.
    One probe pair per coordinate, under the configured weights, serves
    every report through its breakdown row: a term's value does not depend
    on the weights and is the exact total of weighting it alone.
    """
    dims = tuple(int(n) for n in dims)
    rng = np.random.default_rng(seed)
    a = Volume(rng.uniform(0.0, 1.0, (1,) + dims), dtype="f64")
    b = Volume(rng.uniform(0.0, 1.0, (1,) + dims), dtype="f64")
    segs = tuple(one_hot(LabelVolume(rng.integers(0, 3, dims)), [1, 2]) for _ in range(2))
    control = deform.control_dims_for(dims, config.control_stride)
    deltas = [PreActivationField(rng.normal(0.0, 1.5, (3,) + control),
                                 stride=config.control_stride) for _ in range(config.steps)]
    h = 1e-6

    def probe(k: int, i: int, step: float) -> tuple:
        bumped = deltas[k].values.copy()
        bumped.flat[i] += step
        trial = list(deltas)
        trial[k] = PreActivationField(bumped, stride=deltas[k].stride)
        return astuple(multistep_forward(a, b, trial, config.weights, segs=segs).breakdown)

    # fds[k][row]: field k's central difference of breakdown row ``row``, in its shape
    fds = [np.stack([np.subtract(probe(k, i, h), probe(k, i, -h)) / (2.0 * h)
                     for i in range(d.values.size)], axis=1).reshape((-1,) + d.values.shape)
           for k, d in enumerate(deltas)]

    def max_rel_error(w: LossWeights, row: int) -> float:
        _, grads = objective_and_gradient(a, b, deltas, replace(config, weights=w), segs=segs)
        fd_scale = max(float(np.max(np.abs(fd[row]))) for fd in fds)
        if max(fd_scale, max(float(np.max(np.abs(g))) for g in grads)) < 1e-12:
            return 0.0
        worst = max(float(np.max(np.abs(g - fd[row]))) for g, fd in zip(grads, fds))
        return worst / max(fd_scale, 1e-12)

    weightings = [LossWeights(*w) for w in np.eye(5).tolist()] + [config.weights]
    names = [f.name for f in fields(LossBreakdown)][:-1] + ["all"]
    return {name: max_rel_error(w, row) for row, (name, w) in enumerate(zip(names, weightings))}

"""Symmetric registration optimizer.

A single antisymmetric parameter field per refinement step drives both warp
directions: the positive field generates the A-to-B deformation, its negation
the B-to-A one, so swapping the inputs and negating the parameters exchanges
the two directions exactly.  Each step re-registers the previously warped
volumes onto the original targets; the objective is the sum of the five-term
loss over all steps.

Gradients are exact reverse-mode vector-Jacobian products chained through
warp -> integrate -> activate -> upsample for every step and direction,
including the finite-difference determinant path of the Jacobian penalty and
the composition path of the inverse-consistency penalty.  Everything runs in
double precision and is bit-deterministic for fixed inputs and config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from . import deform
from .deform import DeformationField, GradientField, PreActivationField
from .losses import LossBreakdown, LossWeights, loss_total
from .volume import LabelVolume, Volume, one_hot


class DivergenceError(RuntimeError):
    """Raised when the objective turns non-finite; carries the loss trace."""

    def __init__(self, message: str, trace: list[LossBreakdown]):
        super().__init__(message)
        self.trace = trace


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class RegistrationConfig:
    weights: LossWeights = field(default_factory=LossWeights)
    steps: int = 2
    iterations: int = 500
    learning_rate: float = 1e-2
    control_stride: int = 4
    convergence_tol: float = 1e-6

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning rate must be positive, got {self.learning_rate}")
        if self.control_stride < 1:
            raise ValueError(f"control stride must be >= 1, got {self.control_stride}")

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
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        defaults = cls()._flat()
        unknown = set(raw) - set(defaults) - {"seed"}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        values = {key: type(d)(raw.get(key, d)) for key, d in defaults.items()}
        weights = LossWeights(**{f.name: values.pop(f.name) for f in fields(LossWeights)})
        return cls(weights=weights, **values)


@dataclass
class RegistrationState:
    """Optimizer state: one parameter field per step plus Adam moments."""

    deltas: list[PreActivationField]
    m: list[np.ndarray]
    v: list[np.ndarray]
    iteration: int = 0
    trace: list[LossBreakdown] = field(default_factory=list)


def init_state(image_dims, config: RegistrationConfig) -> RegistrationState:
    """Zero-initialized state: every step starts at the identity deformation."""
    control = deform.control_dims_for(image_dims, config.control_stride)
    shape = (3,) + control
    deltas = [
        PreActivationField(np.zeros(shape), stride=config.control_stride)
        for _ in range(config.steps)
    ]
    return RegistrationState(
        deltas=deltas,
        m=[np.zeros(shape) for _ in range(config.steps)],
        v=[np.zeros(shape) for _ in range(config.steps)],
    )


@dataclass
class StepForward:
    """Everything one refinement step produces, both directions.

    ``x`` is the upsampled parameter field, kept for the backward pass.
    """

    x: PreActivationField
    g_ab: GradientField
    g_ba: GradientField
    phi_ab: DeformationField
    phi_ba: DeformationField
    a_warp: Volume
    b_warp: Volume
    a_seg_warp: Volume | None
    b_seg_warp: Volume | None
    breakdown: LossBreakdown


@dataclass
class RegistrationResult:
    """Final fields and warps plus the optimization history."""

    phi_ab: DeformationField
    phi_ba: DeformationField
    a_warp: Volume
    b_warp: Volume
    steps: list[StepForward]
    deltas: list[PreActivationField]
    trace: list[LossBreakdown]
    final: LossBreakdown
    iterations_run: int
    converged: bool


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


def _sum_breakdowns(parts: list[LossBreakdown]) -> LossBreakdown:
    terms = [p.to_dict() for p in parts]
    return LossBreakdown(**{key: sum(t[key] for t in terms) for key in terms[0]})


def _compose_steps(phis: list[DeformationField]) -> DeformationField:
    """Compose per-step fields, each later step's field as the inner map."""
    phi = phis[0]
    for step_phi in phis[1:]:
        phi = deform.compose(phi, step_phi)
    return phi


@dataclass
class MultistepForward:
    """All steps of one forward pass; the composed fields are built on first access."""

    steps: list[StepForward]
    breakdown: LossBreakdown
    a_warp: Volume
    b_warp: Volume

    @cached_property
    def phi_ab(self) -> DeformationField:
        return _compose_steps([s.phi_ab for s in self.steps])

    @cached_property
    def phi_ba(self) -> DeformationField:
        return _compose_steps([s.phi_ba for s in self.steps])


def multistep_forward(a: Volume, b: Volume, deltas: list[PreActivationField],
                      weights: LossWeights, segs=None) -> MultistepForward:
    """Run every refinement step; each re-warps the previous step's output.

    Each step generates the A-to-B direction from +delta and the B-to-A
    direction from -delta, so swapping the inputs and negating the deltas
    yields the exact mirror.  The loss applies to every step's warped volumes
    against the original targets and the step totals add up.  The exposed
    fields are the per-step compositions: warping once with ``phi_ab``
    approximates the sequential per-step warps that produced ``a_warp``.  They
    are composed on first access, so a forward pass whose fields are never
    read skips the composes; with one step they are that step's fields.
    """
    if not deltas:
        raise ValueError("at least one parameter field is required")
    _check_pair(a, b, segs)
    a_seg, b_seg = segs if segs is not None else (None, None)
    steps: list[StepForward] = []
    a_cur, b_cur, a_seg_cur, b_seg_cur = a, b, a_seg, b_seg
    for delta in deltas:
        x = deform.upsample(delta, a.dims)
        g_ab = deform.activate(x)
        g_ba = deform.activate(PreActivationField(-x.values, stride=1))
        phi_ab = deform.integrate(g_ab)
        phi_ba = deform.integrate(g_ba)
        a_cur = deform.warp(a_cur, phi_ab)
        b_cur = deform.warp(b_cur, phi_ba)
        if segs is not None:
            a_seg_cur = deform.warp(a_seg_cur, phi_ab)
            b_seg_cur = deform.warp(b_seg_cur, phi_ba)
        breakdown = loss_total(
            a_cur, b, b_cur, a, g_ab, g_ba, phi_ab, phi_ba, weights,
            a_seg_warp=a_seg_cur, b_seg=b_seg, b_seg_warp=b_seg_cur, a_seg=a_seg,
        )
        steps.append(StepForward(x, g_ab, g_ba, phi_ab, phi_ba, a_cur, b_cur,
                                 a_seg_cur, b_seg_cur, breakdown))
    breakdown = _sum_breakdowns([s.breakdown for s in steps])
    return MultistepForward(steps, breakdown, a_cur, b_cur)


# Each warped input of a step by its breakdown gradient name, with the field
# that warps it; per field the image comes before the segmentation.
_WARPS = (("a_warp", "phi_ab"), ("a_seg_warp", "phi_ab"),
          ("b_warp", "phi_ba"), ("b_seg_warp", "phi_ba"))


def _backward(steps: list[StepForward], a: Volume, b: Volume, segs,
              deltas: list[PreActivationField]) -> list[np.ndarray]:
    """Reverse-mode chain through every step, back to each parameter field."""
    a_seg, b_seg = segs if segs is not None else (None, None)
    inputs = {"a_warp": a, "a_seg_warp": a_seg, "b_warp": b, "b_seg_warp": b_seg}
    carry: dict[str, np.ndarray] = {}
    grads: list[np.ndarray | None] = [None] * len(steps)
    for k in range(len(steps) - 1, -1, -1):
        step = steps[k]
        bd = step.breakdown.grads
        upstream = {key: bd[key] for key, _ in _WARPS if key in bd}
        for key, g in carry.items():
            upstream[key] = upstream[key] + g if key in upstream else g
        gphi = {key: bd[key].copy() if key in bd else np.zeros_like(getattr(step, key).values)
                for key in ("phi_ab", "phi_ba")}
        carry = {}
        for key, phi_key in _WARPS:
            if key not in upstream:
                continue
            phi = getattr(step, phi_key)
            # the image-side gradient only matters if an earlier step feeds it
            if k > 0:
                carry[key], coords_grad = deform.vjp_warp_both(
                    getattr(steps[k - 1], key), phi, upstream[key])
            else:
                coords_grad = deform.vjp_warp(inputs[key], phi, upstream[key])
            gphi[phi_key] += coords_grad

        step.phi_ab.drop_plan()  # nothing samples at this step's fields again
        step.phi_ba.drop_plan()
        gg_ab = deform.vjp_integrate(gphi["phi_ab"])
        if "g_ab" in bd:
            gg_ab += bd["g_ab"]
        gg_ba = deform.vjp_integrate(gphi["phi_ba"])
        if "g_ba" in bd:
            gg_ba += bd["g_ba"]

        x_full = step.x.values
        gx = deform.vjp_activate(x_full, gg_ab) - deform.vjp_activate(-x_full, gg_ba)
        grads[k] = deform.vjp_upsample(gx, deltas[k].stride, deltas[k].control_dims)
    return grads


def objective_and_gradient(a: Volume, b: Volume,
                           state: RegistrationState | list[PreActivationField],
                           config: RegistrationConfig, segs=None):
    """Total multistep loss and its exact gradient w.r.t. every delta field."""
    deltas = state.deltas if isinstance(state, RegistrationState) else list(state)
    run = multistep_forward(a, b, deltas, config.weights, segs=segs)
    grads = _backward(run.steps, a, b, segs, deltas)
    return run.breakdown.total, grads


def optimize(a: Volume, b: Volume, config: RegistrationConfig,
             segs=None) -> RegistrationResult:
    """Adam-optimize the per-step parameter fields for one volume pair.

    Runs for ``config.iterations`` iterations or until the relative change of
    the total loss over a 10-iteration window drops below the convergence
    tolerance.  Bit-reproducible for identical inputs and config.
    """
    state = init_state(a.dims, config)
    beta1, beta2 = ADAM_BETAS
    converged = False
    for _ in range(config.iterations):
        run = multistep_forward(a, b, state.deltas, config.weights, segs=segs)
        state.trace.append(run.breakdown)
        if not np.isfinite(run.breakdown.total):
            raise DivergenceError(
                f"objective became non-finite at iteration {state.iteration}",
                state.trace,
            )
        grads = _backward(run.steps, a, b, segs, state.deltas)
        state.iteration += 1
        t = state.iteration
        for k, g in enumerate(grads):
            state.m[k] = beta1 * state.m[k] + (1.0 - beta1) * g
            state.v[k] = beta2 * state.v[k] + (1.0 - beta2) * (g * g)
            m_hat = state.m[k] / (1.0 - beta1**t)
            v_hat = state.v[k] / (1.0 - beta2**t)
            new_values = state.deltas[k].values - config.learning_rate * m_hat / (
                np.sqrt(v_hat) + ADAM_EPS
            )
            state.deltas[k] = PreActivationField(new_values, stride=state.deltas[k].stride)
        del run, grads  # free this iteration's arrays and plans before the next forward
        if len(state.trace) >= 11:
            ref = state.trace[-11].total
            if abs(state.trace[-1].total - ref) < config.convergence_tol * max(
                abs(ref), 1e-300
            ):
                converged = True
                break
    final_run = multistep_forward(a, b, state.deltas, config.weights, segs=segs)
    if not np.isfinite(final_run.breakdown.total):
        raise DivergenceError("objective became non-finite after the last update",
                              state.trace)
    return _result(final_run, state.deltas, state.trace, state.iteration, converged)


def _result(run: MultistepForward, deltas, trace, iterations_run: int,
            converged: bool) -> RegistrationResult:
    """Assemble a result from a forward pass; composes its exposed fields."""
    return RegistrationResult(run.phi_ab, run.phi_ba, run.a_warp, run.b_warp, run.steps,
                              deltas, trace, run.breakdown, iterations_run, converged)


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
    result = optimize(a, b, config, segs=segs)
    if inference_steps is None or inference_steps == config.steps:
        return result
    run = multistep_forward(a, b, result.deltas[:inference_steps], config.weights,
                            segs=segs)
    return _result(run, result.deltas[:inference_steps], result.trace,
                   result.iterations_run, result.converged)


def gradient_check(dims, config: RegistrationConfig, seed: int = 0) -> dict[str, float]:
    """Compare analytic gradients against central finite differences.

    Builds a random registration instance of the given (small) dims and
    reports, per loss term and for the combined configured weights, the
    maximum absolute gradient deviation relative to the largest
    finite-difference entry.  Degenerate all-zero comparisons report 0.
    """
    dims = tuple(int(n) for n in dims)
    rng = np.random.default_rng(seed)
    a = Volume(rng.uniform(0.0, 1.0, (1,) + dims), dtype="f64")
    b = Volume(rng.uniform(0.0, 1.0, (1,) + dims), dtype="f64")
    a_seg = one_hot(LabelVolume(rng.integers(0, 3, dims)), [1, 2])
    b_seg = one_hot(LabelVolume(rng.integers(0, 3, dims)), [1, 2])
    segs = (a_seg, b_seg)
    control = deform.control_dims_for(dims, config.control_stride)
    deltas = [
        PreActivationField(rng.normal(0.0, 1.5, (3,) + control),
                           stride=config.control_stride)
        for _ in range(config.steps)
    ]

    def objective(trial_deltas, weights):
        run = multistep_forward(a, b, trial_deltas, weights, segs=segs)
        return run.breakdown.total

    def max_rel_error(weights) -> float:
        cfg = replace(config, weights=weights)
        _, grads = objective_and_gradient(a, b, deltas, cfg, segs=segs)
        h = 1e-6
        worst = 0.0
        fd_scale = 0.0
        analytic_scale = max(float(np.max(np.abs(g))) for g in grads)
        fd_all = []
        for k, delta in enumerate(deltas):
            fd = np.zeros_like(delta.values)
            flat = fd.reshape(-1)
            base = delta.values.reshape(-1)
            for i in range(flat.size):
                bumped = base.copy()
                bumped[i] = base[i] + h
                plus = objective(_with(deltas, k, bumped.reshape(delta.values.shape)),
                                 weights)
                bumped[i] = base[i] - h
                minus = objective(_with(deltas, k, bumped.reshape(delta.values.shape)),
                                  weights)
                flat[i] = (plus - minus) / (2.0 * h)
            fd_all.append(fd)
            fd_scale = max(fd_scale, float(np.max(np.abs(fd))))
        if max(fd_scale, analytic_scale) < 1e-12:
            return 0.0
        for g, fd in zip(grads, fd_all):
            worst = max(worst, float(np.max(np.abs(g - fd))))
        return worst / max(fd_scale, 1e-12)

    term_weights = {
        "sim": LossWeights(1, 0, 0, 0, 0),
        "seg": LossWeights(0, 1, 0, 0, 0),
        "reg": LossWeights(0, 0, 1, 0, 0),
        "jac": LossWeights(0, 0, 0, 1, 0),
        "inv": LossWeights(0, 0, 0, 0, 1),
    }
    report = {name: max_rel_error(w) for name, w in term_weights.items()}
    report["all"] = max_rel_error(config.weights)
    return report


def _with(deltas: list[PreActivationField], k: int, values: np.ndarray):
    out = list(deltas)
    out[k] = PreActivationField(values, stride=deltas[k].stride)
    return out

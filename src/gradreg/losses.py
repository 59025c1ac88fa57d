"""The five registration loss terms and their weighted combination.

Each term scores one warp direction, normalized to a per-element mean so the
weights are resolution independent.  A term computes its value and returns it
with a pullback, a function of no arguments giving the exact cotangent w.r.t.
the term's one differentiated input.  Only the backward pass runs a pullback,
and only once, as it may form the cotangent in the array it kept.
``direction_terms`` evaluates one direction's five terms, in the field order
of ``LossWeights``; ``sum_directions`` sums each over the two directions
into a plain ``LossBreakdown``.  A term's place in that order says which
input it differentiates.  The terms take values the forward pass has already
sampled: the inverse-consistency term takes a composition's coordinates and
forms its residual in them.  All terms are nonnegative and exactly zero on the
all-identity configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import deform
from .deform import DeformationField, GradientField
from .volume import Volume

DICE_SMOOTH = 1e-5


@dataclass(frozen=True)
class LossWeights:
    """Nonnegative weights for (similarity, dice, smoothness, jacobian, inverse)."""

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 0.1
    delta: float = 0.01
    epsilon: float = 10.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta", "epsilon"):
            w = getattr(self, name)
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"loss weight {name} must be finite and >= 0, got {w}")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values and their weighted total; its fields name the terms."""

    sim: float
    seg: float
    reg: float
    jac: float
    inv: float
    total: float


def loss_sim(warped: Volume, target: Volume):
    """Mean squared intensity error of a warped volume against its target."""
    if warped.data.shape != target.data.shape:
        raise ValueError(f"similarity inputs must share one shape, got "
                         f"{warped.data.shape} and {target.data.shape}")
    d = warped.data - target.data
    return float(np.mean(d * d)), lambda: np.multiply(d, 2.0 / d.size, out=d)


def loss_seg(seg_warped: Volume, seg_target: Volume):
    """Channel-mean soft Dice loss of warped one-hot labels against the target's.
    The pullback keeps the target and the channel sums, not the warped labels."""
    if seg_warped.channels != seg_target.channels or seg_warped.dims != seg_target.dims:
        raise ValueError(
            f"segmentation channel/shape mismatch: "
            f"{seg_warped.data.shape} vs {seg_target.data.shape}"
        )
    p, q, channels = seg_warped.data, seg_target.data, seg_warped.channels
    fractions = [(2.0 * float(np.sum(pc * qc)) + DICE_SMOOTH,
                  float(np.sum(pc)) + float(np.sum(qc)) + DICE_SMOOTH) for pc, qc in zip(p, q)]
    value = sum(1.0 - num / den for num, den in fractions) / channels
    return value, lambda: np.stack([-(2.0 * qc * den - num) / (den * den)
                                    for qc, (num, den) in zip(q, fractions)]) / channels


def loss_reg(g: GradientField):
    """Mean squared deviation of the predicted gradients from identity spacing.

    The pullback keeps only ``g``, which its step keeps too, and ``2/n``: it
    forms the deviation again rather than keep one more array of ``g``'s size.
    """
    d = g.values - 1.0
    value, scale = float(np.mean(d * d)), 2.0 / d.size
    return value, lambda: np.multiply(cot := g.values - 1.0, scale, out=cot)


def loss_jac(phi: DeformationField):
    """Mean hinge on negative Jacobian determinants.

    Subgradient at a zero determinant is zero; gradients propagate through the
    finite-difference determinant stencil.  The pullback keeps only the
    folded-voxel mask and runs ``deform.det_vjp`` on it; it is None when the
    field does not fold, as its cotangent is then zero.
    """
    n = float(np.prod(phi.dims))
    det = deform.jacobian_det(phi)
    value = float(np.sum(np.maximum(0.0, -det))) / n
    mask = det < 0.0
    if not mask.any():
        return value, None
    return value, lambda: deform.det_vjp(phi, np.where(mask, -1.0 / n, 0.0))


def loss_inv(composed: np.ndarray):
    """Mean squared residual of a composition's values against the identity map.

    ``composed`` holds the (3, nx, ny, nz) coordinates of ``compose(outer,
    inner)``; the residual is formed in it, in place, so it is consumed.  The
    pullback gives the cotangent of the composition; the backward pass carries
    it to both fields.
    """
    if composed.ndim != 4 or composed.shape[0] != 3:
        raise ValueError(f"composition must have shape (3, nx, ny, nz), got {composed.shape}")
    resid = composed
    for axis, n in enumerate(composed.shape[1:]):  # minus the identity map, np.indices' values
        resid[axis] -= np.arange(n, dtype=np.float64).reshape((-1,) + (1,) * (2 - axis))
    value = float(np.sum(resid * resid)) / resid.size
    resid *= 2.0 / resid.size  # from here on the residual is the cotangent
    return value, lambda: resid


def direction_terms(warp, target, g, phi, composed, seg_warp=None, seg_target=None):
    """One direction's five ``(value, pullback)`` pairs, in term order: sim,
    seg, reg, jac and inv, which differentiate in turn ``warp``, ``seg_warp``,
    ``g``, ``phi`` and ``composed``.

    ``composed`` holds this direction's composition of the other field with
    ``phi``, which ``loss_inv`` consumes.  Omitting the segmentation inputs
    forces the dice term to zero (unsupervised mode).
    """
    return [loss_sim(warp, target),
            (0.0, None) if seg_warp is None else loss_seg(seg_warp, seg_target),
            loss_reg(g), loss_jac(phi), loss_inv(composed)]


def sum_directions(terms, weights: LossWeights) -> LossBreakdown:
    """The weighted loss of both directions' ``direction_terms``: each term's
    value is the sum of its two directions, A-to-B first."""
    sim, seg, reg, jac, inv = (ab + ba for (ab, _), (ba, _) in zip(*terms))
    total = (
        weights.alpha * sim
        + weights.beta * seg
        + weights.gamma * reg
        + weights.delta * jac
        + weights.epsilon * inv
    )
    return LossBreakdown(sim, seg, reg, jac, inv, total)

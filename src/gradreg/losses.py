"""The five registration loss terms and their weighted combination.

Each term is a symmetric sum over both warp directions, normalized to a
per-element mean so the weights are resolution independent.  A term computes
its value and returns it with a pullback, a function of no arguments giving
the term's exact cotangents w.r.t. its direct inputs (keyed by name); only the
backward pass runs it, and ``loss_total`` returns the weighted ones beside a
plain ``LossBreakdown``.  All terms are nonnegative and exactly zero on the
all-identity configuration.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass

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

    def to_dict(self) -> dict[str, float]:
        return asdict(self)


def _check_same_shape(kind: str, *arrays: np.ndarray) -> None:
    shapes = {a.shape for a in arrays}
    if len(shapes) != 1:
        raise ValueError(f"{kind} inputs must share one shape, got {sorted(shapes)}")


def loss_sim(a_warp: Volume, b: Volume, b_warp: Volume, a: Volume):
    """Mean squared intensity error, both directions."""
    _check_same_shape("similarity", a_warp.data, b.data, b_warp.data, a.data)
    d_ab = a_warp.data - b.data
    d_ba = b_warp.data - a.data
    n = d_ab.size
    value = float(np.mean(d_ab * d_ab)) + float(np.mean(d_ba * d_ba))
    return value, lambda: {"a_warp": (2.0 / n) * d_ab, "b_warp": (2.0 / n) * d_ba}


def _soft_dice_direction(p: np.ndarray, q: np.ndarray):
    """Channel-mean soft Dice loss of warped one-hot p against target q, and
    its gradient w.r.t. p as a function."""
    fractions = [(2.0 * float(np.sum(pc * qc)) + DICE_SMOOTH,
                  float(np.sum(pc)) + float(np.sum(qc)) + DICE_SMOOTH) for pc, qc in zip(p, q)]
    value = sum(1.0 - num / den for num, den in fractions) / len(p)
    return value, lambda: np.stack([-(2.0 * qc * den - num) / (den * den)
                                    for qc, (num, den) in zip(q, fractions)]) / len(p)


def loss_seg(a_seg_warp: Volume, b_seg: Volume, b_seg_warp: Volume, a_seg: Volume):
    """Soft Dice loss between warped and target one-hot volumes, both directions."""
    for v, w in ((a_seg_warp, b_seg), (b_seg_warp, a_seg)):
        if v.channels != w.channels or v.dims != w.dims:
            raise ValueError(
                f"segmentation channel/shape mismatch: "
                f"{v.data.shape} vs {w.data.shape}"
            )
    v_ab, g_ab = _soft_dice_direction(a_seg_warp.data, b_seg.data)
    v_ba, g_ba = _soft_dice_direction(b_seg_warp.data, a_seg.data)
    return v_ab + v_ba, lambda: {"a_seg_warp": g_ab(), "b_seg_warp": g_ba()}


def loss_reg(g_ab: GradientField, g_ba: GradientField):
    """Mean squared deviation of the predicted gradients from identity spacing."""
    _check_same_shape("smoothness", g_ab.values, g_ba.values)
    d_ab = g_ab.values - 1.0
    d_ba = g_ba.values - 1.0
    n = d_ab.size
    value = float(np.mean(d_ab * d_ab)) + float(np.mean(d_ba * d_ba))
    return value, lambda: {"g_ab": (2.0 / n) * d_ab, "g_ba": (2.0 / n) * d_ba}


def loss_jac(phi_ab: DeformationField, phi_ba: DeformationField):
    """Mean hinge on negative Jacobian determinants, both directions.

    Subgradient at a zero determinant is zero; gradients propagate through the
    finite-difference determinant stencil.  The pullback keeps only each
    field's folded-voxel mask and gives a cotangent only for a field that
    folds (it is zero elsewhere), rebuilding that field's Jacobian matrix.
    """
    _check_same_shape("jacobian", phi_ab.values, phi_ba.values)
    n = float(np.prod(phi_ab.dims))
    value = 0.0
    folded = {}
    for key, phi in (("phi_ab", phi_ab), ("phi_ba", phi_ba)):
        det = deform.det3x3(deform.jacobian_matrix(phi))
        value += float(np.sum(np.maximum(0.0, -det))) / n
        mask = det < 0.0
        if mask.any():
            folded[key] = (phi, mask)
    return value, lambda: {
        key: deform.det_vjp(deform.jacobian_matrix(phi), np.where(mask, -1.0 / n, 0.0))
        for key, (phi, mask) in folded.items()}


def loss_inv(phi_ab: DeformationField, phi_ba: DeformationField,
             interior_margin: int = 0):
    """Mean squared residual of both compositions against the identity map.

    ``interior_margin`` excludes a border shell of that many voxels from the
    mean (and its gradients); the default 0 evaluates everywhere.  The
    pullback gives the cotangents of the two compositions, ``compose_ab_ba``
    of ``compose(phi_ab, phi_ba)`` and ``compose_ba_ab`` of
    ``compose(phi_ba, phi_ab)``; the backward pass carries them to the fields.
    """
    _check_same_shape("inverse-consistency", phi_ab.values, phi_ba.values)
    dims = phi_ab.dims
    ident = deform.identity_field(dims).values
    if interior_margin > 0:
        m = interior_margin
        if any(n <= 2 * m for n in dims):
            raise ValueError(f"interior margin {m} leaves no voxels of dims {dims}")
        mask = np.zeros(dims)
        mask[m:dims[0] - m, m:dims[1] - m, m:dims[2] - m] = 1.0
        count = 3.0 * float(mask.sum())
    else:
        mask = None
        count = float(ident.size)

    def residual(outer: DeformationField, inner: DeformationField):
        resid = deform.compose(outer, inner).values - ident
        return resid if mask is None else resid * mask

    r_ab, r_ba = residual(phi_ab, phi_ba), residual(phi_ba, phi_ab)
    value = float(np.sum(r_ab * r_ab)) / count + float(np.sum(r_ba * r_ba)) / count
    r_ab *= 2.0 / count  # from here on the residuals are the cotangents
    r_ba *= 2.0 / count
    return value, lambda: {"compose_ab_ba": r_ab, "compose_ba_ab": r_ba}


def loss_total(
    a_warp: Volume,
    b: Volume,
    b_warp: Volume,
    a: Volume,
    g_ab: GradientField,
    g_ba: GradientField,
    phi_ab: DeformationField,
    phi_ba: DeformationField,
    weights: LossWeights,
    a_seg_warp: Volume | None = None,
    b_seg: Volume | None = None,
    b_seg_warp: Volume | None = None,
    a_seg: Volume | None = None,
) -> tuple[LossBreakdown, list[tuple[float, Callable]]]:
    """Weighted five-term loss, and the (weight, pullback) pair of every term
    with a nonzero weight.

    Omitting the segmentation inputs forces the beta term to zero
    (unsupervised mode).
    """
    sim, sim_pb = loss_sim(a_warp, b, b_warp, a)
    seg_inputs = (a_seg_warp, b_seg, b_seg_warp, a_seg)
    if any(s is not None for s in seg_inputs):
        if any(s is None for s in seg_inputs):
            raise ValueError("segmentation inputs must be given all together or not at all")
        seg, seg_pb = loss_seg(a_seg_warp, b_seg, b_seg_warp, a_seg)
    else:
        seg, seg_pb = 0.0, None
    reg, reg_pb = loss_reg(g_ab, g_ba)
    jac, jac_pb = loss_jac(phi_ab, phi_ba)
    inv, inv_pb = loss_inv(phi_ab, phi_ba)
    total = (
        weights.alpha * sim
        + weights.beta * seg
        + weights.gamma * reg
        + weights.delta * jac
        + weights.epsilon * inv
    )
    pullbacks = [(w, pb) for w, pb in ((weights.alpha, sim_pb), (weights.beta, seg_pb),
                                       (weights.gamma, reg_pb), (weights.delta, jac_pb),
                                       (weights.epsilon, inv_pb))
                 if w != 0.0 and pb is not None]
    return LossBreakdown(sim, seg, reg, jac, inv, total), pullbacks

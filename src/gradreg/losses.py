"""The five registration loss terms and their weighted combination.

Each term is a symmetric sum over both warp directions, normalized to a
per-element mean so the weights are resolution independent, and returns its
value together with exact gradients w.r.t. its direct field inputs (keyed by
argument name).  All terms are nonnegative and exactly zero on the
all-identity configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class LossBreakdown:
    """Per-term values, their weighted total, and merged input gradients."""

    sim: float
    seg: float
    reg: float
    jac: float
    inv: float
    total: float
    grads: dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict[str, float]:
        return {
            "sim": self.sim,
            "seg": self.seg,
            "reg": self.reg,
            "jac": self.jac,
            "inv": self.inv,
            "total": self.total,
        }


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
    grads = {"a_warp": (2.0 / n) * d_ab, "b_warp": (2.0 / n) * d_ba}
    return value, grads


def _soft_dice_direction(p: np.ndarray, q: np.ndarray):
    """Channel-mean soft Dice loss of warped one-hot p against target q."""
    channels = p.shape[0]
    value = 0.0
    grad_p = np.empty_like(p)
    for c in range(channels):
        inter = float(np.sum(p[c] * q[c]))
        den = float(np.sum(p[c])) + float(np.sum(q[c])) + DICE_SMOOTH
        num = 2.0 * inter + DICE_SMOOTH
        value += 1.0 - num / den
        grad_p[c] = -(2.0 * q[c] * den - num) / (den * den)
    return value / channels, grad_p / channels


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
    return v_ab + v_ba, {"a_seg_warp": g_ab, "b_seg_warp": g_ba}


def loss_reg(g_ab: GradientField, g_ba: GradientField):
    """Mean squared deviation of the predicted gradients from identity spacing."""
    _check_same_shape("smoothness", g_ab.values, g_ba.values)
    d_ab = g_ab.values - 1.0
    d_ba = g_ba.values - 1.0
    n = d_ab.size
    value = float(np.mean(d_ab * d_ab)) + float(np.mean(d_ba * d_ba))
    return value, {"g_ab": (2.0 / n) * d_ab, "g_ba": (2.0 / n) * d_ba}


def loss_jac(phi_ab: DeformationField, phi_ba: DeformationField):
    """Mean hinge on negative Jacobian determinants, both directions.

    Subgradient at a zero determinant is zero; gradients propagate through the
    finite-difference determinant stencil.
    """
    _check_same_shape("jacobian", phi_ab.values, phi_ba.values)
    n = float(np.prod(phi_ab.dims))
    value = 0.0
    grads = {}
    for key, phi in (("phi_ab", phi_ab), ("phi_ba", phi_ba)):
        matrix = deform.jacobian_matrix(phi)
        det = deform.det3x3(matrix)
        value += float(np.sum(np.maximum(0.0, -det))) / n
        grads[key] = deform.det_vjp(matrix, np.where(det < 0.0, -1.0 / n, 0.0))
    return value, grads


def loss_inv(phi_ab: DeformationField, phi_ba: DeformationField,
             interior_margin: int = 0):
    """Mean squared residual of both compositions against the identity map.

    ``interior_margin`` excludes a border shell of that many voxels from the
    mean (and its gradients); the default 0 evaluates everywhere.
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

    def one_direction(outer: DeformationField, inner: DeformationField):
        resid = deform.compose(outer, inner).values - ident
        if mask is not None:
            resid = resid * mask
        value = float(np.sum(resid * resid)) / count
        upstream = (2.0 / count) * resid
        return value, deform.vjp_compose(outer, inner, upstream)

    v1, (go1, gi1) = one_direction(phi_ab, phi_ba)
    v2, (go2, gi2) = one_direction(phi_ba, phi_ab)
    return v1 + v2, {"phi_ab": go1 + gi2, "phi_ba": gi1 + go2}


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
) -> LossBreakdown:
    """Weighted five-term loss with merged gradients.

    Omitting the segmentation inputs forces the beta term to zero
    (unsupervised mode).
    """
    sim, sim_g = loss_sim(a_warp, b, b_warp, a)
    seg_inputs = (a_seg_warp, b_seg, b_seg_warp, a_seg)
    if any(s is not None for s in seg_inputs):
        if any(s is None for s in seg_inputs):
            raise ValueError("segmentation inputs must be given all together or not at all")
        seg, seg_g = loss_seg(a_seg_warp, b_seg, b_seg_warp, a_seg)
    else:
        seg, seg_g = 0.0, {}
    reg, reg_g = loss_reg(g_ab, g_ba)
    jac, jac_g = loss_jac(phi_ab, phi_ba)
    inv, inv_g = loss_inv(phi_ab, phi_ba)
    total = (
        weights.alpha * sim
        + weights.beta * seg
        + weights.gamma * reg
        + weights.delta * jac
        + weights.epsilon * inv
    )
    grads: dict[str, np.ndarray] = {}
    for w, term_grads in (
        (weights.alpha, sim_g),
        (weights.beta, seg_g),
        (weights.gamma, reg_g),
        (weights.delta, jac_g),
        (weights.epsilon, inv_g),
    ):
        if w == 0.0:
            continue
        for key, g in term_grads.items():
            if key in grads:
                grads[key] = grads[key] + w * g
            else:
                grads[key] = w * g
    return LossBreakdown(sim=sim, seg=seg, reg=reg, jac=jac, inv=inv,
                         total=total, grads=grads)

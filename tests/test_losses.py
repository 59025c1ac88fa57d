import weakref

import numpy as np
import pytest

from gradreg import deform
from gradreg.deform import DeformationField, GradientField, identity_field
from gradreg.losses import (
    LossBreakdown,
    LossWeights,
    direction_terms,
    loss_inv,
    loss_jac,
    loss_reg,
    loss_seg,
    loss_sim,
    sum_directions,
)
from gradreg.volume import LabelVolume, Volume, one_hot
from oracles import (check_directional, det_vjp_ref, inv_interior_ref, jacobian_matrix,
                     edge_safe_field, random_field)

DIMS = (5, 5, 5)


def vol(data):
    return Volume(np.asarray(data, dtype=np.float64), dtype="f64")


def const_vol(value, channels=1, dims=DIMS):
    return vol(np.full((channels,) + dims, float(value)))


def terms(term, ab, ba):
    """A one-direction term's values at two directions' arguments, A-to-B first."""
    return [term(*ab)[0], term(*ba)[0]]


def summed(term, ab, ba):
    """A one-direction term's value summed over two directions' arguments."""
    return sum(terms(term, ab, ba))


# ---------------------------------------------------------------------------
# similarity


def test_loss_sim_zero_and_unit():
    rng = np.random.default_rng(0)
    a = vol(rng.uniform(0, 1, (2,) + DIMS))
    b = vol(rng.uniform(0, 1, (2,) + DIMS))
    value = summed(loss_sim, (b, b), (a, a))
    assert value == 0.0

    value = summed(loss_sim, (const_vol(1.0), const_vol(0.0)), (const_vol(0.0), const_vol(0.0)))
    assert value == pytest.approx(1.0)


def test_loss_sim_matches_brute_force():
    rng = np.random.default_rng(1)
    a, b = (vol(rng.uniform(-2, 2, (2,) + DIMS)) for _ in range(2))
    aw, bw = (vol(rng.uniform(-2, 2, (2,) + DIMS)) for _ in range(2))
    value = summed(loss_sim, (aw, b), (bw, a))
    _, pullback = loss_sim(aw, b)
    acc = 0.0
    n = aw.data.size
    for arr, ref in ((aw, b), (bw, a)):
        for idx in np.ndindex(arr.data.shape):
            acc += (arr.data[idx] - ref.data[idx]) ** 2 / n
    assert value == pytest.approx(acc, abs=1e-12)

    def f(x):
        return terms(loss_sim, (vol(x), b), (bw, a))

    grad = pullback()
    for d in rng.standard_normal((3,) + grad.shape):
        check_directional(f, aw.data, d, float(np.sum(grad * d)), 1e-5)


def test_loss_sim_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        loss_sim(const_vol(0), const_vol(0, channels=2))


# ---------------------------------------------------------------------------
# segmentation dice


def test_loss_seg_perfect_overlap_near_zero():
    rng = np.random.default_rng(2)
    labels = LabelVolume(rng.integers(0, 3, DIMS))
    seg = one_hot(labels, [1, 2])
    value = summed(loss_seg, (seg, seg), (seg, seg))
    assert 0.0 <= value < 1e-5


def test_loss_seg_disjoint_near_two():
    p = np.zeros((1,) + DIMS)
    q = np.zeros((1,) + DIMS)
    p[0, :2] = 1.0
    q[0, 3:] = 1.0
    value = summed(loss_seg, (vol(p), vol(q)), (vol(p), vol(q)))
    assert value == pytest.approx(2.0, abs=1e-4)  # two directions, each ~1


def test_loss_seg_half_overlap():
    # |p| = |q| = 4, overlap 2 -> dice 0.5, term 0.5 per direction
    p = np.zeros((1, 8, 1, 1))
    q = np.zeros((1, 8, 1, 1))
    p[0, 0:4] = 1.0
    q[0, 2:6] = 1.0
    value = summed(loss_seg, (vol(p), vol(q)), (vol(p), vol(q)))
    assert value == pytest.approx(1.0, abs=1e-4)


def test_loss_seg_pullback_keeps_no_warped_labels():
    """The pullback holds the target and the per-channel sums, not the warped
    labels, so they can go before the backward pass reaches the term."""
    rng = np.random.default_rng(11)
    warped = vol(rng.uniform(0, 1, (3,) + DIMS))
    target = vol(rng.uniform(0, 1, (3,) + DIMS))
    expected = loss_seg(vol(warped.data.copy()), target)[1]()
    held = weakref.ref(warped.data)
    _, pullback = loss_seg(warped, target)
    del warped
    assert held() is None
    assert np.array_equal(pullback(), expected)


def test_loss_seg_gradients_match_fd():
    rng = np.random.default_rng(3)
    p = rng.uniform(0, 1, (2,) + DIMS)
    q = (rng.uniform(size=(2,) + DIMS) < 0.3).astype(np.float64)
    p2 = rng.uniform(0, 1, (2,) + DIMS)
    q2 = (rng.uniform(size=(2,) + DIMS) < 0.3).astype(np.float64)
    _, pullback = loss_seg(vol(p), vol(q))

    def f(x):
        return terms(loss_seg, (vol(x), vol(q)), (vol(p2), vol(q2)))

    grad = pullback()
    for d in rng.standard_normal((3,) + grad.shape):
        check_directional(f, p, d, float(np.sum(grad * d)), 1e-5)


def test_seg_check_rejects_a_pullback_missing_a_channel(monkeypatch):
    real = loss_seg

    def loss_seg_without_last_channel(seg_warped, seg_target):
        value, pullback = real(seg_warped, seg_target)

        def dropped():
            cotangent = pullback()
            cotangent[-1] = 0.0
            return cotangent

        return value, dropped

    monkeypatch.setitem(globals(), "loss_seg", loss_seg_without_last_channel)
    with pytest.raises(AssertionError, match="finite difference"):
        test_loss_seg_gradients_match_fd()


# ---------------------------------------------------------------------------
# smoothness


def test_loss_reg_identity_zero_and_doubling():
    ones = GradientField(np.ones((3,) + DIMS))
    assert summed(loss_reg, (ones,), (ones,)) == 0.0
    near_two = GradientField(np.full((3,) + DIMS, 2.0 - 1e-9))
    value = summed(loss_reg, (near_two,), (ones,))
    assert value == pytest.approx(1.0, abs=1e-6)


def test_loss_reg_matches_brute_force_and_fd():
    rng = np.random.default_rng(4)
    g_ab = GradientField(rng.uniform(0.1, 1.9, (3,) + DIMS))
    g_ba = GradientField(rng.uniform(0.1, 1.9, (3,) + DIMS))
    value = summed(loss_reg, (g_ab,), (g_ba,))
    _, pullback = loss_reg(g_ab)
    acc = sum(
        (g.values[idx] - 1.0) ** 2 / g.values.size
        for g in (g_ab, g_ba)
        for idx in np.ndindex(g.values.shape)
    )
    assert value == pytest.approx(acc, abs=1e-12)

    def f(x):
        return terms(loss_reg, (GradientField(x),), (g_ba,))

    grad = pullback()
    for d in rng.standard_normal((3,) + grad.shape):
        check_directional(f, g_ab.values, d, float(np.sum(grad * d)), 1e-5)


# ---------------------------------------------------------------------------
# jacobian hinge


def test_loss_jac_identity_zero():
    ident = identity_field(DIMS)
    value, pullback = loss_jac(ident)
    assert value == 0.0
    assert pullback is None  # nothing folds, so the cotangent is zero


def test_loss_jac_single_negative_voxel():
    # flip the x line order around one voxel to force one negative determinant
    dims = (7, 7, 7)
    vals = identity_field(dims).values.copy()
    vals[0, 3, 3, 3] = vals[0, 3, 3, 3] - 4.0  # central difference turns negative
    phi = DeformationField(vals)
    det = deform.jacobian_det(phi).data[0]
    negatives = det[det < 0]
    expect = float((-negatives).sum()) / np.prod(dims)
    value = summed(loss_jac, (phi,), (identity_field(dims),))
    assert value == pytest.approx(expect, abs=1e-12)


def test_loss_jac_matches_hinge_oracle():
    rng = np.random.default_rng(5)
    for _ in range(5):
        phi_ab = random_field(rng, DIMS, 1.2)
        phi_ba = random_field(rng, DIMS, 1.2)
        value = summed(loss_jac, (phi_ab,), (phi_ba,))
        acc = 0.0
        n = np.prod(DIMS)
        for phi in (phi_ab, phi_ba):
            det = deform.jacobian_det(phi).data[0]
            for idx in np.ndindex(det.shape):
                acc += max(0.0, -det[idx]) / n
        assert value == pytest.approx(acc, abs=1e-12)


def test_loss_jac_gradients_match_fd():
    rng = np.random.default_rng(6)
    phi_ab = random_field(rng, DIMS, 1.2)
    phi_ba = random_field(rng, DIMS, 1.2)
    det = deform.jacobian_det(phi_ab).data[0]
    assert (det < 0).any(), "instance must exercise the hinge"
    _, pullback = loss_jac(phi_ab)

    def f(x):
        return terms(loss_jac, (DeformationField(x),), (phi_ba,))

    grad = pullback()
    for d in rng.standard_normal((3,) + grad.shape):
        check_directional(f, phi_ab.values, d, float(np.sum(grad * d)), 1e-5)


def test_loss_jac_pullback_skips_det_vjp_without_folds(monkeypatch):
    rng = np.random.default_rng(11)
    phi_ab = random_field(rng, DIMS, 0.05)
    phi_ba = random_field(rng, DIMS, 0.05)
    assert np.all(deform.jacobian_det(phi_ab).data > 0)
    assert np.all(deform.jacobian_det(phi_ba).data > 0)
    (v_ab, pb_ab), (v_ba, pb_ba) = loss_jac(phi_ab), loss_jac(phi_ba)

    def unexpected(*args):
        raise AssertionError("det_vjp called for a field without folds")

    monkeypatch.setattr(deform, "det_vjp", unexpected)
    assert v_ab + v_ba == 0.0
    assert pb_ab is None and pb_ba is None  # a zero cotangent, left out


def test_loss_jac_pullback_of_one_fold_equals_det_vjp_bit_for_bit():
    dims = (7, 7, 7)
    vals = identity_field(dims).values.copy()
    vals[0, 3, 3, 3] = vals[0, 3, 3, 3] - 4.0
    phi = DeformationField(vals)
    ident = identity_field(dims)
    _, pullback = loss_jac(phi)
    grads = pullback()
    matrix = jacobian_matrix(phi)
    det = deform.det3x3(matrix)
    assert np.count_nonzero(det < 0.0) > 0
    want = det_vjp_ref(matrix, np.where(det < 0.0, -1.0 / np.prod(dims), 0.0))
    assert loss_jac(ident)[1] is None  # the identity does not fold
    assert np.array_equal(grads.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# inverse consistency


def inv_terms(phi_ab, phi_ba):
    """loss_inv of both directions: direction d composes the other field with its own."""
    ab, ba = compositions((phi_ab, phi_ba))
    return terms(loss_inv, (ab,), (ba,))


def compositions(phis):
    """Each direction's loss_inv input: the other field composed with its own."""
    return tuple(deform.compose(phis[1 - d], phis[d]).values for d in (0, 1))


def inv_field_grads(phi_ab, phi_ba):
    """Carry both directions' loss_inv cotangents to both fields, as the
    backward pass does: one sweep at each composition's inner field, then the
    other composition's value gradient."""
    phis = (phi_ab, phi_ba)
    inner, outer = [], []
    for d in (0, 1):
        _, pullback = loss_inv(deform.compose(phis[1 - d], phis[d]).values)
        g, (g_outer,) = deform.vjp_sample(phis[d], [phis[1 - d].values], [pullback()], [True])
        inner.append(g)
        outer.append(g_outer)
    return inner[0] + outer[1], inner[1] + outer[0]


def test_loss_inv_identity_zero():
    ident = identity_field(DIMS)
    value = sum(inv_terms(ident, ident))
    assert value == 0.0
    assert np.all(inv_field_grads(ident, ident)[0] == 0.0)


def test_loss_inv_translation_pair_interior():
    dims = (8, 8, 8)
    fwd = identity_field(dims).values.copy()
    inv = identity_field(dims).values.copy()
    fwd[0] += 1.0
    inv[0] -= 1.0
    phis = DeformationField(fwd), DeformationField(inv)
    value = sum(inv_interior_ref(c, 2) for c in compositions(phis))
    assert value < 1e-20


def test_loss_inv_translation_same_direction():
    # both fields translate +1 along x: composition is +2, squared error 4 in x
    dims = (9, 9, 9)
    t = identity_field(dims).values.copy()
    t[0] += 1.0
    phi = DeformationField(t)
    value = sum(inv_interior_ref(c, 3) for c in compositions((phi, phi)))
    assert value == pytest.approx(2.0 * 4.0 / 3.0, abs=1e-9)
    # over every voxel the reference is loss_inv's value
    assert sum(inv_terms(phi, phi)) == pytest.approx(
        sum(inv_interior_ref(c, 0) for c in compositions((phi, phi))), rel=1e-12)


def test_loss_inv_matches_the_identity_field_formula_bit_for_bit():
    rng = np.random.default_rng(12)
    dims = (7, 6, 8)
    outer, inner = random_field(rng, dims, 0.8), random_field(rng, dims, 0.8)
    # the residual against np.indices, as a separate array
    resid = deform.compose(outer, inner).values - identity_field(dims).values
    count = float(resid.size)
    want = float(np.sum(resid * resid)) / count
    value, pullback = loss_inv(deform.compose(outer, inner).values)
    assert value.hex() == want.hex()
    cotangent = pullback()
    assert cotangent.shape == resid.shape
    assert np.array_equal(cotangent.view(np.uint64), (resid * (2.0 / count)).view(np.uint64))


def test_loss_inv_gradients_match_fd():
    rng = np.random.default_rng(7)
    phi_ab = edge_safe_field(rng, DIMS, 0.3)
    phi_ba = edge_safe_field(rng, DIMS, 0.3)
    g_ab, g_ba = inv_field_grads(phi_ab, phi_ba)

    def f_ab(x):
        return inv_terms(DeformationField(x), phi_ba)

    def f_ba(x):
        return inv_terms(phi_ab, DeformationField(x))

    for f, x, grad in ((f_ab, phi_ab.values, g_ab), (f_ba, phi_ba.values, g_ba)):
        for d in rng.standard_normal((3,) + grad.shape):
            check_directional(f, x, d, float(np.sum(grad * d)), 1e-5)


# ---------------------------------------------------------------------------
# total: both directions' terms, summed


def both_directions(warps, targets, gs, phis, segs=((None, None), (None, None))):
    """Both directions' ``direction_terms``, A-to-B first; ``segs`` holds each
    direction's warped and target one-hot labels."""
    return [direction_terms(w, t, g, phi, composed, *seg) for w, t, g, phi, composed, seg
            in zip(warps, targets, gs, phis, compositions(phis), segs)]


def identity_inputs():
    """A volume, the all-ones gradient field, the identity and one-hot labels."""
    rng = np.random.default_rng(8)
    a = vol(rng.uniform(0, 1, (1,) + DIMS))
    labels = LabelVolume(rng.integers(0, 3, DIMS))
    return a, GradientField(np.ones((3,) + DIMS)), identity_field(DIMS), one_hot(labels, [1, 2])


def all_identity_terms():
    a, ones, ident, seg = identity_inputs()
    return both_directions((a, a), (a, a), (ones, ones), (ident, ident), ((seg, seg),) * 2)


def test_loss_total_all_identity_is_zero_except_dice_smoothing():
    bd = sum_directions(all_identity_terms(), LossWeights(1, 0, 0.1, 0.01, 10))
    assert bd.sim == 0.0 and bd.reg == 0.0 and bd.jac == 0.0 and bd.inv == 0.0
    assert bd.total == 0.0
    assert bd.seg == 0.0  # identical one-hot volumes cancel exactly


def test_loss_total_weighted_recombination():
    rng = np.random.default_rng(9)
    a_warp, b, b_warp, a = (vol(rng.uniform(0, 1, (1,) + DIMS)) for _ in range(4))
    gs = tuple(GradientField(rng.uniform(0.2, 1.8, (3,) + DIMS)) for _ in range(2))
    phis = tuple(random_field(rng, DIMS, 0.8) for _ in range(2))
    w = LossWeights(1.0, 1.0, 0.1, 0.01, 10.0)
    bd = sum_directions(both_directions((a_warp, b_warp), (b, a), gs, phis), w)
    assert bd.seg == 0.0  # unsupervised mode
    recombined = (w.alpha * bd.sim + w.beta * bd.seg + w.gamma * bd.reg
                  + w.delta * bd.jac + w.epsilon * bd.inv)
    assert bd.total == recombined  # exact by construction
    assert bd.total == pytest.approx(
        1.0 * bd.sim + 0.1 * bd.reg + 0.01 * bd.jac + 10.0 * bd.inv, abs=1e-12
    )


def test_loss_total_returns_both_directions_terms_in_order():
    """Per direction, five (value, pullback) pairs in the field order of
    LossWeights: sim, seg, reg, jac and inv, whose cotangents are those of the
    warped image, the warped labels, g, phi and the composition."""
    terms = all_identity_terms()
    bd = sum_directions(terms, LossWeights(1, 0, 0.1, 0, 10))
    assert len(terms) == 2 and all(len(direction) == 5 for direction in terms)
    assert [ab + ba for (ab, _), (ba, _) in zip(*terms)] == [
        bd.sim, bd.seg, bd.reg, bd.jac, bd.inv]
    for direction in terms:
        assert direction[3][1] is None  # the identity does not fold
        assert [pullback().shape for _, pullback in direction if pullback is not None] == [
            (1,) + DIMS, (2,) + DIMS, (3,) + DIMS, (3,) + DIMS]

    # without labels seg is (0.0, None); folding fields have a jac pullback
    a, ones, _, _ = identity_inputs()
    rng = np.random.default_rng(6)
    phis = (random_field(rng, DIMS, 1.2), random_field(rng, DIMS, 1.2))
    assert all((deform.jacobian_det(phi).data < 0).any() for phi in phis)
    for direction in both_directions((a, a), (a, a), (ones, ones), phis):
        assert direction[1] == (0.0, None)
        assert direction[3][1]().shape == (3,) + DIMS


def test_loss_total_swap_symmetry():
    rng = np.random.default_rng(10)
    a = vol(rng.uniform(0, 1, (1,) + DIMS))
    b = vol(rng.uniform(0, 1, (1,) + DIMS))
    aw = vol(rng.uniform(0, 1, (1,) + DIMS))
    bw = vol(rng.uniform(0, 1, (1,) + DIMS))
    g1 = GradientField(rng.uniform(0.2, 1.8, (3,) + DIMS))
    g2 = GradientField(rng.uniform(0.2, 1.8, (3,) + DIMS))
    p1 = random_field(rng, DIMS, 0.4)
    p2 = random_field(rng, DIMS, 0.4)
    w = LossWeights(1, 0, 0.1, 0.01, 10)
    bd = sum_directions(both_directions((aw, bw), (b, a), (g1, g2), (p1, p2)), w)
    swapped = sum_directions(both_directions((bw, aw), (a, b), (g2, g1), (p2, p1)), w)
    for term in ("sim", "seg", "reg", "jac", "inv", "total"):
        assert getattr(bd, term) == getattr(swapped, term)


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(alpha=-1.0)
    with pytest.raises(ValueError):
        LossWeights(epsilon=float("nan"))

import numpy as np
import pytest

from gradreg.deform import (
    DeformationField,
    GradientField,
    PreActivationField,
    activate,
    compose,
    det_vjp,
    identity_field,
    integrate,
    jacobian_det,
    jacobian_matrix,
    upsample,
    vjp_activate,
    vjp_compose,
    vjp_integrate,
    vjp_upsample,
    vjp_warp,
    vjp_warp_both,
    warp,
    warp_labels,
)
from gradreg.volume import LabelVolume, Volume
from oracles import jacobian_det_oracle

DIMS = (5, 5, 5)


def random_field(rng, dims=DIMS, scale=1.0):
    return DeformationField(
        identity_field(dims).values + scale * rng.standard_normal((3,) + dims)
    )


def random_gradient(rng, dims=DIMS):
    return GradientField(rng.uniform(0.05, 1.95, (3,) + dims))


# ---------------------------------------------------------------------------
# upsample


def test_upsample_stride1_identity():
    rng = np.random.default_rng(0)
    delta = PreActivationField(rng.standard_normal((3, 4, 4, 4)), stride=1)
    out = upsample(delta, (4, 4, 4))
    assert np.array_equal(out.values, delta.values)


def test_upsample_constant_control():
    delta = PreActivationField(np.full((3, 2, 2, 2), 0.7), stride=4)
    out = upsample(delta, (8, 7, 5))
    assert out.values.shape == (3, 8, 7, 5)
    assert np.allclose(out.values, 0.7, atol=1e-15)


def test_upsample_linear_ramp_exact():
    # trilinear interpolation reproduces linear functions exactly
    mx = 4
    control = np.zeros((3, mx, mx, mx))
    for j in range(mx):
        control[0, j, :, :] = 2.0 * j
    delta = PreActivationField(control, stride=2)
    out = upsample(delta, (7, 7, 7))
    expect = np.arange(7, dtype=np.float64)  # 2*(x/2) = x
    assert np.allclose(out.values[0, :, 0, 0], expect, atol=1e-12)


def test_upsample_dims_mismatch():
    delta = PreActivationField(np.zeros((3, 2, 2, 2)), stride=2)
    with pytest.raises(ValueError, match="control dims"):
        upsample(delta, (9, 9, 9))


# ---------------------------------------------------------------------------
# activate / integrate / identity


def test_activate_values():
    x = PreActivationField(np.zeros((3, 2, 2, 2)))
    assert np.all(activate(x).values == 1.0)
    x = PreActivationField(np.full((3, 2, 2, 2), np.log(3.0)))
    assert np.allclose(activate(x).values, 1.5, atol=1e-15)
    x = PreActivationField(np.full((3, 2, 2, 2), -50.0))
    g = activate(x).values
    assert np.all(g > 0.0) and np.all(g < 1e-20)


def test_activate_stays_in_open_interval():
    x = PreActivationField(np.array([-1e6, -700.0, 0.0, 700.0, 1e6] * 5,
                                    dtype=np.float64).reshape(1, 5, 5, 1)
                           * np.ones((3, 5, 5, 1)))
    g = activate(x).values
    assert np.all(g > 0.0) and np.all(g < 2.0)


def test_integrate_identity_and_doubling():
    ones = GradientField(np.ones((3, 4, 4, 4)))
    phi = integrate(ones)
    assert np.array_equal(phi.values, identity_field((4, 4, 4)).values)

    g = np.ones((3, 4, 4, 4))
    g[0] = 2.0 - 1e-12  # just inside the open interval
    phi = integrate(GradientField(g))
    expect = (2.0 - 1e-12) * (np.arange(4) + 1) - 1.0
    assert np.allclose(phi.values[0, :, 0, 0], expect, atol=1e-12)


def test_integrate_strictly_increasing():
    rng = np.random.default_rng(1)
    for _ in range(25):
        phi = integrate(random_gradient(rng))
        for axis in range(3):
            assert np.all(np.diff(phi.values[axis], axis=axis) > 0.0)


def test_identity_field_example():
    phi = identity_field((2, 2, 2))
    coords = {tuple(phi.values[:, x, y, z]) for x in range(2) for y in range(2)
              for z in range(2)}
    assert coords == {(x, y, z) for x in range(2) for y in range(2) for z in range(2)}
    assert np.all(jacobian_det(identity_field((3, 4, 5))).data == 1.0)


# ---------------------------------------------------------------------------
# warp


def test_warp_identity_bit_exact():
    rng = np.random.default_rng(2)
    img = Volume(rng.uniform(-5, 5, (2,) + DIMS), dtype="f64")
    out = warp(img, identity_field(DIMS))
    assert np.array_equal(out.data, img.data)


def test_warp_linear_ramp_half_shift():
    nx = 6
    data = np.broadcast_to(
        np.arange(nx, dtype=np.float64)[:, None, None], (nx, nx, nx)
    ).copy()
    img = Volume(data[np.newaxis], dtype="f64")
    phi = identity_field((nx, nx, nx))
    shifted = phi.values.copy()
    shifted[0] += 0.5
    out = warp(img, DeformationField(shifted))
    interior = out.data[0, : nx - 1]
    assert np.allclose(interior, data[: nx - 1] + 0.5, atol=1e-12)


def test_warp_far_outside_clamps_to_border():
    rng = np.random.default_rng(3)
    img = Volume(rng.uniform(0, 1, (1,) + DIMS), dtype="f64")
    phi_vals = identity_field(DIMS).values.copy()
    phi_vals[0] = 100.0  # way past the far x face
    out = warp(img, DeformationField(phi_vals))
    # x coordinate clamps to nx-1, y/z stay put
    assert np.array_equal(out.data[0], np.broadcast_to(img.data[0, -1], DIMS))
    assert out.data.min() >= img.data.min() and out.data.max() <= img.data.max()


def test_warp_range_bounded_by_input():
    rng = np.random.default_rng(4)
    img = Volume(rng.uniform(-3, 9, (1,) + DIMS), dtype="f64")
    for _ in range(10):
        out = warp(img, random_field(rng, scale=2.0))
        assert out.data.min() >= img.data.min() - 1e-12
        assert out.data.max() <= img.data.max() + 1e-12


def test_warp_dims_mismatch():
    img = Volume(np.zeros((1, 4, 4, 4)))
    with pytest.raises(ValueError, match="dims"):
        warp(img, identity_field((5, 5, 5)))


# ---------------------------------------------------------------------------
# label warping


def test_warp_labels_identity_and_shift():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 4, DIMS).astype(np.uint16)
    lv = LabelVolume(labels)
    assert np.array_equal(warp_labels(lv, identity_field(DIMS)).labels, labels)

    phi_vals = identity_field(DIMS).values.copy()
    phi_vals[0] += 1.0
    shifted = warp_labels(lv, DeformationField(phi_vals))
    assert np.array_equal(shifted.labels[:-1], labels[1:])


def test_warp_labels_ties_round_down():
    labels = np.zeros((4, 1, 1), dtype=np.uint16)
    labels[2] = 7
    phi_vals = np.zeros((3, 4, 1, 1))
    phi_vals[0] = 1.5  # tie between source indices 1 and 2: choose 1
    out = warp_labels(LabelVolume(labels), DeformationField(phi_vals))
    assert np.all(out.labels == 0)
    phi_vals[0] = 2.5  # tie between 2 and 3: choose 2 (label 7)
    out = warp_labels(LabelVolume(labels), DeformationField(phi_vals))
    assert np.all(out.labels == 7)


def test_warp_labels_subset_property():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 5, DIMS).astype(np.uint16)
    lv = LabelVolume(labels)
    for _ in range(10):
        out = warp_labels(lv, random_field(rng, scale=3.0))
        assert set(np.unique(out.labels)) <= set(np.unique(labels))


# ---------------------------------------------------------------------------
# compose


def test_compose_identity_inner_exact():
    rng = np.random.default_rng(7)
    phi = random_field(rng)
    out = compose(phi, identity_field(DIMS))
    assert np.array_equal(out.values, phi.values)


def test_compose_identity_outer_interior():
    rng = np.random.default_rng(8)
    phi_vals = identity_field(DIMS).values + 0.3 * np.random.default_rng(8).uniform(
        -1, 1, (3,) + DIMS
    )
    phi = DeformationField(phi_vals)
    out = compose(identity_field(DIMS), phi)
    # identity coordinates are linear: sampling them returns the clamped phi
    clamped = np.stack(
        [np.clip(phi.values[a], 0, DIMS[a] - 1) for a in range(3)]
    )
    assert np.allclose(out.values, clamped, atol=1e-12)


def test_compose_translations_add_on_interior():
    dims = (7, 7, 7)
    t1 = identity_field(dims).values.copy()
    t1[0] += 1.0
    t2 = identity_field(dims).values.copy()
    t2[0] += 2.0
    out = compose(DeformationField(t1), DeformationField(t2))
    interior = out.values[0][:4]  # x + 2 stays within bounds for x < 5
    expect = identity_field(dims).values[0][:4] + 3.0
    assert np.allclose(interior, expect, atol=1e-12)


# ---------------------------------------------------------------------------
# jacobian determinant


def test_jacobian_det_identity_and_scaling():
    assert np.all(jacobian_det(identity_field((4, 4, 4))).data == 1.0)
    phi = DeformationField(2.0 * identity_field((5, 5, 5)).values)
    det = jacobian_det(phi).data[0]
    assert np.allclose(det[1:-1, 1:-1, 1:-1], 8.0, atol=1e-12)


def test_jacobian_det_matches_cofactor_oracle_exactly():
    rng = np.random.default_rng(9)
    for _ in range(10):
        phi = random_field(rng, dims=(4, 5, 6), scale=1.5)
        ours = jacobian_det(phi).data[0]
        assert np.array_equal(ours, jacobian_det_oracle(phi))


def test_jacobian_det_requires_three_voxels():
    with pytest.raises(ValueError, match="dims"):
        jacobian_det(identity_field((2, 4, 4)))


def test_jacobian_det_affine_field():
    rng = np.random.default_rng(10)
    dims = (6, 6, 6)
    for _ in range(5):
        m = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
        t = rng.uniform(-2, 2, 3)
        ident = identity_field(dims).values
        vals = np.einsum("ab,bxyz->axyz", m, ident) + t[:, None, None, None]
        det = jacobian_det(DeformationField(vals)).data[0]
        interior = det[1:-1, 1:-1, 1:-1]
        assert np.allclose(interior, np.linalg.det(m), atol=1e-12)


# ---------------------------------------------------------------------------
# adjoints vs directional finite differences


def directional_fd(f, x, direction, h=1e-6):
    return (f(x + h * direction) - f(x - h * direction)) / (2.0 * h)


def rel_err(a, b):
    denom = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / denom


def test_vjp_zero_upstream_is_zero():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3,) + DIMS)
    zero = np.zeros((3,) + DIMS)
    assert np.all(vjp_activate(x, zero) == 0.0)
    assert np.all(vjp_integrate(zero) == 0.0)
    img = Volume(rng.uniform(0, 1, (1,) + DIMS), dtype="f64")
    phi = random_field(rng)
    assert np.all(vjp_warp(img, phi, np.zeros((1,) + DIMS)) == 0.0)


def test_vjp_integrate_impulse_gives_suffix_ones():
    up = np.zeros((3, 4, 1, 1))
    up[0, 2, 0, 0] = 1.0
    grad = vjp_integrate(np.broadcast_to(up, (3, 4, 1, 1)).copy())
    assert grad[0, :, 0, 0].tolist() == [1.0, 1.0, 1.0, 0.0]


def test_vjp_activate_matches_fd():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((3,) + DIMS)
    upstream = rng.standard_normal((3,) + DIMS)
    direction = rng.standard_normal((3,) + DIMS)

    def f(vals):
        return float(np.sum(activate(PreActivationField(vals)).values * upstream))

    analytic = float(np.sum(vjp_activate(x, upstream) * direction))
    fd = directional_fd(f, x, direction)
    assert rel_err(analytic, fd) < 1e-6


def test_vjp_integrate_matches_fd():
    rng = np.random.default_rng(13)
    g = random_gradient(rng)
    upstream = rng.standard_normal((3,) + DIMS)
    direction = rng.standard_normal((3,) + DIMS) * 1e-2

    def f(vals):
        return float(np.sum(integrate(GradientField(vals)).values * upstream))

    analytic = float(np.sum(vjp_integrate(upstream) * direction))
    fd = directional_fd(f, g.values, direction)
    assert rel_err(analytic, fd) < 1e-6


def test_vjp_warp_matches_fd():
    rng = np.random.default_rng(14)
    img = Volume(rng.uniform(0, 1, (2,) + DIMS), dtype="f64")
    phi = random_field(rng, scale=0.4)
    upstream = rng.standard_normal((2,) + DIMS)
    direction = rng.standard_normal((3,) + DIMS)

    def f(vals):
        return float(np.sum(warp(img, DeformationField(vals)).data * upstream))

    analytic = float(np.sum(vjp_warp(img, phi, upstream) * direction))
    fd = directional_fd(f, phi.values, direction)
    assert rel_err(analytic, fd) < 1e-6


def test_vjp_warp_image_matches_fd():
    rng = np.random.default_rng(15)
    img_vals = rng.uniform(0, 1, (2,) + DIMS)
    phi = random_field(rng, scale=0.4)
    upstream = rng.standard_normal((2,) + DIMS)
    direction = rng.standard_normal((2,) + DIMS)

    def f(vals):
        return float(
            np.sum(warp(Volume(vals, dtype="f64"), phi).data * upstream)
        )

    values_grad, _ = vjp_warp_both(Volume(img_vals, dtype="f64"), phi, upstream)
    analytic = float(np.sum(values_grad * direction))
    fd = directional_fd(f, img_vals, direction)
    assert rel_err(analytic, fd) < 1e-6


def test_vjp_compose_matches_fd():
    rng = np.random.default_rng(16)
    outer = random_field(rng, scale=0.4)
    inner = random_field(rng, scale=0.4)
    upstream = rng.standard_normal((3,) + DIMS)
    d_outer = rng.standard_normal((3,) + DIMS)
    d_inner = rng.standard_normal((3,) + DIMS)
    go, gi = vjp_compose(outer, inner, upstream)

    def f_outer(vals):
        return float(np.sum(compose(DeformationField(vals), inner).values * upstream))

    def f_inner(vals):
        return float(np.sum(compose(outer, DeformationField(vals)).values * upstream))

    assert rel_err(float(np.sum(go * d_outer)),
                   directional_fd(f_outer, outer.values, d_outer)) < 1e-6
    assert rel_err(float(np.sum(gi * d_inner)),
                   directional_fd(f_inner, inner.values, d_inner)) < 1e-6


def test_jacobian_det_vjp_matches_fd():
    rng = np.random.default_rng(18)
    phi = random_field(rng, scale=0.8)
    upstream = rng.standard_normal(DIMS)
    direction = rng.standard_normal((3,) + DIMS)

    def f(vals):
        return float(np.sum(jacobian_det(DeformationField(vals)).data[0] * upstream))

    analytic = float(np.sum(det_vjp(jacobian_matrix(phi), upstream) * direction))
    fd = directional_fd(f, phi.values, direction)
    assert rel_err(analytic, fd) < 1e-6


def test_vjp_upsample_matches_fd():
    rng = np.random.default_rng(17)
    control = rng.standard_normal((3, 3, 3, 3))
    stride = 2
    image_dims = (5, 5, 5)
    upstream = rng.standard_normal((3,) + image_dims)
    direction = rng.standard_normal((3, 3, 3, 3))

    def f(vals):
        return float(
            np.sum(upsample(PreActivationField(vals, stride=stride), image_dims).values
                   * upstream)
        )

    analytic = float(
        np.sum(vjp_upsample(upstream, stride, (3, 3, 3)) * direction)
    )
    fd = directional_fd(f, control, direction)
    assert rel_err(analytic, fd) < 1e-6

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gradreg import deform
from gradreg.deform import (
    DeformationField,
    GradientField,
    PreActivationField,
    SamplePlan,
    activate,
    axis_gradient,
    axis_gradient_adjoint,
    compose,
    control_dims_for,
    det3x3,
    det_vjp,
    identity_field,
    integrate,
    jacobian_det,
    upsample,
    vjp_activate,
    vjp_integrate,
    vjp_sample,
    vjp_upsample,
    warp,
    warp_labels,
)
from gradreg.volume import LabelVolume, Volume
from oracles import (check_directional, det_vjp_ref, jacobian_det_oracle, jacobian_matrix,
                     edge_safe_field, random_field, vjp_activate_ref)

DIMS = (5, 5, 5)
random_dims = st.tuples(st.integers(3, 7), st.integers(3, 7), st.integers(3, 7))
seeds = st.integers(0, 2**32 - 1)


def random_gradient(rng, dims=DIMS):
    return GradientField(rng.uniform(0.05, 1.95, (3,) + dims))


# ---------------------------------------------------------------------------
# upsample


def test_upsample_stride1_identity():
    rng = np.random.default_rng(0)
    delta = PreActivationField(rng.standard_normal((3, 4, 4, 4)), stride=1)
    out = upsample(delta, (4, 4, 4))
    assert np.array_equal(out, delta.values)


def test_upsample_constant_control():
    delta = PreActivationField(np.full((3, 2, 2, 2), 0.7), stride=4)
    out = upsample(delta, (8, 7, 5))
    assert out.shape == (3, 8, 7, 5)
    assert np.allclose(out, 0.7, atol=1e-15)


def test_upsample_linear_ramp_exact():
    # trilinear interpolation reproduces linear functions exactly
    mx = 4
    control = np.zeros((3, mx, mx, mx))
    for j in range(mx):
        control[0, j, :, :] = 2.0 * j
    delta = PreActivationField(control, stride=2)
    out = upsample(delta, (7, 7, 7))
    expect = np.arange(7, dtype=np.float64)  # 2*(x/2) = x
    assert np.allclose(out[0, :, 0, 0], expect, atol=1e-12)


def test_upsample_dims_mismatch():
    delta = PreActivationField(np.zeros((3, 2, 2, 2)), stride=2)
    with pytest.raises(ValueError, match="control dims"):
        upsample(delta, (9, 9, 9))


# ---------------------------------------------------------------------------
# activate / integrate / identity


def test_activate_values():
    x = np.zeros((3, 2, 2, 2))
    assert np.all(activate(x).values == 1.0)
    x = np.full((3, 2, 2, 2), np.log(3.0))
    assert np.allclose(activate(x).values, 1.5, atol=1e-15)
    x = np.full((3, 2, 2, 2), -50.0)
    g = activate(x).values
    assert np.all(g > 0.0) and np.all(g < 1e-20)


def test_activate_stays_in_open_interval():
    x = (np.array([-1e6, -700.0, 0.0, 700.0, 1e6] * 5, dtype=np.float64).reshape(1, 5, 5, 1)
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
    assert np.all(jacobian_det(identity_field((3, 4, 5))) == 1.0)


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
        out = warp(img, random_field(rng, DIMS, 2.0))
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
        out = warp_labels(lv, random_field(rng, DIMS, 3.0))
        assert set(np.unique(out.labels)) <= set(np.unique(labels))


# ---------------------------------------------------------------------------
# compose


def test_compose_identity_inner_exact():
    rng = np.random.default_rng(7)
    phi = random_field(rng, DIMS, 1.0)
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
    assert np.all(jacobian_det(identity_field((4, 4, 4))) == 1.0)
    phi = DeformationField(2.0 * identity_field((5, 5, 5)).values)
    det = jacobian_det(phi)
    assert np.allclose(det[1:-1, 1:-1, 1:-1], 8.0, atol=1e-12)


def test_jacobian_det_matches_cofactor_oracle_exactly():
    rng = np.random.default_rng(9)
    for _ in range(10):
        phi = random_field(rng, (4, 5, 6), 1.5)
        ours = jacobian_det(phi)
        assert np.array_equal(ours, jacobian_det_oracle(phi))


def test_slab_determinant_equals_the_whole_matrix_bit_for_bit():
    rng = np.random.default_rng(13)
    # 29 * 26 * 23 ends in a 2-row slab; 3 * 200 * 100 has more than _TILE samples per row
    for dims in ((48, 48, 48), (64, 64, 64), (3, 4, 5), (5, 3, 7), (29, 26, 23), (4, 9, 9),
                 (3, 200, 100)):
        phi = random_field(rng, dims, 0.8)
        want = det3x3(jacobian_matrix(phi))
        got = jacobian_det(phi)
        assert got.shape == dims
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_slab_det_vjp_equals_the_whole_matrix_adjoint_bit_for_bit():
    rng = np.random.default_rng(17)
    # 20 * 130 * 130 has more than _TILE samples per row and three 8-row slabs
    for dims in ((48, 48, 48), (64, 64, 64), (3, 4, 5), (5, 3, 7), (29, 26, 23), (4, 9, 9),
                 (3, 200, 100), (20, 130, 130)):
        phi = random_field(rng, dims, 0.8)
        matrix = jacobian_matrix(phi)
        det = det3x3(matrix)
        assert (det < 0.0).any(), dims
        # the hinge's kind of upstream, zero on most voxels, shows a -0.0 slip
        sparse = np.where(det < np.quantile(det, 0.1), -1.0 / det.size, 0.0)
        for upstream in (rng.standard_normal(dims), sparse):
            got = det_vjp(phi, upstream)
            want = det_vjp_ref(matrix, upstream)
            assert got.shape == (3,) + dims
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), dims


def test_det_vjp_peak_stays_below_the_whole_matrix():
    dims = (64, 64, 64)
    phi = random_field(np.random.default_rng(19), dims, 0.8)
    upstream = np.random.default_rng(20).standard_normal(dims)
    tracemalloc.start()
    try:
        det_vjp(phi, upstream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / np.prod(dims) < 72  # bytes per voxel of the (3, 3, N) matrix alone


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
        det = jacobian_det(DeformationField(vals))
        interior = det[1:-1, 1:-1, 1:-1]
        assert np.allclose(interior, np.linalg.det(m), atol=1e-12)


# ---------------------------------------------------------------------------
# adjoints vs directional finite differences


def test_vjp_zero_upstream_is_zero():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3,) + DIMS)
    zero = np.zeros((3,) + DIMS)
    assert np.all(vjp_activate(activate(x).values, zero) == 0.0)
    assert np.all(vjp_integrate(zero) == 0.0)
    img = Volume(rng.uniform(0, 1, (1,) + DIMS), dtype="f64")
    phi = random_field(rng, DIMS, 1.0)
    coords_grad, (values_grad,) = vjp_sample(phi, [img.data], [np.zeros((1,) + DIMS)], [True])
    assert np.all(coords_grad == 0.0)
    assert np.all(values_grad == 0.0)


def test_vjp_integrate_impulse_gives_suffix_ones():
    up = np.zeros((3, 4, 1, 1))
    up[0, 2, 0, 0] = 1.0
    grad = vjp_integrate(np.broadcast_to(up, (3, 4, 1, 1)).copy())
    assert grad[0, :, 0, 0].tolist() == [1.0, 1.0, 1.0, 0.0]


@given(seeds, random_dims)
@example(3904, (3, 7, 7))  # a derivative that cancels below a plain relative bound
def test_vjp_activate_matches_fd(seed, dims):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3,) + dims)
    upstream = rng.standard_normal((3,) + dims)
    direction = rng.standard_normal((3,) + dims)

    def f(vals):
        return activate(vals).values * upstream

    analytic = float(np.sum(vjp_activate(activate(x).values, upstream) * direction))
    check_directional(f, x, direction, analytic, 1e-6)


def test_vjp_activate_matches_the_sigmoid_formula_bit_for_bit():
    """The adjoint from ``g`` has the bits of the sigmoid form for +x and -x, the
    two directions' parameters, saturated and clipped voxels and zeros' signs
    included."""
    rng = np.random.default_rng(20)
    dims = (7, 16, 32)
    x = np.concatenate([rng.normal(0.0, sigma, 1536) for sigma in (0.5, 20.0, 40.0, 200.0)]
                       + [np.linspace(-800.0, 800.0, 1536), np.linspace(36.0, 38.0, 1536),
                          np.linspace(-746.0, -700.0, 1536)])
    x = x.reshape((3,) + dims)
    upstream = rng.standard_normal((3,) + dims)
    upstream.flat[::7] = 0.0
    upstream.flat[::11] *= -0.0
    for values in (x, -x):
        got = vjp_activate(activate(values).values, upstream)
        want = vjp_activate_ref(values, upstream)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_vjp_integrate_matches_fd():
    rng = np.random.default_rng(13)
    g = random_gradient(rng)
    upstream = rng.standard_normal((3,) + DIMS)
    direction = rng.standard_normal((3,) + DIMS) * 1e-2

    def f(vals):
        return integrate(GradientField(vals)).values * upstream

    analytic = float(np.sum(vjp_integrate(upstream) * direction))
    check_directional(f, g.values, direction, analytic, 1e-6)


def test_vjp_warp_matches_fd():
    rng = np.random.default_rng(14)
    img = Volume(rng.uniform(0, 1, (2,) + DIMS), dtype="f64")
    phi = edge_safe_field(rng, DIMS, 0.4)
    upstream = rng.standard_normal((2,) + DIMS)
    direction = rng.standard_normal((3,) + DIMS)

    def f(vals):
        return warp(img, DeformationField(vals)).data * upstream

    coords_grad, _ = vjp_sample(phi, [img.data], [upstream], [False])
    analytic = float(np.sum(coords_grad * direction))
    check_directional(f, phi.values, direction, analytic, 1e-6)


def test_vjp_warp_image_matches_fd():
    rng = np.random.default_rng(15)
    img_vals = rng.uniform(0, 1, (2,) + DIMS)
    phi = random_field(rng, DIMS, 0.4)
    upstream = rng.standard_normal((2,) + DIMS)
    direction = rng.standard_normal((2,) + DIMS)

    def f(vals):
        return warp(Volume(vals, dtype="f64"), phi).data * upstream

    _, (values_grad,) = vjp_sample(phi, [img_vals], [upstream], [True])
    analytic = float(np.sum(values_grad * direction))
    check_directional(f, img_vals, direction, analytic, 1e-6)


def test_image_value_check_rejects_a_scatter_missing_a_corner(monkeypatch):
    scatter = SamplePlan.scatter

    def scatter_without_last_corner(plan, upstream):
        plan.offsets = plan.offsets[:-1]  # a plan lives for one call
        return scatter(plan, upstream)

    monkeypatch.setattr(SamplePlan, "scatter", scatter_without_last_corner)
    with pytest.raises(AssertionError, match="finite difference"):
        test_vjp_warp_image_matches_fd()


def test_vjp_compose_matches_fd():
    rng = np.random.default_rng(16)
    outer = random_field(rng, DIMS, 0.4)
    inner = edge_safe_field(rng, DIMS, 0.4)  # only the inner field's values are coordinates
    upstream = rng.standard_normal((3,) + DIMS)
    d_outer = rng.standard_normal((3,) + DIMS)
    d_inner = rng.standard_normal((3,) + DIMS)
    gi, (go,) = vjp_sample(inner, [outer.values], [upstream], [True])

    def f_outer(vals):
        return compose(DeformationField(vals), inner).values * upstream

    def f_inner(vals):
        return compose(outer, DeformationField(vals)).values * upstream

    check_directional(f_outer, outer.values, d_outer, float(np.sum(go * d_outer)), 1e-6)
    check_directional(f_inner, inner.values, d_inner, float(np.sum(gi * d_inner)), 1e-6)


@given(seeds, random_dims)
@example(1611627423, (5, 4, 7))  # two derivatives that cancel below a plain relative bound
@example(3083171157, (4, 3, 6))
def test_jacobian_det_vjp_matches_fd(seed, dims):
    rng = np.random.default_rng(seed)
    phi = random_field(rng, dims, 0.8)
    upstream = rng.standard_normal(dims)
    direction = rng.standard_normal((3,) + dims)

    def f(vals):
        return jacobian_det(DeformationField(vals)) * upstream

    analytic = float(np.sum(det_vjp(phi, upstream) * direction))
    check_directional(f, phi.values, direction, analytic, 1e-6)


def test_det_check_rejects_an_adjoint_missing_a_border_term(monkeypatch):
    adjoint = deform.axis_gradient_adjoint

    def without_last_border_term(u, axis):
        g = adjoint(u, axis)
        np.moveaxis(g, axis, 0)[-2] += np.moveaxis(u, axis, 0)[-1]  # undo its last line
        return g

    monkeypatch.setattr(deform, "axis_gradient_adjoint", without_last_border_term)
    rng = np.random.default_rng(23)
    for _ in range(20):
        seed, dims = int(rng.integers(2**32)), tuple(int(n) for n in rng.integers(3, 8, 3))
        with pytest.raises(AssertionError, match="finite difference"):
            test_jacobian_det_vjp_matches_fd.hypothesis.inner_test(seed, dims)


def test_vjp_upsample_matches_fd():
    rng = np.random.default_rng(17)
    control = rng.standard_normal((3, 3, 3, 3))
    stride = 2
    image_dims = (5, 5, 5)
    upstream = rng.standard_normal((3,) + image_dims)
    direction = rng.standard_normal((3, 3, 3, 3))

    def f(vals):
        return upsample(PreActivationField(vals, stride=stride), image_dims) * upstream

    analytic = float(
        np.sum(vjp_upsample(upstream, stride, (3, 3, 3)) * direction)
    )
    check_directional(f, control, direction, analytic, 1e-6)


# ---------------------------------------------------------------------------
# dot-product adjoint identities <J v, u> = <v, J^T u> at random shapes


def assert_adjoint(jv, u, v, jtu):
    lhs = float(np.sum(jv * u))
    rhs = float(np.sum(v * jtu))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@given(seeds, random_dims, st.integers(0, 2))
def test_axis_gradient_adjoint_identity(seed, dims, axis):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dims)
    u = rng.standard_normal(dims)
    assert_adjoint(axis_gradient(v, axis), u, v, axis_gradient_adjoint(u, axis))


@given(seeds, random_dims)
def test_integrate_cumsum_adjoint_identity(seed, dims):
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.05, 1.95, (3,) + dims)
    u = rng.standard_normal((3,) + dims)
    # integrate is the per-axis prefix sum minus one; the sum is its linear part
    cumsum = integrate(GradientField(v)).values + 1.0
    assert_adjoint(cumsum, u, v, vjp_integrate(u))


@given(seeds, random_dims, st.integers(1, 4))
def test_upsample_adjoint_identity(seed, dims, stride):
    rng = np.random.default_rng(seed)
    control = control_dims_for(dims, stride)
    v = rng.standard_normal((3,) + control)
    u = rng.standard_normal((3,) + dims)
    full = upsample(PreActivationField(v, stride=stride), dims)
    assert_adjoint(full, u, v, vjp_upsample(u, stride, control))


@given(seeds, st.integers(1, 4), st.tuples(*[st.integers(0, 3)] * 3),
       st.tuples(*[st.integers(1, 3)] * 3))
def test_upsample_adjoint_identity_stride_not_dividing(seed, stride, wholes, parts):
    # each axis is a whole number of cells plus a partial one (1- and 2-voxel axes included)
    dims = tuple(stride * q + min(r, max(stride - 1, 1)) for q, r in zip(wholes, parts))
    rng = np.random.default_rng(seed)
    control = control_dims_for(dims, stride)
    v = rng.standard_normal((3,) + control)
    u = rng.standard_normal((3,) + dims)
    full = upsample(PreActivationField(v, stride=stride), dims)
    assert_adjoint(full, u, v, vjp_upsample(u, stride, control))

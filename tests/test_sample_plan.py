"""The trilinear sample plan: adjoint identities, exactness, reuse."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gradreg import deform
from gradreg.deform import DeformationField, PreActivationField, SamplePlan
from gradreg.volume import Volume
from oracles import grid_coords_ref, sample_trilinear_ref, sample_vjp_ref, vjp_upsample_ref

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

side = st.integers(1, 6)
cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "dims": st.tuples(side, side, side),
    "shape": st.tuples(side, side, side),
    "channels": st.sampled_from([1, 3, 7]),
    "grid": st.booleans(),
})


def draw_coords(rng, dims, shape, grid):
    """Coordinates a safe distance from every cell edge, partly outside [0, n-1].

    ``grid`` gives broadcastable per-axis lines, as upsample samples its
    control grid; otherwise every coordinate array has the full ``shape``.
    """
    coords = []
    for axis, (n, m) in enumerate(zip(dims, shape)):
        line_shape = [1, 1, 1]
        line_shape[axis] = m
        size = tuple(line_shape) if grid else shape
        whole = rng.integers(-2, n + 1, size).astype(np.float64)
        coords.append(whole + rng.uniform(0.01, 0.99, size))
    return coords


@PROPERTY
@given(cases)
def test_gather_scatter_dot_product_identity(case):
    rng = np.random.default_rng(case["seed"])
    plan = SamplePlan(draw_coords(rng, case["dims"], case["shape"], case["grid"]),
                      case["dims"])
    v = rng.standard_normal((case["channels"],) + case["dims"])
    u = rng.standard_normal((case["channels"],) + case["shape"])
    lhs = float(np.sum(plan.gather(v) * u))
    rhs = float(np.sum(v * plan.scatter(u)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@PROPERTY
@given(cases)
def test_coords_grad_matches_central_differences(case):
    rng = np.random.default_rng(case["seed"])
    dims = case["dims"]
    coords = draw_coords(rng, dims, case["shape"], case["grid"])
    v = rng.standard_normal((case["channels"],) + dims)
    u = rng.standard_normal((case["channels"],) + case["shape"])
    direction = [rng.standard_normal(c.shape) for c in coords]
    h = 1e-6

    def f(t):
        moved = [c + t * d for c, d in zip(coords, direction)]
        return float(np.sum(SamplePlan(moved, dims).gather(v) * u))

    grad = SamplePlan(coords, dims).coords_grad(v, u)
    analytic = sum(float(np.sum(g * d)) for g, d in zip(grad, direction))
    fd = (f(h) - f(-h)) / (2.0 * h)
    assert abs(analytic - fd) <= 1e-6 * max(1.0, abs(fd))


# ---------------------------------------------------------------------------
# bit-equality with the per-call reference formulas


def layout(a):
    """Strides of the axes longer than one; numpy gives a length-1 axis any stride."""
    return [stride for stride, n in zip(a.strides, a.shape) if n > 1]


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert layout(got) == layout(want)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def random_field(rng, dims):
    """An integrated field, channel-interleaved as in registration, reaching past the border."""
    control = deform.control_dims_for(dims, 2)
    delta = PreActivationField(rng.normal(0.0, 1.5, (3,) + control), stride=2)
    return deform.integrate(deform.activate(deform.upsample(delta, dims)))


def test_plan_matches_reference_formulas_bit_for_bit():
    rng = np.random.default_rng(3)
    # a one-voxel axis has corner offset 0; a two-voxel axis puts every low corner at 0
    for dims in ((7, 6, 5), (1, 6, 5), (7, 2, 1)):
        check_plan_against_reference(rng, dims)


def check_plan_against_reference(rng, dims):
    phi = random_field(rng, dims)
    # a C-contiguous, non-monotone outer field
    other = DeformationField(random_field(rng, dims).values
                             + rng.uniform(-1.5, 1.5, (3,) + dims))
    assert phi.values.strides[0] == 8 and other.values.flags.c_contiguous
    coords = tuple(phi.values)
    for channels in (1, 3):
        img = Volume(rng.uniform(0.0, 1.0, (channels,) + dims), dtype="f64")
        interleaved = deform.warp(img, other)
        # channel-interleaved with a gap after every channel: neither layout is contiguous
        gapped = np.moveaxis(rng.standard_normal(dims + (2 * channels,))[..., ::2], -1, 0)
        for source in (img, interleaved):
            want = sample_trilinear_ref(source.data, *coords)
            assert_same_bits(deform.warp(source, phi).data, want)
            for upstream in (rng.standard_normal((channels,) + dims), want * 0.5, gapped):
                ref_values, ref_coords = sample_vjp_ref(source.data, source.data.shape,
                                                        coords, upstream)
                values_grad, coords_grad = deform.vjp_warp_both(source, phi, upstream)
                assert_same_bits(values_grad, ref_values)
                assert_same_bits(coords_grad, ref_coords)
                assert_same_bits(deform.vjp_warp(source, phi, upstream), ref_coords)

    assert_same_bits(deform.compose(other, phi).values,
                     sample_trilinear_ref(other.values, *coords))
    upstream = rng.standard_normal((3,) + dims)
    ref_outer, ref_inner = sample_vjp_ref(other.values, other.values.shape, coords, upstream)
    go, gi = deform.vjp_compose(other, phi, upstream)
    assert_same_bits(go, ref_outer)
    assert_same_bits(gi, ref_inner)


def test_upsample_and_adjoint_match_reference_formulas_bit_for_bit():
    rng = np.random.default_rng(4)
    for image_dims, stride in (((9, 8, 7), 4), ((10, 10, 10), 3), ((5, 6, 4), 2)):
        control = deform.control_dims_for(image_dims, stride)
        delta = PreActivationField(rng.standard_normal((3,) + control), stride=stride)
        assert_same_bits(deform.upsample(delta, image_dims).values,
                         sample_trilinear_ref(delta.values,
                                              *grid_coords_ref(image_dims, stride)))
        upstream = rng.standard_normal((3,) + image_dims)
        assert_same_bits(deform.vjp_upsample(upstream, stride, control),
                         vjp_upsample_ref(upstream, stride, control))


def test_one_plan_per_field(monkeypatch):
    built = []

    class CountingPlan(SamplePlan):
        def __init__(self, coords, dims):
            built.append(dims)
            super().__init__(coords, dims)

    rng = np.random.default_rng(5)
    dims = (6, 6, 6)
    phi, outer = random_field(rng, dims), random_field(rng, dims)
    monkeypatch.setattr(deform, "SamplePlan", CountingPlan)
    img = Volume(rng.uniform(0.0, 1.0, (1,) + dims), dtype="f64")
    deform.warp(img, phi)
    deform.warp(Volume(rng.uniform(0.0, 1.0, (3,) + dims), dtype="f64"), phi)
    deform.compose(outer, phi)
    deform.vjp_warp_both(img, phi, rng.standard_normal((1,) + dims))
    assert built == [dims]

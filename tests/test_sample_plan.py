"""The trilinear sample plan: adjoint identities, exactness, one plan per call."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradreg import deform
from gradreg.deform import DeformationField, PreActivationField, SamplePlan
from gradreg.volume import Volume
from oracles import (check_directional, sample_trilinear_ref, sample_vjp_ref, upsample_ref,
                     vjp_upsample_ref)

side = st.integers(1, 6)
cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "dims": st.tuples(side, side, side),
    "shape": st.tuples(side, side, side),
    "channels": st.sampled_from([1, 3, 7]),
})


def draw_coords(rng, dims, shape):
    """Coordinates (3, *shape) a safe distance from every cell edge, partly
    outside [0, n-1]."""
    whole = np.stack([rng.integers(-2, n + 1, shape) for n in dims]).astype(np.float64)
    return whole + rng.uniform(0.01, 0.99, (3,) + shape)


@given(cases)
def test_gather_scatter_dot_product_identity(case):
    rng = np.random.default_rng(case["seed"])
    plan = SamplePlan(draw_coords(rng, case["dims"], case["shape"]), case["dims"])
    v = rng.standard_normal((case["channels"],) + case["dims"])
    u = rng.standard_normal((case["channels"],) + case["shape"])
    lhs = float(np.sum(plan.gather([v])[0] * u))
    rhs = float(np.sum(v * plan.scatter(u)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@given(cases)
def test_coords_grad_matches_central_differences(case):
    rng = np.random.default_rng(case["seed"])
    dims = case["dims"]
    coords = draw_coords(rng, dims, case["shape"])
    v = rng.standard_normal((case["channels"],) + dims)
    u = rng.standard_normal((case["channels"],) + case["shape"])
    direction = rng.standard_normal(coords.shape)

    def f(moved):
        return SamplePlan(moved, dims).gather([v])[0] * u

    analytic = float(np.sum(SamplePlan(coords, dims).coords_grad(v, u) * direction))
    check_directional(f, coords, direction, analytic, 1e-6)


# ---------------------------------------------------------------------------
# bit-equality with the per-call reference formulas


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.flags.c_contiguous
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def integrated_field(rng, dims):
    """An integrated field, C-contiguous as in registration, reaching past the border."""
    control = deform.control_dims_for(dims, 2)
    delta = PreActivationField(rng.normal(0.0, 1.5, (3,) + control), stride=2)
    return deform.integrate(deform.activate(deform.upsample(delta, dims)))


def test_plan_matches_reference_formulas_bit_for_bit():
    rng = np.random.default_rng(3)
    # a one-voxel axis has corner offset 0; a two-voxel axis puts every low corner at 0;
    # 29 * 26 * 23 = 17342 samples are one full block of the plan's passes and a partial one
    assert deform._TILE < 29 * 26 * 23 < 2 * deform._TILE
    for dims in ((7, 6, 5), (1, 6, 5), (7, 2, 1), (29, 26, 23)):
        check_plan_against_reference(rng, dims)


def check_plan_against_reference(rng, dims):
    phi = integrated_field(rng, dims)
    # a C-contiguous, non-monotone outer field
    other = DeformationField(integrated_field(rng, dims).values
                             + rng.uniform(-1.5, 1.5, (3,) + dims))
    assert phi.values.flags.c_contiguous and other.values.flags.c_contiguous
    coords = tuple(phi.values)
    for channels in (1, 3):
        img = Volume(rng.uniform(0.0, 1.0, (channels,) + dims), dtype="f64")
        warped = deform.warp(img, other).data
        interleaved = Volume(np.moveaxis(np.moveaxis(warped, 0, -1).copy(), -1, 0),
                             dtype="f64")
        assert interleaved.data.strides[0] == 8
        # channel-interleaved with a gap after every channel: neither layout is contiguous
        gapped = np.moveaxis(rng.standard_normal(dims + (2 * channels,))[..., ::2], -1, 0)
        for source in (img, interleaved):
            want = sample_trilinear_ref(source.data, *coords)
            assert_same_bits(deform.warp(source, phi).data, want)
            for upstream in (rng.standard_normal((channels,) + dims), want * 0.5, gapped):
                ref_values, ref_coords = sample_vjp_ref(source.data, source.data.shape,
                                                        coords, upstream)
                coords_grad, (values_grad,) = deform.vjp_sample(phi, [source.data],
                                                                [upstream], [True])
                assert_same_bits(values_grad, ref_values)
                assert_same_bits(coords_grad, ref_coords)
                coords_only, (none,) = deform.vjp_sample(phi, [source.data], [upstream],
                                                         [False])
                assert_same_bits(coords_only, ref_coords)
                assert none is None

    assert_same_bits(deform.compose(other, phi).values,
                     sample_trilinear_ref(other.values, *coords))
    upstream = rng.standard_normal((3,) + dims)
    ref_outer, ref_inner = sample_vjp_ref(other.values, other.values.shape, coords, upstream)
    gi, (go,) = deform.vjp_sample(phi, [other.values], [upstream], [True])
    assert_same_bits(go, ref_outer)
    assert_same_bits(gi, ref_inner)


def test_one_sample_call_equals_separate_warps_and_compose_bit_for_bit():
    rng = np.random.default_rng(6)
    for dims in ((29, 26, 23), (7, 1, 5)):
        phi, other = integrated_field(rng, dims), integrated_field(rng, dims)
        image = Volume(rng.uniform(0.0, 1.0, (1,) + dims), dtype="f64")
        labels = Volume(rng.uniform(0.0, 1.0, (3,) + dims), dtype="f64")
        outs = deform.sample(phi, [image.data, labels.data, other.values])
        wants = [deform.warp(image, phi).data, deform.warp(labels, phi).data,
                 deform.compose(other, phi).values]
        assert len(outs) == 3
        for got, want in zip(outs, wants):
            assert_same_bits(got, want)
        # one array per source, so a kept warp holds no other source's samples
        for i, got in enumerate(outs):
            assert got.base is None or got.base.size == got.size
            assert not any(np.shares_memory(got, o) for o in outs[i + 1:])


def test_plan_keeps_at_most_35_bytes_per_sample():
    rng = np.random.default_rng(7)
    for dims, shape in (((7, 6, 5), (7, 6, 5)), ((29, 26, 23), (29, 26, 23)),
                        ((4, 1, 3), (2, 5, 6))):
        plan = SamplePlan(draw_coords(rng, dims, shape), dims)
        held = sum(a.nbytes for a in vars(plan).values() if isinstance(a, np.ndarray))
        assert plan.base.size == np.prod(shape)
        assert held <= 35 * plan.base.size


def assert_close(got, want, rel=1e-13):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def test_upsample_and_adjoint_match_reference_formulas():
    # the separable passes round differently from the trilinear corner products
    rng = np.random.default_rng(4)
    for image_dims, stride in (((9, 8, 7), 4), ((10, 10, 10), 3), ((5, 6, 4), 2),
                               ((1, 2, 7), 3)):
        control = deform.control_dims_for(image_dims, stride)
        delta = PreActivationField(rng.standard_normal((3,) + control), stride=stride)
        assert_close(deform.upsample(delta, image_dims).values,
                     upsample_ref(delta.values, image_dims, stride))
        upstream = rng.standard_normal((3,) + image_dims)
        assert_close(deform.vjp_upsample(upstream, stride, control),
                     vjp_upsample_ref(upstream, stride, control))


sweep_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "dims": st.tuples(side, side, side),
    "channels": st.lists(st.sampled_from([1, 3]), min_size=1, max_size=3),
    "scatter": st.lists(st.booleans(), min_size=3, max_size=3),
})


@given(sweep_cases)
def test_sweep_equals_the_per_source_adjoints(case):
    rng = np.random.default_rng(case["seed"])
    dims = case["dims"]
    phi = DeformationField(draw_coords(rng, dims, dims))  # partly clamped
    sources = [rng.standard_normal((c,) + dims) for c in case["channels"]]
    upstreams = [rng.standard_normal((c,) + dims) for c in case["channels"]]
    scatter = case["scatter"][:len(sources)]
    coords_grad, values = deform.vjp_sample(phi, sources, upstreams, scatter)
    plan = SamplePlan(phi.values, dims)
    want = sum(plan.coords_grad(v, u) for v, u in zip(sources, upstreams))
    assert coords_grad.shape == (3,) + dims
    assert np.max(np.abs(coords_grad - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)
    assert len(values) == len(sources)
    for u, s, got in zip(upstreams, scatter, values):
        if s:
            assert_same_bits(got, plan.scatter(u))
        else:
            assert got is None


@given(sweep_cases, st.integers(0, 2))
def test_a_source_without_cotangent_is_left_out_of_the_sweep(case, drop):
    """A None upstream adds no channels to the coordinate pass, bit for bit as if
    its source were not given, and has no value gradient even if flagged."""
    rng = np.random.default_rng(case["seed"])
    dims = case["dims"]
    phi = DeformationField(draw_coords(rng, dims, dims))
    sources = [rng.standard_normal((c,) + dims) for c in case["channels"]]
    upstreams = [rng.standard_normal((c,) + dims) for c in case["channels"]]
    scatter = case["scatter"][:len(sources)]
    drop %= len(sources)
    scatter[drop] = True
    kept = [i for i in range(len(sources)) if i != drop]
    coords_grad, values = deform.vjp_sample(
        phi, sources, [None if i == drop else u for i, u in enumerate(upstreams)], scatter)
    want_coords, want_values = deform.vjp_sample(
        phi, [sources[i] for i in kept], [upstreams[i] for i in kept], [scatter[i] for i in kept])
    assert_same_bits(coords_grad, want_coords)
    assert values[drop] is None
    assert len(values) == len(sources)
    for got, want in zip([values[i] for i in kept], want_values):
        if want is None:
            assert got is None
        else:
            assert_same_bits(got, want)


def signed_zeros(rng, shape):
    return np.where(rng.random(shape) < 0.5, -0.0, 0.0)


SOURCE_KINDS = {
    "normal": lambda rng, shape: rng.standard_normal(shape),
    "zero": lambda rng, shape: np.zeros(shape),
    "negative zero": lambda rng, shape: np.full(shape, -0.0),
    "signed zeros": signed_zeros,
    "some zeros": lambda rng, shape: np.where(rng.random(shape) < 0.3, signed_zeros(rng, shape),
                                              rng.standard_normal(shape)),
}
multi_source_cases = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "dims": st.tuples(side, side, side),
    "on_grid": st.floats(0.0, 1.0),
    # (channels, source kind, whether the source has a cotangent)
    "sources": st.lists(st.tuples(st.sampled_from([1, 3]), st.sampled_from(list(SOURCE_KINDS)),
                                  st.booleans()), min_size=1, max_size=3),
})


@given(multi_source_cases)
def test_sweep_coordinate_gradient_equals_the_reference_bit_for_bit(case):
    """The sweep's coordinate gradient over several sources is, bit for bit, the
    reference adjoint of their channels stacked in order, the channels of a
    source without cotangent left out; zero signs, clamped samples, samples on
    the grid and one-voxel axes included."""
    rng = np.random.default_rng(case["seed"])
    dims = case["dims"]
    coords = draw_coords(rng, dims, dims)  # partly clamped
    on_grid = rng.random(coords.shape) < case["on_grid"]
    coords[on_grid] = np.floor(coords[on_grid])  # grid points, the border included
    phi = DeformationField(coords)
    sources = [SOURCE_KINDS[kind](rng, (c,) + dims) for c, kind, _ in case["sources"]]
    upstreams = [rng.standard_normal((c,) + dims) if has else None
                 for c, _, has in case["sources"]]
    coords_grad, _ = deform.vjp_sample(phi, sources, upstreams, [False] * len(sources))
    used = [(s, u) for s, u in zip(sources, upstreams) if u is not None]
    if not used:
        assert_same_bits(coords_grad, np.zeros((3,) + dims))
        return
    values = np.concatenate([s for s, _ in used])
    _, want = sample_vjp_ref(values, values.shape, tuple(coords),
                             np.concatenate([u for _, u in used]))
    assert_same_bits(coords_grad, want)


def test_scatter_rejects_an_upstream_of_another_size():
    dims = (5, 4, 3)
    plan = SamplePlan(np.indices(dims) + 0.3, dims)
    with pytest.raises(ValueError, match="samples"):
        plan.scatter(np.ones((1, 3)))


def test_coords_grad_rejects_a_plane_or_upstream_of_another_size():
    dims = (5, 4, 3)
    plan = SamplePlan(np.indices(dims) + 0.3, dims)
    values, upstream = np.ones((2,) + dims), np.ones((2,) + dims)
    with pytest.raises(ValueError, match="voxels"):
        plan.coords_grad(np.ones((2, 5, 4, 2)), upstream)
    with pytest.raises(ValueError, match="voxels"):
        plan.coords_grad([values[0], np.ones(61)], upstream)
    with pytest.raises(ValueError, match="samples"):
        plan.coords_grad(values, [upstream[0], np.ones(59)])
    assert plan.coords_grad(values, upstream).shape == (3,) + dims


def test_scatter_peak_is_its_output_plus_block_rows():
    """No (8, N) weight table: that alone is 64 B per sample."""
    dims = (64, 64, 64)
    rng = np.random.default_rng(21)
    phi = integrated_field(rng, dims)
    plan = SamplePlan(phi.values, dims)
    upstream = rng.standard_normal((3,) + dims)
    tracemalloc.start()
    try:
        out = plan.scatter(upstream)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - out.nbytes) / upstream[0].size < 16


def test_one_plan_per_sampling_call(monkeypatch):
    """Each ``sample`` and ``vjp_sample`` call builds one plan for all its sources,
    and keeps none: a second call at the same field builds its own."""
    built = []

    class CountingPlan(SamplePlan):
        def __init__(self, coords, dims):
            built.append(dims)
            super().__init__(coords, dims)

    rng = np.random.default_rng(5)
    dims = (6, 6, 6)
    phi, outer = integrated_field(rng, dims), integrated_field(rng, dims)
    monkeypatch.setattr(deform, "SamplePlan", CountingPlan)
    img = Volume(rng.uniform(0.0, 1.0, (1,) + dims), dtype="f64")
    sources = [img.data, rng.uniform(0.0, 1.0, (3,) + dims), outer.values]
    for count in (1, 3):
        built.clear()
        deform.sample(phi, sources[:count])
        assert built == [dims]
        built.clear()
        deform.vjp_sample(phi, sources[:count],
                          [rng.standard_normal(s.shape) for s in sources[:count]],
                          [True] * count)
        assert built == [dims]
    built.clear()
    deform.warp(img, phi)
    deform.compose(outer, phi)
    assert built == [dims, dims]


def test_a_field_written_in_place_is_sampled_at_its_new_values():
    """A field keeps nothing from an earlier sample: after its values change in
    place, a warp is bit for bit that of a new field with those values."""
    rng = np.random.default_rng(6)
    dims = (7, 6, 5)
    phi = integrated_field(rng, dims)
    img = Volume(rng.uniform(0.0, 1.0, (2,) + dims), dtype="f64")
    before = deform.warp(img, phi).data
    phi.values += rng.uniform(-1.5, 1.5, phi.values.shape)
    after = deform.warp(img, phi).data
    fresh = deform.warp(img, DeformationField(phi.values.copy())).data
    assert not np.array_equal(after, before)
    assert_same_bits(after, fresh)

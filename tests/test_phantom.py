import numpy as np
import pytest

from gradreg import deform
from gradreg.deform import compose, identity_field, jacobian_det
from gradreg.metrics import dice
from gradreg.phantom import (
    AnalyticWarp,
    Ellipsoid,
    PhantomSpec,
    make_pair,
    _lcg_normals,
    make_phantom,
    analytic_field,
)
from oracles import inv_interior_ref, lcg_normals_ref

SPEC = PhantomSpec(
    dims=(16, 16, 16),
    ellipsoids=[
        Ellipsoid((7, 7, 8), (5, 4, 4), 1, 1.0),
        Ellipsoid((11, 11, 8), (3, 3, 3), 2, 0.5),
    ],
    background=0.0,
    noise_sigma=0.02,
    seed=9,
)


def test_empty_spec_uniform_background():
    spec = PhantomSpec(dims=(4, 4, 4), background=0.25)
    img, labels = make_phantom(spec)
    assert np.all(img.data == 0.25)
    assert np.all(labels.labels == 0)


def test_ellipsoid_membership_matches_inequality_oracle():
    spec = PhantomSpec(dims=(12, 12, 12),
                       ellipsoids=[Ellipsoid((5, 5, 5), (3, 2, 4), 1, 1.0)])
    _, labels = make_phantom(spec)
    count = 0
    for x in range(12):
        for y in range(12):
            for z in range(12):
                inside = ((x - 5) / 3) ** 2 + ((y - 5) / 2) ** 2 + ((z - 5) / 4) ** 2 <= 1
                count += inside
                assert (labels.labels[x, y, z] == 1) == inside
    assert (labels.labels == 1).sum() == count


def test_later_ellipsoids_overwrite():
    spec = PhantomSpec(
        dims=(10, 10, 10),
        ellipsoids=[
            Ellipsoid((5, 5, 5), (4, 4, 4), 1, 1.0),
            Ellipsoid((5, 5, 5), (2, 2, 2), 2, 0.5),
        ],
    )
    img, labels = make_phantom(spec)
    assert labels.labels[5, 5, 5] == 2
    assert img.data[0, 5, 5, 5] == 0.5
    assert labels.labels[5, 5, 1] == 1


def test_phantom_determinism_per_seed():
    img1, lab1 = make_phantom(SPEC)
    img2, lab2 = make_phantom(SPEC)
    assert np.array_equal(img1.data, img2.data)
    assert np.array_equal(lab1.labels, lab2.labels)
    other = PhantomSpec(dims=SPEC.dims, ellipsoids=SPEC.ellipsoids,
                        noise_sigma=SPEC.noise_sigma, seed=10)
    img3, _ = make_phantom(other)
    assert not np.array_equal(img1.data, img3.data)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 123456789])
def test_lcg_normals_match_python_loop_bit_for_bit(seed):
    for count in (0, 1, 7, 1025, 48**3):
        got, want = _lcg_normals(seed, count), lcg_normals_ref(seed, count)
        assert got.shape == want.shape == (count,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_spec_validation():
    with pytest.raises(ValueError, match="out of bounds"):
        PhantomSpec(dims=(8, 8, 8), ellipsoids=[Ellipsoid((7, 4, 4), (3, 1, 1), 1, 1.0)])
    with pytest.raises(ValueError, match="distinct"):
        PhantomSpec(dims=(8, 8, 8), ellipsoids=[
            Ellipsoid((4, 4, 4), (1, 1, 1), 1, 1.0),
            Ellipsoid((4, 4, 4), (1, 1, 1), 1, 0.5),
        ])
    with pytest.raises(ValueError, match="positive"):
        PhantomSpec(dims=(8, 8, 8), ellipsoids=[Ellipsoid((4, 4, 4), (0, 1, 1), 1, 1.0)])
    for center, axes in (((np.nan, 4, 4), (1, 1, 1)), ((4, 4, 4), (1, np.inf, 1))):
        with pytest.raises(ValueError, match="out of bounds"):
            PhantomSpec(dims=(8, 8, 8), ellipsoids=[Ellipsoid(center, axes, 1, 1.0)])


def test_spec_json_round_trip():
    text = """{"dims": [16, 16, 16], "background": 0.0, "noise_sigma": 0.02,
               "seed": 9, "ellipsoids": [
                 {"center": [7, 7, 8], "semi_axes": [5, 4, 4], "label": 1, "intensity": 1.0}]}"""
    spec = PhantomSpec.from_json(text)
    assert spec.dims == (16, 16, 16)
    assert spec.ellipsoids[0].label == 1


# ---------------------------------------------------------------------------
# analytic warps


def test_zero_amplitude_is_identity_pair():
    fwd, inv = analytic_field(AnalyticWarp("translation", 0.0), (6, 6, 6))
    ident = identity_field((6, 6, 6))
    assert np.array_equal(fwd.values, ident.values)
    assert np.array_equal(inv.values, ident.values)


@pytest.mark.parametrize("warp_spec", [
    AnalyticWarp("translation", 2.0),
    AnalyticWarp("sinusoidal", 1.5, wavelength=12.0),
])
def test_inverse_pairs_compose_to_identity_interior(warp_spec):
    dims = (12, 12, 12)
    fwd, inv = analytic_field(warp_spec, dims)
    ident = identity_field(dims).values
    margin = 3
    sl = (slice(None), slice(margin, -margin)) + (slice(None),) * 2
    for outer, inner in ((fwd, inv), (inv, fwd)):
        comp = compose(outer, inner).values
        assert np.max(np.abs((comp - ident)[sl])) < 1e-6
    value = (inv_interior_ref(compose(fwd, inv).values, margin)
             + inv_interior_ref(compose(inv, fwd).values, margin))
    assert value < 1e-6


def test_sinusoidal_unit_determinant_interior():
    fwd, _ = analytic_field(AnalyticWarp("sinusoidal", 2.0, wavelength=16.0),
                            (14, 14, 14))
    det = jacobian_det(fwd)
    assert np.allclose(det[1:-1, 1:-1, 1:-1], 1.0, atol=1e-12)


def test_steepness_invariant_enforced():
    with pytest.raises(ValueError, match="steep"):
        AnalyticWarp("sinusoidal", 2.0, wavelength=12.0)
    with pytest.raises(ValueError, match="kind"):
        AnalyticWarp("spiral", 1.0)


# ---------------------------------------------------------------------------
# pairs


def test_make_pair_identity_warp():
    pair = make_pair(SPEC, AnalyticWarp("translation", 0.0))
    assert np.array_equal(pair.moving.data, pair.fixed.data)
    assert np.array_equal(pair.moving_labels.labels, pair.fixed_labels.labels)


def test_make_pair_translation_shifts_labels():
    pair = make_pair(SPEC, AnalyticWarp("translation", 2.0))
    # moving(p) = fixed(p + 2): labels shift toward lower x
    assert np.array_equal(pair.moving_labels.labels[:-2],
                          pair.fixed_labels.labels[2:])


def test_make_pair_initial_dice_below_one():
    pair = make_pair(SPEC, AnalyticWarp("sinusoidal", 2.0, wavelength=14.0))
    d = dice(pair.fixed_labels, pair.moving_labels, 1)
    assert 0.0 < d < 1.0


def test_generated_fields_positive_jacobian():
    for warp_spec in (AnalyticWarp("translation", 1.0),
                      AnalyticWarp("sinusoidal", 1.5, wavelength=12.0)):
        fwd, inv = analytic_field(warp_spec, (10, 10, 10))
        for phi in (fwd, inv):
            det = jacobian_det(phi)
            assert np.all(det[1:-1, 1:-1, 1:-1] > 0.0)

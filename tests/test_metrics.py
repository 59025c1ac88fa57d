import math

import numpy as np
import pytest

from gradreg import deform
from gradreg.deform import DeformationField, identity_field
from gradreg.metrics import (
    PairMetrics,
    dice,
    dice30,
    evaluate_pair,
    hd95,
    sdlogj,
    write_metrics_csv,
)
from gradreg.volume import LabelVolume
from oracles import hd95_oracle


def lv(arr):
    return LabelVolume(np.asarray(arr, dtype=np.uint16))


# ---------------------------------------------------------------------------
# dice


def test_dice_basic_cases():
    a = np.zeros((4, 4, 4))
    b = np.zeros((4, 4, 4))
    a[:2], b[:2] = 1, 1
    assert dice(lv(a), lv(b), 1) == 1.0
    b[:] = 0
    b[2:] = 1
    assert dice(lv(a), lv(b), 1) == 0.0
    # |A| = |B| = 4, overlap 2
    a[:] = 0
    b[:] = 0
    a[0, 0, :4] = 1
    b[0, 0, 2:4] = 1
    b[0, 1, 0:2] = 1
    assert dice(lv(a), lv(b), 1) == 0.5


def test_dice_empty_conventions():
    empty = lv(np.zeros((3, 3, 3)))
    full = lv(np.ones((3, 3, 3)))
    assert dice(empty, empty, 5) == 1.0
    assert dice(empty, full, 1) == 0.0
    assert dice(full, empty, 1) == 0.0


def test_dice_symmetry_and_range():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = lv(rng.integers(0, 3, (5, 5, 5)))
        b = lv(rng.integers(0, 3, (5, 5, 5)))
        d = dice(a, b, 1)
        assert d == dice(b, a, 1)
        assert 0.0 <= d <= 1.0


# ---------------------------------------------------------------------------
# dice30


def test_dice30_examples():
    assert dice30([0.7] * 10) == pytest.approx(0.7)
    scores = [0.1, 0.5, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9, 0.9]
    assert dice30(scores) == pytest.approx((0.1 + 0.5 + 0.9) / 3)
    assert dice30([0.42]) == pytest.approx(0.42)
    with pytest.raises(ValueError):
        dice30([])


def test_dice30_never_exceeds_mean():
    rng = np.random.default_rng(1)
    for _ in range(50):
        scores = rng.uniform(0, 1, rng.integers(1, 40)).tolist()
        assert dice30(scores) <= np.mean(scores) + 1e-15


def test_dice30_matches_sort_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        scores = rng.uniform(0, 1, rng.integers(1, 30)).tolist()
        k = math.ceil(0.3 * len(scores))
        expect = math.fsum(sorted(scores)[:k]) / k
        assert dice30(scores) == expect


# ---------------------------------------------------------------------------
# hd95


def test_hd95_identical_masks_zero():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, (6, 6, 6))
    a[2, 2, 2] = 1
    assert hd95(lv(a), lv(a), 1, (1.0, 1.0, 1.0)) == 0.0


def test_hd95_single_voxels_spacing_scaled():
    a = np.zeros((8, 4, 4))
    b = np.zeros((8, 4, 4))
    a[1, 1, 1] = 1
    b[4, 1, 1] = 1  # 3 voxels apart on x, 2 mm spacing -> 6 mm
    assert hd95(lv(a), lv(b), 1, (2.0, 2.0, 2.0)) == pytest.approx(6.0)


def test_hd95_nested_cubes_match_oracle():
    a = np.zeros((8, 8, 8))
    b = np.zeros((8, 8, 8))
    a[2:6, 2:6, 2:6] = 1
    b[3:5, 3:5, 3:5] = 1  # one voxel inside
    spacing = (1.0, 1.0, 1.0)
    got = hd95(lv(a), lv(b), 1, spacing)
    expect = hd95_oracle(a, b, 1, spacing)
    assert got == pytest.approx(expect, abs=1e-9)


def test_hd95_matches_oracle_random():
    rng = np.random.default_rng(4)
    count = 0
    while count < 10:
        a = (rng.uniform(size=(6, 6, 6)) < 0.3).astype(np.uint16)
        b = (rng.uniform(size=(6, 6, 6)) < 0.3).astype(np.uint16)
        if not a.any() or not b.any():
            continue
        count += 1
        spacing = tuple(rng.uniform(0.5, 3.0, 3))
        got = hd95(lv(a), lv(b), 1, spacing)
        expect = hd95_oracle(a, b, 1, spacing)
        assert got == pytest.approx(expect, abs=1e-9)
        assert got == pytest.approx(hd95(lv(b), lv(a), 1, spacing), abs=1e-12)


def test_hd95_empty_label_errors():
    empty = lv(np.zeros((4, 4, 4)))
    full = lv(np.ones((4, 4, 4)))
    with pytest.raises(ValueError, match="empty"):
        hd95(empty, full, 1, (1, 1, 1))


# ---------------------------------------------------------------------------
# sdlogj


def test_sdlogj_identity_zero():
    assert sdlogj(identity_field((5, 5, 5))) == 0.0


def test_sdlogj_uniform_scaling_interior():
    # constant determinant over the interior: std of interior logs is 0
    phi = DeformationField(2.0 * identity_field((7, 7, 7)).values)
    det = deform.jacobian_det(phi)
    logs = np.log(det[1:-1, 1:-1, 1:-1])
    assert float(np.std(logs)) == pytest.approx(0.0, abs=1e-12)


def test_sdlogj_two_region_half_e():
    # build clean log-det samples {0, 1} in equal halves and check std == 0.5
    dims = (6, 6, 12)
    vals = identity_field(dims).values.copy()
    vals[2, :, :, 6:] = np.e * identity_field(dims).values[2, :, :, 6:]
    phi = DeformationField(vals)
    det = deform.jacobian_det(phi)
    lower = det[1:-1, 1:-1, 1:4]     # det 1 region, away from interface
    upper = det[1:-1, 1:-1, 8:11]    # det e region, away from interface
    assert np.allclose(lower, 1.0, atol=1e-12)
    assert np.allclose(upper, np.e, atol=1e-12)
    logs = np.log(np.concatenate([lower.ravel(), upper.ravel()]))
    assert float(np.std(logs)) == pytest.approx(0.5, abs=1e-12)


def test_sdlogj_matches_direct_std_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        vals = identity_field((5, 5, 5)).values + 0.5 * rng.standard_normal((3, 5, 5, 5))
        phi = DeformationField(vals)
        det = deform.jacobian_det(phi)
        logs = [math.log(max(d, 1e-9)) for d in det.ravel()]
        mean = math.fsum(logs) / len(logs)
        var = math.fsum((x - mean) ** 2 for x in logs) / len(logs)
        assert sdlogj(phi) == pytest.approx(math.sqrt(var), abs=1e-9)


def test_sdlogj_floors_negative_determinants():
    vals = identity_field((5, 5, 5)).values.copy()
    vals[0] *= -1.0  # uniformly negative determinant
    value = sdlogj(DeformationField(vals))
    assert np.isfinite(value)


# ---------------------------------------------------------------------------
# evaluate_pair and CSV


def test_evaluate_pair_identity():
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 4, (6, 6, 6))
    fixed = lv(labels)
    pm = evaluate_pair(fixed, lv(labels.copy()), identity_field((6, 6, 6)),
                       [1, 2, 3], (1, 1, 1))
    assert pm.mean_dice == 1.0
    assert pm.sdlogj == 0.0
    assert all(v == 1.0 for v in pm.dice_per_label.values())
    assert all(v == 0.0 for v in pm.hd95_per_label.values())


def test_evaluate_pair_absent_label_excluded():
    a = np.zeros((5, 5, 5))
    a[:2] = 1
    pm = evaluate_pair(lv(a), lv(a), identity_field((5, 5, 5)), [1, 9], (1, 1, 1))
    assert pm.dice_per_label[9] is None
    assert pm.hd95_per_label[9] is None
    assert pm.mean_dice == 1.0


def test_evaluate_pair_consistent_with_standalone_ops():
    rng = np.random.default_rng(7)
    a = lv(rng.integers(0, 3, (6, 6, 6)))
    b = lv(rng.integers(0, 3, (6, 6, 6)))
    phi = DeformationField(
        identity_field((6, 6, 6)).values + 0.3 * rng.standard_normal((3, 6, 6, 6))
    )
    pm = evaluate_pair(a, b, phi, [1, 2], (2.0, 1.0, 1.5))
    for label in (1, 2):
        in_both = (a.labels == label).any() and (b.labels == label).any()
        if in_both:
            assert pm.dice_per_label[label] == dice(a, b, label)
            assert pm.hd95_per_label[label] == hd95(a, b, label, (2.0, 1.0, 1.5))
    assert pm.sdlogj == sdlogj(phi)


def test_write_metrics_csv(tmp_path):
    pm = PairMetrics({1: 0.5, 2: None}, {1: 3.25, 2: None}, 0.5, 0.125)
    out = tmp_path / "metrics.csv"
    write_metrics_csv(out, [("pair0", pm)])
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "pair_id,label,dice,hd95_mm,mean_dice,dice30,sdlogj"
    assert lines[1] == "pair0,1,0.5,3.25,,,"
    assert lines[2] == "pair0,2,absent,absent,,,"
    assert lines[3] == "pair0,summary,,,0.5,0.5,0.125"

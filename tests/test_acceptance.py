"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The phantom-recovery
criteria share one module-scoped pair of registrations and together take a
few minutes; everything else completes in seconds.  Those two criteria carry
the ``slow`` marker, so ``pytest -m "not slow"`` skips the registrations.
"""

import math
import time

import numpy as np
import pytest

from gradreg import deform
from gradreg.cli import main as cli_main
from gradreg.deform import (
    DeformationField,
    GradientField,
    PreActivationField,
    identity_field,
    integrate,
    jacobian_det,
    warp,
)
from gradreg.engine import (
    RegistrationConfig,
    gradient_check,
    multistep_forward,
    register_pair,
)
from gradreg.losses import LossWeights, loss_jac
from gradreg.metrics import dice, dice30, evaluate_pair, hd95, sdlogj
from gradreg.phantom import AnalyticWarp, Ellipsoid, PhantomSpec, analytic_field, make_pair
from gradreg.volume import LabelVolume, Volume, one_hot
from oracles import (
    dice30_oracle,
    dice_oracle,
    hd95_oracle,
    hinge_jac_oracle,
    inv_interior_ref,
    jacobian_det_oracle,
    jacobian_matrix,
    sdlogj_oracle,
)

REFERENCE_WEIGHTS = LossWeights(alpha=1.0, beta=1.0, gamma=0.1, delta=0.01, epsilon=10.0)


def report(criterion: int, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


# ---------------------------------------------------------------------------
# shared phantom registrations (criteria 8 and 9)

RECOVERY_SPEC = PhantomSpec(
    dims=(48, 48, 48),
    ellipsoids=[
        Ellipsoid((22, 22, 24), (12, 9, 10), 1, 1.0),
        Ellipsoid((33, 30, 20), (5, 4, 6), 2, 0.6),
        Ellipsoid((14, 32, 28), (4, 5, 4), 3, 0.8),
    ],
    background=0.0,
    noise_sigma=0.02,
    seed=7,
)
RECOVERY_WARP = AnalyticWarp("sinusoidal", amplitude=3.0, wavelength=24.0)
RECOVERY_LABELS = [1, 2, 3]
RECOVERY_ITERATIONS = 150


@pytest.fixture(scope="module")
def recovery_runs():
    pair = make_pair(RECOVERY_SPEC, RECOVERY_WARP)
    segs = (one_hot(pair.moving_labels, RECOVERY_LABELS),
            one_hot(pair.fixed_labels, RECOVERY_LABELS))
    runs = {"pair": pair}
    for steps in (1, 2):
        config = RegistrationConfig(weights=REFERENCE_WEIGHTS, steps=steps,
                                    iterations=RECOVERY_ITERATIONS)
        start = time.monotonic()
        result = register_pair(pair.moving, pair.fixed, config, segs=segs)
        elapsed = time.monotonic() - start
        warped = deform.warp_labels(pair.moving_labels, result.phi_ab)
        metrics = evaluate_pair(pair.fixed_labels, warped, result.phi_ab,
                                RECOVERY_LABELS, (1.0, 1.0, 1.0))
        runs[steps] = {"result": result, "metrics": metrics, "elapsed": elapsed}
    runs["before"] = evaluate_pair(
        pair.fixed_labels, pair.moving_labels, identity_field(RECOVERY_SPEC.dims),
        RECOVERY_LABELS, (1.0, 1.0, 1.0),
    )
    return runs


# ---------------------------------------------------------------------------
# 1. gradient exactness


def test_criterion_1_gradient_exactness():
    start = time.monotonic()
    worst = 0.0
    for dims, seed in (((5, 5, 5), 0), ((6, 6, 6), 1)):
        config = RegistrationConfig(weights=REFERENCE_WEIGHTS, steps=2,
                                    control_stride=2)
        errors = gradient_check(dims, config, seed=seed)
        worst = max(worst, max(errors.values()))
        assert max(errors.values()) < 1e-5, f"{dims}: {errors}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(1, f"max relative gradient error {worst:.2e} < 1e-5 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. identity axioms


def test_criterion_2_identity_axioms():
    dims = (6, 6, 6)
    rng = np.random.default_rng(2)
    a = Volume(rng.uniform(0, 1, (1,) + dims), dtype="f64")
    labels = LabelVolume(rng.integers(0, 3, dims))
    seg = one_hot(labels, [1, 2])

    run = multistep_forward(a, a, [PreActivationField(np.zeros((3,) + dims))],
                            REFERENCE_WEIGHTS, segs=(seg, seg))
    ident = identity_field(dims)
    assert np.array_equal(run.steps[0].phis[0].values, ident.values)
    assert np.array_equal(run.steps[0].phis[1].values, ident.values)

    assert np.array_equal(warp(a, ident).data, a.data)
    assert np.all(jacobian_det(ident).data == 1.0)
    assert sdlogj(ident) == 0.0

    bd = run.breakdown
    assert (bd.sim, bd.seg, bd.reg, bd.jac, bd.inv, bd.total) == (0, 0, 0, 0, 0, 0)
    report(2, "identity fields, bit-exact warp, unit determinant, all losses zero")


# ---------------------------------------------------------------------------
# 3. direction antisymmetry


def test_criterion_3_symmetry_axiom():
    dims = (5, 5, 5)
    rng = np.random.default_rng(3)
    for trial in range(100):
        a = Volume(rng.uniform(0, 1, (1,) + dims), dtype="f64")
        b = Volume(rng.uniform(0, 1, (1,) + dims), dtype="f64")
        delta = PreActivationField(rng.normal(0, 1.0, (3,) + dims))
        if trial % 2:
            segs = (one_hot(LabelVolume(rng.integers(0, 3, dims)), [1, 2]),
                    one_hot(LabelVolume(rng.integers(0, 3, dims)), [1, 2]))
            swapped = (segs[1], segs[0])
        else:
            segs = swapped = None
        fwd = multistep_forward(a, b, [delta], REFERENCE_WEIGHTS, segs=segs)
        rev = multistep_forward(b, a, [PreActivationField(-delta.values)],
                                REFERENCE_WEIGHTS, segs=swapped)
        (fwd_step,), (rev_step,) = fwd.steps, rev.steps
        for term in ("sim", "seg", "reg", "jac", "inv", "total"):
            assert getattr(fwd.breakdown, term) == getattr(rev.breakdown, term)
        assert np.array_equal(fwd_step.phis[0].values, rev_step.phis[1].values)
        assert np.array_equal(fwd_step.phis[1].values, rev_step.phis[0].values)
        assert len(fwd.warps[0]) == len(rev.warps[1]) == (1 if segs is None else 2)
        for d in (0, 1):  # the image, then any labels
            for f_warp, r_warp in zip(fwd.warps[d], rev.warps[1 - d]):
                assert np.array_equal(f_warp.data, r_warp.data)
    report(3, "100 random instances: bit-identical breakdowns, exchanged fields")


# ---------------------------------------------------------------------------
# 4. monotonic integration


def test_criterion_4_monotonic_integration():
    dims = (6, 5, 4)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        g = GradientField(rng.uniform(1e-6, 2.0 - 1e-6, (3,) + dims))
        phi = integrate(g)
        for axis in range(3):
            assert np.all(np.diff(phi.values[axis], axis=axis) > 0.0)
        matrix = jacobian_matrix(phi)
        for axis in range(3):
            assert np.all(matrix[axis, axis] > 0.0)
    report(4, "1000 random gradient fields: strictly increasing, positive diagonal")


# ---------------------------------------------------------------------------
# 5. inverse-consistency oracle


def inverse_pair_loss(fwd, inv, margin):
    """The interior residual mean of both compositions, fwd after inv and inv after fwd."""
    return (inv_interior_ref(deform.compose(fwd, inv).values, margin)
            + inv_interior_ref(deform.compose(inv, fwd).values, margin))


def test_criterion_5_inverse_consistency_oracle():
    dims = (20, 20, 20)
    margin = 5
    for warp_spec in (AnalyticWarp("translation", 2.0),
                      AnalyticWarp("sinusoidal", 3.0, wavelength=24.0)):
        fwd, inv = analytic_field(warp_spec, dims)
        clean = inverse_pair_loss(fwd, inv, margin)
        assert clean < 1e-6, f"{warp_spec.kind}: {clean}"
        bumped = DeformationField(fwd.values + np.array([0.1, 0, 0]).reshape(3, 1, 1, 1))
        raised = inverse_pair_loss(bumped, inv, margin)
        assert raised > 1e-3, f"{warp_spec.kind}: {raised}"
    report(5, "analytic inverses < 1e-6 interior; +0.1 voxel perturbation > 1e-3")


# ---------------------------------------------------------------------------
# 6. jacobian oracle


def test_criterion_6_jacobian_oracle():
    rng = np.random.default_rng(6)
    for _ in range(100):
        dims = tuple(rng.integers(3, 7, 3))
        vals = identity_field(dims).values + 1.2 * rng.standard_normal((3,) + dims)
        phi = DeformationField(vals)
        assert np.array_equal(jacobian_det(phi).data[0], jacobian_det_oracle(phi))

    hinge_seen = False
    for _ in range(10):
        dims = (5, 5, 5)
        phi_ab = DeformationField(
            identity_field(dims).values + 1.2 * rng.standard_normal((3,) + dims))
        phi_ba = DeformationField(
            identity_field(dims).values + 1.2 * rng.standard_normal((3,) + dims))
        value = loss_jac(phi_ab)[0] + loss_jac(phi_ba)[0]
        assert value == pytest.approx(hinge_jac_oracle(phi_ab, phi_ba), abs=1e-12)
        hinge_seen = hinge_seen or value > 0
    assert hinge_seen

    for _ in range(10):
        dims = (6, 6, 6)
        m = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        t = rng.uniform(-2, 2, 3)
        vals = np.einsum("ab,bxyz->axyz", m, identity_field(dims).values)
        vals += t[:, None, None, None]
        det = jacobian_det(DeformationField(vals)).data[0]
        assert np.allclose(det[1:-1, 1:-1, 1:-1], np.linalg.det(m), atol=1e-12)
    report(6, "determinant exact vs cofactor oracle; hinge and affine checks pass")


# ---------------------------------------------------------------------------
# 7. metric oracles


def test_criterion_7_metric_oracles():
    rng = np.random.default_rng(7)

    for _ in range(100):
        dims = tuple(rng.integers(4, 17, 3))
        a = rng.integers(0, 3, dims).astype(np.uint16)
        b = rng.integers(0, 3, dims).astype(np.uint16)
        assert dice(LabelVolume(a), LabelVolume(b), 1) == dice_oracle(a, b, 1)

    for _ in range(100):
        scores = rng.uniform(0, 1, rng.integers(1, 40)).tolist()
        assert dice30(scores) == dice30_oracle(scores)

    count = 0
    while count < 100:
        dims = tuple(rng.integers(4, 13, 3))
        a = (rng.uniform(size=dims) < 0.3).astype(np.uint16)
        b = (rng.uniform(size=dims) < 0.3).astype(np.uint16)
        if not (a.any() and b.any()):
            continue
        count += 1
        spacing = tuple(rng.uniform(0.5, 3.0, 3))
        got = hd95(LabelVolume(a), LabelVolume(b), 1, spacing)
        assert abs(got - hd95_oracle(a, b, 1, spacing)) < 1e-9

    for _ in range(100):
        dims = tuple(rng.integers(3, 7, 3))
        phi = DeformationField(
            identity_field(dims).values + 0.6 * rng.standard_normal((3,) + dims))
        assert abs(sdlogj(phi) - sdlogj_oracle(phi)) < 1e-9
    report(7, "dice/dice30 exact, hd95/sdlogj within 1e-9 of brute force, 100 each")


# ---------------------------------------------------------------------------
# 8. phantom recovery


@pytest.mark.slow
def test_criterion_8_phantom_recovery(recovery_runs):
    before = recovery_runs["before"].mean_dice
    two = recovery_runs[2]
    after = two["metrics"].mean_dice
    gain = after - before
    assert gain >= 0.15, f"dice gain {gain:.3f} below 0.15"
    assert two["metrics"].sdlogj < 0.5
    assert two["elapsed"] < 600.0
    report(8, f"dice {before:.3f} -> {after:.3f} (gain {gain:.3f} >= 0.15), "
              f"sdlogj {two['metrics'].sdlogj:.3f} < 0.5, {two['elapsed']:.0f}s < 600s")


# ---------------------------------------------------------------------------
# 9. multi-step direction


@pytest.mark.slow
def test_criterion_9_multistep_direction(recovery_runs):
    one = recovery_runs[1]["metrics"].mean_dice
    two = recovery_runs[2]["metrics"].mean_dice
    assert two >= one, (
        f"2-step dice {two:.4f} fell below 1-step {one:.4f}; "
        "investigate before accepting"
    )
    report(9, f"2-step dice {two:.4f} >= 1-step dice {one:.4f} at equal budgets")


# ---------------------------------------------------------------------------
# 10. determinism across jobs


def test_criterion_10_determinism(tmp_path):
    import json

    rng = np.random.default_rng(10)
    dims = (8, 8, 8)
    img = Volume(rng.uniform(0, 1, (1,) + dims).astype(np.float32))
    labels = LabelVolume(rng.integers(0, 3, dims))
    from gradreg.volume import write_volume

    write_volume(img, tmp_path / "img")
    write_volume(labels, tmp_path / "labels")
    config = {
        "alpha": 1.0, "beta": 1.0, "gamma": 0.1, "delta": 0.01, "epsilon": 10.0,
        "steps": 2, "iterations": 4, "learning_rate": 0.01,
        "control_stride": 2, "seed": 0, "convergence_tol": 1e-6,
    }
    (tmp_path / "config.json").write_text(json.dumps(config))

    spec = {
        "dims": [10, 10, 10], "background": 0.0, "noise_sigma": 0.02, "seed": 3,
        "ellipsoids": [
            {"center": [4, 4, 5], "semi_axes": [3, 2, 3], "label": 1,
             "intensity": 1.0}],
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "warp.json").write_text(
        json.dumps({"kind": "sinusoidal", "amplitude": 1.0, "wavelength": 8.0}))

    outputs = {}
    for jobs in (1, 4):
        manifest = [
            {
                "pair_id": f"p{i}",
                "fixed": str(tmp_path / "img"),
                "moving": str(tmp_path / "img"),
                "fixed_labels": str(tmp_path / "labels"),
                "moving_labels": str(tmp_path / "labels"),
                "out_dir": str(tmp_path / f"jobs{jobs}_p{i}"),
            }
            for i in range(3)
        ]
        manifest_path = tmp_path / f"pairs{jobs}.json"
        manifest_path.write_text(json.dumps(manifest))
        assert cli_main(["--quiet", "--jobs", str(jobs), "register",
                         "--pairs", str(manifest_path),
                         "--config", str(tmp_path / "config.json")]) == 0
        assert cli_main(["--quiet", "phantom", "--spec", str(tmp_path / "spec.json"),
                         "--warp", str(tmp_path / "warp.json"),
                         "--out-dir", str(tmp_path / f"phantom_jobs{jobs}")]) == 0
        blobs = []
        for i in range(3):
            base = tmp_path / f"jobs{jobs}_p{i}"
            for name in ("phi_moving_to_fixed.raw", "phi_fixed_to_moving.raw",
                         "warped_moving.raw", "warped_fixed.raw",
                         "warped_moving_labels.raw", "metrics.csv",
                         "loss_trace.csv"):
                blobs.append((f"p{i}/{name}", (base / name).read_bytes()))
        for name in ("fixed.raw", "moving.raw", "phi_gt.raw"):
            blobs.append((f"phantom/{name}",
                          (tmp_path / f"phantom_jobs{jobs}" / name).read_bytes()))
        outputs[jobs] = blobs

    for (name1, blob1), (name4, blob4) in zip(outputs[1], outputs[4]):
        assert name1 == name4
        assert blob1 == blob4, f"{name1} differs between --jobs 1 and --jobs 4"
    report(10, "register batch and phantom outputs bit-identical for --jobs 1 and 4")

import json

import numpy as np
import pytest

from gradreg import deform
from gradreg.deform import PreActivationField, identity_field
from gradreg.engine import (
    ADAM_BETAS,
    ADAM_EPS,
    RegistrationConfig,
    gradient_check,
    init_state,
    multistep_forward,
    objective_and_gradient,
    optimize,
    register_pair,
)
from gradreg.losses import LossWeights
from gradreg.metrics import dice
from gradreg.phantom import AnalyticWarp, Ellipsoid, PhantomSpec, make_pair
from gradreg.volume import LabelVolume, Volume, one_hot

DIMS = (6, 6, 6)
WEIGHTS = LossWeights(1.0, 1.0, 0.1, 0.01, 10.0)


def random_pair(rng, dims=DIMS, channels=1):
    a = Volume(rng.uniform(0, 1, (channels,) + dims), dtype="f64")
    b = Volume(rng.uniform(0, 1, (channels,) + dims), dtype="f64")
    return a, b


def random_segs(rng, dims=DIMS):
    a = one_hot(LabelVolume(rng.integers(0, 3, dims)), [1, 2])
    b = one_hot(LabelVolume(rng.integers(0, 3, dims)), [1, 2])
    return a, b


def zero_delta(dims=DIMS, stride=1):
    control = deform.control_dims_for(dims, stride)
    return PreActivationField(np.zeros((3,) + control), stride=stride)


# ---------------------------------------------------------------------------
# forward pass


def test_forward_zero_delta_identical_volumes():
    rng = np.random.default_rng(0)
    a, _ = random_pair(rng)
    step = multistep_forward(a, a, [zero_delta()], WEIGHTS)
    ident = identity_field(DIMS).values
    assert np.array_equal(step.phi_ab.values, ident)
    assert np.array_equal(step.phi_ba.values, ident)
    bd = step.breakdown
    assert bd.sim == 0.0 and bd.reg == 0.0 and bd.jac == 0.0 and bd.inv == 0.0
    assert bd.total == 0.0


def test_forward_zero_delta_different_volumes():
    rng = np.random.default_rng(1)
    a, b = random_pair(rng)
    step = multistep_forward(a, b, [zero_delta()], WEIGHTS)
    expect = 2.0 * float(np.mean((a.data - b.data) ** 2))
    assert step.breakdown.sim == pytest.approx(expect, rel=1e-12)
    assert np.array_equal(step.a_warp.data, a.data)
    assert np.array_equal(step.b_warp.data, b.data)


def test_forward_direction_antisymmetry_bit_exact():
    rng = np.random.default_rng(2)
    for trial in range(20):
        a, b = random_pair(rng)
        segs = random_segs(rng)
        delta = PreActivationField(rng.normal(0, 1.0, (3,) + DIMS))
        fwd = multistep_forward(a, b, [delta], WEIGHTS, segs=segs)
        neg = PreActivationField(-delta.values)
        rev = multistep_forward(b, a, [neg], WEIGHTS, segs=(segs[1], segs[0]))
        for term in ("sim", "seg", "reg", "jac", "inv", "total"):
            assert getattr(fwd.breakdown, term) == getattr(rev.breakdown, term)
        assert np.array_equal(fwd.phi_ab.values, rev.phi_ba.values)
        assert np.array_equal(fwd.phi_ba.values, rev.phi_ab.values)
        assert np.array_equal(fwd.a_warp.data, rev.b_warp.data)
        assert np.array_equal(fwd.b_warp.data, rev.a_warp.data)


def test_forward_shape_mismatch():
    rng = np.random.default_rng(3)
    a = Volume(rng.uniform(0, 1, (1, 6, 6, 6)))
    b = Volume(rng.uniform(0, 1, (1, 5, 6, 6)))
    with pytest.raises(ValueError, match="dims"):
        multistep_forward(a, b, [zero_delta()], WEIGHTS)


# ---------------------------------------------------------------------------
# multistep


def test_multistep_zero_deltas_warps_equal_inputs():
    rng = np.random.default_rng(5)
    a, b = random_pair(rng)
    multi = multistep_forward(a, b, [zero_delta(), zero_delta(), zero_delta()],
                              WEIGHTS)
    assert np.array_equal(multi.a_warp.data, a.data)
    assert np.array_equal(multi.b_warp.data, b.data)
    assert np.array_equal(multi.phi_ab.values, identity_field(DIMS).values)


def test_multistep_identity_second_step_keeps_first_warp():
    rng = np.random.default_rng(6)
    a, b = random_pair(rng)
    delta = PreActivationField(rng.normal(0, 0.5, (3,) + DIMS))
    one_step = multistep_forward(a, b, [delta], WEIGHTS)
    two_step = multistep_forward(a, b, [delta, zero_delta()], WEIGHTS)
    assert np.array_equal(two_step.a_warp.data, one_step.a_warp.data)
    assert np.array_equal(two_step.b_warp.data, one_step.b_warp.data)
    # composed field samples the first field at identity coordinates: exact
    assert np.array_equal(two_step.phi_ab.values, one_step.phi_ab.values)


def test_multistep_total_is_sum_of_step_totals():
    rng = np.random.default_rng(7)
    a, b = random_pair(rng)
    segs = random_segs(rng)
    deltas = [PreActivationField(rng.normal(0, 0.5, (3,) + DIMS)) for _ in range(3)]
    multi = multistep_forward(a, b, deltas, WEIGHTS, segs=segs)
    assert multi.breakdown.total == pytest.approx(
        sum(s.breakdown.total for s in multi.steps), abs=1e-12
    )
    with pytest.raises(ValueError, match="at least one"):
        multistep_forward(a, b, [], WEIGHTS)


# ---------------------------------------------------------------------------
# gradients


def test_gradient_zero_at_global_minimum():
    rng = np.random.default_rng(8)
    a, _ = random_pair(rng)
    config = RegistrationConfig(steps=2, iterations=1, control_stride=2)
    state = init_state(DIMS, config)
    total, grads = objective_and_gradient(a, a, state, config)
    assert total == 0.0
    for g in grads:
        assert np.all(g == 0.0)


def test_gradient_epsilon_path_vanishes_when_zero():
    rng = np.random.default_rng(9)
    a, b = random_pair(rng)
    config = RegistrationConfig(
        weights=LossWeights(0, 0, 0, 0, 1), steps=1, iterations=1, control_stride=1
    )
    deltas = [zero_delta()]
    total, grads = objective_and_gradient(a, b, deltas, config)
    assert total == 0.0  # identity transforms compose to identity
    config0 = RegistrationConfig(
        weights=LossWeights(1, 0, 0.1, 0.01, 0), steps=1, iterations=1,
        control_stride=1
    )
    delta = PreActivationField(rng.normal(0, 0.5, (3,) + DIMS))
    _, with_eps0 = objective_and_gradient(a, b, [delta], config0)
    # compare against epsilon active: gradients must differ (path contributes)
    config1 = RegistrationConfig(
        weights=LossWeights(1, 0, 0.1, 0.01, 10.0), steps=1, iterations=1,
        control_stride=1
    )
    _, with_eps10 = objective_and_gradient(a, b, [delta], config1)
    assert not np.allclose(with_eps0[0], with_eps10[0])


def test_gradient_check_all_terms_small():
    config = RegistrationConfig(steps=2, control_stride=2)
    report = gradient_check((5, 5, 5), config, seed=0)
    assert set(report) == {"sim", "seg", "reg", "jac", "inv", "all"}
    for term, err in report.items():
        assert err < 1e-5, f"{term} gradient error {err}"
    assert report["sim"] < 1e-6


def test_gradient_check_zero_weights_guarded():
    config = RegistrationConfig(weights=LossWeights(0, 0, 0, 0, 0), steps=1,
                                control_stride=2)
    report = gradient_check((5, 5, 5), config, seed=1)
    assert report["all"] == 0.0


# ---------------------------------------------------------------------------
# optimize


def test_optimize_zero_iterations_identity():
    rng = np.random.default_rng(10)
    a, b = random_pair(rng)
    config = RegistrationConfig(steps=1, iterations=0, control_stride=2)
    res = optimize(a, b, config)
    ident = identity_field(DIMS).values
    assert np.array_equal(res.phi_ab.values, ident)
    assert np.array_equal(res.phi_ba.values, ident)
    assert res.iterations_run == 0
    assert res.trace == []


def test_optimize_identical_volumes_stay_identity():
    rng = np.random.default_rng(11)
    a, _ = random_pair(rng)
    config = RegistrationConfig(steps=2, iterations=20, control_stride=2)
    res = optimize(a, a, config)
    drift = np.abs(res.phi_ab.values - identity_field(DIMS).values)
    assert float(drift.mean()) < 0.05
    assert res.final.total == 0.0


def test_optimize_reduces_loss_on_phantom():
    spec = PhantomSpec(
        dims=(12, 12, 12),
        ellipsoids=[Ellipsoid((5, 5, 6), (3, 3, 3), 1, 1.0)],
        noise_sigma=0.01,
        seed=4,
    )
    pair = make_pair(spec, AnalyticWarp("sinusoidal", 1.0, wavelength=10.0))
    config = RegistrationConfig(steps=1, iterations=40, control_stride=2,
                                weights=LossWeights(1, 0, 0.1, 0.01, 10))
    res = optimize(pair.moving, pair.fixed, config)
    assert res.trace[-1].total < res.trace[0].total
    best_so_far = np.minimum.accumulate([bd.total for bd in res.trace])
    assert best_so_far[-1] < best_so_far[0]


def test_optimize_trace_matches_iterations():
    rng = np.random.default_rng(12)
    a, b = random_pair(rng)
    config = RegistrationConfig(steps=1, iterations=7, control_stride=3)
    res = optimize(a, b, config)
    assert len(res.trace) == res.iterations_run == 7


def test_optimize_bit_deterministic():
    rng = np.random.default_rng(13)
    a, b = random_pair(rng)
    config = RegistrationConfig(steps=2, iterations=10, control_stride=2)
    res1 = optimize(a, b, config)
    res2 = optimize(a, b, config)
    assert np.array_equal(res1.phi_ab.values, res2.phi_ab.values)
    assert [bd.total for bd in res1.trace] == [bd.total for bd in res2.trace]


def test_optimize_convergence_stops_early():
    rng = np.random.default_rng(14)
    a, _ = random_pair(rng)
    config = RegistrationConfig(steps=1, iterations=100, control_stride=2,
                                convergence_tol=1e-6)
    res = optimize(a, a, config)  # loss identically zero: converges at window edge
    assert res.converged
    assert res.iterations_run == 11


# ---------------------------------------------------------------------------
# register_pair


def phantom_fixture():
    spec = PhantomSpec(
        dims=(14, 14, 14),
        ellipsoids=[
            Ellipsoid((6, 6, 7), (4, 3, 3), 1, 1.0),
            Ellipsoid((9, 9, 7), (2, 2, 2), 2, 0.6),
        ],
        noise_sigma=0.01,
        seed=5,
    )
    return make_pair(spec, AnalyticWarp("sinusoidal", 1.2, wavelength=10.0))


def test_register_pair_identical_inputs_full_dice():
    rng = np.random.default_rng(15)
    labels = LabelVolume(rng.integers(0, 3, DIMS))
    img = Volume(rng.uniform(0, 1, (1,) + DIMS), dtype="f64")
    segs = (one_hot(labels, [1, 2]), one_hot(labels, [1, 2]))
    config = RegistrationConfig(steps=1, iterations=5, control_stride=2)
    res = register_pair(img, img, config, segs=segs)
    warped = deform.warp_labels(labels, res.phi_ab)
    for label in (1, 2):
        assert dice(labels, warped, label) == 1.0


def test_register_pair_improves_phantom_dice():
    pair = phantom_fixture()
    labels = [1, 2]
    segs = (one_hot(pair.moving_labels, labels), one_hot(pair.fixed_labels, labels))
    config = RegistrationConfig(steps=2, iterations=60, control_stride=2)
    res = register_pair(pair.moving, pair.fixed, config, segs=segs)
    warped = deform.warp_labels(pair.moving_labels, res.phi_ab)
    for label in labels:
        before = dice(pair.fixed_labels, pair.moving_labels, label)
        after = dice(pair.fixed_labels, warped, label)
        assert after > before


def test_register_pair_inference_steps():
    pair = phantom_fixture()
    config = RegistrationConfig(steps=2, iterations=10, control_stride=2)
    full = register_pair(pair.moving, pair.fixed, config)
    trimmed = register_pair(pair.moving, pair.fixed, config, inference_steps=1)
    assert len(trimmed.steps) == 1
    assert np.array_equal(trimmed.phi_ab.values, full.steps[0].phi_ab.values)
    with pytest.raises(ValueError, match="inference steps"):
        register_pair(pair.moving, pair.fixed, config, inference_steps=3)


# ---------------------------------------------------------------------------
# config serialization


def test_config_json_round_trip():
    config = RegistrationConfig(
        weights=LossWeights(1, 1, 0.1, 0.01, 10), steps=2, iterations=77,
        learning_rate=0.02, control_stride=3, convergence_tol=1e-7,
    )
    back = RegistrationConfig.from_json(config.to_json())
    assert back == config
    assert set(json.loads(config.to_json())) == {
        "alpha", "beta", "gamma", "delta", "epsilon", "steps", "iterations",
        "learning_rate", "control_stride", "convergence_tol",
    }


def test_config_ignores_legacy_seed_key():
    config = RegistrationConfig.from_json('{"steps": 3, "seed": 0}')
    assert config == RegistrationConfig(steps=3)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RegistrationConfig.from_json('{"alpha": 1.0, "momentum": 0.9}')


def test_config_defaults_match_chosen_setup():
    config = RegistrationConfig()
    assert config.weights == LossWeights(1.0, 1.0, 0.1, 0.01, 10.0)
    assert config.steps == 2
    assert ADAM_BETAS == (0.9, 0.999)
    assert ADAM_EPS == 1e-8

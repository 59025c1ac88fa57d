import json
import math
import pickle
import sys
import threading
import tracemalloc
import warnings
import weakref
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gradreg import deform, engine
from gradreg.deform import PreActivationField, identity_field
from gradreg.engine import (
    ADAM_BETAS,
    ADAM_EPS,
    DivergenceError,
    RegistrationConfig,
    gradient_check,
    multistep_forward,
    objective_and_gradient,
    optimize,
    register_pair,
)
from gradreg.losses import LossWeights
from gradreg.metrics import dice
from gradreg.phantom import AnalyticWarp, Ellipsoid, PhantomSpec, make_pair
from gradreg.volume import LabelVolume, Volume, one_hot
from oracles import check_directional

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
    run = multistep_forward(a, a, [zero_delta()], WEIGHTS)
    ident = identity_field(DIMS).values
    assert np.array_equal(run.steps[0].phis[0].values, ident)
    assert np.array_equal(run.steps[0].phis[1].values, ident)
    bd = run.breakdown
    assert bd.sim == 0.0 and bd.reg == 0.0 and bd.jac == 0.0 and bd.inv == 0.0
    assert bd.total == 0.0


def test_forward_zero_delta_different_volumes():
    rng = np.random.default_rng(1)
    a, b = random_pair(rng)
    run = multistep_forward(a, b, [zero_delta()], WEIGHTS)
    expect = 2.0 * float(np.mean((a.data - b.data) ** 2))
    assert run.breakdown.sim == pytest.approx(expect, rel=1e-12)
    assert np.array_equal(run.warps[0][0].data, a.data)
    assert np.array_equal(run.warps[1][0].data, b.data)


def step_warps(run):
    """Each step's warped volumes per direction as arrays, the image, then any
    labels: the next step's sampled volumes, and the run's warps after the last."""
    return ([[s.sampled[d][:-1] for d in (0, 1)] for s in run.steps[1:]]
            + [[[v.data for v in run.warps[d]] for d in (0, 1)]])


# a random instance: dims 3-9 per axis, control stride 1-4, 1-3 steps, labels or not
instances = st.tuples(st.tuples(st.integers(3, 9), st.integers(3, 9), st.integers(3, 9)),
                      st.integers(1, 4), st.integers(1, 3), st.booleans(),
                      st.integers(0, 2**32 - 1))


def random_instance(dims, stride, steps, labels, seed):
    """Two volumes, their segmentations (or None) and N(0, 1) parameter fields."""
    rng = np.random.default_rng(seed)
    a, b = random_pair(rng, dims)
    segs = random_segs(rng, dims) if labels else None
    control = deform.control_dims_for(dims, stride)
    deltas = [PreActivationField(rng.normal(0, 1.0, (3,) + control), stride=stride)
              for _ in range(steps)]
    return a, b, segs, deltas


@given(instances)
def test_forward_direction_antisymmetry_bit_exact(instance):
    a, b, segs, deltas = random_instance(*instance)
    fwd = multistep_forward(a, b, deltas, WEIGHTS, segs=segs)
    neg = [PreActivationField(-d.values, stride=d.stride) for d in deltas]
    rev_segs = None if segs is None else segs[::-1]
    rev = multistep_forward(b, a, neg, WEIGHTS, segs=rev_segs)
    for term in ("sim", "seg", "reg", "jac", "inv", "total"):
        assert getattr(fwd.breakdown, term) == getattr(rev.breakdown, term)
    assert len(fwd.steps) == len(rev.steps) == len(deltas)
    for f, r in zip(fwd.steps, rev.steps):
        assert np.array_equal(f.phis[0].values, r.phis[1].values)
        assert np.array_equal(f.phis[1].values, r.phis[0].values)
    for f, r in zip(step_warps(fwd), step_warps(rev), strict=True):
        assert len(f[0]) == len(r[1]) == (1 if segs is None else 2)
        for d in (0, 1):
            for f_warp, r_warp in zip(f[d], r[1 - d]):
                assert np.array_equal(f_warp, r_warp)


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
    config = RegistrationConfig(steps=3, iterations=0, control_stride=1)
    multi = register_pair(a, b, config)
    assert np.array_equal(multi.a_warp.data, a.data)
    assert np.array_equal(multi.b_warp.data, b.data)
    assert np.array_equal(multi.phi_ab.values, identity_field(DIMS).values)


def test_multistep_identity_second_step_keeps_first_warp():
    rng = np.random.default_rng(6)
    a, b = random_pair(rng)
    delta = PreActivationField(rng.normal(0, 0.5, (3,) + DIMS))
    one_step = multistep_forward(a, b, [delta], WEIGHTS)
    first, second = multistep_forward(a, b, [delta, zero_delta()], WEIGHTS).steps
    phi_ab = deform.compose(first.phis[0], second.phis[0])
    phi_ba = deform.compose(first.phis[1], second.phis[1])
    assert np.array_equal(deform.warp(a, phi_ab).data, one_step.warps[0][0].data)
    assert np.array_equal(deform.warp(b, phi_ba).data, one_step.warps[1][0].data)
    # composed field samples the first field at identity coordinates: exact
    assert np.array_equal(phi_ab.values, one_step.steps[0].phis[0].values)


@pytest.mark.parametrize("n_steps", [2, 3])
def test_multistep_warps_come_from_the_composed_fields(n_steps):
    rng = np.random.default_rng(16)
    a, b = random_pair(rng)
    segs = random_segs(rng)
    config = RegistrationConfig(steps=n_steps, iterations=3, learning_rate=0.5,
                                control_stride=1)
    multi = register_pair(a, b, config, segs=segs)
    assert np.array_equal(multi.a_warp.data, deform.warp(a, multi.phi_ab).data)
    assert np.array_equal(multi.b_warp.data, deform.warp(b, multi.phi_ba).data)
    # the losses saw the sequential warps, which the composed field only approximates
    run = multistep_forward(a, b, multi.deltas, WEIGHTS, segs=segs)
    assert not np.array_equal(multi.a_warp.data, run.warps[0][0].data)


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
    deltas = [zero_delta(stride=2), zero_delta(stride=2)]
    total, grads = objective_and_gradient(a, a, deltas, config)
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


def test_gradient_check_runs_one_probe_pair_per_coordinate(monkeypatch):
    """Two forward passes per parameter coordinate serve all six reports, plus
    one per report for its analytic gradient."""
    calls = []
    inner = engine.multistep_forward

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(engine, "multistep_forward", counted)
    config = RegistrationConfig(steps=2, control_stride=2)
    gradient_check((4, 4, 4), config)
    entries = config.steps * 3 * math.prod(deform.control_dims_for((4, 4, 4), 2))
    assert len(calls) == 2 * entries + 6


def test_directional_gradient_check_at_benchmark_size():
    # the 48^3 three-ellipsoid phantom with labels at steps=2; stride 5 does not divide 48
    spec = PhantomSpec(
        dims=(48, 48, 48),
        ellipsoids=[Ellipsoid((22, 22, 24), (12, 9, 10), 1, 1.0),
                    Ellipsoid((33, 30, 20), (5, 4, 6), 2, 0.6),
                    Ellipsoid((14, 32, 28), (4, 5, 4), 3, 0.8)],
        background=0.0, noise_sigma=0.02, seed=7)
    pair = make_pair(spec, AnalyticWarp("sinusoidal", amplitude=3.0, wavelength=24.0))
    segs = (one_hot(pair.moving_labels, [1, 2, 3]), one_hot(pair.fixed_labels, [1, 2, 3]))
    a, b = pair.moving, pair.fixed
    config = RegistrationConfig(steps=2, control_stride=5)
    control = deform.control_dims_for(a.dims, 5)
    rng = np.random.default_rng(3)
    deltas = [PreActivationField(rng.normal(0.0, 0.3, (3,) + control), stride=5)
              for _ in range(2)]
    # about 3 % of the x coordinates clamp at the border, and a few hundred voxels
    # fold, which is still few enough for the hinge's kinks to stay clear of h
    run = multistep_forward(a, b, deltas, config.weights, segs=segs)
    x = run.steps[0].phis[0].values[0]
    assert np.any((x < 0.0) | (x > 47.0))
    assert 0.0 < run.breakdown.jac < 0.01
    _, grads = objective_and_gradient(a, b, deltas, config, segs=segs)

    def weighted_terms(point):
        moved = [PreActivationField(values, stride=5) for values in point]
        bd = multistep_forward(a, b, moved, config.weights, segs=segs).breakdown
        w = config.weights
        return [w.alpha * bd.sim, w.beta * bd.seg, w.gamma * bd.reg, w.delta * bd.jac,
                w.epsilon * bd.inv]

    point, grad = np.stack([d.values for d in deltas]), np.stack(grads)
    for seed in (100, 101, 102):
        v = np.random.default_rng(seed).standard_normal(point.shape)
        check_directional(weighted_terms, point, v, float(np.sum(grad * v)), 1e-5)


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


def test_optimize_non_finite_update_is_a_divergence():
    """A finite learning rate so large that the parameters overflow stops the
    run as diverged, with the finite trace so far and no numpy warning."""
    a, b = random_pair(np.random.default_rng(0), (8, 8, 8))
    config = RegistrationConfig(steps=1, iterations=3, learning_rate=1.7e308, control_stride=2)
    with warnings.catch_warnings(), pytest.raises(DivergenceError) as info:
        warnings.simplefilter("error")
        optimize(a, b, config)
    assert "non-finite" in str(info.value)
    trace = info.value.trace
    assert 1 <= len(trace) < config.iterations
    assert all(math.isfinite(bd.total) for bd in trace)


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


@settings(max_examples=4)
@given(instances)
@example(((9, 7, 8), 2, 2, True, 0))  # labelled multistep runs, which the four draws lack
@example(((8, 7, 9), 3, 3, True, 1))
def test_register_pair_swap_and_negate_mirrors_bit_exact(instance):
    """Swapping the inputs mirrors a whole registration, backward pass and Adam included."""
    _, stride, steps, _, _ = instance
    a, b, segs, _ = random_instance(*instance)
    config = RegistrationConfig(steps=steps, iterations=6, control_stride=stride)
    fwd = register_pair(a, b, config, segs=segs)
    rev = register_pair(b, a, config, segs=None if segs is None else segs[::-1])
    assert len(fwd.deltas) == len(rev.deltas) == steps
    for f, r in zip(fwd.deltas, rev.deltas):
        assert np.array_equal(f.values, -r.values)
    assert np.array_equal(fwd.phi_ab.values, rev.phi_ba.values)
    assert np.array_equal(fwd.phi_ba.values, rev.phi_ab.values)
    assert np.array_equal(fwd.a_warp.data, rev.b_warp.data)
    assert np.array_equal(fwd.b_warp.data, rev.a_warp.data)
    assert fwd.trace == rev.trace
    assert fwd.final == rev.final


def test_registration_result_pickles_without_its_pullbacks():
    rng = np.random.default_rng(21)
    a, b = random_pair(rng)
    config = RegistrationConfig(steps=2, iterations=2, control_stride=2)
    result = register_pair(a, b, config, segs=random_segs(rng))
    copy = pickle.loads(pickle.dumps(result))
    assert np.array_equal(copy.phi_ab.values, result.phi_ab.values)
    assert copy.final == result.final


def test_registration_result_holds_what_callers_read():
    """A result is its fields, warps, loss, deltas and history; a field is its values."""
    rng = np.random.default_rng(22)
    a, b = random_pair(rng)
    segs = random_segs(rng)
    for steps, inference_steps in ((1, None), (2, None), (2, 1)):
        config = RegistrationConfig(steps=steps, iterations=2, control_stride=2)
        result = register_pair(a, b, config, segs=segs, inference_steps=inference_steps)
        assert [f.name for f in fields(result)] == [
            "phi_ab", "phi_ba", "a_warp", "b_warp", "final", "deltas", "trace",
            "iterations_run", "converged"]
        assert [f.name for f in fields(result.phi_ab)] == ["values"]
        copy = pickle.loads(pickle.dumps(result))
        for key in ("phi_ab", "phi_ba"):
            assert np.array_equal(getattr(copy, key).values, getattr(result, key).values)
        for key in ("a_warp", "b_warp"):
            assert np.array_equal(getattr(copy, key).data, getattr(result, key).data)
        assert len(copy.deltas) == len(result.deltas) == (inference_steps or steps)
        for d_copy, d in zip(copy.deltas, result.deltas):
            assert np.array_equal(d_copy.values, d.values)
        assert copy.trace == result.trace and copy.final == result.final


def test_register_pair_inference_steps():
    pair = phantom_fixture()
    config = RegistrationConfig(steps=2, iterations=10, control_stride=2)
    full = register_pair(pair.moving, pair.fixed, config)
    trimmed = register_pair(pair.moving, pair.fixed, config, inference_steps=1)
    first = multistep_forward(pair.moving, pair.fixed, full.deltas[:1], config.weights)
    assert len(first.steps) == 1
    assert np.array_equal(trimmed.phi_ab.values, first.steps[0].phis[0].values)
    assert np.array_equal(trimmed.a_warp.data, first.warps[0][0].data)
    assert np.array_equal(full.a_warp.data,
                          deform.warp(pair.moving, full.phi_ab).data)
    assert len(trimmed.deltas) == 1
    assert np.array_equal(trimmed.deltas[0].values, full.deltas[0].values)
    assert trimmed.iterations_run == full.iterations_run
    with pytest.raises(ValueError, match="inference steps"):
        register_pair(pair.moving, pair.fixed, config, inference_steps=3)


def test_register_pair_inference_steps_runs_one_final_pass(monkeypatch):
    """Trimmed steps get one forward pass after the loop, not a full one first."""
    rng = np.random.default_rng(23)
    a, b = random_pair(rng)
    config = RegistrationConfig(steps=2, iterations=3, control_stride=2)
    passes = []

    def counted(a, b, deltas, weights, segs=None):
        passes.append(len(deltas))
        return multistep_forward(a, b, deltas, weights, segs=segs)

    monkeypatch.setattr(engine, "multistep_forward", counted)
    result = register_pair(a, b, config, segs=random_segs(rng), inference_steps=1)
    assert passes == [2] * config.iterations + [1]
    assert result.iterations_run == config.iterations and len(result.deltas) == 1


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
    for seed in ("0", "true", "null", '"x"', "[1.5, {}]"):
        config = RegistrationConfig.from_json(f'{{"steps": 3, "seed": {seed}}}')
        assert config == RegistrationConfig(steps=3)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        RegistrationConfig.from_json('{"alpha": 1.0, "momentum": 0.9}')


@pytest.mark.parametrize("text, key", [
    ('{"steps": 1.7}', "steps"),
    ('{"iterations": true}', "iterations"),
    ('{"alpha": "2"}', "alpha"),
    ('{"alpha": null}', "alpha"),
    ('{"steps": [2]}', "steps"),
    ('{"learning_rate": false}', "learning_rate"),
    pytest.param('{"alpha": 1' + "0" * 400 + '}', "alpha", id="alpha-too-large-for-a-float"),
    ('{"learning_rate": Infinity}', "learning_rate"),
    ('{"learning_rate": NaN}', "learning_rate"),
    ('{"convergence_tol": NaN}', "convergence_tol"),
])
def test_config_rejects_values_of_the_wrong_json_type(text, key):
    with pytest.raises(ValueError, match=f"config key '{key}'"):
        RegistrationConfig.from_json(text)


def test_config_defaults_match_chosen_setup():
    config = RegistrationConfig()
    assert config.weights == LossWeights(1.0, 1.0, 0.1, 0.01, 10.0)
    assert config.steps == 2
    assert ADAM_BETAS == (0.9, 0.999)
    assert ADAM_EPS == 1e-8


# ---------------------------------------------------------------------------
# the two directions on two cores


def folding_instance(dims, steps, labels, seed=0):
    """``gradient_check``'s random instance: N(0, 1.5) deltas at stride 2 fold."""
    rng = np.random.default_rng(seed)
    a, b = random_pair(rng, dims)
    segs = random_segs(rng, dims) if labels else None
    control = deform.control_dims_for(dims, 2)
    deltas = [PreActivationField(rng.normal(0.0, 1.5, (3,) + control), stride=2)
              for _ in range(steps)]
    return a, b, segs, deltas


def bits(total, grads):
    return [float(total).hex()] + [g.tobytes() for g in grads]


def test_backward_runs_each_weighted_pullback_once(monkeypatch):
    """The backward pass runs a term's pullback only if the term is weighted,
    and then exactly once per direction and step."""
    a, b, segs, deltas = folding_instance((8, 8, 8), 2, labels=True)
    calls = []  # per direction_terms call (step, then direction), per term
    inner = engine.direction_terms

    def counted(*args):
        runs = [0] * 5
        calls.append(runs)

        def wrap(i, pullback):
            def run():
                runs[i] += 1
                return pullback()
            return run

        terms = inner(*args)
        assert all(pullback is not None for _, pullback in terms)  # labelled and folding
        return [(value, wrap(i, pullback)) for i, (value, pullback) in enumerate(terms)]

    monkeypatch.setattr(engine, "CORES", 1)
    monkeypatch.setattr(engine, "direction_terms", counted)
    for weights, want in ((LossWeights(1, 0, 0.1, 0, 10), [1, 0, 1, 0, 1]),
                          (LossWeights(), [1] * 5)):
        calls.clear()
        objective_and_gradient(a, b, deltas, RegistrationConfig(weights=weights, steps=2,
                                                                control_stride=2), segs=segs)
        assert calls == [want] * 4


def test_backward_releases_each_step_once_its_turn_is_done(monkeypatch):
    """The last step's warps are gone at the first sweep, and what a step
    sampled is gone once that step's turn of the backward pass is done."""
    a, b, segs, deltas = folding_instance((8, 8, 8), 3, labels=True)
    refs = {}
    forward, vjp_sample = engine.multistep_forward, deform.vjp_sample

    def recorded(*args, **kwargs):
        run = forward(*args, **kwargs)
        refs["warps"] = [weakref.ref(v.data) for vs in run.warps for v in vs]
        refs["sampled"] = [weakref.ref(x) for xs in run.steps[1].sampled for x in xs]
        return run

    alive = []  # per sweep: whether each last warp, and each array step 1 sampled, lives

    def sweep(*args):
        alive.append(([r() is not None for r in refs["warps"]],
                      [r() is not None for r in refs["sampled"]]))
        return vjp_sample(*args)

    monkeypatch.setattr(engine, "multistep_forward", recorded)
    monkeypatch.setattr(deform, "vjp_sample", sweep)
    objective_and_gradient(a, b, deltas, RegistrationConfig(steps=3, control_stride=2),
                           segs=segs)
    assert len(refs["warps"]) == 4 and len(refs["sampled"]) == 6
    assert [warps for warps, _ in alive] == [[False] * 4] * 6
    # steps 2 and 1 (two sweeps each), then step 0
    assert [sampled for _, sampled in alive] == [[True] * 6] * 4 + [[False] * 6] * 2


@pytest.mark.parametrize("steps", [1, 2, 3])
@pytest.mark.parametrize("labels", [True, False])
def test_objective_and_gradient_same_bits_on_one_and_two_cores(monkeypatch, steps, labels):
    dims = (26, 25, 27)  # above engine.THREAD_MIN_VOXELS
    assert math.prod(dims) >= engine.THREAD_MIN_VOXELS
    a, b, segs, deltas = folding_instance(dims, steps, labels)
    config = RegistrationConfig(steps=steps, control_stride=2)
    threads = []
    det_vjp = deform.det_vjp

    def recorded(*args):
        threads.append(threading.current_thread() is threading.main_thread())
        return det_vjp(*args)

    monkeypatch.setattr(deform, "det_vjp", recorded)
    runs = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)  # the threads take turns as often as they can
        for cores in (1, 2):
            monkeypatch.setattr(engine, "CORES", cores)
            runs[cores] = bits(*objective_and_gradient(a, b, deltas, config, segs=segs))
    finally:
        sys.setswitchinterval(interval)
    assert runs[1] == runs[2]
    # both directions fold: on one core every adjoint runs here, on two one of each
    # direction pair runs on the second thread
    assert threads.count(True) == 3 * threads.count(False) > 0


def test_register_pair_same_bits_on_one_and_two_cores(monkeypatch):
    spec = PhantomSpec(dims=(26, 24, 28),
                       ellipsoids=[Ellipsoid((12, 11, 14), (7, 6, 6), 1, 1.0),
                                   Ellipsoid((17, 16, 13), (3, 3, 4), 2, 0.6)],
                       noise_sigma=0.01, seed=5)
    pair = make_pair(spec, AnalyticWarp("sinusoidal", 2.0, wavelength=16.0))
    segs = (one_hot(pair.moving_labels, [1, 2]), one_hot(pair.fixed_labels, [1, 2]))
    config = RegistrationConfig(steps=2, iterations=3, control_stride=2, convergence_tol=0.0)
    results = []
    for cores in (1, 2):
        monkeypatch.setattr(engine, "CORES", cores)
        results.append(register_pair(pair.moving, pair.fixed, config, segs=segs))
    one, two = results
    for f in ("phi_ab", "phi_ba"):
        assert getattr(one, f).values.tobytes() == getattr(two, f).values.tobytes()
    for f in ("a_warp", "b_warp"):
        assert getattr(one, f).data.tobytes() == getattr(two, f).data.tobytes()
    assert [d.values.tobytes() for d in one.deltas] == [d.values.tobytes() for d in two.deltas]
    assert one.trace + [one.final] == two.trace + [two.final]


def test_both_raises_an_error_of_the_second_direction(monkeypatch):
    monkeypatch.setattr(engine, "CORES", 2)
    before = threading.active_count()
    seen = []

    def fn(d):
        seen.append(d)
        if d == 1:
            raise KeyError("direction 1")
        return d

    voxels = engine.THREAD_MIN_VOXELS
    with pytest.raises(KeyError, match="direction 1"):
        engine._both(fn, voxels)
    assert sorted(seen) == [0, 1]

    def on_main(d):
        return threading.current_thread() is threading.main_thread()

    assert engine._both(on_main, voxels) == (True, False)
    assert engine._both(on_main, voxels - 1) == (True, True)  # too small to pay for a thread
    assert threading.active_count() == before


def peak_per_voxel(a, b, deltas, config, segs):
    """The tracemalloc peak of one ``objective_and_gradient``, in B per voxel."""
    objective_and_gradient(a, b, deltas, config, segs=segs)  # imports, outside the count
    tracemalloc.start()
    try:
        objective_and_gradient(a, b, deltas, config, segs=segs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / math.prod(a.dims)


def test_objective_and_gradient_peak_on_two_cores(monkeypatch):
    """Two directions at once stay within 700 B per voxel (measured 645-691 at
    32^3 with two labels and folding fields, as the threads overlap; one core 572)."""
    a, b, segs, deltas = folding_instance((32, 32, 32), 2, True)
    monkeypatch.setattr(engine, "CORES", 2)
    assert peak_per_voxel(a, b, deltas, RegistrationConfig(steps=2, control_stride=2),
                          segs) < 700.0


def test_objective_and_gradient_peak_with_thirteen_labels(monkeypatch):
    """Each label channel costs its arrays only while a step needs them: 13
    channels stay within 1000 B per voxel on one core (measured 991 at 32^3)."""
    dims = (32, 32, 32)
    rng = np.random.default_rng(0)
    a, b = random_pair(rng, dims)
    segs = tuple(one_hot(LabelVolume(rng.integers(0, 14, dims)), list(range(1, 14)))
                 for _ in range(2))
    control = deform.control_dims_for(dims, 4)
    deltas = [PreActivationField(rng.normal(0.0, 0.3, (3,) + control), stride=4)
              for _ in range(2)]
    monkeypatch.setattr(engine, "CORES", 1)
    assert peak_per_voxel(a, b, deltas, RegistrationConfig(steps=2, control_stride=4),
                          segs) < 1000.0

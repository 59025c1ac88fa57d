import json

import numpy as np
import pytest

from gradreg import deform
from gradreg.cli import main
from gradreg.deform import field_to_volume, identity_field
from gradreg.volume import LabelVolume, Volume, read_volume, write_volume

TINY_CONFIG = {
    "alpha": 1.0, "beta": 1.0, "gamma": 0.1, "delta": 0.01, "epsilon": 10.0,
    "steps": 1, "iterations": 3, "learning_rate": 0.01,
    "control_stride": 2, "seed": 0, "convergence_tol": 1e-6,
}

DIMS = (8, 8, 8)


@pytest.fixture
def workdir(tmp_path):
    rng = np.random.default_rng(0)
    img = Volume(rng.uniform(0, 1, (1,) + DIMS).astype(np.float32))
    write_volume(img, tmp_path / "img")
    labels = LabelVolume(rng.integers(0, 3, DIMS))
    write_volume(labels, tmp_path / "labels")
    write_volume(field_to_volume(identity_field(DIMS)), tmp_path / "ident")
    (tmp_path / "config.json").write_text(json.dumps(TINY_CONFIG))
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# parser surface


def test_help_lists_all_subcommands(capsys):
    with pytest.raises(SystemExit) as e:
        run("--help")
    assert e.value.code == 0
    out = capsys.readouterr().out
    for name in ("register", "warp", "jacobian", "metrics", "phantom", "gradcheck"):
        assert name in out
    for flag in ("--jobs", "--quiet"):
        assert flag in out


def test_subcommand_help_lists_flags(capsys):
    with pytest.raises(SystemExit):
        run("register", "--help")
    out = capsys.readouterr().out
    for flag in ("--fixed", "--moving", "--fixed-labels", "--moving-labels",
                 "--config", "--out-dir", "--pairs", "--inference-steps"):
        assert flag in out


def test_unknown_flag_exit_1(capsys):
    assert run("warp", "--bogus", "x") == 1
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_exit_1(capsys):
    assert run() == 1


# ---------------------------------------------------------------------------
# warp


def test_warp_identity_byte_identical(workdir):
    out = workdir / "warped"
    assert run("warp", "--image", workdir / "img", "--field", workdir / "ident",
               "--out", out) == 0
    assert (out.with_suffix(".raw").read_bytes()
            == (workdir / "img.raw").read_bytes())


def test_warp_translation_shifts_ramp(workdir, tmp_path):
    nx = DIMS[0]
    ramp = np.broadcast_to(np.arange(nx, dtype=np.float64)[:, None, None],
                           DIMS).copy()
    write_volume(Volume(ramp[np.newaxis], dtype="f64"), tmp_path / "ramp")
    shifted = identity_field(DIMS).values.copy()
    shifted[0] += 1.0
    write_volume(field_to_volume(deform.DeformationField(shifted)),
                 tmp_path / "shift")
    out = tmp_path / "out"
    assert run("warp", "--image", tmp_path / "ramp", "--field", tmp_path / "shift",
               "--out", out) == 0
    warped = read_volume(out)
    assert np.allclose(warped.data[0, :-1], ramp[1:], atol=1e-6)


def test_warp_labels_nearest(workdir):
    out = workdir / "warped_labels"
    assert run("warp", "--labels", workdir / "labels", "--field", workdir / "ident",
               "--out", out) == 0
    back = read_volume(out)
    assert isinstance(back, LabelVolume)
    assert np.array_equal(back.labels, read_volume(workdir / "labels").labels)


def test_warp_dims_mismatch_exit_1(workdir, tmp_path, capsys):
    small = Volume(np.zeros((1, 4, 4, 4), dtype=np.float64))
    write_volume(small, tmp_path / "small")
    assert run("warp", "--image", tmp_path / "small", "--field", workdir / "ident",
               "--out", tmp_path / "out") == 1
    assert "dims" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# jacobian


def test_jacobian_identity(workdir, capsys):
    out = workdir / "jac"
    assert run("jacobian", "--field", workdir / "ident", "--out", out,
               "--sdlogj") == 0
    assert capsys.readouterr().out.strip() == "0"
    det = read_volume(out)
    assert np.all(det.data == 1.0)


def test_jacobian_scaling_interior(workdir, tmp_path):
    phi = deform.DeformationField(2.0 * identity_field(DIMS).values)
    write_volume(field_to_volume(phi), tmp_path / "double")
    out = tmp_path / "jac"
    assert run("jacobian", "--field", tmp_path / "double", "--out", out) == 0
    det = read_volume(out)
    assert np.allclose(det.data[0, 1:-1, 1:-1, 1:-1], 8.0, atol=1e-5)


# ---------------------------------------------------------------------------
# metrics


def test_metrics_identity_pair(workdir, capsys):
    out = workdir / "metrics.csv"
    assert run("metrics", "--fixed-labels", workdir / "labels",
               "--warped-labels", workdir / "labels",
               "--field", workdir / "ident", "--labels", "1,2",
               "--out", out) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1].split(",")[2] == "1.0"
    summary = lines[-1].split(",")
    assert summary[4] == "1.0" and summary[6] == "0.0"


def test_metrics_absent_label(workdir):
    out = workdir / "metrics.csv"
    assert run("metrics", "--fixed-labels", workdir / "labels",
               "--warped-labels", workdir / "labels",
               "--field", workdir / "ident", "--labels", "1,9",
               "--out", out) == 0
    rows = out.read_text().strip().splitlines()
    absent_row = [r for r in rows if r.split(",")[1] == "9"][0]
    assert absent_row.split(",")[2] == "absent"


# ---------------------------------------------------------------------------
# phantom


PHANTOM_SPEC = {
    "dims": [10, 10, 10],
    "background": 0.0,
    "noise_sigma": 0.02,
    "seed": 3,
    "ellipsoids": [
        {"center": [4, 4, 5], "semi_axes": [3, 2, 3], "label": 1, "intensity": 1.0}
    ],
}
WARP_SPEC = {"kind": "sinusoidal", "amplitude": 1.0, "wavelength": 8.0}


def test_phantom_outputs_and_determinism(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(PHANTOM_SPEC))
    (tmp_path / "warp.json").write_text(json.dumps(WARP_SPEC))
    for name in ("run1", "run2"):
        assert run("--quiet", "phantom", "--spec", tmp_path / "spec.json",
                   "--warp", tmp_path / "warp.json",
                   "--out-dir", tmp_path / name) == 0
    names = ["fixed", "fixed_labels", "moving", "moving_labels",
             "phi_gt", "phi_gt_inv"]
    for name in names:
        one = (tmp_path / "run1" / f"{name}.raw").read_bytes()
        two = (tmp_path / "run2" / f"{name}.raw").read_bytes()
        assert one == two
        assert (tmp_path / "run1" / f"{name}.json").exists()


def test_phantom_missing_spec_exit_1(tmp_path, capsys):
    (tmp_path / "warp.json").write_text(json.dumps(WARP_SPEC))
    assert run("phantom", "--spec", tmp_path / "nope.json",
               "--warp", tmp_path / "warp.json", "--out-dir", tmp_path / "o") == 1
    assert "nope.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# register


def test_register_identical_pair_full_dice(workdir):
    out_dir = workdir / "reg"
    assert run("--quiet", "register", "--fixed", workdir / "img",
               "--moving", workdir / "img",
               "--fixed-labels", workdir / "labels",
               "--moving-labels", workdir / "labels",
               "--config", workdir / "config.json", "--out-dir", out_dir) == 0
    text = (out_dir / "metrics.csv").read_text()
    after_summary = [r for r in text.strip().splitlines()
                     if r.startswith("after,summary")][0]
    assert after_summary.split(",")[4] == "1.0"
    for name in ("phi_moving_to_fixed", "phi_fixed_to_moving", "warped_moving",
                 "warped_fixed", "warped_moving_labels", "warped_fixed_labels"):
        assert (out_dir / f"{name}.raw").exists()
    trace = (out_dir / "loss_trace.csv").read_text().strip().splitlines()
    assert trace[0] == "iteration,sim,seg,reg,jac,inv,total"
    assert len(trace) == 1 + TINY_CONFIG["iterations"]


def test_register_missing_config_exit_1(workdir, capsys):
    assert run("register", "--fixed", workdir / "img", "--moving", workdir / "img",
               "--config", workdir / "missing.json",
               "--out-dir", workdir / "reg") == 1
    assert "missing.json" in capsys.readouterr().err


def test_register_requires_both_label_flags(workdir, capsys):
    assert run("register", "--fixed", workdir / "img", "--moving", workdir / "img",
               "--moving-labels", workdir / "labels",
               "--config", workdir / "config.json",
               "--out-dir", workdir / "reg") == 1
    assert "both" in capsys.readouterr().err


def test_register_batch_jobs_bit_identical(workdir):
    manifest = []
    for i in range(2):
        manifest.append(
            {
                "pair_id": f"p{i}",
                "fixed": str(workdir / "img"),
                "moving": str(workdir / "img"),
                "fixed_labels": str(workdir / "labels"),
                "moving_labels": str(workdir / "labels"),
                "out_dir": str(workdir / f"jobs1_p{i}"),
            }
        )
    (workdir / "pairs1.json").write_text(json.dumps(manifest))
    manifest4 = [dict(m, out_dir=m["out_dir"].replace("jobs1", "jobs4"))
                 for m in manifest]
    (workdir / "pairs4.json").write_text(json.dumps(manifest4))
    assert run("--quiet", "--jobs", "1", "register", "--pairs",
               workdir / "pairs1.json", "--config", workdir / "config.json") == 0
    assert run("--quiet", "--jobs", "4", "register", "--pairs",
               workdir / "pairs4.json", "--config", workdir / "config.json") == 0
    for i in range(2):
        for name in ("phi_moving_to_fixed.raw", "warped_moving.raw", "metrics.csv",
                     "loss_trace.csv"):
            one = (workdir / f"jobs1_p{i}" / name).read_bytes()
            four = (workdir / f"jobs4_p{i}" / name).read_bytes()
            assert one == four, f"{name} differs between --jobs 1 and 4"


def batch_entry(workdir, name):
    return {"fixed": str(workdir / "img"), "moving": str(workdir / "img"),
            "out_dir": str(workdir / name)}


@pytest.mark.parametrize("bad_entry, message", [
    ([1], "entry 1 must be a JSON object"),
    ({"fixed": "img", "out_dir": "never"}, "entry 1 lacks moving"),
])
def test_register_batch_bad_entry_exit_1_before_any_pair(workdir, capsys, bad_entry,
                                                          message):
    manifest = [batch_entry(workdir, "first"), bad_entry]
    (workdir / "pairs.json").write_text(json.dumps(manifest))
    assert run("register", "--pairs", workdir / "pairs.json",
               "--config", workdir / "config.json") == 1
    assert message in capsys.readouterr().err
    assert not (workdir / "first").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_register_batch_failed_pair_keeps_the_others(workdir, capsys, jobs):
    manifest = [dict(batch_entry(workdir, "lost"), moving=str(workdir / "absent"),
                     pair_id="broken"),
                dict(batch_entry(workdir, "kept"), pair_id="healthy")]
    (workdir / "pairs.json").write_text(json.dumps(manifest))
    assert run("--jobs", jobs, "register", "--pairs", workdir / "pairs.json",
               "--config", workdir / "config.json") == 1
    captured = capsys.readouterr()
    assert "broken: error: missing volume header" in captured.err
    assert "healthy: iterations=" in captured.out
    for name in ("phi_moving_to_fixed.raw", "warped_moving.raw", "loss_trace.csv",
                 "metrics.csv"):
        assert (workdir / "kept" / name).exists()


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes(tmp_path, capsys):
    config = dict(TINY_CONFIG, steps=1, control_stride=2)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run("gradcheck", "--dims", "4,4,4", "--config",
               tmp_path / "config.json", "--seed", "0") == 0
    out = capsys.readouterr().out
    assert "passed" in out


def test_gradcheck_dims_too_large_exit_1(capsys):
    assert run("gradcheck", "--dims", "32,32,32") == 1
    assert "too large" in capsys.readouterr().err


def test_gradcheck_all_zero_weights_trivial_pass(tmp_path):
    config = dict(TINY_CONFIG, alpha=0.0, beta=0.0, gamma=0.0, delta=0.0,
                  epsilon=0.0, steps=1, control_stride=2)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run("gradcheck", "--dims", "4,4,4", "--config",
               tmp_path / "config.json") == 0

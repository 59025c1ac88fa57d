import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gradreg
from gradreg import deform, engine
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


def checkout_env() -> dict:
    """The environment of a fresh interpreter that imports this gradreg."""
    src = str(Path(gradreg.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))


def run_probe(code: str, timeout: float | None = None) -> str:
    """What a fresh interpreter running ``code`` with this gradreg prints; past
    ``timeout`` seconds it is killed with every process it started."""
    with subprocess.Popen([sys.executable, "-c", code], env=checkout_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    assert proc.returncode == 0, err
    return out.strip()


def test_cli_import_leaves_scipy_modules_unloaded():
    """``phantom``, ``warp`` and ``jacobian`` start without scipy's import cost."""
    probe = ("import sys, gradreg.cli; print(sorted({'scipy.special', 'scipy.spatial', "
             "'scipy.ndimage', 'scipy.sparse'} & set(sys.modules)))")
    assert run_probe(probe) == "[]"


def test_warp_leaves_scipy_sparse_unloaded():
    """Only the backward pass loads scipy.sparse; a warp gathers."""
    probe = ("import sys, numpy as np\n"
             "from gradreg import deform\n"
             "from gradreg.volume import Volume\n"
             "phi = deform.identity_field((5, 4, 3))\n"
             "phi.values[0] += 0.25\n"
             "deform.warp(Volume(np.ones((1, 5, 4, 3))), phi)\n"
             "print('scipy.sparse' in sys.modules)")
    assert run_probe(probe) == "False"


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exit_1(workdir, capsys, jobs):
    assert run("--jobs", jobs, "register", "--fixed", workdir / "img", "--moving",
               workdir / "img", "--config", workdir / "config.json",
               "--out-dir", workdir / "out") == 1
    assert "--jobs" in capsys.readouterr().err
    assert not (workdir / "out").exists()


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


def test_jacobian_sdlogj_takes_the_determinant_once(workdir, monkeypatch, capsys):
    rng = np.random.default_rng(3)
    phi = deform.DeformationField(identity_field(DIMS).values
                                  + rng.normal(0.0, 0.2, (3,) + DIMS))
    write_volume(field_to_volume(phi), workdir / "f")
    calls = []
    inner = deform.jacobian_det_values

    def counted(field):
        calls.append(field)
        return inner(field)

    monkeypatch.setattr(deform, "jacobian_det_values", counted)
    assert run("jacobian", "--field", workdir / "f", "--out", workdir / "det", "--sdlogj") == 0
    assert len(calls) == 1
    monkeypatch.undo()
    field = deform.volume_to_field(read_volume(workdir / "f"))
    assert capsys.readouterr().out.strip() == f"{gradreg.metrics.sdlogj(field):.6g}"


def test_jacobian_scaling_interior(workdir, tmp_path):
    phi = deform.DeformationField(2.0 * identity_field(DIMS).values)
    write_volume(field_to_volume(phi), tmp_path / "double")
    out = tmp_path / "jac"
    assert run("jacobian", "--field", tmp_path / "double", "--out", out) == 0
    det = read_volume(out)
    assert np.allclose(det.data[0, 1:-1, 1:-1, 1:-1], 8.0, atol=1e-5)


def test_jacobian_refuses_a_determinant_past_f32(workdir, tmp_path, capsys):
    phi = deform.DeformationField(1e13 * identity_field(DIMS).values)
    write_volume(field_to_volume(phi), tmp_path / "huge")
    assert run("jacobian", "--field", tmp_path / "huge", "--out", tmp_path / "jac") == 1
    assert "not finite as f32" in capsys.readouterr().err
    assert not (tmp_path / "jac.raw").exists() and not (tmp_path / "jac.json").exists()


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


@pytest.mark.parametrize("labels", ["0,1", "-3", "70000"])
def test_metrics_label_outside_1_to_65535_exit_1(workdir, capsys, labels):
    """The background 0 would join mean_dice; no u16 label map holds -3 or 70000."""
    out = workdir / "metrics.csv"
    assert run("metrics", "--fixed-labels", workdir / "labels",
               "--warped-labels", workdir / "labels",
               "--field", workdir / "ident", "--labels", labels,
               "--out", out) == 1
    assert "must be in 1..65535" in capsys.readouterr().err
    assert not out.exists()


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


def test_phantom_intensity_past_f32_exit_1(tmp_path, capsys):
    """Every file the command writes must read back: an intensity that overflows
    the f32 payload is refused, not written as inf."""
    spec = dict(PHANTOM_SPEC, ellipsoids=[dict(PHANTOM_SPEC["ellipsoids"][0], intensity=1e39)])
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "warp.json").write_text(json.dumps(WARP_SPEC))
    assert run("phantom", "--spec", tmp_path / "spec.json",
               "--warp", tmp_path / "warp.json", "--out-dir", tmp_path / "o") == 1
    assert "not finite as f32" in capsys.readouterr().err
    assert list((tmp_path / "o").iterdir()) == []


def with_ellipsoid(**keys):
    return dict(PHANTOM_SPEC, ellipsoids=[dict(PHANTOM_SPEC["ellipsoids"][0], **keys)])


@pytest.mark.parametrize("spec, warp, named", [
    ([], WARP_SPEC, "phantom spec must be a JSON object"),
    ({"dims": 5}, WARP_SPEC, "phantom spec key 'dims' must be a list of 3 integers, got 5"),
    (with_ellipsoid(label=1.7), WARP_SPEC, "ellipsoid 0 key 'label' must be an integer, got 1.7"),
    (with_ellipsoid(label=70000), WARP_SPEC, "ellipsoid labels must be in 1..65535, got [70000]"),
    (dict(PHANTOM_SPEC, noise_sigm=0.1), WARP_SPEC,
     "unknown phantom spec keys: ['noise_sigm']"),
    (PHANTOM_SPEC, dict(WARP_SPEC, wavelength="x"),
     "warp spec key 'wavelength' must be a number, got \"x\""),
    (with_ellipsoid(center=[float("nan"), 4, 5]), WARP_SPEC,
     "ellipsoid 0 key 'center' must be finite, got [NaN, 4, 5]"),
    (with_ellipsoid(semi_axes=[3, float("inf"), 3]), WARP_SPEC,
     "ellipsoid 0 key 'semi_axes' must be finite, got [3, Infinity, 3]"),
], ids=["not-an-object", "dims-not-a-list", "fractional-label", "label-too-large",
        "unknown-key", "wavelength-string", "nan-center", "infinite-semi-axes"])
def test_phantom_malformed_spec_exit_1(tmp_path, capsys, spec, warp, named):
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "warp.json").write_text(json.dumps(warp))
    assert run("phantom", "--spec", tmp_path / "spec.json",
               "--warp", tmp_path / "warp.json", "--out-dir", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


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


def test_register_non_finite_update_exit_2_keeps_the_trace(workdir):
    """A run that diverges exits 2, writes its trace and prints its failure on
    stderr, with no numpy warning before it."""
    rng = np.random.default_rng(1)
    write_volume(Volume(rng.uniform(0, 1, (1,) + DIMS).astype(np.float32)), workdir / "other")
    (workdir / "huge.json").write_text(json.dumps(dict(TINY_CONFIG, learning_rate=1.7e308)))
    out_dir = workdir / "reg"
    proc = subprocess.run(
        [sys.executable, "-m", "gradreg.cli", "register", "--fixed", str(workdir / "other"),
         "--moving", str(workdir / "img"), "--config", str(workdir / "huge.json"),
         "--out-dir", str(out_dir)], env=checkout_env(), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "reg: numerical failure: parameters became non-finite at update 2"]
    trace = (out_dir / "loss_trace.csv").read_text().strip().splitlines()
    assert trace[0] == "iteration,sim,seg,reg,jac,inv,total" and len(trace) >= 2


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
    assert not (workdir / "reg").exists()


def test_register_missing_labels_file_exit_1_makes_no_out_dir(workdir, capsys):
    assert run("register", "--fixed", workdir / "img", "--moving", workdir / "img",
               "--moving-labels", workdir / "labels", "--fixed-labels", workdir / "absent",
               "--config", workdir / "config.json",
               "--out-dir", workdir / "reg") == 1
    assert "absent" in capsys.readouterr().err
    assert not (workdir / "reg").exists()


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


def test_register_batch_forks_safely_after_two_core_registrations(workdir):
    """A process that ran both directions on two threads forks its ``--jobs 2``
    workers, each with half of its four cores and so two threads of its own;
    the batch finishes with the outputs of ``--jobs 1``."""
    dims = (26, 26, 26)  # above engine.THREAD_MIN_VOXELS
    assert np.prod(dims) >= engine.THREAD_MIN_VOXELS
    rng = np.random.default_rng(4)
    for name in ("img", "other"):
        write_volume(Volume(rng.uniform(0, 1, (1,) + dims).astype(np.float32)), workdir / name)
    write_volume(LabelVolume(rng.integers(0, 3, dims)), workdir / "labels")
    (workdir / "config.json").write_text(json.dumps(dict(TINY_CONFIG, steps=2)))
    for tag in ("serial", "forked"):
        (workdir / f"{tag}.json").write_text(json.dumps([
            {"pair_id": f"p{i}", "fixed": str(workdir / fixed), "moving": str(workdir / moving),
             "fixed_labels": str(workdir / "labels"), "moving_labels": str(workdir / "labels"),
             "out_dir": str(workdir / f"{tag}_p{i}")}
            for i, (fixed, moving) in enumerate([("img", "other"), ("other", "img")])]))
    assert run("--quiet", "--jobs", "1", "register", "--pairs", workdir / "serial.json",
               "--config", workdir / "config.json") == 0
    probe = f"""
import threading
from gradreg import cli, engine
from gradreg.engine import RegistrationConfig
from gradreg.volume import read_volume
engine.CORES = 4
a, b = (read_volume({str(workdir)!r} + name) for name in ("/img", "/other"))
threads = threading.active_count()
engine.register_pair(a, b, RegistrationConfig(steps=2, iterations=2, control_stride=2))
assert threading.active_count() == threads
run_pair = cli._run_pair
def reporting(job):
    code, line = run_pair(job)
    return code, f"{{line}} cores={{engine.CORES}}"
cli._run_pair = reporting
raise SystemExit(cli.main(["--jobs", "2", "register", "--pairs", {str(workdir / "forked.json")!r},
                           "--config", {str(workdir / "config.json")!r}]))
"""
    printed = run_probe(probe, timeout=120).splitlines()
    assert [line.rsplit(" ", 1)[1] for line in printed] == ["cores=2", "cores=2"]
    for i in range(2):
        for name in ("phi_moving_to_fixed.raw", "phi_fixed_to_moving.raw", "warped_moving.raw",
                     "warped_fixed.raw", "metrics.csv", "loss_trace.csv"):
            serial = (workdir / f"serial_p{i}" / name).read_bytes()
            forked = (workdir / f"forked_p{i}" / name).read_bytes()
            assert serial == forked, f"{name} differs between --jobs 1 and 2"


def batch_entry(workdir, name):
    return {"fixed": str(workdir / "img"), "moving": str(workdir / "img"),
            "out_dir": str(workdir / name)}


@pytest.mark.parametrize("bad_entry, message", [
    ([1], "entry 1 must be a JSON object"),
    ({"fixed": "img", "out_dir": "never"}, "pairs manifest entry 1 key 'moving' is missing"),
    ({"fixed": "img", "moving": 5, "out_dir": "never"},
     "pairs manifest entry 1 key 'moving' must be a string, got 5"),
    ({"fixed": ["img"], "moving": "img", "out_dir": "never"},
     "pairs manifest entry 1 key 'fixed' must be a string, got [\"img\"]"),
    ({"fixed": "img", "moving": "img", "out_dir": None},
     "pairs manifest entry 1 key 'out_dir' must be a string, got null"),
    ({"fixed": "img", "moving": "img", "out_dir": "never", "moving_labels": 3},
     "pairs manifest entry 1 key 'moving_labels' must be a string, got 3"),
])
def test_register_batch_bad_entry_exit_1_before_any_pair(workdir, capsys, bad_entry,
                                                          message):
    manifest = [batch_entry(workdir, "first"), bad_entry]
    (workdir / "pairs.json").write_text(json.dumps(manifest))
    assert run("register", "--pairs", workdir / "pairs.json",
               "--config", workdir / "config.json") == 1
    assert message in capsys.readouterr().err
    assert not (workdir / "first").exists()


def test_register_batch_shared_out_dir_exit_1_before_any_pair(workdir, capsys):
    # entries 1 and 2 spell the same directory in two ways
    manifest = [batch_entry(workdir, "first"), batch_entry(workdir, "shared"),
                batch_entry(workdir, "x/../shared")]
    (workdir / "pairs.json").write_text(json.dumps(manifest))
    assert run("register", "--pairs", workdir / "pairs.json",
               "--config", workdir / "config.json") == 1
    assert "entries 1 and 2 share out_dir" in capsys.readouterr().err
    assert not (workdir / "first").exists()


def test_register_batch_inference_steps_beyond_config_exit_1_before_any_pair(workdir, capsys):
    (workdir / "config2.json").write_text(json.dumps(dict(TINY_CONFIG, steps=2)))
    manifest = [batch_entry(workdir, "first"), batch_entry(workdir, "second")]
    (workdir / "pairs.json").write_text(json.dumps(manifest))
    assert run("register", "--pairs", workdir / "pairs.json", "--config",
               workdir / "config2.json", "--inference-steps", "5") == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "--inference-steps" in err[0]
    assert not (workdir / "first").exists() and not (workdir / "second").exists()


def test_register_batch_null_labels_allowed(workdir):
    entry = dict(batch_entry(workdir, "nolabels"), moving_labels=None, fixed_labels=None)
    (workdir / "pairs.json").write_text(json.dumps([entry]))
    assert run("register", "--pairs", workdir / "pairs.json",
               "--config", workdir / "config.json") == 0
    assert (workdir / "nolabels" / "warped_moving.raw").exists()


def test_register_multistep_warp_matches_reapplied_field(workdir):
    rng = np.random.default_rng(1)
    write_volume(Volume(rng.uniform(0, 1, (1,) + DIMS).astype(np.float32)),
                 workdir / "other")
    config = dict(TINY_CONFIG, steps=2, learning_rate=0.1)
    (workdir / "multistep.json").write_text(json.dumps(config))
    out_dir = workdir / "reg"
    assert run("--quiet", "register", "--fixed", workdir / "other",
               "--moving", workdir / "img", "--config", workdir / "multistep.json",
               "--out-dir", out_dir) == 0
    assert run("warp", "--image", workdir / "img",
               "--field", out_dir / "phi_moving_to_fixed",
               "--out", workdir / "rewarped") == 0
    saved = read_volume(out_dir / "warped_moving").data
    rewarped = read_volume(workdir / "rewarped").data
    assert float(np.max(np.abs(rewarped - saved))) < 1e-4


def bad_moving_volume(workdir, kind) -> tuple[Path, str]:
    """A moving volume that fails to read, and the error it fails with."""
    if kind == "missing-file":
        return workdir / "absent", "missing volume header"
    header = json.loads((workdir / "img.json").read_text())
    (workdir / "bad.json").write_text(json.dumps(dict(header, dims=5)))
    (workdir / "bad.raw").write_bytes((workdir / "img.raw").read_bytes())
    return workdir / "bad", ("volume header key 'dims' must be a list of 3 integers, "
                             f"got 5 (in {workdir / 'bad.json'})")


@pytest.mark.parametrize("jobs, kind", [
    ("1", "missing-file"), ("2", "missing-file"),
    ("1", "malformed-header"), ("2", "malformed-header"),
], ids=["1", "2", "1-malformed-header", "2-malformed-header"])
def test_register_batch_failed_pair_keeps_the_others(workdir, capsys, jobs, kind):
    moving, message = bad_moving_volume(workdir, kind)
    manifest = [dict(batch_entry(workdir, "lost"), moving=str(moving), pair_id="broken"),
                dict(batch_entry(workdir, "kept"), pair_id="healthy")]
    (workdir / "pairs.json").write_text(json.dumps(manifest))
    assert run("--jobs", jobs, "register", "--pairs", workdir / "pairs.json",
               "--config", workdir / "config.json") == 1
    captured = capsys.readouterr()
    assert f"broken: error: {message}" in captured.err
    assert "healthy: iterations=" in captured.out
    for name in ("phi_moving_to_fixed.raw", "warped_moving.raw", "loss_trace.csv",
                 "metrics.csv"):
        assert (workdir / "kept" / name).exists()


@pytest.mark.parametrize("command, flag", [
    ("register", "--config"), ("gradcheck", "--config"), ("register", "--pairs"),
    ("phantom", "--spec"), ("phantom", "--warp"),
])
def test_input_that_is_not_json_names_its_file(workdir, capsys, command, flag):
    inputs = {"--config": TINY_CONFIG, "--pairs": [batch_entry(workdir, "never")],
              "--spec": PHANTOM_SPEC, "--warp": WARP_SPEC}
    flags, rest = {"register": (["--config", "--pairs"], []),
                   "gradcheck": (["--config"], ["--dims", "4,4,4"]),
                   "phantom": (["--spec", "--warp"], ["--out-dir", workdir / "never"])}[command]
    argv = [command, *rest]
    for key in flags:
        path = workdir / f"input_{key[2:]}.json"
        path.write_text('{"steps": 2,}' if key == flag else json.dumps(inputs[key]))
        argv += [key, path]
    bad = workdir / f"input_{flag[2:]}.json"
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Expecting property name enclosed in double quotes")
    assert err.rstrip().endswith(f"(in {bad})")
    assert not (workdir / "never").exists()


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_passes(tmp_path, capsys):
    config = dict(TINY_CONFIG, steps=1, control_stride=2)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run("gradcheck", "--dims", "4,4,4", "--config",
               tmp_path / "config.json", "--seed", "0") == 0
    out = capsys.readouterr().out
    assert "passed" in out


@pytest.mark.parametrize("command", ["register", "gradcheck"])
def test_config_value_of_wrong_type_exit_1(workdir, capsys, command):
    args = ["--fixed", workdir / "img", "--moving", workdir / "img",
            "--out-dir", workdir / "reg"] if command == "register" else ["--dims", "4,4,4"]
    # a JSON integer too large for a float must not escape as an OverflowError
    for alpha, message in ((None, "must be a number, got null"),
                           (10**400, "is out of range for a float")):
        (workdir / "bad.json").write_text(json.dumps(dict(TINY_CONFIG, alpha=alpha)))
        assert run(command, "--config", workdir / "bad.json", *args) == 1
        assert f"config key 'alpha' {message}" in capsys.readouterr().err


def test_gradcheck_dims_too_large_exit_1(capsys):
    assert run("gradcheck", "--dims", "32,32,32") == 1
    assert "too large" in capsys.readouterr().err


def test_gradcheck_all_zero_weights_trivial_pass(tmp_path):
    config = dict(TINY_CONFIG, alpha=0.0, beta=0.0, gamma=0.0, delta=0.0,
                  epsilon=0.0, steps=1, control_stride=2)
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert run("gradcheck", "--dims", "4,4,4", "--config",
               tmp_path / "config.json") == 0

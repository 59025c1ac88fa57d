import builtins
import json
import os
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gradreg import cli, volume
from gradreg.engine import RegistrationConfig
from gradreg.phantom import AnalyticWarp, PhantomSpec
from gradreg.volume import (
    REQUIRED,
    LabelVolume,
    Volume,
    VolumeHeader,
    hu_window,
    largest_component,
    one_hot,
    read_keys,
    read_volume,
    stack_windows,
    write_volume,
)


def random_volume(rng, dims=(8, 8, 8), channels=1, dtype="f32"):
    data = rng.uniform(-100.0, 100.0, (channels,) + dims)
    if dtype == "f32":
        data = data.astype(np.float32).astype(np.float64)
    return Volume(data, spacing_mm=(1.5, 2.0, 2.5), dtype=dtype)


# ---------------------------------------------------------------------------
# file round trips


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_round_trip_images_bit_exact(tmp_path, dtype):
    rng = np.random.default_rng(42)
    for trial in range(5):
        v = random_volume(rng, channels=rng.integers(1, 4), dtype=dtype)
        path = tmp_path / f"vol_{dtype}_{trial}"
        write_volume(v, path)
        back = read_volume(path)
        assert isinstance(back, Volume)
        assert back.dims == v.dims and back.channels == v.channels
        assert back.spacing_mm == v.spacing_mm and back.dtype == v.dtype
        assert np.array_equal(back.data, v.data)


def test_round_trip_labels_bit_exact(tmp_path):
    rng = np.random.default_rng(7)
    lv = LabelVolume(rng.integers(0, 5, (6, 5, 4)), spacing_mm=(2.0, 2.0, 2.0))
    write_volume(lv, tmp_path / "labels")
    back = read_volume(tmp_path / "labels")
    assert isinstance(back, LabelVolume)
    assert np.array_equal(back.labels, lv.labels)
    assert back.spacing_mm == lv.spacing_mm


def test_read_volume_returns_c_contiguous_arrays(tmp_path):
    """Arrays read back C-contiguous; the payload stays x-fastest per channel."""
    rng = np.random.default_rng(15)
    v = random_volume(rng, dims=(5, 4, 6), channels=3)
    lv = LabelVolume(rng.integers(0, 5, (5, 4, 6)))
    write_volume(v, tmp_path / "img")
    write_volume(lv, tmp_path / "lab")
    img, lab = read_volume(tmp_path / "img"), read_volume(tmp_path / "lab")
    assert img.data.flags.c_contiguous and img.data.strides == (960, 192, 48, 8)
    assert lab.labels.flags.c_contiguous
    assert np.array_equal(img.data, v.data) and np.array_equal(lab.labels, lv.labels)
    x_fastest = np.concatenate([c.ravel(order="F") for c in v.data]).astype("<f4")
    assert (tmp_path / "img.raw").read_bytes() == x_fastest.tobytes()
    assert (tmp_path / "lab.raw").read_bytes() == lv.labels.ravel(order="F").tobytes()


def test_round_trip_payload_is_raw_bytes(tmp_path):
    # the payload of a 4^3 single-channel f32 volume is 64 values = 256 bytes
    v = Volume(np.arange(64, dtype=np.float64).reshape(1, 4, 4, 4))
    write_volume(v, tmp_path / "ramp")
    raw = (tmp_path / "ramp.raw").read_bytes()
    assert len(raw) == 256
    assert read_volume(tmp_path / "ramp").dims == (4, 4, 4)


def test_zero_volume_payload_is_zero_bytes(tmp_path):
    v = Volume(np.zeros((1, 2, 2, 2)))
    write_volume(v, tmp_path / "zeros")
    raw = (tmp_path / "zeros.raw").read_bytes()
    assert raw == b"\x00" * 32


def test_payload_length_mismatch(tmp_path):
    v = Volume(np.zeros((1, 4, 4, 4)))
    write_volume(v, tmp_path / "vol")
    raw_path = tmp_path / "vol.raw"
    raw_path.write_bytes(raw_path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="payload length mismatch"):
        read_volume(tmp_path / "vol")


def test_missing_header(tmp_path):
    with pytest.raises(FileNotFoundError, match="header"):
        read_volume(tmp_path / "nope")


def test_corrupt_header(tmp_path):
    (tmp_path / "bad.json").write_text("{not json")
    (tmp_path / "bad.raw").write_bytes(b"")
    with pytest.raises(ValueError, match="corrupt"):
        read_volume(tmp_path / "bad")


def test_unknown_dtype_rejected(tmp_path):
    (tmp_path / "bad.json").write_text(
        '{"dims":[2,2,2],"channels":1,"spacing_mm":[1,1,1],"dtype":"i64",'
        '"order":"x-fastest","byte_order":"little"}'
    )
    (tmp_path / "bad.raw").write_bytes(b"\x00" * 64)
    with pytest.raises(ValueError, match="dtype"):
        read_volume(tmp_path / "bad")


def test_non_finite_rejected_before_write(tmp_path):
    v = Volume(np.zeros((1, 2, 2, 2)))
    v.data[0, 0, 0, 0] = np.nan  # corrupt after construction
    with pytest.raises(ValueError):
        write_volume(v, tmp_path / "nan")
    assert not (tmp_path / "nan.json").exists()
    assert not (tmp_path / "nan.raw").exists()


def test_payload_overflow_rejected_before_write(tmp_path):
    """A finite value past the f32 range would be written as inf, which the
    reader rejects; the writer refuses it and leaves no file."""
    data = np.zeros((1, 2, 2, 2))
    data[0, 1, 0, 0] = 1e39
    with pytest.raises(ValueError, match="not finite as f32"):
        write_volume(Volume(data, dtype="f32"), tmp_path / "big")
    assert list(tmp_path.iterdir()) == []
    write_volume(Volume(data, dtype="f64"), tmp_path / "big")
    assert read_volume(tmp_path / "big").data[0, 1, 0, 0] == 1e39


class _FailingWriter:
    """A file that writes the first half of what it is given, then raises."""

    def __init__(self, path, mode):
        self.fh = builtins.open(path, mode)

    def write(self, data):
        data = memoryview(data).cast("B")
        self.fh.write(data[:len(data) // 2])
        raise OSError("no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def test_interrupted_write_keeps_previous_volume(tmp_path, monkeypatch):
    rng = np.random.default_rng(12)
    old = random_volume(rng, channels=3)
    write_volume(old, tmp_path / "vol")
    monkeypatch.setattr(volume, "open", _FailingWriter, raising=False)
    with pytest.raises(OSError, match="no space"):
        write_volume(random_volume(rng, channels=3), tmp_path / "vol")
    back = read_volume(tmp_path / "vol")
    assert np.array_equal(back.data, old.data)
    assert sorted(os.listdir(tmp_path)) == ["vol.json", "vol.raw"]


def test_header_from_an_interrupted_rewrite_rejects_the_new_payload(tmp_path,
                                                                   monkeypatch):
    rng = np.random.default_rng(13)
    write_volume(random_volume(rng), tmp_path / "vol")  # spacing (1.5, 2.0, 2.5)
    calls = []

    def replace_once(src, dst):
        calls.append(dst)
        if len(calls) > 1:
            raise OSError("killed between the two renames")
        os.rename(src, dst)

    monkeypatch.setattr(volume.os, "replace", replace_once)
    new = Volume(np.ones((1, 8, 8, 8)), spacing_mm=(2.0, 2.0, 2.0))
    with pytest.raises(OSError, match="killed"):
        write_volume(new, tmp_path / "vol")
    monkeypatch.undo()
    with pytest.raises(ValueError, match="checksum"):
        read_volume(tmp_path / "vol")


def test_header_without_checksum_still_reads(tmp_path):
    rng = np.random.default_rng(14)
    v = random_volume(rng, channels=2)
    write_volume(v, tmp_path / "vol")
    header = json.loads((tmp_path / "vol.json").read_text())
    assert header["payload_crc32"] == zlib.crc32((tmp_path / "vol.raw").read_bytes())
    del header["payload_crc32"]
    (tmp_path / "vol.json").write_text(json.dumps(header))
    assert np.array_equal(read_volume(tmp_path / "vol").data, v.data)


def test_non_finite_header_spacing_rejected(tmp_path):
    """Python's json reads NaN and Infinity; a header must not pass them on."""
    write_volume(random_volume(np.random.default_rng(16)), tmp_path / "vol")
    header = json.loads((tmp_path / "vol.json").read_text())
    header["spacing_mm"] = [float("nan"), 1.0, float("inf")]
    (tmp_path / "vol.json").write_text(json.dumps(header))
    assert "NaN" in (tmp_path / "vol.json").read_text()
    with pytest.raises(ValueError, match="volume header key 'spacing_mm' must be finite"):
        read_volume(tmp_path / "vol")


def test_x_fastest_layout(tmp_path):
    # value at (x, y, z) = x + 10y + 100z; payload must advance x first
    nx, ny, nz = 3, 2, 2
    data = np.empty((1, nx, ny, nz))
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                data[0, x, y, z] = x + 10 * y + 100 * z
    write_volume(Volume(data, dtype="f64"), tmp_path / "layout")
    flat = np.frombuffer((tmp_path / "layout.raw").read_bytes(), dtype="<f8")
    assert flat[0] == 0.0 and flat[1] == 1.0 and flat[2] == 2.0
    assert flat[3] == 10.0  # next y line
    assert flat[nx * ny] == 100.0  # next z slab


def test_volume_invariants():
    with pytest.raises(ValueError, match="finite"):
        Volume(np.full((1, 2, 2, 2), np.inf))
    with pytest.raises(ValueError, match="spacing"):
        Volume(np.zeros((1, 2, 2, 2)), spacing_mm=(1.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        LabelVolume(-np.ones((2, 2, 2), dtype=np.int64))


@pytest.mark.parametrize("spacing", [(np.nan, 1.0, 1.0), (1.0, np.inf, 1.0)])
def test_non_finite_spacing_rejected(spacing):
    with pytest.raises(ValueError, match="spacing"):
        Volume(np.zeros((1, 2, 2, 2)), spacing_mm=spacing)
    with pytest.raises(ValueError, match="spacing"):
        LabelVolume(np.zeros((2, 2, 2), dtype=np.uint16), spacing_mm=spacing)


def test_label_names_must_cover_present_labels():
    labels = np.zeros((2, 2, 2), dtype=np.uint16)
    labels[0, 0, 0] = 3
    named = LabelVolume(labels, label_names={3: "liver"})
    assert named.label_names == {3: "liver"}
    with pytest.raises(ValueError, match="missing from label_names"):
        LabelVolume(labels, label_names={1: "spleen"})


def test_non_finite_payload_rejected_on_read(tmp_path):
    v = Volume(np.zeros((1, 2, 2, 2)))
    write_volume(v, tmp_path / "vol")
    bad = np.full(8, np.inf, dtype="<f4").tobytes()
    (tmp_path / "vol.raw").write_bytes(bad)
    with pytest.raises(ValueError, match="non-finite"):
        read_volume(tmp_path / "vol")


# ---------------------------------------------------------------------------
# intensity windowing


def test_hu_window_center_and_edges():
    def single(value, level, width):
        v = Volume(np.full((1, 2, 2, 2), float(value)), dtype="f64")
        return hu_window(v, level, width).data[0, 0, 0, 0]

    assert single(40, 40, 400) == pytest.approx(0.5)
    assert single(-160, 40, 400) == 0.0
    assert single(240, 40, 400) == 1.0
    assert single(10000, 400, 1000) == 1.0


def test_hu_window_range_and_monotonicity():
    rng = np.random.default_rng(3)
    values = np.sort(rng.uniform(-2000, 3000, 64))
    v = Volume(values.reshape(1, 4, 4, 4), dtype="f64")
    out = hu_window(v, -500, 1400).data.ravel()
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    assert np.all(np.diff(out) >= 0.0)


def test_hu_window_errors():
    v = Volume(np.zeros((1, 2, 2, 2)))
    with pytest.raises(ValueError, match="width"):
        hu_window(v, 40, 0.0)
    two = Volume(np.zeros((2, 2, 2, 2)))
    with pytest.raises(ValueError, match="single-channel"):
        hu_window(two, 40, 400)


def test_stack_windows_ct_triple():
    rng = np.random.default_rng(11)
    v = Volume(rng.uniform(-1200, 1800, (1, 4, 4, 4)), dtype="f64")
    triple = [(40, 400), (-500, 1400), (400, 1000)]
    stacked = stack_windows(v, triple)
    assert stacked.channels == 3
    for k, (level, width) in enumerate(triple):
        assert np.array_equal(stacked.data[k], hu_window(v, level, width).data[0])


def test_stack_windows_singleton_and_constant():
    v = Volume(np.full((1, 3, 3, 3), 25.0), dtype="f64")
    single = stack_windows(v, [(40, 400)])
    assert single.channels == 1
    assert np.array_equal(single.data, hu_window(v, 40, 400).data)
    # constant input -> every channel constant
    multi = stack_windows(v, [(40, 400), (-500, 1400)])
    for k in range(2):
        assert np.unique(multi.data[k]).size == 1
    with pytest.raises(ValueError):
        stack_windows(v, [])


# ---------------------------------------------------------------------------
# largest connected component


def brute_force_components(mask):
    """Flood-fill oracle over the 6-neighborhood."""
    dims = mask.shape
    seen = np.zeros(dims, dtype=bool)
    comps = []
    for start in np.argwhere(mask):
        start = tuple(start)
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            p = stack.pop()
            comp.append(p)
            for axis in range(3):
                for d in (-1, 1):
                    q = list(p)
                    q[axis] += d
                    q = tuple(q)
                    if 0 <= q[axis] < dims[axis] and mask[q] and not seen[q]:
                        seen[q] = True
                        stack.append(q)
        comps.append(comp)
    return comps


def test_largest_component_single_blob_unchanged():
    labels = np.zeros((6, 6, 6), dtype=np.uint16)
    labels[2:5, 2:5, 2:5] = 1
    lv = LabelVolume(labels)
    out = largest_component(lv, 1)
    assert np.array_equal(out.labels, labels)


def test_largest_component_drops_smaller_blob():
    labels = np.zeros((10, 4, 4), dtype=np.uint16)
    labels[0:5, 0, 0] = 2  # size 5
    labels[7:10, 0, 0] = 2  # size 3
    labels[0, 3, 3] = 9  # other label untouched
    out = largest_component(LabelVolume(labels), 2)
    assert out.labels[0:5, 0, 0].tolist() == [2] * 5
    assert np.all(out.labels[7:10, 0, 0] == 0)
    assert out.labels[0, 3, 3] == 9


def test_largest_component_absent_label_noop():
    labels = np.zeros((3, 3, 3), dtype=np.uint16)
    labels[1, 1, 1] = 4
    out = largest_component(LabelVolume(labels), 7)
    assert np.array_equal(out.labels, labels)


def test_largest_component_matches_flood_fill_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        labels = (rng.uniform(size=(7, 6, 5)) < 0.35).astype(np.uint16) * 3
        lv = LabelVolume(labels)
        out = largest_component(lv, 3)
        comps = brute_force_components(labels == 3)
        if not comps:
            assert np.array_equal(out.labels, labels)
            continue
        best_size = max(len(c) for c in comps)
        candidates = [c for c in comps if len(c) == best_size]
        # tie-break: smallest x-fastest linear index within the component
        def seed_index(comp):
            return min(
                x + labels.shape[0] * (y + labels.shape[1] * z) for x, y, z in comp
            )

        winner = min(candidates, key=seed_index)
        expect = np.zeros_like(labels)
        for p in winner:
            expect[p] = 3
        assert np.array_equal(out.labels, expect)
        # never increases the nonzero count
        assert (out.labels != 0).sum() <= (labels != 0).sum()


# ---------------------------------------------------------------------------
# one-hot encoding


def test_one_hot_uniform():
    lv = LabelVolume(np.ones((3, 3, 3), dtype=np.uint16))
    v = one_hot(lv, [1])
    assert v.channels == 1
    assert np.all(v.data == 1.0)


def test_one_hot_partition():
    labels = np.ones((4, 4, 4), dtype=np.uint16)
    labels[2:] = 2
    v = one_hot(LabelVolume(labels), [1, 2])
    assert np.array_equal(v.data[0] + v.data[1], np.ones((4, 4, 4)))
    assert np.all(v.data[0] * v.data[1] == 0.0)


def test_one_hot_channel_sum_at_most_one():
    rng = np.random.default_rng(13)
    for _ in range(10):
        labels = rng.integers(0, 6, (5, 5, 5)).astype(np.uint16)
        v = one_hot(LabelVolume(labels), [1, 3, 5])
        sums = v.data.sum(axis=0)
        assert np.all((sums == 0.0) | (sums == 1.0))


def test_one_hot_errors():
    lv = LabelVolume(np.zeros((2, 2, 2), dtype=np.uint16))
    with pytest.raises(ValueError, match="duplicate"):
        one_hot(lv, [1, 1])
    with pytest.raises(ValueError, match="background"):
        one_hot(lv, [0, 1])
    with pytest.raises(ValueError, match="non-empty"):
        one_hot(lv, [])


# ---------------------------------------------------------------------------
# JSON inputs


READ_KEYS = {"n": (int, 1), "x": (float, REQUIRED), "path": (str, None),
             "v": ((float, 3), (0.0, 0.0, 0.0)), "any": (object, None)}


def test_read_keys_converts_and_defaults():
    assert read_keys("input", {"x": 2}, READ_KEYS) == {
        "n": 1, "x": 2.0, "path": None, "v": (0.0, 0.0, 0.0), "any": None}
    values = read_keys("input", {"n": 3, "x": 0.5, "path": "p", "v": [1, 2, 3.5],
                                 "any": [True]}, READ_KEYS)
    assert values == {"n": 3, "x": 0.5, "path": "p", "v": (1.0, 2.0, 3.5), "any": [True]}
    assert type(values["x"]) is float and type(values["v"][0]) is float


@pytest.mark.parametrize("raw, message", [
    ([], "input must be a JSON object"),
    ({"x": 1, "y": 2, "a": 3}, "unknown input keys: ['a', 'y']"),
    ({}, "input key 'x' is missing"),
    ({"x": None}, "input key 'x' must be a number, got null"),
    ({"x": True}, "input key 'x' must be a number, got true"),
    ({"x": 1, "n": 1.0}, "input key 'n' must be an integer, got 1.0"),
    ({"x": 1, "path": 5}, "input key 'path' must be a string, got 5"),
    ({"x": 1, "v": [1, 2]}, "input key 'v' must be a list of 3 numbers, got [1, 2]"),
    ({"x": 1, "v": [1, 2, False]}, "input key 'v' must be a list of 3 numbers"),
    ({"x": 1, "v": None}, "input key 'v' must be a list of 3 numbers, got null"),
    ({"x": 10**400}, "input key 'x' is out of range for a float"),
])
def test_read_keys_rejects_malformed_input(raw, message):
    with pytest.raises(ValueError) as e:
        read_keys("input", raw, READ_KEYS)
    assert message in str(e.value)


def test_misspelt_checksum_key_rejected(tmp_path):
    write_volume(random_volume(np.random.default_rng(15)), tmp_path / "vol")
    header = json.loads((tmp_path / "vol.json").read_text())
    header["payload_crc"] = header.pop("payload_crc32")
    (tmp_path / "vol.json").write_text(json.dumps(header))
    with pytest.raises(ValueError, match="unknown volume header keys: \\['payload_crc'\\]"):
        read_volume(tmp_path / "vol")


def read_manifest_text(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.json"
        path.write_text(text)
        return cli._read_manifest(path)


# the five JSON readers, each with the keys it knows
READERS = {
    "config": (RegistrationConfig.from_json, [*RegistrationConfig()._flat(), "seed"]),
    "volume header": (VolumeHeader.from_json,
                      ["dims", "channels", "spacing_mm", "dtype", "byte_order", "order",
                       "payload_crc32"]),
    "phantom spec": (PhantomSpec.from_json,
                     ["dims", "ellipsoids", "background", "noise_sigma", "seed", "center",
                      "semi_axes", "label", "intensity"]),
    "warp spec": (AnalyticWarp.from_json, ["kind", "amplitude", "wavelength"]),
    "pairs manifest": (read_manifest_text,
                       ["moving", "fixed", "moving_labels", "fixed_labels", "out_dir",
                        "pair_id"]),
}
INPUT_KEYS = sorted({key for _, keys in READERS.values() for key in keys} | {"unknown"})

numbers = st.integers(-2, 40) | st.integers(-10**400, 10**400) | st.floats()
json_values = st.recursive(
    st.none() | st.booleans() | numbers | st.text(max_size=6)
    | st.lists(numbers, min_size=3, max_size=3),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(INPUT_KEYS), children, max_size=6)),
    max_leaves=16,
)


@pytest.mark.parametrize("reader", READERS)
@given(data=st.data())
def test_json_readers_raise_only_value_errors(reader, data):
    parse, keys = READERS[reader]
    own = st.dictionaries(st.sampled_from([*keys, "unknown"]), json_values, max_size=8)
    value = data.draw(st.lists(own, max_size=3) | own | json_values)
    try:
        parse(json.dumps(value))
    except (ValueError, cli._CliError):
        pass  # a malformed input: reported with exit code 1

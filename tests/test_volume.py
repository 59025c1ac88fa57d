import builtins
import os

import numpy as np
import pytest

from gradreg import volume
from gradreg.volume import (
    LabelVolume,
    Volume,
    hu_window,
    largest_component,
    one_hot,
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


class _FailingWriter:
    """A file that accepts its first write and raises on the next one."""

    def __init__(self, path, mode):
        self.fh = builtins.open(path, mode)
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError("no space left on device")
        return self.fh.write(data)

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

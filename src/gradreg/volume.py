"""Volume data model, raw file I/O, CT intensity windowing and label utilities.

Arrays are kept in float64 (images) / uint16 (labels) in memory with shape
``(channels, nx, ny, nz)`` resp. ``(nx, ny, nz)``.  On disk a volume is a pair
of files: ``<name>.json`` (header) plus ``<name>.raw`` (little-endian payload,
channel-major, x-fastest within each channel).  The header's dtype tag is the
payload precision; data is cast to it on write.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage

PAYLOAD_DTYPES = {
    "f32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
    "u16": np.dtype("<u2"),
}


@dataclass
class Volume:
    """Multi-channel 3D scalar field with voxel spacing metadata.

    ``data`` has shape ``(channels, nx, ny, nz)``; a 3D array is promoted to a
    single channel.  Values must be finite, spacing strictly positive.
    """

    data: np.ndarray
    spacing_mm: tuple[float, float, float] = (1.0, 1.0, 1.0)
    dtype: str = "f32"

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 3:
            arr = arr[np.newaxis]
        if arr.ndim != 4:
            raise ValueError(f"volume data must be 3D or 4D, got shape {arr.shape}")
        if arr.shape[0] < 1 or min(arr.shape[1:]) < 1:
            raise ValueError(f"volume dims must be positive, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("volume values must be finite")
        self.data = arr
        self.spacing_mm = tuple(float(s) for s in self.spacing_mm)
        if len(self.spacing_mm) != 3 or any(s <= 0 for s in self.spacing_mm):
            raise ValueError(f"spacing must be 3 positive reals, got {self.spacing_mm}")
        if self.dtype not in ("f32", "f64"):
            raise ValueError(f"image dtype tag must be f32 or f64, got {self.dtype!r}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape[1:]

    @property
    def channels(self) -> int:
        return self.data.shape[0]


@dataclass
class LabelVolume:
    """Integer-valued 3D field of organ labels; 0 is reserved for background."""

    labels: np.ndarray
    spacing_mm: tuple[float, float, float] = (1.0, 1.0, 1.0)
    label_names: dict[int, str] | None = None

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.ndim != 3:
            raise ValueError(f"label data must be 3D, got shape {arr.shape}")
        if not np.issubdtype(arr.dtype, np.integer):
            if not np.all(arr == np.round(arr)):
                raise ValueError("labels must be integer-valued")
        if arr.size and (arr.min() < 0 or arr.max() > np.iinfo(np.uint16).max):
            raise ValueError("labels must fit in uint16")
        self.labels = arr.astype(np.uint16)
        self.spacing_mm = tuple(float(s) for s in self.spacing_mm)
        if len(self.spacing_mm) != 3 or any(s <= 0 for s in self.spacing_mm):
            raise ValueError(f"spacing must be 3 positive reals, got {self.spacing_mm}")
        if self.label_names is not None:
            present = set(np.unique(self.labels).tolist()) - {0}
            missing = present - set(self.label_names)
            if missing:
                raise ValueError(f"labels {sorted(missing)} missing from label_names")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.shape


@dataclass(frozen=True)
class VolumeHeader:
    """Parsed JSON sidecar describing a raw payload."""

    dims: tuple[int, int, int]
    channels: int
    spacing_mm: tuple[float, float, float]
    dtype: str
    byte_order: str = "little"
    order: str = "x-fastest"

    def __post_init__(self):
        if self.dtype not in PAYLOAD_DTYPES:
            raise ValueError(f"unknown dtype tag {self.dtype!r}")
        if self.order != "x-fastest":
            raise ValueError(f"unsupported axis order {self.order!r}")
        if self.byte_order != "little":
            raise ValueError(f"unsupported byte order {self.byte_order!r}")
        if len(self.dims) != 3 or any(int(d) < 1 for d in self.dims):
            raise ValueError(f"dims must be 3 positive counts, got {self.dims}")
        if self.channels < 1:
            raise ValueError("channels must be positive")

    @property
    def voxel_count(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def payload_bytes(self) -> int:
        return self.voxel_count * self.channels * PAYLOAD_DTYPES[self.dtype].itemsize

    def to_json(self) -> str:
        return json.dumps(
            {
                "dims": list(self.dims),
                "channels": self.channels,
                "spacing_mm": list(self.spacing_mm),
                "dtype": self.dtype,
                "order": self.order,
                "byte_order": self.byte_order,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "VolumeHeader":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"corrupt volume header: {e}") from e
        if not isinstance(raw, dict):
            raise ValueError("corrupt volume header: not a JSON object")
        try:
            return cls(
                dims=tuple(int(d) for d in raw["dims"]),
                channels=int(raw["channels"]),
                spacing_mm=tuple(float(s) for s in raw["spacing_mm"]),
                dtype=str(raw["dtype"]),
                byte_order=str(raw.get("byte_order", "little")),
                order=str(raw.get("order", "x-fastest")),
            )
        except KeyError as e:
            raise ValueError(f"volume header missing field {e.args[0]!r}") from e


def _sidecar_paths(path) -> tuple[Path, Path]:
    p = Path(path)
    if p.suffix in (".json", ".raw"):
        p = p.with_suffix("")
    return p.with_suffix(".json"), p.with_suffix(".raw")


def read_volume(path) -> Volume | LabelVolume:
    """Read ``<name>.json`` + ``<name>.raw`` into a Volume or LabelVolume.

    ``path`` may name either sidecar or the bare stem.  A ``u16`` dtype tag
    yields a LabelVolume, anything else a Volume.
    """
    header_path, raw_path = _sidecar_paths(path)
    if not header_path.exists():
        raise FileNotFoundError(f"missing volume header: {header_path}")
    header = VolumeHeader.from_json(header_path.read_text())
    if not raw_path.exists():
        raise FileNotFoundError(f"missing volume payload: {raw_path}")
    payload = raw_path.read_bytes()
    if len(payload) != header.payload_bytes:
        raise ValueError(
            f"payload length mismatch for {raw_path}: "
            f"expected {header.payload_bytes} bytes, got {len(payload)}"
        )
    flat = np.frombuffer(payload, dtype=PAYLOAD_DTYPES[header.dtype])
    nx, ny, nz = header.dims
    per_channel = header.voxel_count
    channels = [
        flat[k * per_channel : (k + 1) * per_channel].reshape((nx, ny, nz), order="F")
        for k in range(header.channels)
    ]
    if header.dtype == "u16":
        if header.channels != 1:
            raise ValueError("label volumes must have exactly one channel")
        return LabelVolume(channels[0], spacing_mm=header.spacing_mm)
    data = np.stack([c.astype(np.float64) for c in channels])
    if not np.all(np.isfinite(data)):
        raise ValueError(f"non-finite values in volume payload {raw_path}")
    return Volume(data, spacing_mm=header.spacing_mm, dtype=header.dtype)


def _replace_file(path: Path, chunks) -> None:
    """Write ``chunks`` to a temporary sibling of ``path``, then rename it into place.

    A failure removes the temporary file and leaves ``path`` as it was.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_volume(v: Volume | LabelVolume, path) -> None:
    """Write the raw payload and header sidecar for ``v``.

    Image data is cast to the volume's declared payload dtype; reading the
    files back reproduces that quantized data bit-for-bit.  Invariants are
    checked before anything touches the filesystem.  Each sidecar is written
    to a temporary file and renamed into place, the payload first and the
    header last, so an interrupted write leaves the previous volume readable.
    """
    header_path, raw_path = _sidecar_paths(path)
    if isinstance(v, LabelVolume):
        header = VolumeHeader(v.dims, 1, v.spacing_mm, "u16")
        chunks = [np.ascontiguousarray(v.labels.ravel(order="F"), dtype="<u2")]
    elif isinstance(v, Volume):
        if not np.all(np.isfinite(v.data)):
            raise ValueError("refusing to write non-finite volume data")
        header = VolumeHeader(v.dims, v.channels, v.spacing_mm, v.dtype)
        out_dtype = PAYLOAD_DTYPES[v.dtype]
        chunks = [
            np.ascontiguousarray(v.data[k].ravel(order="F"), dtype=out_dtype)
            for k in range(v.channels)
        ]
    else:
        raise TypeError(f"cannot write object of type {type(v).__name__}")
    _replace_file(raw_path, chunks)
    _replace_file(header_path, [header.to_json().encode()])


def hu_window(v: Volume, level: float, width: float) -> Volume:
    """Linear intensity window: ramp from 0 at level-width/2 to 1 at level+width/2."""
    if width <= 0:
        raise ValueError(f"window width must be positive, got {width}")
    if v.channels != 1:
        raise ValueError(f"hu_window expects a single-channel volume, got {v.channels}")
    lo = level - width / 2.0
    out = np.clip((v.data - lo) / width, 0.0, 1.0)
    return Volume(out, spacing_mm=v.spacing_mm, dtype=v.dtype)


def stack_windows(v: Volume, windows: list[tuple[float, float]]) -> Volume:
    """Stack one channel per (level, width) window of a single-channel volume."""
    if not windows:
        raise ValueError("windows list must be non-empty")
    channels = [hu_window(v, level, width).data[0] for level, width in windows]
    return Volume(np.stack(channels), spacing_mm=v.spacing_mm, dtype=v.dtype)


_SIX_CONNECTED = ndimage.generate_binary_structure(3, 1)


def largest_component(l: LabelVolume, label: int) -> LabelVolume:
    """Zero out all but the largest 6-connected component of one label.

    Ties between equally sized components are broken by the smallest
    x-fastest linear index occurring in the component.  Other labels are
    untouched; an absent label is a no-op.
    """
    mask = l.labels == label
    if label == 0 or not mask.any():
        return LabelVolume(l.labels.copy(), spacing_mm=l.spacing_mm,
                           label_names=l.label_names)
    comp, ncomp = ndimage.label(mask, structure=_SIX_CONNECTED)
    if ncomp <= 1:
        return LabelVolume(l.labels.copy(), spacing_mm=l.spacing_mm,
                           label_names=l.label_names)
    sizes = np.bincount(comp.ravel())
    sizes[0] = 0
    best = np.flatnonzero(sizes == sizes.max())
    if len(best) > 1:
        seeds = []
        for cid in best:
            coords = np.nonzero(comp == cid)
            seeds.append(np.ravel_multi_index(coords, l.dims, order="F").min())
        keep = best[int(np.argmin(seeds))]
    else:
        keep = best[0]
    out = l.labels.copy()
    out[mask & (comp != keep)] = 0
    return LabelVolume(out, spacing_mm=l.spacing_mm, label_names=l.label_names)


def one_hot(l: LabelVolume, label_set: list[int]) -> Volume:
    """Indicator channels for each id in label_set, as a float64 Volume."""
    if not label_set:
        raise ValueError("label_set must be non-empty")
    if 0 in label_set:
        raise ValueError("label_set must not contain the background label 0")
    if len(set(label_set)) != len(label_set):
        raise ValueError(f"duplicate ids in label_set: {label_set}")
    channels = [(l.labels == lid).astype(np.float64) for lid in label_set]
    return Volume(np.stack(channels), spacing_mm=l.spacing_mm, dtype="f64")

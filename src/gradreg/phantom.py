"""Synthetic labeled phantoms and analytic ground-truth warps.

Phantoms are ellipsoid arrangements over a uniform background with optional
additive Gaussian noise.  The noise stream comes from an explicit 64-bit
linear congruential generator (Knuth MMIX constants) fed through Box-Muller,
drawn in x-fastest voxel order, so outputs are bit-reproducible per seed
independent of the platform's library RNG.

Analytic warps (x-translation, sinusoidal x-shear) have closed-form inverses
and unit Jacobian determinant away from borders, giving exact oracles for
inverse-consistency and recovery tests.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import deform
from .deform import DeformationField
from .volume import LabelVolume, Volume

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MOD = 1 << 64
_LCG_BLOCK = 1024


def _lcg_states(seed: int, count: int) -> np.ndarray:
    """The first ``count`` LCG states after ``seed``, as uint64.

    The first block is stepped in Python; block j is the first block advanced
    by j*_LCG_BLOCK steps, an affine map that uint64 arithmetic applies mod 2**64.
    """
    state = seed % _LCG_MOD
    first = []
    for _ in range(min(count, _LCG_BLOCK)):
        state = (_LCG_MULT * state + _LCG_INC) % _LCG_MOD
        first.append(state)
    jump_mult, jump_inc = 1, 0
    for _ in range(_LCG_BLOCK):
        jump_mult, jump_inc = (_LCG_MULT * jump_mult % _LCG_MOD,
                               (_LCG_MULT * jump_inc + _LCG_INC) % _LCG_MOD)
    mults, incs = [1], [0]
    for _ in range(1, -(-count // _LCG_BLOCK)):
        mults.append(jump_mult * mults[-1] % _LCG_MOD)
        incs.append((jump_mult * incs[-1] + jump_inc) % _LCG_MOD)
    states = (np.array(mults, dtype=np.uint64)[:, None] * np.array(first, dtype=np.uint64)
              + np.array(incs, dtype=np.uint64)[:, None])
    return states.ravel()[:count]


def _lcg_normals(seed: int, count: int) -> np.ndarray:
    """Standard normal draws from an LCG + Box-Muller stream."""
    states = _lcg_states(seed, 2 * ((count + 1) // 2))
    uniforms = ((states >> 11) + 1) / float(1 << 53)  # in (0, 1]
    u1 = uniforms[0::2]
    u2 = uniforms[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    normals = np.empty(len(uniforms))
    normals[0::2] = radius * np.cos(angle)
    normals[1::2] = radius * np.sin(angle)
    return normals[:count]


@dataclass(frozen=True)
class Ellipsoid:
    center: tuple[float, float, float]
    semi_axes: tuple[float, float, float]
    label: int
    intensity: float


@dataclass
class PhantomSpec:
    dims: tuple[int, int, int]
    ellipsoids: list[Ellipsoid] = field(default_factory=list)
    background: float = 0.0
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self.dims = tuple(int(n) for n in self.dims)
        if len(self.dims) != 3 or min(self.dims) < 1:
            raise ValueError(f"dims must be 3 positive counts, got {self.dims}")
        labels = [e.label for e in self.ellipsoids]
        if any(lb <= 0 for lb in labels):
            raise ValueError("ellipsoid labels must be positive")
        if len(set(labels)) != len(labels):
            raise ValueError(f"ellipsoid labels must be distinct, got {labels}")
        for e in self.ellipsoids:
            if min(e.semi_axes) <= 0:
                raise ValueError(f"semi-axes must be positive, got {e.semi_axes}")
            if not np.isfinite(e.intensity):
                raise ValueError("ellipsoid intensity must be finite")
            for c, r, n in zip(e.center, e.semi_axes, self.dims):
                if c - r < 0 or c + r > n - 1:
                    raise ValueError(f"ellipsoid out of bounds: center {e.center}, "
                                     f"semi-axes {e.semi_axes}, dims {self.dims}")
        if self.noise_sigma < 0 or not np.isfinite(self.noise_sigma):
            raise ValueError(f"noise sigma must be finite and >= 0, got {self.noise_sigma}")

    @classmethod
    def from_json(cls, text: str) -> "PhantomSpec":
        raw = json.loads(text)
        ellipsoids = [
            Ellipsoid(tuple(e["center"]), tuple(e["semi_axes"]),
                      int(e["label"]), float(e["intensity"]))
            for e in raw.get("ellipsoids", [])
        ]
        return cls(
            dims=tuple(raw["dims"]),
            ellipsoids=ellipsoids,
            background=float(raw.get("background", 0.0)),
            noise_sigma=float(raw.get("noise_sigma", 0.0)),
            seed=int(raw.get("seed", 0)),
        )


@dataclass(frozen=True)
class AnalyticWarp:
    """Closed-form warp with an exact inverse.

    kind "translation": shifts sample coordinates by ``amplitude`` along x.
    kind "sinusoidal": x-shear, Phi_x = x + amplitude*sin(2*pi*y/wavelength);
    requires amplitude*2*pi/wavelength < 1 so the map stays invertible with a
    positive Jacobian.
    """

    kind: str
    amplitude: float
    wavelength: float | None = None

    def __post_init__(self):
        if self.kind not in ("translation", "sinusoidal"):
            raise ValueError(f"unknown warp kind {self.kind!r}")
        if not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if self.kind == "sinusoidal":
            if self.wavelength is None or self.wavelength <= 0:
                raise ValueError("sinusoidal warp needs a positive wavelength")
            if abs(self.amplitude) * 2.0 * math.pi / self.wavelength >= 1.0:
                raise ValueError(
                    "sinusoidal warp too steep: need amplitude*2*pi/wavelength < 1"
                )

    @classmethod
    def from_json(cls, text: str) -> "AnalyticWarp":
        raw = json.loads(text)
        wavelength = raw.get("wavelength")
        return cls(kind=str(raw["kind"]), amplitude=float(raw["amplitude"]),
                   wavelength=None if wavelength is None else float(wavelength))


def make_phantom(spec: PhantomSpec) -> tuple[Volume, LabelVolume]:
    """Render the phantom image and its label volume; deterministic per seed."""
    nx, ny, nz = spec.dims
    img = np.full(spec.dims, float(spec.background))
    labels = np.zeros(spec.dims, dtype=np.uint16)
    grid_x, grid_y, grid_z = np.meshgrid(
        np.arange(nx, dtype=np.float64),
        np.arange(ny, dtype=np.float64),
        np.arange(nz, dtype=np.float64),
        indexing="ij",
    )
    for e in spec.ellipsoids:
        cx, cy, cz = e.center
        ax, ay, az = e.semi_axes
        inside = (
            ((grid_x - cx) / ax) ** 2
            + ((grid_y - cy) / ay) ** 2
            + ((grid_z - cz) / az) ** 2
        ) <= 1.0
        img[inside] = e.intensity
        labels[inside] = e.label
    if spec.noise_sigma > 0:
        noise = _lcg_normals(spec.seed, img.size).reshape(spec.dims, order="F")
        img = img + spec.noise_sigma * noise
    return Volume(img, dtype="f32"), LabelVolume(labels)


def analytic_field(w: AnalyticWarp, dims) -> tuple[DeformationField, DeformationField]:
    """The warp and its exact inverse as deformation fields on ``dims``."""
    forward = deform.identity_field(dims).values.copy()
    inverse = forward.copy()
    if w.kind == "translation":
        forward[0] += w.amplitude
        inverse[0] -= w.amplitude
    else:
        shift = w.amplitude * np.sin(2.0 * math.pi * forward[1] / w.wavelength)
        forward[0] += shift
        inverse[0] -= shift
    return DeformationField(forward), DeformationField(inverse)


@dataclass
class PhantomPair:
    """A fixed/moving pair with the ground-truth fields that relate them."""

    fixed: Volume
    fixed_labels: LabelVolume
    moving: Volume
    moving_labels: LabelVolume
    phi_gt: DeformationField        # moving(p) = fixed(phi_gt(p))
    phi_gt_inv: DeformationField    # registers moving back onto fixed


def make_pair(spec: PhantomSpec, w: AnalyticWarp) -> PhantomPair:
    """Generate a phantom and deform it into the moving half of a pair."""
    fixed, fixed_labels = make_phantom(spec)
    phi_gt, phi_gt_inv = analytic_field(w, spec.dims)
    moving = deform.warp(fixed, phi_gt)
    moving_labels = deform.warp_labels(fixed_labels, phi_gt)
    return PhantomPair(fixed, fixed_labels, moving, moving_labels, phi_gt, phi_gt_inv)

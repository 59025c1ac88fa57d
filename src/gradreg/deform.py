"""Deformation-field algebra and its reverse-mode adjoints.

The deformation is parameterized by per-axis spatial gradients: a raw field is
squashed into (0, 2) by a scaled sigmoid and integrated by cumulative sum, so a
zero field maps to the identity transformation and positive gradients keep
warped voxels ordered along every axis.  Fields carry absolute sample
coordinates in voxel units; warping is backward trilinear sampling with
coordinates clamped to the volume extent.

Every differentiable stage has an exact vector-Jacobian product (``vjp_*``)
used by the optimizer; the adjoints treat clamped sample coordinates as
constant (zero gradient).

All trilinear sampling runs through one kernel, ``SamplePlan``: the flat
index of each sample's lowest corner (N,) intp, the eight constant flat corner
offsets, corner weights (8, N) f64, fractional offsets (3, N) f64 and the
inside-mask (3, N) bool, 99 bytes per sample.  Every pass runs over one
contiguous (N,) channel plane at a time, and every field, gradient and warp is
a C-contiguous stack of such planes.  A ``DeformationField`` builds its plan
when first sampled at and keeps it for its lifetime, so every warp,
composition and adjoint at that field shares it; ``values`` must not change
afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .volume import LabelVolume, Volume

# Numeric bounds keeping the squashed gradient inside the open interval (0, 2)
# even when the sigmoid saturates in double precision.
_G_MIN = np.nextafter(0.0, 1.0)
_G_MAX = np.nextafter(2.0, 0.0)


@dataclass
class PreActivationField:
    """Unbounded 3-channel parameter field, possibly on a coarse control grid.

    ``values`` has shape (3, mx, my, mz); control point j along an axis sits at
    image coordinate j*stride.  Control dims must equal ceil(image_dim/stride).
    """

    values: np.ndarray
    stride: int = 1

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 4 or arr.shape[0] != 3:
            raise ValueError(f"field values must have shape (3, mx, my, mz), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        if int(self.stride) < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        self.values = arr
        self.stride = int(self.stride)

    @property
    def control_dims(self) -> tuple[int, int, int]:
        return self.values.shape[1:]


@dataclass
class GradientField:
    """Per-axis deformation gradient, every value strictly inside (0, 2)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 4 or arr.shape[0] != 3:
            raise ValueError(f"gradient field must have shape (3, nx, ny, nz), got {arr.shape}")
        if not (np.all(arr > 0.0) and np.all(arr < 2.0)):
            raise ValueError("gradient values must lie strictly inside (0, 2)")
        self.values = arr

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape[1:]


@dataclass
class DeformationField:
    """Absolute sample coordinates in voxel units, shape (3, nx, ny, nz)."""

    values: np.ndarray
    _plan: SamplePlan | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 4 or arr.shape[0] != 3:
            raise ValueError(f"deformation field must have shape (3, nx, ny, nz), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("deformation coordinates must be finite")
        self.values = arr

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.values.shape[1:]

    @property
    def plan(self) -> SamplePlan:
        """Sample plan at these coordinates, built on first use and kept."""
        if self._plan is None:
            self._plan = SamplePlan(self.values, self.dims)
        return self._plan

    def drop_plan(self) -> None:
        """Free the sample plan early; sampling here again rebuilds it."""
        self._plan = None


def control_dims_for(image_dims, stride: int) -> tuple[int, int, int]:
    """Control-grid shape for an image: ceil division per axis."""
    return tuple(-(-int(n) // int(stride)) for n in image_dims)


# ---------------------------------------------------------------------------
# trilinear sampling core


class SamplePlan:
    """Trilinear samples at three broadcastable coordinate arrays into a grid of
    ``dims``, each clamped to [0, n-1]; corners are ordered x-major, z-minor.

    Corner k of a sample sits at ``base + offsets[k]`` in a flat channel plane.
    An axis with one voxel has offset 0, so its upper corner repeats the lower.
    """

    def __init__(self, coords, dims):
        self.dims = nx, ny, nz = tuple(int(n) for n in dims)
        self.shape = np.broadcast_shapes(*(np.shape(c) for c in coords))
        lows, fracs = [], []
        for c, n in zip(coords, self.dims):
            s = np.clip(c, 0.0, float(n - 1))
            i0 = np.floor(s).astype(np.intp)
            np.clip(i0, 0, max(n - 2, 0), out=i0)
            lows.append(i0)
            fracs.append(s - i0)
        ix, iy, iz = lows
        base = np.empty(self.shape, dtype=np.intp)
        np.add((ix * ny + iy) * nz, iz, out=base)
        self.base = base.ravel()
        sx, sy, sz = (step if n > 1 else 0 for step, n in zip((ny * nz, nz, 1), self.dims))
        self.offsets = tuple(a * sx + b * sy + c * sz
                             for a in (0, 1) for b in (0, 1) for c in (0, 1))
        fx, fy, fz = self.frac = tuple(fracs)
        self.inside = tuple((c >= 0.0) & (c <= n - 1.0) for c, n in zip(coords, self.dims))
        weight = np.empty((8,) + self.shape)
        k = 0
        for wa in (1.0 - fx, fx):
            for wb in (1.0 - fy, fy):
                wab = wa * wb
                for wc in (1.0 - fz, fz):
                    np.multiply(wab, wc, out=weight[k])
                    k += 1
        self.weight = weight.reshape(8, -1)

    def _take(self, plane: np.ndarray, k: int, out: np.ndarray) -> np.ndarray:
        """Corner k of every sample from one flat, contiguous channel plane."""
        return np.take(plane[self.offsets[k]:], self.base, out=out, mode="clip")

    def gather(self, values: np.ndarray) -> np.ndarray:
        """Sample (C, *dims) channel data; returns C-contiguous (C, *shape)."""
        out = np.empty((len(values), self.base.size))
        corner = np.empty(self.base.size)
        for acc, channel in zip(out, values):
            plane = channel.ravel()
            self._take(plane, 0, acc)
            acc *= self.weight[0]
            for k in range(1, 8):
                self._take(plane, k, corner)
                corner *= self.weight[k]
                acc += corner
        return out.reshape((len(values),) + self.shape)

    def scatter(self, upstream: np.ndarray) -> np.ndarray:
        """Adjoint of ``gather`` w.r.t. the values: (C, *shape) -> (C, *dims).

        One ``bincount`` per channel over all eight corners in corner-major order.
        """
        index = np.add.outer(np.array(self.offsets, dtype=np.intp), self.base).ravel()
        weights = np.empty_like(self.weight)
        out = np.empty((upstream.shape[0],) + self.dims)
        for ch, up in enumerate(upstream.reshape(upstream.shape[0], -1)):
            np.multiply(self.weight, up, out=weights)
            out[ch] = np.bincount(index, weights.ravel(), out[ch].size).reshape(self.dims)
        return out

    def coords_grad(self, values: np.ndarray, upstream: np.ndarray) -> np.ndarray:
        """Adjoint of ``gather`` w.r.t. the coordinates, zero where clamped."""
        planes = [channel.ravel() for channel in values]
        up = upstream.reshape(len(planes), -1)
        corner = np.empty((len(planes), self.base.size))
        dotted, term = np.empty(self.shape), np.empty(self.shape)
        wx, wy, wz = ((1.0 - f, f) for f in self.frac)
        grad = np.zeros((3,) + self.shape)
        gx, gy, gz = grad
        for k in range(8):
            a, b, c = k >> 2, (k >> 1) & 1, k & 1
            for plane, out in zip(planes, corner):
                self._take(plane, k, out)
            corner *= up
            np.sum(corner, axis=0, out=dotted.reshape(-1))
            # the low corner's weight falls as its coordinate grows
            for g, w1, w2, rising in ((gx, wy[b], wz[c], a), (gy, wx[a], wz[c], b),
                                      (gz, wx[a], wy[b], c)):
                np.multiply(w1, w2, out=term)
                term *= dotted
                if rising:
                    g += term
                else:
                    g -= term
        for axis in range(3):
            grad[axis] *= self.inside[axis]
        return grad


def _grid_plan(image_dims, stride: int, control_dims) -> SamplePlan:
    """Plan sampling the control grid at every image voxel (broadcast coordinates)."""
    cx, cy, cz = (np.arange(n, dtype=np.float64) / float(stride) for n in image_dims)
    return SamplePlan((cx[:, None, None], cy[None, :, None], cz[None, None, :]),
                      control_dims)


# ---------------------------------------------------------------------------
# forward stages


def upsample(delta: PreActivationField, image_dims) -> PreActivationField:
    """Trilinearly interpolate a coarse control field to full resolution.

    Exact at control points; the trailing partial cell (when stride does not
    divide the image dims) extends the last control value.
    """
    image_dims = tuple(int(n) for n in image_dims)
    expected = control_dims_for(image_dims, delta.stride)
    if delta.control_dims != expected:
        raise ValueError(
            f"control dims {delta.control_dims} inconsistent with image dims "
            f"{image_dims} at stride {delta.stride} (expected {expected})"
        )
    if delta.stride == 1:
        return PreActivationField(delta.values, stride=1)
    full = _grid_plan(image_dims, delta.stride, delta.control_dims).gather(delta.values)
    return PreActivationField(full, stride=1)


def activate(x: PreActivationField) -> GradientField:
    """Squash a full-resolution field into (0, 2): g = 2*sigmoid(x)."""
    if x.stride != 1:
        raise ValueError("activate expects a full-resolution field (stride 1)")
    from scipy.special import expit
    g = 2.0 * expit(x.values)
    np.clip(g, _G_MIN, _G_MAX, out=g)
    return GradientField(g)


def integrate(g: GradientField) -> DeformationField:
    """Cumulative sum of per-axis gradients; all-ones input gives the identity.

    Phi_x(i, y, z) = sum_{k<=i} g_x(k, y, z) - 1, and analogously per axis.
    """
    phi = np.empty_like(g.values)
    for axis in range(3):
        phi[axis] = np.cumsum(g.values[axis], axis=axis)
    phi -= 1.0
    return DeformationField(phi)


def identity_field(dims) -> DeformationField:
    """The identity transformation Phi(p) = p."""
    nx, ny, nz = (int(n) for n in dims)
    grids = np.meshgrid(
        np.arange(nx, dtype=np.float64),
        np.arange(ny, dtype=np.float64),
        np.arange(nz, dtype=np.float64),
        indexing="ij",
    )
    return DeformationField(np.stack(grids))


def warp(img: Volume, phi: DeformationField) -> Volume:
    """Backward trilinear warp: out(p) = img(Phi(p)), coordinates clamped."""
    if img.dims != phi.dims:
        raise ValueError(f"image dims {img.dims} != field dims {phi.dims}")
    return Volume(phi.plan.gather(img.data), spacing_mm=img.spacing_mm, dtype=img.dtype)


def warp_labels(l: LabelVolume, phi: DeformationField) -> LabelVolume:
    """Nearest-neighbor warp of a label volume; .5 ties round toward -inf."""
    if l.dims != phi.dims:
        raise ValueError(f"label dims {l.dims} != field dims {phi.dims}")
    idx = []
    for axis, n in enumerate(l.dims):
        s = np.clip(phi.values[axis], 0.0, float(n - 1))
        nearest = np.ceil(s - 0.5).astype(np.intp)
        idx.append(np.clip(nearest, 0, n - 1))
    out = l.labels[idx[0], idx[1], idx[2]]
    return LabelVolume(out, spacing_mm=l.spacing_mm, label_names=l.label_names)


def compose(outer: DeformationField, inner: DeformationField) -> DeformationField:
    """Composition (outer o inner)(p) = outer(inner(p)) by trilinear sampling."""
    if outer.dims != inner.dims:
        raise ValueError(f"field dims mismatch: {outer.dims} vs {inner.dims}")
    return DeformationField(inner.plan.gather(outer.values))


# ---------------------------------------------------------------------------
# finite differences (voxel units): central interior, one-sided at borders


def _sl(axis: int, s: slice) -> tuple:
    idx = [slice(None)] * 3
    idx[axis] = s
    return tuple(idx)


def axis_gradient(f: np.ndarray, axis: int) -> np.ndarray:
    """d f / d axis with central differences interior, one-sided at borders."""
    out = np.empty_like(f)
    out[_sl(axis, slice(1, -1))] = (
        f[_sl(axis, slice(2, None))] - f[_sl(axis, slice(None, -2))]
    ) / 2.0
    out[_sl(axis, slice(0, 1))] = f[_sl(axis, slice(1, 2))] - f[_sl(axis, slice(0, 1))]
    out[_sl(axis, slice(-1, None))] = (
        f[_sl(axis, slice(-1, None))] - f[_sl(axis, slice(-2, -1))]
    )
    return out


def axis_gradient_adjoint(u: np.ndarray, axis: int) -> np.ndarray:
    """Transpose of axis_gradient as a linear map."""
    g = np.zeros_like(u)
    g[_sl(axis, slice(2, None))] += u[_sl(axis, slice(1, -1))] / 2.0
    g[_sl(axis, slice(None, -2))] -= u[_sl(axis, slice(1, -1))] / 2.0
    g[_sl(axis, slice(0, 1))] -= u[_sl(axis, slice(0, 1))]
    g[_sl(axis, slice(1, 2))] += u[_sl(axis, slice(0, 1))]
    g[_sl(axis, slice(-1, None))] += u[_sl(axis, slice(-1, None))]
    g[_sl(axis, slice(-2, -1))] -= u[_sl(axis, slice(-1, None))]
    return g


def jacobian_matrix(phi: DeformationField) -> np.ndarray:
    """All nine partials d Phi_a / d axis_b, shape (3, 3, nx, ny, nz)."""
    if min(phi.dims) < 3:
        raise ValueError(f"jacobian requires dims >= 3 per axis, got {phi.dims}")
    d = np.empty((3, 3) + phi.dims)
    for a in range(3):
        for b in range(3):
            d[a, b] = axis_gradient(phi.values[a], b)
    return d


def _cofactor(d: np.ndarray, a: int, b: int) -> np.ndarray:
    """Cofactor C[a, b] = d det / d d[a, b] of per-voxel 3x3 matrices, indices mod 3."""
    a1, a2, b1, b2 = (a + 1) % 3, (a + 2) % 3, (b + 1) % 3, (b + 2) % 3
    return d[a1, b1] * d[a2, b2] - d[a1, b2] * d[a2, b1]


def det3x3(d: np.ndarray) -> np.ndarray:
    """First-row cofactor expansion of per-voxel 3x3 matrices."""
    return (d[0, 0] * _cofactor(d, 0, 0) + d[0, 1] * _cofactor(d, 0, 1)
            + d[0, 2] * _cofactor(d, 0, 2))


def jacobian_det(phi: DeformationField) -> Volume:
    """Determinant of the finite-difference Jacobian, as a 1-channel Volume."""
    det = det3x3(jacobian_matrix(phi))
    return Volume(det[np.newaxis], dtype="f32")


def det_vjp(d: np.ndarray, upstream_det: np.ndarray) -> np.ndarray:
    """Backpropagate a per-voxel determinant gradient through the Jacobian
    matrix ``d`` (from ``jacobian_matrix``) to the field coordinates."""
    grad = np.zeros(d.shape[1:])
    for a in range(3):
        for b in range(3):
            grad[a] += axis_gradient_adjoint(upstream_det * _cofactor(d, a, b), b)
    return grad


# ---------------------------------------------------------------------------
# vector-Jacobian products of the forward stages


def vjp_activate(x_values: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Adjoint of activate: 2*sigma(x)*(1-sigma(x)) * upstream."""
    from scipy.special import expit
    s = expit(x_values)
    return (2.0 * s * (1.0 - s)) * upstream


def vjp_integrate(upstream: np.ndarray) -> np.ndarray:
    """Adjoint of the inclusive prefix sum: per-axis reverse suffix sum."""
    grad = np.empty_like(upstream)
    for axis in range(3):
        flipped = np.flip(upstream[axis], axis=axis)
        grad[axis] = np.flip(np.cumsum(flipped, axis=axis), axis=axis)
    return grad


def vjp_warp(img: Volume, phi: DeformationField, upstream: np.ndarray) -> np.ndarray:
    """Adjoint of warp w.r.t. the deformation coordinates."""
    return phi.plan.coords_grad(img.data, upstream)


def vjp_warp_both(img: Volume, phi: DeformationField,
                  upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjoints of warp w.r.t. (image data, deformation coordinates)."""
    return phi.plan.scatter(upstream), phi.plan.coords_grad(img.data, upstream)


def vjp_compose(outer: DeformationField, inner: DeformationField,
                upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adjoint of compose w.r.t. (outer, inner) coordinate fields."""
    return inner.plan.scatter(upstream), inner.plan.coords_grad(outer.values, upstream)


def vjp_upsample(upstream: np.ndarray, stride: int, control_dims) -> np.ndarray:
    """Adjoint of upsample: scatter full-resolution gradients to control points."""
    if stride == 1:
        return upstream.copy()
    return _grid_plan(upstream.shape[1:], stride, control_dims).scatter(upstream)


# ---------------------------------------------------------------------------
# serialization helpers


def field_to_volume(phi: DeformationField,
                    spacing_mm=(1.0, 1.0, 1.0)) -> Volume:
    """Pack coordinates into a 3-channel f32 Volume for file output."""
    return Volume(phi.values, spacing_mm=spacing_mm, dtype="f32")


def volume_to_field(v: Volume) -> DeformationField:
    """Interpret a 3-channel Volume as absolute voxel-unit coordinates."""
    if v.channels != 3:
        raise ValueError(f"deformation volume must have 3 channels, got {v.channels}")
    return DeformationField(v.data)

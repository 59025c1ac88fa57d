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

All trilinear sampling at a deformation field runs through one kernel,
``SamplePlan``, built from the field's (3, *dims) coordinates: the flat index
of each sample's lowest corner (N,) intp, the eight constant flat corner
offsets, fractional offsets (3, N) f64 and the inside-mask (3, N) bool, 35
bytes per sample.  The corner weights are not kept: their one definition,
``_corner_weight``, forms them per block, all eight in the gather and one
corner's row in the scatter, and with one axis left out the partials of the
coordinate adjoint, so no (8, N) table is built.  Every pass runs over one
contiguous (N,) channel plane at a time, taken in by one check of its shape,
and every field, gradient and warp is a C-contiguous stack of such planes.  The
build, the gather, the coordinate adjoint and the scatter walk the samples in
cache-sized blocks.  Both adjoints run scipy's sparse matrix-vector kernels,
which only the backward pass imports: the coordinate adjoint forms each
corner's channel dot product with one single-entry-per-row CSR product per
channel, and the value adjoint (scatter) adds each corner's weighted upstream
into each channel's output plane in place, in the order of one corner-major
pass over all samples, with one CSC product per channel.  The gather stays on
``np.take``, so warps and composes leave ``scipy.sparse`` unloaded.  A plan
lives for one call: ``sample`` builds one to gather every source sampled at a
field in one pass, and ``vjp_sample`` builds one for the whole adjoint there in
one sweep, so a field is a plain value that keeps nothing between calls.
``upsample`` uses no plan: it runs one two-tap hat-weight pass per axis and
returns the full-resolution array that ``activate`` squashes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def control_dims_for(image_dims, stride: int) -> tuple[int, int, int]:
    """Control-grid shape for an image: ceil division per axis."""
    return tuple(-(-int(n) // int(stride)) for n in image_dims)


# ---------------------------------------------------------------------------
# trilinear sampling core


# Samples per block of the elementwise passes: one f64 plane of a block is
# 128 KB, so a block's planes, weights and buffers stay in a 2 MB L2 cache.
_TILE = 16384


def _blocks(n: int) -> list[slice]:
    """Consecutive slices of at most ``_TILE`` samples covering ``range(n)``."""
    return [slice(i, min(i + _TILE, n)) for i in range(0, n, _TILE)]


def _intake(channels, shape: tuple, unit: str) -> list[np.ndarray]:
    """Each channel, checked to have ``shape``, as a flat f64 plane: the kernels don't check."""
    planes = [np.asarray(c, dtype=np.float64) for c in channels]
    for plane in planes:
        if plane.shape != shape:
            raise ValueError(f"channel dims {plane.shape} != {unit} {shape}")
    return [plane.ravel() for plane in planes]


def _corner_weight(factors, bits, out: np.ndarray, skip: int = -1) -> np.ndarray:
    """A corner's trilinear weight into ``out`` from per-axis ``factors`` ``(1 - f, f)``:
    on each axis the factor that the corner's ``bits`` pick, multiplied x·y then ·z.
    Leaving out axis ``skip`` gives the weight's partial along it, up to its sign."""
    picked = [pair[bit] for axis, (pair, bit) in enumerate(zip(factors, bits)) if axis != skip]
    np.multiply(picked[0], picked[1], out=out)
    if len(picked) == 3:
        out *= picked[2]
    return out


class SamplePlan:
    """Trilinear samples at coordinates (3, *shape) into a grid of ``dims``,
    each clamped to [0, n-1]; corners are ordered x-major, z-minor.

    Corner k of a sample sits at ``base + offsets[k]`` in a flat channel plane.
    An axis with one voxel has offset 0, so its upper corner repeats the lower.
    The build, ``gather`` and ``coords_grad`` walk the samples in blocks of
    ``_TILE``, each block through every corner and channel before the next;
    ``scatter`` walks each corner through every block and channel in turn.
    Every sample gets the same operations in the same order at any block size.
    """

    def __init__(self, coords, dims):
        self.dims = nx, ny, nz = tuple(int(n) for n in dims)
        coords = np.asarray(coords, dtype=np.float64)
        self.shape = coords.shape[1:]
        flat = coords.reshape(3, -1)
        samples = flat.shape[1]
        top = np.array(self.dims, dtype=np.float64)[:, None] - 1.0
        high = np.maximum(top.astype(np.intp) - 1, 0)
        sx, sy, sz = (step if n > 1 else 0 for step, n in zip((ny * nz, nz, 1), self.dims))
        self.corners = tuple((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))
        self.offsets = tuple(a * sx + b * sy + c * sz for a, b, c in self.corners)
        self.base = np.empty(samples, dtype=np.intp)
        self.frac = np.empty((3, samples))
        self.inside = np.empty((3, samples), dtype=bool)
        for s in _blocks(samples):
            xyz, frac, base = flat[:, s], self.frac[:, s], self.base[s]
            np.maximum(xyz, 0.0, out=frac)
            np.minimum(frac, top, out=frac)
            np.equal(frac, xyz, out=self.inside[:, s])
            low = frac.astype(np.intp)  # the floor, as the clipped coordinates are >= 0
            np.minimum(low, high, out=low)
            np.multiply(low[0], ny, out=base)
            base += low[1]
            base *= nz
            base += low[2]
            frac -= low

    def _factors(self, s: slice, low: np.ndarray, bits=(0, 0, 0)) -> list[tuple]:
        """Per axis, the weight factors ``(1 - f, f)`` of block ``s``, ``1 - f`` into a row
        of the (3, tile) buffer ``low``; it is None where the corner ``bits`` pick ``f``."""
        return [(None if bit else np.subtract(1.0, f, out=row[:f.size]), f)
                for f, row, bit in zip(self.frac[:, s], low, bits)]

    def gather(self, sources) -> list[np.ndarray]:
        """Sample each (C, *dims) source; returns a C-contiguous (C, *shape) array
        per source.  A block's weights serve every channel of every source."""
        n = self.base.size
        sources = [_intake(source, self.dims, "grid voxels") for source in sources]
        outs = [np.empty((len(planes), n)) for planes in sources]
        tile = min(n, _TILE)
        weights, low, corner = np.empty((8, tile)), np.empty((3, tile)), np.empty(tile)
        for s in _blocks(n):
            m, base = s.stop - s.start, self.base[s]
            factors, buf, table = self._factors(s, low), corner[:m], weights[:, :m]
            weight = [_corner_weight(factors, bits, w) for bits, w in zip(self.corners, table)]
            for out, planes in zip(outs, sources):
                for acc, plane in zip(out[:, s], planes):
                    np.take(plane, base, out=acc, mode="clip")
                    acc *= weight[0]
                    for k in range(1, 8):
                        np.take(plane[self.offsets[k]:], base, out=buf, mode="clip")
                        buf *= weight[k]
                        acc += buf
        return [out.reshape((len(out),) + self.shape) for out in outs]

    def scatter(self, upstream) -> np.ndarray:
        """Adjoint of ``gather`` w.r.t. the values: C channels -> (C, *dims).

        Corner by corner, block by block, one weight row serves every channel:
        it adds weight times upstream into the corner of the channel's own
        zeroed plane in sample order.  Each voxel of a plane thus gets its adds
        in the order of a single corner-major ``bincount``, with no 8N index
        and no (8, N) weight table."""
        from scipy.sparse import _sparsetools  # loaded by the backward pass only
        n, size = self.base.size, math.prod(self.dims)
        ups = _intake(upstream, self.shape, "plan samples")
        out = np.zeros((len(ups), size))
        tile = min(n, _TILE)
        columns = np.arange(tile + 1, dtype=np.intp)  # one sample per CSC column
        row, low = np.empty(tile), np.empty((3, tile))
        for bits, offset in zip(self.corners, self.offsets):
            for s in _blocks(n):
                m = s.stop - s.start
                weight = _corner_weight(self._factors(s, low, bits), bits, row[:m])
                for acc, up in zip(out, ups):
                    # acc[offset + base[j]] += weight[j] * up[j] for j in block s
                    _sparsetools.csc_matvec(size - offset, m, columns, self.base[s], weight,
                                            up[s], acc[offset:])
        return out.reshape((len(ups),) + self.dims)

    def coords_grad(self, values, upstream) -> np.ndarray:
        """Adjoint of ``gather`` w.r.t. the coordinates, zero where clamped.

        Per block and corner, the channel dot product comes before the weight
        terms, so they take one pass for any C.  The dot starts at -0.0 and adds
        one CSR row product per channel in channel order, each matrix holding
        one entry per row: the upstream at the corner's index."""
        from scipy.sparse import _sparsetools  # loaded by the backward pass only
        n, size = self.base.size, math.prod(self.dims)
        planes = _intake(values, self.dims, "grid voxels")
        ups = _intake(upstream, self.shape, "plan samples")
        tile = min(n, _TILE)
        rows = np.arange(tile + 1, dtype=np.intp)  # one stored entry per CSR row
        dotted, term, low = np.empty(tile), np.empty(tile), np.empty((3, tile))
        grad = np.zeros((3, n))
        for s in _blocks(n):
            m, base, factors = s.stop - s.start, self.base[s], self._factors(s, low)
            dot, t, gs = dotted[:m], term[:m], list(grad[:, s])
            for bits, offset in zip(self.corners, self.offsets):
                dot.fill(-0.0)
                for plane, up in zip(planes, ups, strict=True):
                    # dot[j] += up[j] * plane[offset + base[j]] for j in block s
                    _sparsetools.csr_matvec(m, size - offset, rows, base, up[s],
                                            plane[offset:], dot)
                for axis, g in enumerate(gs):
                    _corner_weight(factors, bits, t, skip=axis)
                    t *= dot
                    if bits[axis]:
                        g += t
                    else:  # the low corner's weight falls as its coordinate grows
                        g -= t
            grad[:, s] *= self.inside[:, s]
        return grad.reshape((3,) + self.shape)


def _hat_weights(n: int, stride: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Each voxel's lower control point along an axis and the upper one's weight;
    control point j sits at voxel j*stride, and voxels past the last take its value."""
    t = np.minimum(np.arange(n, dtype=np.float64) / float(stride), float(m - 1))
    low = np.minimum(np.floor(t).astype(np.intp), max(m - 2, 0))
    return low, t - low


# ---------------------------------------------------------------------------
# forward stages


def upsample(delta: PreActivationField, image_dims) -> np.ndarray:
    """Trilinearly interpolate a control field to a full-resolution (3, *image_dims) array.

    Exact at control points; the trailing partial cell (when stride does not
    divide the image dims) extends the last control value.  One two-tap
    hat-weight pass per axis (linear free-form deformation)."""
    image_dims = tuple(int(n) for n in image_dims)
    expected = control_dims_for(image_dims, delta.stride)
    if delta.control_dims != expected:
        raise ValueError(
            f"control dims {delta.control_dims} inconsistent with image dims "
            f"{image_dims} at stride {delta.stride} (expected {expected})"
        )
    if delta.stride == 1:
        return delta.values
    full = delta.values
    for axis in (2, 1, 0):  # the last pass, at full size, writes whole contiguous planes
        n, m = image_dims[axis], delta.control_dims[axis]
        low, frac = _hat_weights(n, delta.stride, m)
        out = np.empty(full.shape[:axis + 1] + (n,) + full.shape[axis + 2:])
        src, dst = np.moveaxis(full, axis + 1, 0), np.moveaxis(out, axis + 1, 0)
        for row, j, f in zip(dst, low, frac):
            np.multiply(src[j], 1.0 - f, out=row)
            if f:
                row += src[j + 1] * f
        full = out
    return full


def activate(x: np.ndarray) -> GradientField:
    """Squash a full-resolution (3, *dims) array, ``upsample``'s, into (0, 2): g = 2*sigmoid(x)."""
    from scipy.special import expit
    g = 2.0 * expit(x)
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
    return DeformationField(np.indices(tuple(int(n) for n in dims), dtype=np.float64))


def sample(phi: DeformationField, sources) -> list[np.ndarray]:
    """Trilinear samples at ``phi`` of every (C, *dims) source, in one pass of a
    plan built here: a separate (C, *dims) array per source.  The mirror of
    ``vjp_sample``."""
    return SamplePlan(phi.values, phi.dims).gather(sources)


def warp(img: Volume, phi: DeformationField) -> Volume:
    """Backward trilinear warp: out(p) = img(Phi(p)), coordinates clamped."""
    return Volume(sample(phi, [img.data])[0], spacing_mm=img.spacing_mm, dtype=img.dtype)


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
    return DeformationField(sample(inner, [outer.values])[0])


# ---------------------------------------------------------------------------
# finite differences (voxel units): central interior, one-sided at borders


def _sl(axis: int, s: slice) -> tuple:
    idx = [slice(None)] * 3
    idx[axis] = s
    return tuple(idx)


def axis_gradient(f: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """d f / d axis with central differences interior, one-sided at borders,
    written into ``out`` when given."""
    if out is None:
        out = np.empty_like(f)
    inner = out[_sl(axis, slice(1, -1))]
    np.subtract(f[_sl(axis, slice(2, None))], f[_sl(axis, slice(None, -2))], out=inner)
    inner /= 2.0
    np.subtract(f[_sl(axis, slice(1, 2))], f[_sl(axis, slice(0, 1))],
                out=out[_sl(axis, slice(0, 1))])
    np.subtract(f[_sl(axis, slice(-1, None))], f[_sl(axis, slice(-2, -1))],
                out=out[_sl(axis, slice(-1, None))])
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


def _partials(phi: DeformationField, start: int, stop: int) -> np.ndarray:
    """The nine partials at the axis-0 rows [start, stop), bit for bit those of
    the whole field: the axis-0 ones are taken over the rows and a one-row halo,
    widened to at least 3 rows."""
    if min(phi.dims) < 3:
        raise ValueError(f"jacobian requires dims >= 3 per axis, got {phi.dims}")
    nx = phi.dims[0]
    lo = max(min(start - 1, nx - 3), 0)
    hi = max(min(stop + 1, nx), lo + 3)
    d = np.empty((3, 3, stop - start) + phi.dims[1:])
    for a, f in enumerate(phi.values):
        d[a, 0] = axis_gradient(f[lo:hi], 0)[start - lo:stop - lo]
        axis_gradient(f[start:stop], 1, out=d[a, 1])
        axis_gradient(f[start:stop], 2, out=d[a, 2])
    return d


def _slabs(phi: DeformationField, halo: int):
    """Axis-0 slabs of at least 8 rows, else about ``_TILE`` samples: yields each slab's
    rows, its window (plus ``halo`` rows each side, clipped) and the window's partials."""
    nx, ny, nz = phi.dims
    height = max(8, _TILE // (ny * nz))
    for start in range(0, nx, height):
        stop = min(start + height, nx)
        lo, hi = max(start - halo, 0), min(stop + halo, nx)
        yield slice(start, stop), slice(lo, hi), _partials(phi, lo, hi)


def _cofactor(d: np.ndarray, a: int, b: int) -> np.ndarray:
    """Cofactor C[a, b] = d det / d d[a, b] of per-voxel 3x3 matrices, indices mod 3."""
    a1, a2, b1, b2 = (a + 1) % 3, (a + 2) % 3, (b + 1) % 3, (b + 2) % 3
    return d[a1, b1] * d[a2, b2] - d[a1, b2] * d[a2, b1]


def det3x3(d: np.ndarray) -> np.ndarray:
    """First-row cofactor expansion of per-voxel 3x3 matrices."""
    return (d[0, 0] * _cofactor(d, 0, 0) + d[0, 1] * _cofactor(d, 0, 1)
            + d[0, 2] * _cofactor(d, 0, 2))


def jacobian_det(phi: DeformationField) -> np.ndarray:
    """Determinant of the finite-difference Jacobian, slab by slab: the (nx, ny, nz)
    array that the Jacobian hinge, SDlogJ and ``gradreg jacobian`` read."""
    det = np.empty(phi.dims)
    for rows, _, d in _slabs(phi, 0):
        det[rows] = det3x3(d)
    return det


def det_vjp(phi: DeformationField, upstream_det: np.ndarray) -> np.ndarray:
    """Backpropagate a per-voxel determinant gradient to the field coordinates in slabs;
    a window's two edge rows take border terms along axis 0, so the halo is 2 rows."""
    grad = np.zeros((3,) + phi.dims)
    for rows, window, d in _slabs(phi, 2):
        own = slice(rows.start - window.start, rows.stop - window.start)
        upstream, inner = upstream_det[window], d[:, :, own]
        for a in range(3):
            grad[a, rows] += axis_gradient_adjoint(upstream * _cofactor(d, a, 0), 0)[own]
            for b in (1, 2):  # no halo along axes 1 and 2
                grad[a, rows] += axis_gradient_adjoint(upstream[own] * _cofactor(inner, a, b), b)
    return grad


# ---------------------------------------------------------------------------
# vector-Jacobian products of the forward stages


def vjp_activate(g: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Adjoint of activate from its output ``g`` = 2*sigmoid(x), exactly:
    g*(1 - g/2) * upstream, the bits of 2*sigmoid(x)*(1 - sigmoid(x)) * upstream,
    formed in place; 0 where the clip acted, the one place ``g`` is at a bound."""
    out = g / 2.0
    np.subtract(1.0, out, out=out)
    out *= g
    out *= upstream
    out *= (g > _G_MIN) & (g < _G_MAX)
    return out


def vjp_integrate(upstream: np.ndarray) -> np.ndarray:
    """Adjoint of the inclusive prefix sum: per-axis reverse suffix sum."""
    grad = np.empty_like(upstream)
    for axis in range(3):
        flipped = np.flip(upstream[axis], axis=axis)
        grad[axis] = np.flip(np.cumsum(flipped, axis=axis), axis=axis)
    return grad


def vjp_sample(phi: DeformationField, sources, upstreams, scatter):
    """Adjoint of sampling every source at ``phi``, in one sweep of a plan built here.

    ``sources`` are the (C, *dims) arrays sampled there (warped volumes, the
    outer field of a composition), ``upstreams`` their cotangents; a None
    upstream means that source has none, else it has the source's channel
    count.  Returns the coordinate gradient, one pass over the channels of
    every source with a cotangent, and from one scatter the value gradient of
    each such source whose ``scatter`` flag is set, else None.
    """
    used = [i for i, u in enumerate(upstreams) if u is not None]
    if any(len(upstreams[i]) != len(sources[i]) for i in used):
        raise ValueError("an upstream must have as many channels as its source")
    plan = SamplePlan(phi.values, phi.dims)
    coords = plan.coords_grad([c for i in used for c in sources[i]],
                              [c for i in used for c in upstreams[i]])
    wanted = [i for i in used if scatter[i]]
    values = [None] * len(sources)
    scattered = plan.scatter([c for i in wanted for c in upstreams[i]]) if wanted else None
    ends = np.cumsum([0] + [len(upstreams[i]) for i in wanted])
    for i, start, stop in zip(wanted, ends, ends[1:]):
        values[i] = scattered[start:stop]
    return coords, values


def vjp_upsample(upstream: np.ndarray, stride: int, control_dims) -> np.ndarray:
    """Adjoint of upsample: the transposed hat-weight passes, in reverse order."""
    if stride == 1:
        return upstream.copy()
    grad = upstream
    for axis in (0, 1, 2):
        n, m = grad.shape[axis + 1], int(control_dims[axis])
        low, frac = _hat_weights(n, stride, m)
        out = np.zeros(grad.shape[:axis + 1] + (m,) + grad.shape[axis + 2:])
        src, dst = np.moveaxis(grad, axis + 1, 0), np.moveaxis(out, axis + 1, 0)
        term = np.empty_like(src[0])
        for row, j, f in zip(src, low, frac):
            np.multiply(row, 1.0 - f, out=term)
            dst[j] += term
            if f:
                np.multiply(row, f, out=term)
                dst[j + 1] += term
        grad = out
    return grad


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

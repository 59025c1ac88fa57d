"""Independent brute-force oracles used by the unit and acceptance suites.

These deliberately avoid the library's vectorized code paths: scalar loops
with explicit stencils for the determinant, all-pairs distances for surface
metrics, exactly-rounded summation for aggregates.  The trilinear reference
keeps the direct per-call formulas that the sample plan replaced, so plan
results can be held bit-equal to them; the whole-field Jacobian matrix and its
determinant adjoint are the forms that the library's slab-wise determinant and
adjoint replaced, kept for the same reason, as is the sigmoid form of the
activation adjoint, which the library now takes from the activation's output;
the noise reference steps the phantom's LCG one state at a time in Python
integers.  The finite-difference oracle at the end is the one difference that
every adjoint test compares against; ``random_field`` is the perturbed identity
that several suites draw, ``edge_safe_field`` the same kept off the cell edges
where a sampled coordinate's difference would straddle a kink.
"""

import math

import numpy as np

from gradreg.deform import (DeformationField, _cofactor, axis_gradient,
                            axis_gradient_adjoint, identity_field)


def random_field(rng, dims, scale) -> DeformationField:
    """The identity of ``dims`` plus ``scale`` times standard normal noise."""
    return DeformationField(
        identity_field(dims).values + scale * rng.standard_normal((3,) + dims)
    )


def edge_safe_field(rng, dims, scale) -> DeformationField:
    """``random_field`` with every value moved to at least 0.01 from every
    integer, so that trilinear sampling at it stays on one cell (and on one
    side of the clamp) within any step of a finite difference."""
    values = random_field(rng, dims, scale).values
    whole = np.floor(values)
    return DeformationField(whole + np.clip(values - whole, 0.01, 0.99))


def jacobian_matrix(phi: DeformationField) -> np.ndarray:
    """All nine partials d Phi_a / d axis_b over the whole field, (3, 3, nx, ny, nz)."""
    return np.stack([[axis_gradient(f, b) for b in range(3)] for f in phi.values])


def det_vjp_ref(d: np.ndarray, upstream_det: np.ndarray) -> np.ndarray:
    """The whole-array determinant adjoint through the matrix ``d`` of
    ``jacobian_matrix``, the reference for the slab-wise ``deform.det_vjp``."""
    grad = np.zeros(d.shape[1:])
    for a in range(3):
        for b in range(3):
            grad[a] += axis_gradient_adjoint(upstream_det * _cofactor(d, a, b), b)
    return grad


def jacobian_det_oracle(phi: DeformationField) -> np.ndarray:
    """Scalar-loop cofactor expansion over explicit difference stencils."""
    nx, ny, nz = phi.dims
    vals = phi.values
    out = np.empty((nx, ny, nz))

    def diff(a, axis, x, y, z):
        p = [x, y, z]
        n = phi.dims[axis]
        if p[axis] == 0:
            hi = p.copy()
            hi[axis] = 1
            return vals[(a,) + tuple(hi)] - vals[(a,) + tuple(p)]
        if p[axis] == n - 1:
            lo = p.copy()
            lo[axis] = n - 2
            return vals[(a,) + tuple(p)] - vals[(a,) + tuple(lo)]
        hi = p.copy()
        hi[axis] += 1
        lo = p.copy()
        lo[axis] -= 1
        return (vals[(a,) + tuple(hi)] - vals[(a,) + tuple(lo)]) / 2.0

    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                d = [[diff(a, b, x, y, z) for b in range(3)] for a in range(3)]
                out[x, y, z] = (
                    d[0][0] * (d[1][1] * d[2][2] - d[1][2] * d[2][1])
                    - d[0][1] * (d[1][0] * d[2][2] - d[1][2] * d[2][0])
                    + d[0][2] * (d[1][0] * d[2][1] - d[1][1] * d[2][0])
                )
    return out


def vjp_activate_ref(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """The activation adjoint from the parameters: 2*sigma(x)*(1-sigma(x)) * upstream."""
    from scipy.special import expit
    s = expit(x)
    t = 1.0 - s
    s *= 2.0
    s *= t
    s *= upstream
    return s


def inv_interior_ref(composed: np.ndarray, margin: int) -> float:
    """Mean squared residual of a composition's (3, nx, ny, nz) coordinates
    against the identity map over the voxels at least ``margin`` from every
    face, exactly summed."""
    dims = composed.shape[1:]
    inner = (slice(None),) + tuple(slice(margin, n - margin) for n in dims)
    resid = (composed - np.indices(dims, dtype=np.float64))[inner]
    assert resid.size, f"margin {margin} leaves no voxels of dims {dims}"
    return math.fsum((resid * resid).ravel()) / resid.size


def hinge_jac_oracle(phi_ab: DeformationField, phi_ba: DeformationField) -> float:
    """Accumulate max(0, -det)/N over both fields from the determinant oracle."""
    n = float(np.prod(phi_ab.dims))
    acc = 0.0
    for phi in (phi_ab, phi_ba):
        det = jacobian_det_oracle(phi)
        for value in det.ravel():
            acc += max(0.0, -value) / n
    return acc


def boundary_voxels_oracle(mask: np.ndarray) -> np.ndarray:
    """Voxels of the mask with an unlabeled 6-neighbor or on a volume face."""
    pts = []
    dims = mask.shape
    for p in np.argwhere(mask):
        x, y, z = p
        if (x in (0, dims[0] - 1) or y in (0, dims[1] - 1)
                or z in (0, dims[2] - 1)):
            pts.append(p)
            continue
        for axis in range(3):
            for d in (-1, 1):
                q = p.copy()
                q[axis] += d
                if not mask[tuple(q)]:
                    pts.append(p)
                    break
            else:
                continue
            break
    return np.asarray(pts, dtype=np.float64)


def hd95_oracle(a_labels: np.ndarray, b_labels: np.ndarray, label: int,
                spacing) -> float:
    """All-pairs distance-matrix version of the 95th-percentile surface distance."""
    scale = np.asarray(spacing, dtype=np.float64)
    pa = boundary_voxels_oracle(a_labels == label) * scale
    pb = boundary_voxels_oracle(b_labels == label) * scale

    dmat = np.sqrt(((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=-1))

    def directed(dists):
        ordered = np.sort(dists)
        rank = math.ceil(0.95 * len(ordered))
        return float(ordered[rank - 1])

    return max(directed(dmat.min(axis=1)), directed(dmat.min(axis=0)))


def dice_oracle(a_labels: np.ndarray, b_labels: np.ndarray, label: int) -> float:
    na = nb = inter = 0
    for idx in np.ndindex(a_labels.shape):
        pa = a_labels[idx] == label
        pb = b_labels[idx] == label
        na += pa
        nb += pb
        inter += pa and pb
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    return 2.0 * inter / (na + nb)


def dice30_oracle(scores) -> float:
    ordered = sorted(float(s) for s in scores)
    k = math.ceil(0.3 * len(ordered))
    return math.fsum(ordered[:k]) / k


def sdlogj_oracle(phi: DeformationField) -> float:
    det = jacobian_det_oracle(phi)
    logs = [math.log(max(d, 1e-9)) for d in det.ravel()]
    mean = math.fsum(logs) / len(logs)
    var = math.fsum((x - mean) ** 2 for x in logs) / len(logs)
    return math.sqrt(var)


# ---------------------------------------------------------------------------
# reference trilinear sampling: corner setup recomputed on every call


def _line_setup_ref(coords, size):
    s = np.clip(coords, 0.0, float(size - 1))
    i0 = np.floor(s).astype(np.intp)
    np.clip(i0, 0, max(size - 2, 0), out=i0)
    return i0, np.minimum(i0 + 1, size - 1), s - i0


def sample_trilinear_ref(values, cx, cy, cz):
    """Gather (C, nx, ny, nz) data at clamped coordinates by fancy indexing."""
    nx, ny, nz = values.shape[1:]
    ix0, ix1, fx = _line_setup_ref(cx, nx)
    iy0, iy1, fy = _line_setup_ref(cy, ny)
    iz0, iz1, fz = _line_setup_ref(cz, nz)
    flat = values.reshape(values.shape[0], -1)
    out = None
    for ia, wa in ((ix0, 1.0 - fx), (ix1, fx)):
        for ib, wb in ((iy0, 1.0 - fy), (iy1, fy)):
            wab = wa * wb
            base = ia * ny + ib
            for ic, wc in ((iz0, 1.0 - fz), (iz1, fz)):
                term = (wab * wc) * flat[:, base * nz + ic]
                out = term if out is None else out + term
    return out


def sample_vjp_ref(values, shape, coords, upstream):
    """(values grad, coords grad) of the gather by one 8-corner sweep."""
    nx, ny, nz = shape[1:]
    ix0, ix1, fx = _line_setup_ref(coords[0], nx)
    iy0, iy1, fy = _line_setup_ref(coords[1], ny)
    iz0, iz1, fz = _line_setup_ref(coords[2], nz)
    out_shape = upstream.shape[1:]
    gx, gy, gz = np.zeros(out_shape), np.zeros(out_shape), np.zeros(out_shape)
    idx_parts, w_parts = [], []
    for ia, wa, sa in ((ix0, 1.0 - fx, -1.0), (ix1, fx, 1.0)):
        for ib, wb, sb in ((iy0, 1.0 - fy, -1.0), (iy1, fy, 1.0)):
            wab = wa * wb
            base = ia * ny + ib
            for ic, wc, sc in ((iz0, 1.0 - fz, -1.0), (iz1, fz, 1.0)):
                idx = base * nz + ic
                if values is not None:
                    dotted = (upstream * values.reshape(shape[0], -1)[:, idx]).sum(axis=0)
                    gx += (sa * (wb * wc)) * dotted
                    gy += (sb * (wa * wc)) * dotted
                    gz += (sc * wab) * dotted
                idx_parts.append(np.broadcast_to(idx, out_shape).ravel())
                w_parts.append(np.broadcast_to(wab * wc, out_shape).ravel())
    all_idx = np.concatenate(idx_parts)
    all_w = np.concatenate(w_parts)
    values_grad = np.empty(shape)
    flat_up = upstream.reshape(shape[0], -1)
    for ch in range(shape[0]):
        values_grad[ch] = np.bincount(
            all_idx, weights=all_w * np.tile(flat_up[ch], 8), minlength=nx * ny * nz
        ).reshape(nx, ny, nz)
    coords_grad = np.stack((gx, gy, gz))
    for axis in range(3):
        coords_grad[axis] *= (coords[axis] >= 0.0) & (coords[axis] <= shape[axis + 1] - 1.0)
    return values_grad, coords_grad


def grid_coords_ref(image_dims, stride):
    """Control-grid coordinates of every image voxel, as broadcastable lines."""
    nx, ny, nz = image_dims
    s = float(stride)
    return ((np.arange(nx, dtype=np.float64) / s)[:, None, None],
            (np.arange(ny, dtype=np.float64) / s)[None, :, None],
            (np.arange(nz, dtype=np.float64) / s)[None, None, :])


def upsample_ref(values, image_dims, stride):
    """Upsample as one trilinear gather of the control grid at every voxel."""
    return sample_trilinear_ref(values, *grid_coords_ref(image_dims, stride))


def vjp_upsample_ref(upstream, stride, control_dims):
    image_dims = upstream.shape[1:]
    coords = [np.broadcast_to(c, image_dims) for c in grid_coords_ref(image_dims, stride)]
    return sample_vjp_ref(None, (3,) + tuple(control_dims), coords, upstream)[0]


# ---------------------------------------------------------------------------
# reference noise stream: one Python step per LCG state


def lcg_normals_ref(seed, count):
    """LCG + Box-Muller normals with the LCG stepped in Python integers."""
    mult, inc, mod = 6364136223846793005, 1442695040888963407, 1 << 64
    state = seed % mod
    uniforms = np.empty(2 * ((count + 1) // 2))
    for i in range(len(uniforms)):
        state = (mult * state + inc) % mod
        uniforms[i] = ((state >> 11) + 1) / float(1 << 53)
    radius = np.sqrt(-2.0 * np.log(uniforms[0::2]))
    angle = 2.0 * math.pi * uniforms[1::2]
    normals = np.empty(len(uniforms))
    normals[0::2] = radius * np.cos(angle)
    normals[1::2] = radius * np.sin(angle)
    return normals[:count]


# ---------------------------------------------------------------------------
# the finite-difference oracle of every adjoint test


def check_directional(f, x, direction, analytic, rel):
    """Hold ``analytic``, a derivative of sum(f) at ``x`` along ``direction``, to a
    central difference of step h = 1e-6.

    ``f`` returns the terms whose sum is the objective: an array, or a list of
    weighted loss values.  The check passes when
    |analytic - fd| <= rel * max(|analytic|, |fd|) + eps * S / h,
    with S the larger sum of absolute terms of the two evaluations: the second
    part bounds the rounding of the difference itself, which a derivative that
    cancels falls below.
    """
    h = 1e-6
    sums, scale = [], 0.0
    for step in (h, -h):
        terms = np.asarray(f(x + step * direction), dtype=np.float64)
        sums.append(float(np.sum(terms)))
        scale = max(scale, float(np.sum(np.abs(terms))))
    fd = (sums[0] - sums[1]) / (2.0 * h)
    bound = rel * max(abs(analytic), abs(fd)) + np.finfo(np.float64).eps * scale / h
    assert abs(analytic - fd) <= bound, (
        f"finite difference {fd!r} against analytic {analytic!r}: "
        f"error {abs(analytic - fd):.3g} above bound {bound:.3g}")

"""Hash fixed registrations and gradients, to show that a change keeps every bit.

Usage::

    python tools/bitcheck.py [PARENT]

Each line names one case and the first 16 hex digits of a SHA-256 over what
the case computes: every array's bytes in order, then the ``float.hex`` of
every value.  The cases are

- eleven registrations and gradients:
  - ``register_pair`` on the criterion-8 three-ellipsoid phantom scaled to
    n^3 (noise seed 7), moved by the sinusoidal x-shear, with one-hot labels
    ``[1, 2, 3]`` where the name ends in ``L``, and
    ``RegistrationConfig(steps, iterations, convergence_tol=0.0)``; it hashes
    both fields, both warps and every delta, then every term of every
    breakdown of the trace and the final one;
  - the gradient of ``gradient_check``'s random instance (seed 0, steps 2,
    stride 2, labels) at 8^3 and 24^3: each gradient, then the total;
- ``grad32C13``: the gradient at 32^3 with 13 label channels (steps 2,
  stride 4, N(0, 0.3) deltas, labels 0..13, seed 0);
- ``gradcheck``: the ``float.hex`` of each entry of
  ``gradient_check((5, 5, 5), RegistrationConfig(steps=2, control_stride=2))``.

Given PARENT, a checkout of another commit, a child interpreter computes the
same cases with PARENT's ``src``.  Each line then shows both results and
whether they match, and two last lines give the largest absolute and relative
deviation over every hashed array and value.  The tool keeps its own copy of
the benchmark phantom's recipe, so that a change to the benchmark moves no
digest.  It is a tool, not a test: a change that moves the last ulp reports
the move.

Exit status: 1 when any line reads DIFFERENT, once every line and both
deviations are printed; 0 otherwise, and always without PARENT.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy as np


def _phantom_inputs(n: int, labels: bool):
    from gradreg.phantom import AnalyticWarp, PhantomSpec, make_pair
    from gradreg.volume import one_hot

    s = n / 48.0
    ellipsoids = [((22, 22, 24), (12, 9, 10), 1, 1.0),
                  ((33, 30, 20), (5, 4, 6), 2, 0.6),
                  ((14, 32, 28), (4, 5, 4), 3, 0.8)]
    spec = {"dims": [n, n, n], "background": 0.0, "noise_sigma": 0.02, "seed": 7,
            "ellipsoids": [{"center": [c * s for c in center],
                            "semi_axes": [r * s for r in axes],
                            "label": label, "intensity": value}
                           for center, axes, label, value in ellipsoids]}
    warp = {"kind": "sinusoidal", "amplitude": 3.0 * s, "wavelength": 24.0 * s}
    pair = make_pair(PhantomSpec.from_json(json.dumps(spec)),
                     AnalyticWarp.from_json(json.dumps(warp)))
    segs = None
    if labels:
        segs = (one_hot(pair.moving_labels, [1, 2, 3]), one_hot(pair.fixed_labels, [1, 2, 3]))
    return pair.moving, pair.fixed, segs


def _registration(n, steps, labels, iterations, inference_steps=None, **weights):
    def run():
        from gradreg.engine import RegistrationConfig, register_pair
        from gradreg.losses import LossWeights

        moving, fixed, segs = _phantom_inputs(n, labels)
        config = RegistrationConfig(weights=LossWeights(**weights), steps=steps,
                                    iterations=iterations, convergence_tol=0.0)
        r = register_pair(moving, fixed, config, segs=segs, inference_steps=inference_steps)
        arrays = [r.phi_ab.values, r.phi_ba.values, r.a_warp.data, r.b_warp.data]
        return (arrays + [d.values for d in r.deltas]
                + [v for bd in r.trace + [r.final] for v in astuple(bd)])
    return run


def _gradient(n, stride, scale, label_ids):
    """The gradient and total of a random instance drawn from seed 0 as
    ``gradient_check`` draws its own."""
    def run():
        from gradreg import deform
        from gradreg.deform import PreActivationField
        from gradreg.engine import RegistrationConfig, objective_and_gradient
        from gradreg.volume import LabelVolume, Volume, one_hot

        dims = (n, n, n)
        rng = np.random.default_rng(0)
        a, b = (Volume(rng.uniform(0.0, 1.0, (1,) + dims), dtype="f64") for _ in range(2))
        segs = tuple(one_hot(LabelVolume(rng.integers(0, len(label_ids) + 1, dims)), label_ids)
                     for _ in range(2))
        control = deform.control_dims_for(dims, stride)
        deltas = [PreActivationField(rng.normal(0.0, scale, (3,) + control), stride=stride)
                  for _ in range(2)]
        total, grads = objective_and_gradient(
            a, b, deltas, RegistrationConfig(steps=2, control_stride=stride), segs=segs)
        return grads + [total]
    return run


GRADCHECK_ENTRIES = ("sim", "seg", "reg", "jac", "inv", "all")


def _gradcheck():
    from gradreg.engine import RegistrationConfig, gradient_check

    report = gradient_check((5, 5, 5), RegistrationConfig(steps=2, control_stride=2))
    return [report[entry] for entry in GRADCHECK_ENTRIES]


CASES = {
    "24s2L": _registration(24, 2, True, 12),
    "20s1": _registration(20, 1, False, 12),
    "16s3L": _registration(16, 3, True, 12),
    "48s2L": _registration(48, 2, True, 3),
    "64s1": _registration(64, 1, False, 3),
    "i1": _registration(24, 2, True, 12, inference_steps=1),
    "i2": _registration(16, 3, True, 12, inference_steps=2),
    "a0": _registration(24, 2, True, 6, alpha=0.0),
    "b0e0": _registration(24, 2, True, 6, beta=0.0, epsilon=0.0),
    "grad8": _gradient(8, 2, 1.5, [1, 2]),
    "grad24": _gradient(24, 2, 1.5, [1, 2]),
    "grad32C13": _gradient(32, 4, 0.3, list(range(1, 14))),
    "gradcheck": _gradcheck,
}


def compute() -> dict[str, list]:
    """Every case's items: arrays, then Python floats."""
    return {name: case() for name, case in CASES.items()}


def save(path: str) -> None:
    """Write every case's items to ``path``; a parent checkout's child runs this."""
    np.savez(path, **{f"{name}/{i}": np.asarray(item)
                      for name, items in compute().items() for i, item in enumerate(items)})


def load(path: str) -> dict[str, list]:
    """The items that ``save`` wrote, floats again as Python floats."""
    out: dict[str, list] = {name: [] for name in CASES}
    with np.load(path) as data:
        for key in data.files:  # in the order saved
            name, _ = key.split("/")
            item = data[key]
            out[name].append(float(item) if item.ndim == 0 else item)
    return out


def summary(name: str, items: list) -> str:
    """The case's digest, or for ``gradcheck`` the hex of each entry."""
    if name == "gradcheck":
        return " ".join(f"{e}={float(v).hex()}" for e, v in zip(GRADCHECK_ENTRIES, items))
    h = hashlib.sha256()
    for item in items:
        h.update(float(item).hex().encode() if isinstance(item, float) else item.tobytes())
    return h.hexdigest()[:16]


def deviation(ours: list, theirs: list) -> tuple[float, float]:
    """The largest absolute and relative deviation of one case's items."""
    worst_abs = worst_rel = 0.0
    if len(ours) != len(theirs):
        return float("inf"), float("inf")
    for x, y in zip(ours, theirs):
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
        if x.shape != y.shape:
            return float("inf"), float("inf")
        diff = float(np.max(np.abs(x - y), initial=0.0))
        scale = float(np.max(np.abs(y), initial=0.0))
        worst_abs = max(worst_abs, diff)
        worst_rel = max(worst_rel, diff / scale if scale else (0.0 if diff == 0 else np.inf))
    return worst_abs, worst_rel


def parent_items(parent: Path) -> dict[str, list]:
    """Every case's items, computed by a child interpreter with PARENT's ``src``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "parent.npz")
        code = (f"import sys; sys.path[:0] = [{str(parent.resolve() / 'src')!r}, "
                f"{str(Path(__file__).resolve().parent)!r}]; "
                f"import bitcheck; bitcheck.save({out!r})")
        subprocess.run([sys.executable, "-c", code], check=True)
        return load(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path,
                        help="a checkout of another commit to compare against")
    args = parser.parse_args(argv)
    theirs = None if args.parent is None else parent_items(args.parent)
    ours = compute()
    worst_abs = worst_rel = 0.0
    different = False
    for name, items in ours.items():
        mine = summary(name, items)
        line = f"{name:10s} {mine}"
        if theirs is not None:
            parent = summary(name, theirs[name])
            different |= parent != mine
            line += f"  parent {parent}  {'DIFFERENT' if parent != mine else 'same'}"
            dev_abs, dev_rel = deviation(items, theirs[name])
            worst_abs, worst_rel = max(worst_abs, dev_abs), max(worst_rel, dev_rel)
        print(line, flush=True)
    if theirs is not None:
        print(f"largest absolute deviation {worst_abs:.3g}")
        print(f"largest relative deviation {worst_rel:.3g}")
    return 1 if different else 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())

"""Registration evaluation metrics: Dice, Dice30, HD95 and SdLogJ.

Per-label Dice and 95th-percentile symmetric surface distance are computed on
hard label volumes; grid plausibility is the population standard deviation of
the log Jacobian determinant.  Labels missing from either volume are recorded
as absent and excluded from aggregates.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import deform
from .deform import DeformationField
from .volume import LabelVolume

LOG_DET_FLOOR = 1e-9


def dice(a: LabelVolume, b: LabelVolume, label: int) -> float:
    """Overlap 2|A.B| / (|A|+|B|); 1.0 when both masks are empty."""
    if a.dims != b.dims:
        raise ValueError(f"label volume dims mismatch: {a.dims} vs {b.dims}")
    mask_a = a.labels == label
    mask_b = b.labels == label
    na = int(mask_a.sum())
    nb = int(mask_b.sum())
    if na == 0 and nb == 0:
        return 1.0
    if na == 0 or nb == 0:
        return 0.0
    inter = int(np.logical_and(mask_a, mask_b).sum())
    return 2.0 * inter / (na + nb)


def dice30(scores) -> float:
    """Mean of the lowest 30% (ceil) of the given Dice scores."""
    values = [float(s) for s in scores]
    if not values:
        raise ValueError("dice30 needs a non-empty score list")
    values.sort()
    k = math.ceil(0.3 * len(values))
    return math.fsum(values[:k]) / k


def _boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Labeled voxels with an unlabeled 6-neighbor; volume faces count as unlabeled."""
    padded = np.pad(mask, 1)
    interior = np.ones_like(mask)
    for axis in range(3):
        lo = [slice(1, -1)] * 3
        hi = [slice(1, -1)] * 3
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        interior &= padded[tuple(lo)] & padded[tuple(hi)]
    return mask & ~interior


def _nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    rank = math.ceil(q * len(sorted_values))
    return float(sorted_values[max(rank, 1) - 1])


def hd95(a: LabelVolume, b: LabelVolume, label: int, spacing_mm) -> float:
    """Symmetric 95th-percentile boundary distance in millimetres.

    Directed distances go from every boundary voxel of one mask to the nearest
    boundary voxel of the other (Euclidean, spacing-scaled); the result is the
    max of the two directed nearest-rank percentiles.
    """
    from scipy.spatial import cKDTree
    if a.dims != b.dims:
        raise ValueError(f"label volume dims mismatch: {a.dims} vs {b.dims}")
    mask_a = a.labels == label
    mask_b = b.labels == label
    if not mask_a.any() or not mask_b.any():
        raise ValueError(f"label {label} empty in at least one volume")
    scale = np.asarray(spacing_mm, dtype=np.float64)
    pts_a = np.argwhere(_boundary_mask(mask_a)) * scale
    pts_b = np.argwhere(_boundary_mask(mask_b)) * scale
    d_ab = cKDTree(pts_b).query(pts_a)[0]
    d_ba = cKDTree(pts_a).query(pts_b)[0]
    return max(_nearest_rank(np.sort(d_ab), 0.95), _nearest_rank(np.sort(d_ba), 0.95))


def sdlogj(phi: DeformationField) -> float:
    """Population std of log determinant (floored at 1e-9) over all voxels."""
    return sdlogj_from_det(deform.jacobian_det(phi))


def sdlogj_from_det(det: np.ndarray) -> float:
    """``sdlogj`` of determinant values that were already computed."""
    return float(np.std(np.log(np.maximum(det, LOG_DET_FLOOR))))


@dataclass
class PairMetrics:
    """Per-label and summary metrics for one registered pair.

    Absent labels (missing from either volume) map to None and are excluded
    from mean_dice.
    """

    dice_per_label: dict[int, float | None]
    hd95_per_label: dict[int, float | None]
    mean_dice: float | None
    sdlogj: float

    def present_dice(self) -> list[float]:
        return [d for d in self.dice_per_label.values() if d is not None]


def evaluate_pair(fixed_labels: LabelVolume, warped_labels: LabelVolume,
                  phi: DeformationField, label_set, spacing_mm) -> PairMetrics:
    """Assemble all pair metrics for the given label set."""
    if fixed_labels.dims != warped_labels.dims:
        raise ValueError(
            f"label volume dims mismatch: {fixed_labels.dims} vs {warped_labels.dims}"
        )
    dice_map: dict[int, float | None] = {}
    hd_map: dict[int, float | None] = {}
    for label in label_set:
        label = int(label)
        in_fixed = bool((fixed_labels.labels == label).any())
        in_warped = bool((warped_labels.labels == label).any())
        if in_fixed and in_warped:
            dice_map[label] = dice(fixed_labels, warped_labels, label)
            hd_map[label] = hd95(fixed_labels, warped_labels, label, spacing_mm)
        else:
            dice_map[label] = None
            hd_map[label] = None
    present = [d for d in dice_map.values() if d is not None]
    mean_dice = math.fsum(present) / len(present) if present else None
    return PairMetrics(dice_map, hd_map, mean_dice, sdlogj(phi))


def _cell(value) -> str:
    if value is None:
        return "absent"
    return repr(float(value))


def write_metrics_csv(path, pairs: list[tuple[str, PairMetrics]]) -> None:
    """One row per (pair, label) plus one summary row per pair.

    Columns: pair_id,label,dice,hd95_mm,mean_dice,dice30,sdlogj.  Floats are
    written with full double precision.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["pair_id", "label", "dice", "hd95_mm", "mean_dice", "dice30", "sdlogj"]
        )
        for pair_id, pm in pairs:
            for label in pm.dice_per_label:
                writer.writerow(
                    [pair_id, label, _cell(pm.dice_per_label[label]),
                     _cell(pm.hd95_per_label[label]), "", "", ""]
                )
            present = pm.present_dice()
            d30 = dice30(present) if present else None
            writer.writerow(
                [pair_id, "summary", "", "", _cell(pm.mean_dice), _cell(d30),
                 _cell(pm.sdlogj)]
            )

"""Binary mask overlap metrics and their image-level bootstrap summary.

Empty-mask conventions: when both masks are empty, overlap metrics are 1.0
(agreement on absence); when exactly one side is empty they are 0.0.
Aggregation is unweighted across images, so a small mask counts as much as
a large one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import BinaryMask
from .errors import DimensionMismatch, EmptyInput
from .stats import bootstrap_replicates

__all__ = [
    "METRIC_NAMES",
    "MaskMetrics",
    "MetricSummary",
    "SegSummary",
    "mask_metrics",
    "dataset_summary",
]

METRIC_NAMES = ("iou", "dice", "precision", "recall", "pixel_acc")


@dataclass(frozen=True)
class MaskMetrics:
    iou: float
    dice: float
    precision: float
    recall: float
    pixel_acc: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in METRIC_NAMES])


def _as_bool(mask) -> np.ndarray:
    if isinstance(mask, BinaryMask):
        return mask.pixels
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise DimensionMismatch(f"mask must be 2-D, got shape {arr.shape}")
    return arr.astype(bool)


def mask_metrics(pred, gt) -> MaskMetrics:
    """IoU, Dice, precision, recall, pixel accuracy for one mask pair."""
    p = _as_bool(pred)
    g = _as_bool(gt)
    if p.shape != g.shape:
        raise DimensionMismatch(f"mask shapes differ: {p.shape} vs {g.shape}")
    inter = int((p & g).sum())
    p_count = int(p.sum())
    g_count = int(g.sum())
    union = p_count + g_count - inter

    if union == 0:
        iou = 1.0
        dice = 1.0
    else:
        iou = inter / union
        dice = 2.0 * inter / (p_count + g_count)
    if p_count == 0:
        precision = 1.0 if g_count == 0 else 0.0
    else:
        precision = inter / p_count
    if g_count == 0:
        recall = 1.0 if p_count == 0 else 0.0
    else:
        recall = inter / g_count
    agree = int((p == g).sum())
    pixel_acc = agree / p.size
    return MaskMetrics(float(iou), float(dice), float(precision), float(recall), float(pixel_acc))


@dataclass(frozen=True)
class MetricSummary:
    mean: float
    ci_lo: float
    ci_hi: float


@dataclass(frozen=True)
class SegSummary:
    n_images: int
    n_boot: int
    seed: int
    metrics: dict[str, MetricSummary]


def dataset_summary(per_image, n_boot: int = 5000, seed: int = 42) -> SegSummary:
    """Mean of each metric with a percentile bootstrap CI over images.

    Images are resampled with replacement n_boot times by
    bootstrap_replicates on the (n, 5) metric matrix, so one index draw per
    replicate is shared across metrics. The CI is the 2.5/97.5 percentile of
    replicate means with linear interpolation between order statistics.
    Deterministic for a fixed seed.
    """
    rows = list(per_image)
    if not rows:
        raise EmptyInput("no per-image metrics to summarize")
    values = np.stack([m.as_array() for m in rows])
    boot_means = bootstrap_replicates(values, np.mean, n_boot, seed)
    lo, hi = np.percentile(boot_means, [2.5, 97.5], axis=0)
    means = values.mean(axis=0)
    metrics = {
        name: MetricSummary(float(means[j]), float(lo[j]), float(hi[j]))
        for j, name in enumerate(METRIC_NAMES)
    }
    return SegSummary(len(rows), n_boot, seed, metrics)

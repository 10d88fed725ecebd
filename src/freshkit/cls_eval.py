"""Closed-set classification metrics: loss, confusion counts, per-class P/R/F1.

The loss is the mean cross-entropy against label-smoothed one-hot targets,
evaluated on probability rows (not logits). Zero denominators in the
precision/recall/F1 report yield 0.0 and are flagged rather than NaN.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import class_indices
from .errors import (
    BadParameter,
    EmptyBatch,
    EmptyMatrix,
    LengthMismatch,
    RowNotNormalized,
)

__all__ = [
    "cross_entropy",
    "confusion",
    "ClassReport",
    "PrfReport",
    "prf_report",
]

_NORM_TOL = 1e-9
_LOG_FLOOR = 1e-300


def cross_entropy(probs, labels, label_smoothing: float = 0.0) -> float:
    """Mean smoothed cross-entropy over probability rows.

    Each row must be nonnegative and sum to 1 within 1e-9. Probabilities are
    clamped at 1e-300 before the log so a hard zero under a smoothed target
    stays finite. label_smoothing must lie in [0, 1).
    """
    if not 0.0 <= label_smoothing < 1.0:  # also rejects nan
        raise BadParameter(f"label_smoothing must lie in [0, 1), got {label_smoothing!r}")
    p = np.asarray(probs, dtype=np.float64)
    y = np.asarray(labels)
    if p.ndim != 2 or p.shape[0] < 1:
        raise EmptyBatch("need at least one probability row")
    n, c = p.shape
    if y.shape != (n,):
        raise LengthMismatch(f"{n} rows but {y.shape} labels")
    sums = p.sum(axis=1)
    bad = np.abs(sums - 1.0) > _NORM_TOL
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise RowNotNormalized(f"row {row} sums to {float(sums[row])!r}")
    if (p < 0.0).any():
        row = int(np.flatnonzero((p < 0.0).any(axis=1))[0])
        raise RowNotNormalized(f"row {row} has a negative probability")
    y = class_indices(y, c, "label")
    logp = np.log(np.maximum(p, _LOG_FLOOR))
    alpha = label_smoothing
    picked = logp[np.arange(n), y]
    uniform = logp.mean(axis=1)
    return float(-((1.0 - alpha) * picked + alpha * uniform).mean())


def confusion(true_labels, pred_labels, n_classes: int) -> np.ndarray:
    """Counts matrix with rows true, columns predicted."""
    t = np.asarray(true_labels)
    p = np.asarray(pred_labels)
    if t.shape != p.shape or t.ndim != 1:
        raise LengthMismatch(f"shapes {t.shape} and {p.shape} do not pair up")
    if t.size == 0:
        raise EmptyBatch("no samples to count")
    t = class_indices(t, n_classes, "true label")
    p = class_indices(p, n_classes, "pred label")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


@dataclass(frozen=True)
class ClassReport:
    precision: float
    recall: float
    f1: float
    support: int
    zero_division: tuple[str, ...]


@dataclass(frozen=True)
class PrfReport:
    per_class: tuple[ClassReport, ...]
    macro_precision: float
    macro_recall: float
    macro_f1: float
    accuracy: float


def prf_report(cm: np.ndarray) -> PrfReport:
    """Per-class and macro precision/recall/F1 plus accuracy from counts."""
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise LengthMismatch(f"confusion matrix must be square, got {cm.shape}")
    total = int(cm.sum())
    if total == 0:
        raise EmptyMatrix("confusion matrix has zero total count")
    per_class = []
    for c in range(cm.shape[0]):
        tp = int(cm[c, c])
        col = int(cm[:, c].sum())
        row = int(cm[c, :].sum())
        flags = []
        if col > 0:
            precision = tp / col
        else:
            precision = 0.0
            flags.append("precision")
        if row > 0:
            recall = tp / row
        else:
            recall = 0.0
            flags.append("recall")
        if precision + recall > 0.0:
            f1 = 2.0 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
            flags.append("f1")
        per_class.append(ClassReport(precision, recall, f1, row, tuple(flags)))
    return PrfReport(
        per_class=tuple(per_class),
        macro_precision=float(np.mean([c.precision for c in per_class])),
        macro_recall=float(np.mean([c.recall for c in per_class])),
        macro_f1=float(np.mean([c.f1 for c in per_class])),
        accuracy=float(np.trace(cm) / total),
    )

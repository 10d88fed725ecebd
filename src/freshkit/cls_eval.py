"""Closed-set classification metrics: loss, confusion counts, per-class P/R/F1.

The loss is the mean cross-entropy against label-smoothed one-hot targets,
evaluated on probability rows (not logits). Zero denominators in the
precision/recall/F1 report yield 0.0 and are flagged rather than NaN.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadLabelIndex,
    BadParameter,
    EmptyBatch,
    EmptyMatrix,
    LengthMismatch,
    RowNotNormalized,
)

__all__ = [
    "cross_entropy",
    "confusion",
    "accuracy",
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
    y = y.astype(np.int64)
    if ((y < 0) | (y >= c)).any():
        bad_row = int(np.flatnonzero((y < 0) | (y >= c))[0])
        raise BadLabelIndex(f"label {y[bad_row]} at row {bad_row} outside [0, {c})")
    logp = np.log(np.maximum(p, _LOG_FLOOR))
    alpha = label_smoothing
    picked = logp[np.arange(n), y]
    uniform = logp.mean(axis=1)
    return float(-((1.0 - alpha) * picked + alpha * uniform).mean())


def _kept_pairs(true_labels, pred_labels, keep, verb: str) -> tuple[np.ndarray, np.ndarray]:
    """The two label vectors, checked to pair up and cut to the kept samples;
    when none are left, EmptyBatch says there are no samples to verb."""
    t = np.asarray(true_labels)
    p = np.asarray(pred_labels)
    if t.shape != p.shape or t.ndim != 1:
        raise LengthMismatch(f"shapes {t.shape} and {p.shape} do not pair up")
    if keep is not None:
        k = np.asarray(keep, dtype=bool)
        if k.shape != t.shape:
            raise LengthMismatch("keep mask must pair with the labels")
        t, p = t[k], p[k]
    if t.size == 0:
        raise EmptyBatch(f"no samples to {verb}")
    return t, p


def confusion(true_labels, pred_labels, n_classes: int, keep=None) -> np.ndarray:
    """Counts matrix with rows true, columns predicted.

    keep, when given, is a boolean mask selecting the samples that were not
    abstained on; only those pairs are counted.
    """
    t, p = _kept_pairs(true_labels, pred_labels, keep, "count")
    t = t.astype(np.int64)
    p = p.astype(np.int64)
    for name, arr in (("true", t), ("pred", p)):
        if ((arr < 0) | (arr >= n_classes)).any():
            bad = int(arr[(arr < 0) | (arr >= n_classes)][0])
            raise BadLabelIndex(f"{name} label {bad} outside [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


def accuracy(true_labels, pred_labels, keep=None) -> float:
    """Fraction correct, over kept samples when a mask is supplied."""
    t, p = _kept_pairs(true_labels, pred_labels, keep, "score")
    return float((t == p).mean())


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

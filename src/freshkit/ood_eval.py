"""Detector metrics over scored ID/OOD samples, plus the abstention sweep.

A scored sample is a row (id, score, is_id), a `ScoredSample` or a plain
tuple. Callers holding score columns pass `zip(ids, scores, is_id)` and
build no per-row object. A NaN score is rejected, as it has no place in the
threshold order; +-inf are ordered and allowed.

All three detector metrics come from one walk down the distinct score
thresholds (accept when score >= t), ID being the positive class. AUROC is
the trapezoidal area under the ROC staircase; in counts that area is twice
the Mann-Whitney U, so it equals brute-force pair counting with half credit
for ties, exactly in float64. AUPR integrates precision over recall
step-wise at the same thresholds, with no interpolation. FPR@95TPR is the
smallest false positive rate among thresholds whose ID true positive rate
is at least 0.95.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import BadParameter, EmptyInput, MissingClass

__all__ = [
    "DEFAULT_TAUS",
    "ScoredSample",
    "OodReport",
    "SweepPoint",
    "ood_metrics",
    "threshold_sweep",
]

# reference operating point 0.5 sits in the middle of this grid
DEFAULT_TAUS = (0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 0.8)
REFERENCE_TAU = 0.5


class ScoredSample(NamedTuple):
    """One detector output row; is_id marks ground-truth in-distribution."""

    id: str
    score: float
    is_id: bool


@dataclass(frozen=True)
class OodReport:
    auroc: float
    aupr_id: float
    fpr_at_95_tpr: float
    n_id: int
    n_ood: int


@dataclass(frozen=True)
class SweepPoint:
    """Coverage and rejection at one confidence threshold."""

    tau: float
    coverage: float
    rejection: float
    reference: bool


def ood_metrics(samples) -> OodReport:
    """AUROC, AUPR with ID positive, and FPR@95TPR for a scored sample set.

    samples is any iterable of (id, score, is_id) rows, read once; a NaN
    score raises BadParameter naming its row's id.
    """
    samples = list(samples)
    if not samples:
        raise EmptyInput("no scored samples")
    ids, scores, is_id = zip(*samples)
    scores = np.asarray(scores, dtype=np.float64)
    is_id = np.asarray(is_id, dtype=bool)
    nan = np.flatnonzero(np.isnan(scores))
    if nan.size:
        raise BadParameter(f"sample {ids[nan[0]]!r} has a NaN score")
    n_id = int(is_id.sum())
    n_ood = int((~is_id).sum())
    if n_id == 0 or n_ood == 0:
        raise MissingClass(f"need both sides, got {n_id} ID and {n_ood} OOD")

    # walk distinct thresholds from high to low; a threshold cannot split ties
    desc = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[desc]
    sorted_id = is_id[desc]
    boundary = np.ones(len(samples), dtype=bool)
    boundary[:-1] = sorted_scores[:-1] != sorted_scores[1:]
    tp = np.cumsum(sorted_id)[boundary].astype(np.float64)
    accepted = (np.arange(len(samples)) + 1)[boundary].astype(np.float64)
    fp = accepted - tp

    # each trapezoid of the ROC staircase in counts: a tie group's ID-OOD
    # pairs earn half credit; the sum is 2U, exact while n**2 < 2**53
    prev_tp = np.concatenate([[0.0], tp[:-1]])
    two_u = (np.diff(fp, prepend=0.0) * (tp + prev_tp)).sum()
    auroc = float(two_u / (2.0 * n_id * n_ood))

    precision = tp / accepted
    recall = tp / n_id
    aupr = float((np.diff(recall, prepend=0.0) * precision).sum())

    fpr = fp / n_ood
    eligible = recall >= 0.95
    fpr95 = float(fpr[eligible].min())

    return OodReport(auroc, aupr, fpr95, n_id, n_ood)


def threshold_sweep(confidences, taus=DEFAULT_TAUS) -> list[SweepPoint]:
    """Coverage (fraction with confidence >= tau) and rejection per threshold.

    rejection is computed as 1.0 - coverage, which makes
    coverage + rejection == 1.0 hold exactly in float64. A NaN confidence
    or threshold is rejected by position, as it orders against no tau.
    """
    conf = np.asarray(confidences, dtype=np.float64)
    if conf.ndim != 1 or conf.size == 0:
        raise EmptyInput("need at least one confidence value")
    taus = tuple(taus)
    if not taus:
        raise EmptyInput("need at least one threshold")
    for name, values in (("confidence", conf), ("threshold", taus)):
        nan = np.flatnonzero(np.isnan(np.asarray(values, dtype=np.float64)))
        if nan.size:
            raise BadParameter(f"{name} {nan[0]} is NaN")
    n = conf.size
    points = []
    for tau in taus:
        coverage = float((conf >= tau).sum() / n)
        points.append(SweepPoint(
            tau=float(tau),
            coverage=coverage,
            rejection=1.0 - coverage,
            reference=(tau == REFERENCE_TAU),
        ))
    return points

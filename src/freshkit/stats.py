"""Paired model comparison and bootstrap confidence intervals.

McNemar is the continuity-corrected form on the discordant counts,
chi2 = (|n10 - n01| - 0.5)^2 / (n10 + n01), with the correction kept even
when the discordant difference is below 0.5. The survival function for one
degree of freedom is the closed form erfc(sqrt(x / 2)), delegated to the C
library's erfc, which is accurate to a few ulp across the supported range.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadParameter, EmptyInput, LengthMismatch, NegativeStatistic

__all__ = [
    "PairedOutcome",
    "paired_outcomes",
    "McNemarResult",
    "mcnemar",
    "DeltaAccuracyCi",
    "paired_acc_diff_ci",
    "chi2_sf_df1",
    "BootstrapCi",
    "bootstrap_replicates",
    "percentile_bootstrap",
    "median",
]


_Z95 = 1.96  # two-sided normal quantile of the Wald interval


@dataclass(frozen=True)
class PairedOutcome:
    """2x2 agreement counts for two models on the same samples.

    n11: both correct, n10: only model A correct, n01: only model B correct,
    n00: both wrong.
    """

    n11: int
    n10: int
    n01: int
    n00: int

    def __post_init__(self) -> None:
        counts = (self.n11, self.n10, self.n01, self.n00)
        if not all(isinstance(c, (int, np.integer)) for c in counts):
            raise BadParameter(f"pair counts must be integers, got {self}")
        if min(counts) < 0 or max(counts) >= 2 ** 63:  # int64, well below a float overflow
            raise BadParameter(f"pair counts must lie in [0, 2**63), got {self}")
        for name, count in zip(("n11", "n10", "n01", "n00"), counts):
            object.__setattr__(self, name, int(count))  # numpy counts would wrap in sums

    @property
    def n(self) -> int:
        return self.n11 + self.n10 + self.n01 + self.n00


def paired_outcomes(correct_a, correct_b) -> PairedOutcome:
    """Count the 2x2 table from two aligned correctness vectors."""
    a = np.asarray(correct_a, dtype=bool)
    b = np.asarray(correct_b, dtype=bool)
    if a.shape != b.shape or a.ndim != 1:
        raise LengthMismatch(f"shapes {a.shape} and {b.shape} do not pair up")
    if a.size == 0:
        raise EmptyInput("no paired outcomes")
    return PairedOutcome(
        n11=int((a & b).sum()),
        n10=int((a & ~b).sum()),
        n01=int((~a & b).sum()),
        n00=int((~a & ~b).sum()),
    )


def chi2_sf_df1(x: float) -> float:
    """P(X >= x) for X ~ chi-square with one degree of freedom."""
    if x < 0.0:
        raise NegativeStatistic(f"statistic {x} must be >= 0")
    return math.erfc(math.sqrt(x / 2.0))


@dataclass(frozen=True)
class McNemarResult:
    chi2: float
    p: float
    degenerate: bool


def mcnemar(outcome: PairedOutcome) -> McNemarResult:
    """Continuity-corrected McNemar test on the discordant pair counts.

    With zero discordant pairs the test carries no information; that case
    returns chi2 0.0 and p 1.0 with the degenerate flag set.
    """
    discordant = outcome.n10 + outcome.n01
    if discordant == 0:
        return McNemarResult(0.0, 1.0, True)
    diff = abs(outcome.n10 - outcome.n01)
    chi2 = (diff - 0.5) ** 2 / discordant
    return McNemarResult(float(chi2), chi2_sf_df1(chi2), False)


@dataclass(frozen=True)
class DeltaAccuracyCi:
    """Paired accuracy difference (A minus B) with a Wald interval."""

    delta: float
    se: float
    lo: float
    hi: float


def paired_acc_diff_ci(outcome: PairedOutcome) -> DeltaAccuracyCi:
    """95% Wald CI for the accuracy difference of paired predictions.

    delta = (n10 - n01) / N and SE = sqrt((n10 + n01) - (n10 - n01)^2 / N) / N.
    """
    n = outcome.n
    if n == 0:
        raise EmptyInput("no paired outcomes")
    diff = outcome.n10 - outcome.n01
    delta = diff / n
    se = math.sqrt((outcome.n10 + outcome.n01) - diff * diff / n) / n
    return DeltaAccuracyCi(delta, se, delta - _Z95 * se, delta + _Z95 * se)


@dataclass(frozen=True)
class BootstrapCi:
    estimate: float
    lo: float
    hi: float
    n_boot: int
    seed: int


def bootstrap_replicates(values: np.ndarray, statistic: Callable[..., np.ndarray],
                         n_boot: int, seed: int) -> np.ndarray:
    """statistic(resampled, axis=1) for n_boot resamples of the rows of values.

    Every bootstrap CI in the package draws here. Blocks of max(1, 2**15 // n)
    replicates are gathered in turn into one buffer and fill one preallocated
    (n_boot, *values.shape[1:]) array, so a count that memory cannot hold
    raises MemoryError at once. The blocks draw in turn from one seeded
    generator, giving the indices of one (n_boot, n) draw whatever the block
    size.
    """
    if n_boot < 1:
        raise BadParameter(f"n_boot must be >= 1, got {n_boot}")
    n = values.shape[0]
    if n == 0:
        raise EmptyInput("need at least one row to resample")
    out = np.empty((n_boot, *values.shape[1:]))
    rng = np.random.default_rng(seed)
    block = max(1, 2 ** 15 // n)
    drawn = np.empty((min(block, n_boot), *values.shape), dtype=values.dtype)
    for start in range(0, n_boot, block):
        rows = rng.integers(0, n, size=(min(block, n_boot - start), n))
        # rows lie in [0, n), so "clip" moves none; numpy buffers out in the default mode
        resampled = np.take(values, rows, axis=0, out=drawn[:len(rows)], mode="clip")
        out[start:start + len(rows)] = statistic(resampled, axis=1)
    return out


@np.errstate(over="ignore", invalid="ignore")
def percentile_bootstrap(values, statistic: Callable[..., np.ndarray],
                         n_boot: int = 4000, seed: int = 42) -> BootstrapCi:
    """Percentile bootstrap CI of a statistic.

    Replicates come from bootstrap_replicates, so the statistic must take an
    `axis` argument. The CI is the 2.5/97.5 percentile with linear
    interpolation. A statistic that overflows gives a non-finite bound
    without a numpy warning; the CLI's renderer rejects such a bound.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInput("need at least one observation")
    replicates = bootstrap_replicates(arr, statistic, n_boot, seed)
    lo, hi = np.percentile(replicates, [2.5, 97.5])
    return BootstrapCi(float(statistic(arr)), float(lo), float(hi), n_boot, seed)


def median(values, axis=None):
    """np.median(values, axis) of the values as float64, bit for bit, from one
    selection per row.

    np.median partitions at n/2 - 1, n/2 and -1 (its NaN check), and more
    than one kth takes numpy off its one-kth selection path: about seven
    times slower on (16, 2000) blocks. This selects once at n // 2; for even
    n the lower middle is the max of the lower half. A row that holds a NaN,
    whose middle values include a zero (the zero's sign depends on the
    partition) or add up to NaN (-inf and inf), goes to np.median, as does
    an empty input, so the warnings are np.median's too.
    """
    arr = np.asarray(values, dtype=np.float64)
    rows = arr.ravel() if axis is None else np.moveaxis(arr, axis, -1)
    if rows.size == 0:
        return np.median(arr, axis=axis)
    n = rows.shape[-1]
    lanes = rows.reshape(-1, n)
    part = np.partition(lanes, n // 2, axis=1)
    mid = part[:, n // 2]
    redo = np.isnan(lanes).any(axis=1) | (mid == 0.0)
    if n % 2 == 0:
        low = part[:, :n // 2].max(axis=1)
        with np.errstate(invalid="ignore"):  # -inf + inf: np.median warns for itself
            mid = (low + mid) / 2.0
        redo |= (low == 0.0) | np.isnan(mid)
    if redo.any():
        mid[redo] = np.median(lanes[redo], axis=1)
    return mid.reshape(rows.shape[:-1])[()]

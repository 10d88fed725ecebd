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
]


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
        if min(counts) < 0:
            raise BadParameter(f"pair counts must be >= 0, got {self}")

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


def paired_acc_diff_ci(outcome: PairedOutcome, z: float = 1.96) -> DeltaAccuracyCi:
    """Wald CI for the accuracy difference of paired predictions.

    delta = (n10 - n01) / N and SE = sqrt((n10 + n01) - (n10 - n01)^2 / N) / N.
    """
    n = outcome.n
    if n == 0:
        raise EmptyInput("no paired outcomes")
    diff = outcome.n10 - outcome.n01
    delta = diff / n
    se = math.sqrt((outcome.n10 + outcome.n01) - diff * diff / n) / n
    return DeltaAccuracyCi(delta, se, delta - z * se, delta + z * se)


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
    replicates fill one preallocated (n_boot, *values.shape[1:]) array, so a
    count that memory cannot hold raises MemoryError at once. The blocks draw
    in turn from one seeded generator, giving the indices of one (n_boot, n)
    draw whatever the block size.
    """
    if n_boot < 1:
        raise BadParameter(f"n_boot must be >= 1, got {n_boot}")
    n = values.shape[0]
    if n == 0:
        raise EmptyInput("need at least one row to resample")
    out = np.empty((n_boot, *values.shape[1:]))
    rng = np.random.default_rng(seed)
    block = max(1, 2 ** 15 // n)
    for start in range(0, n_boot, block):
        rows = rng.integers(0, n, size=(min(block, n_boot - start), n))
        out[start:start + len(rows)] = statistic(values[rows], axis=1)
    return out


def percentile_bootstrap(values, statistic: Callable[..., np.ndarray],
                         n_boot: int = 4000, seed: int = 42) -> BootstrapCi:
    """Percentile bootstrap CI of a statistic.

    Replicates come from bootstrap_replicates, so the statistic must take an
    `axis` argument. The CI is the 2.5/97.5 percentile with linear
    interpolation.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInput("need at least one observation")
    replicates = bootstrap_replicates(arr, statistic, n_boot, seed)
    lo, hi = np.percentile(replicates, [2.5, 97.5])
    return BootstrapCi(float(statistic(arr)), float(lo), float(hi), n_boot, seed)

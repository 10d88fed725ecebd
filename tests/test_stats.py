import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshkit.errors import BadParameter, EmptyInput, LengthMismatch, NegativeStatistic
from freshkit.stats import (
    BootstrapCi,
    PairedOutcome,
    bootstrap_replicates,
    chi2_sf_df1,
    mcnemar,
    median,
    paired_acc_diff_ci,
    paired_outcomes,
    percentile_bootstrap,
)

# Frozen regression rows for the paired comparison pipeline. Each entry is
# the full contingency table plus the rounded statistics it should produce.
# Rows tagged exact=True reproduce the rounded values within tight tolerance;
# the others were rounded from a slightly different continuity treatment, so
# the exact-formula value (frozen here as a fraction) must stay within 0.05
# of the rounded one and is reported alongside it.
REFERENCE_ROWS = [
    dict(counts=(788, 35, 8, 12), chi2=16.331, chi2_exact=16.331395348837209,
         p=5.32e-5, delta=0.0320, ci=(0.0169, 0.0471), exact=True),
    dict(counts=(778, 18, 44, 3), chi2=10.512, chi2_exact=650.25 / 62,
         p=0.0012, delta=-0.0308, ci=(-0.0490, -0.0127), exact=False),
    dict(counts=(790, 6, 37, 10), chi2=21.605, chi2_exact=930.25 / 43,
         p=3.35e-6, delta=-0.0368, ci=(-0.0518, -0.0217), exact=False),
    dict(counts=(780, 16, 43, 4), chi2=11.932, chi2_exact=702.25 / 59,
         p=0.0005, delta=-0.0320, ci=(-0.0498, -0.0143), exact=False),
    dict(counts=(815, 7, 8, 13), chi2=0.0167, chi2_exact=0.25 / 15,
         p=0.8973, delta=-0.0012, ci=(-0.0102, 0.0078), exact=True),
]


def _row_outcome(row):
    n11, n10, n01, n00 = row["counts"]
    return PairedOutcome(n11=n11, n10=n10, n01=n01, n00=n00)


@pytest.mark.parametrize("row", REFERENCE_ROWS, ids=lambda r: "row%s" % (REFERENCE_ROWS.index(r) + 1))
def test_reference_rows_chi2(row):
    result = mcnemar(_row_outcome(row))
    assert result.chi2 == pytest.approx(row["chi2_exact"], abs=1e-12)
    assert not result.degenerate
    if row["exact"]:
        assert result.chi2 == pytest.approx(row["chi2"], abs=1e-3)
    else:
        # the rounded value disagrees with the plain formula by under 0.05;
        # both are reported rather than silently reconciled
        assert abs(result.chi2 - row["chi2"]) < 0.05
        assert abs(result.chi2 - row["chi2"]) > 1e-3


@pytest.mark.parametrize("row", [r for r in REFERENCE_ROWS if r["exact"]],
                         ids=["row1", "row5"])
def test_reference_rows_pvalue(row):
    result = mcnemar(_row_outcome(row))
    assert result.p == pytest.approx(row["p"], rel=0.02)


@pytest.mark.parametrize("row", REFERENCE_ROWS, ids=lambda r: "row%s" % (REFERENCE_ROWS.index(r) + 1))
def test_reference_rows_delta_ci(row):
    ci = paired_acc_diff_ci(_row_outcome(row))
    assert ci.delta == pytest.approx(row["delta"], abs=1e-4)
    assert ci.lo == pytest.approx(row["ci"][0], abs=2e-4)
    assert ci.hi == pytest.approx(row["ci"][1], abs=2e-4)


def test_mcnemar_runtime_is_trivial():
    import time
    outcome = PairedOutcome(788, 35, 8, 12)
    mcnemar(outcome)  # warm any lazy imports
    t0 = time.perf_counter()
    for _ in range(100):
        mcnemar(outcome)
    per_call = (time.perf_counter() - t0) / 100
    assert per_call < 1e-3


def test_mcnemar_degenerate_no_discordant():
    result = mcnemar(PairedOutcome(10, 0, 0, 5))
    assert result.chi2 == 0.0
    assert result.p == 1.0
    assert result.degenerate


def test_mcnemar_symmetry():
    a = mcnemar(PairedOutcome(0, 30, 10, 0))
    b = mcnemar(PairedOutcome(0, 10, 30, 0))
    assert a.chi2 == b.chi2
    assert a.p == b.p


def test_continuity_correction_applies_even_at_diff_one():
    # |7-8| - 0.5 = 0.5 squared over 15: no clamping to zero happens
    result = mcnemar(PairedOutcome(815, 7, 8, 13))
    assert result.chi2 == pytest.approx(0.25 / 15, abs=1e-15)


def test_paired_outcomes_from_indicators():
    correct_a = [True, True, False, False, True]
    correct_b = [True, False, True, False, False]
    out = paired_outcomes(correct_a, correct_b)
    assert (out.n11, out.n10, out.n01, out.n00) == (1, 2, 1, 1)
    assert out.n == 5
    with pytest.raises(LengthMismatch):
        paired_outcomes([True], [True, False])
    with pytest.raises(EmptyInput):
        paired_outcomes([], [])


@pytest.mark.parametrize("counts", [(-1, 0, 0, 5), (3, -2, 1, 1), (3, 1, -1, 1),
                                    (3, 1, 1, -4), (1.5, 0, 0, 0)])
def test_paired_outcome_rejects_negative_counts(counts):
    with pytest.raises(BadParameter):
        PairedOutcome(*counts)


@pytest.mark.parametrize("big", [2 ** 63, np.uint64(2 ** 63), 10 ** 400],
                         ids=["2**63", "uint64-2**63", "10**400"])
@pytest.mark.parametrize("cell", range(4))
def test_paired_outcome_rejects_counts_beyond_int64(cell, big):
    # 10**400 raised a raw OverflowError in mcnemar and paired_acc_diff_ci
    counts = [0, 0, 0, 0]
    counts[cell] = big
    with pytest.raises(BadParameter, match=r"^pair counts must lie in \[0, 2\*\*63\)"):
        PairedOutcome(*counts)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("count", [int, np.int64, np.uint64])
@pytest.mark.parametrize("cell", range(4))
def test_largest_counts_give_finite_statistics(cell, count):
    # numpy counts wrapped in n and in the squared difference, to a negative chi2
    counts = [count(1)] * 4
    counts[cell] = count(2 ** 63 - 1)
    half = PairedOutcome(count(0), count(2 ** 62), count(2 ** 62), count(0))
    assert half.n == 2 ** 63
    for outcome in (PairedOutcome(*counts), PairedOutcome(*[count(2 ** 63 - 1)] * 4), half):
        result, ci = mcnemar(outcome), paired_acc_diff_ci(outcome)
        assert all(math.isfinite(v) for v in (result.chi2, result.p, ci.delta, ci.lo, ci.hi))


def test_delta_ci_formula():
    out = PairedOutcome(50, 10, 5, 35)
    ci = paired_acc_diff_ci(out)
    n = 100
    delta = (10 - 5) / n
    se = math.sqrt(15 - 25 / n) / n
    assert ci.delta == pytest.approx(delta, abs=1e-15)
    assert ci.se == pytest.approx(se, abs=1e-15)
    assert ci.lo == pytest.approx(delta - 1.96 * se, abs=1e-15)
    assert ci.hi == pytest.approx(delta + 1.96 * se, abs=1e-15)


def _simpson(fn, lo, hi, n_intervals):
    """Composite Simpson rule; n_intervals must be even."""
    xs = np.linspace(lo, hi, n_intervals + 1)
    ys = fn(xs)
    h = (hi - lo) / n_intervals
    return h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


def _chi2_sf_quadrature(x):
    """Integrate the df=1 density directly.

    SF(x) = int_x^inf t^(-1/2) e^(-t/2) / sqrt(2 pi) dt. Substituting t = u^2
    removes the inverse-sqrt factor and leaves a smooth integrand, so the
    Simpson rule converges fast. The tail beyond u = sqrt(x) + 40 is below
    1e-300 and is dropped.
    """
    lo = math.sqrt(x)
    def integrand(u):
        return math.sqrt(2.0 / math.pi) * np.exp(-u * u / 2.0)
    return _simpson(integrand, lo, lo + 40.0, 200_000)


def test_chi2_sf_against_quadrature_oracle():
    for x in (0.0167, 0.25 / 15, 1.0, 3.841459, 10.512, 16.331, 21.634):
        assert chi2_sf_df1(x) == pytest.approx(_chi2_sf_quadrature(x), abs=1e-10)


def test_chi2_sf_significance_threshold():
    # 3.841459 is the df=1 critical value for the 5% level
    assert chi2_sf_df1(3.841459) == pytest.approx(0.05, abs=1e-4)


def test_chi2_sf_edges():
    assert chi2_sf_df1(0.0) == 1.0
    assert chi2_sf_df1(200.0) < 1e-40
    with pytest.raises(NegativeStatistic):
        chi2_sf_df1(-0.5)


def test_bootstrap_deterministic():
    rng = np.random.default_rng(0)
    values = rng.normal(size=60)
    a = percentile_bootstrap(values, np.mean, n_boot=500, seed=11)
    b = percentile_bootstrap(values, np.mean, n_boot=500, seed=11)
    assert (a.estimate, a.lo, a.hi) == (b.estimate, b.lo, b.hi)
    c = percentile_bootstrap(values, np.mean, n_boot=500, seed=12)
    assert (a.lo, a.hi) != (c.lo, c.hi)


def test_bootstrap_brackets_estimate():
    rng = np.random.default_rng(1)
    values = rng.normal(loc=5.0, size=80)
    ci = percentile_bootstrap(values, np.mean, n_boot=2000, seed=2)
    assert ci.lo <= ci.estimate <= ci.hi
    assert ci.estimate == pytest.approx(float(np.mean(values)), abs=1e-12)
    assert ci.n_boot == 2000 and ci.seed == 2


def test_bootstrap_translation_equivariance():
    rng = np.random.default_rng(3)
    values = rng.normal(size=50)
    base = percentile_bootstrap(values, np.mean, n_boot=400, seed=4)
    shifted = percentile_bootstrap(values + 10.0, np.mean, n_boot=400, seed=4)
    assert shifted.lo == pytest.approx(base.lo + 10.0, abs=1e-9)
    assert shifted.hi == pytest.approx(base.hi + 10.0, abs=1e-9)


def test_bootstrap_interval_narrows_with_n():
    rng = np.random.default_rng(5)
    small = rng.normal(size=30)
    big = rng.normal(size=3000)
    ci_small = percentile_bootstrap(small, np.mean, n_boot=1000, seed=6)
    ci_big = percentile_bootstrap(big, np.mean, n_boot=1000, seed=6)
    assert (ci_big.hi - ci_big.lo) < (ci_small.hi - ci_small.lo)


def test_bootstrap_supports_other_statistics():
    values = np.array([1.0, 2.0, 3.0, 4.0, 100.0])
    ci = percentile_bootstrap(values, np.median, n_boot=500, seed=7)
    assert ci.estimate == 3.0
    assert ci.lo <= ci.estimate <= ci.hi


def _bootstrap_per_replicate(values, statistic, n_boot, seed):
    # reference: the same single index draw, one statistic call per replicate
    arr = np.asarray(values, dtype=np.float64)
    idx = np.random.default_rng(seed).integers(0, arr.size, size=(n_boot, arr.size))
    replicates = np.array([statistic(arr[row]) for row in idx])
    lo, hi = np.percentile(replicates, [2.5, 97.5])
    return BootstrapCi(float(statistic(arr)), float(lo), float(hi), n_boot, seed)


@pytest.mark.parametrize("n, n_boot", [
    *(pytest.param(n, 1000, id=str(n)) for n in (1, 2, 3, 100, 101, 2000)),
    pytest.param(101, 999, id="101-999"),
    pytest.param(2000, 999, id="2000-999"),
    pytest.param(2 ** 15 + 1, 5, id="32769-5"),
])
@pytest.mark.parametrize("statistic", [np.mean, np.median,
                                       pytest.param(median, id="stats.median")])
def test_bootstrap_blocks_equal_per_replicate_loop(n, n_boot, statistic):
    # n_boot spans several blocks of max(1, 2**15 // n) rows for n >= 100,
    # the last one partial, and one-row blocks of an odd length past 2**15
    values = np.random.default_rng(n).lognormal(size=n)
    got = percentile_bootstrap(values, statistic, n_boot=n_boot, seed=n + 1)
    assert got == _bootstrap_per_replicate(values, statistic, n_boot, n + 1)


# ties, both zeros, NaN and both infinities, alone or among arbitrary floats
MEDIAN_SPECIALS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan])
MEDIAN_VALUES = st.one_of(MEDIAN_SPECIALS, st.floats(allow_nan=True, allow_infinity=True))


def _median_and_warnings(func, values, axis):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        result = func(values, axis=axis)
    return result, [str(w.message) for w in seen]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data())
def test_median_equals_np_median_bit_for_bit(data):
    # odd and even, and past the few rows numpy selects from by sorting
    n = data.draw(st.one_of(st.integers(1, 12), st.integers(13, 60)), label="n")
    shape = data.draw(st.sampled_from([(n,), (n, 3), (3, n), (2, n)]), label="shape")
    elements = data.draw(st.sampled_from([MEDIAN_SPECIALS, MEDIAN_VALUES]), label="elements")
    values = np.array(data.draw(st.lists(elements, min_size=math.prod(shape),
                                         max_size=math.prod(shape))), dtype=np.float64)
    values = values.reshape(shape)
    axis = data.draw(st.sampled_from([None, 0, -1]), label="axis")
    want, want_warnings = _median_and_warnings(np.median, values, axis)
    got, got_warnings = _median_and_warnings(median, values, axis)
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(np.asarray(got).view(np.int64), np.asarray(want).view(np.int64))
    assert got_warnings == want_warnings


@pytest.mark.parametrize("n", [500, 501, 2000, 2001])
def test_median_of_wide_rows_equals_np_median(n):
    # bootstrap --stat median's resampled rows, and rows without ties, where
    # the selection does not always leave the lower middle at n // 2 - 1
    rng = np.random.default_rng(n)
    values = rng.lognormal(size=n)
    for rows in (values[rng.integers(0, n, size=(16, n))], rng.normal(size=(512, n))):
        assert np.array_equal(median(rows, axis=1), np.median(rows, axis=1))


def test_bootstrap_rejects_empty():
    with pytest.raises(EmptyInput):
        percentile_bootstrap([], np.mean)


@pytest.mark.parametrize("shape", [(0,), (0, 5)])
def test_bootstrap_replicates_rejects_zero_rows(shape):
    with pytest.raises(EmptyInput):
        bootstrap_replicates(np.empty(shape), np.mean, 10, seed=1)


@pytest.mark.parametrize("n_boot", [0, -1])
def test_bootstrap_rejects_fewer_than_one_replicate(n_boot):
    with pytest.raises(BadParameter, match=f"n_boot must be >= 1, got {n_boot}"):
        percentile_bootstrap([1.0, 2.0, 3.0], np.mean, n_boot=n_boot)


def test_mini_coverage_run():
    # tiny version of the coverage experiment; the full one lives in the
    # acceptance suite with 200 trials
    rng = np.random.default_rng(8)
    covered = 0
    trials = 30
    for t in range(trials):
        sample = rng.normal(size=100)
        ci = percentile_bootstrap(sample, np.mean, n_boot=400, seed=1000 + t)
        covered += int(ci.lo <= 0.0 <= ci.hi)
    assert covered >= trials * 0.8

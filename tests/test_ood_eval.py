from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshkit.errors import BadParameter, EmptyInput, MissingClass
from freshkit.ood_eval import (
    DEFAULT_TAUS,
    REFERENCE_TAU,
    OodReport,
    ScoredSample,
    ood_metrics,
    threshold_sweep,
)


def _samples(id_scores, ood_scores):
    out = [ScoredSample(f"id{i}", float(s), True) for i, s in enumerate(id_scores)]
    out += [ScoredSample(f"ood{i}", float(s), False) for i, s in enumerate(ood_scores)]
    return out


def _brute_force_auroc(id_scores, ood_scores):
    """Pair counting: a tie between an ID and an OOD score earns half credit."""
    wins = 0.0
    for a in id_scores:
        for b in ood_scores:
            if a > b:
                wins += 1.0
            elif a == b:
                wins += 0.5
    return wins / (len(id_scores) * len(ood_scores))


def test_auroc_hand_case():
    # 9 pairs, 8 of them rank the ID sample higher
    report = ood_metrics(_samples([0.9, 0.8, 0.4], [0.7, 0.3, 0.2]))
    assert report.auroc == pytest.approx(8 / 9, abs=1e-15)
    assert report.n_id == 3 and report.n_ood == 3


def test_fpr_hand_case():
    # accepting 95% of 5 ID samples forces the threshold down to 0.5,
    # which admits exactly one of the three OOD scores
    report = ood_metrics(_samples([0.9, 0.8, 0.7, 0.6, 0.5], [0.55, 0.4, 0.3]))
    assert report.fpr_at_95_tpr == pytest.approx(1 / 3, abs=1e-15)


def test_perfect_separation():
    report = ood_metrics(_samples([0.9, 0.8], [0.2, 0.1]))
    assert report.auroc == 1.0
    assert report.aupr_id == 1.0
    assert report.fpr_at_95_tpr == 0.0


def test_total_overlap_ties():
    # identical constant scores: every comparison is a tie
    report = ood_metrics(_samples([0.5, 0.5], [0.5, 0.5]))
    assert report.auroc == pytest.approx(0.5, abs=1e-15)
    assert report.fpr_at_95_tpr == 1.0


def test_aupr_hand_case():
    # thresholds sweep distinct scores descending: 0.9 -> P=1, R=1/2;
    # 0.5 -> P=1/2, R=1/2; 0.4 -> P=2/3, R=1. AP = 1/2 * 1 + 1/2 * 2/3 = 5/6
    report = ood_metrics(_samples([0.9, 0.4], [0.5]))
    assert report.aupr_id == pytest.approx(5 / 6, abs=1e-15)


def test_auroc_equals_brute_force_with_ties():
    rng = np.random.default_rng(1234)
    for trial in range(100):
        n_id = int(rng.integers(1, 40))
        n_ood = int(rng.integers(1, 40))
        # quantized scores force plenty of exact ties, within and across groups
        id_scores = rng.integers(0, 8, size=n_id) / 8.0
        ood_scores = rng.integers(0, 8, size=n_ood) / 8.0
        report = ood_metrics(_samples(id_scores, ood_scores))
        expected = _brute_force_auroc(id_scores.tolist(), ood_scores.tolist())
        assert report.auroc == expected, f"trial {trial}"


def _rank_ood_metrics(scores, is_id):
    """The rank-statistic implementation that the threshold walk replaced,
    kept here as the bit-for-bit reference."""
    order = np.argsort(scores, kind="mergesort")
    sorted_vals = scores[order]
    n = scores.shape[0]
    starts = np.ones(n, dtype=bool)
    starts[1:] = sorted_vals[1:] != sorted_vals[:-1]
    group = np.cumsum(starts) - 1
    firsts = np.flatnonzero(starts)
    counts = np.diff(np.append(firsts, n))
    group_avg = firsts + (counts + 1) / 2.0
    ranks = np.empty(n)
    ranks[order] = group_avg[group]
    n_id = int(is_id.sum())
    n_ood = n - n_id
    auroc = float((ranks[is_id].sum() - n_id * (n_id + 1) / 2.0) / (n_id * n_ood))

    desc = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[desc]
    sorted_id = is_id[desc]
    boundary = np.ones(n, dtype=bool)
    boundary[:-1] = sorted_scores[:-1] != sorted_scores[1:]
    tp = np.cumsum(sorted_id)[boundary].astype(np.float64)
    accepted = (np.arange(n) + 1)[boundary].astype(np.float64)
    fp = accepted - tp
    precision = tp / accepted
    recall = tp / n_id
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    aupr = float(((recall - prev_recall) * precision).sum())
    fpr95 = float((fp / n_ood)[recall >= 0.95].min())
    return OodReport(auroc, aupr, fpr95, n_id, n_ood)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(2, 2000), levels=st.sampled_from([1, 2, 3, 8, 40, 0]),
       id_share=st.floats(0.01, 0.99), seed=st.integers(0, 2 ** 32 - 1))
def test_walk_metrics_equal_rank_statistic_bit_for_bit(n, levels, id_share, seed):
    rng = np.random.default_rng(seed)
    is_id = rng.random(n) < id_share
    is_id[:2] = True, False
    if levels:  # quantized: most scores tie, within and across the groups
        scores = np.floor(rng.random(n) * levels) / levels
    else:
        scores = rng.normal(size=n) + is_id
    samples = [ScoredSample(f"s{i}", score, side)
               for i, (score, side) in enumerate(zip(scores.tolist(), is_id.tolist()))]
    reference = _rank_ood_metrics(scores, is_id)
    assert ood_metrics(samples) == reference
    # plain tuples from a one-shot iterator are rows too
    ids = [f"s{i}" for i in range(n)]
    assert ood_metrics(zip(ids, scores.tolist(), is_id.tolist())) == reference


def test_auroc_flip_symmetry():
    # negating scores and swapping the groups preserves every ranking
    rng = np.random.default_rng(99)
    id_scores = rng.normal(size=20)
    ood_scores = rng.normal(size=15)
    direct = ood_metrics(_samples(id_scores, ood_scores)).auroc
    flipped = ood_metrics(_samples(-ood_scores, -id_scores)).auroc
    assert direct == pytest.approx(flipped, abs=1e-12)


def test_monotone_transform_invariance():
    rng = np.random.default_rng(7)
    id_scores = rng.normal(size=12)
    ood_scores = rng.normal(size=9)
    base = ood_metrics(_samples(id_scores, ood_scores))
    warped = ood_metrics(_samples(np.exp(id_scores), np.exp(ood_scores)))
    assert warped.auroc == pytest.approx(base.auroc, abs=1e-12)
    assert warped.fpr_at_95_tpr == pytest.approx(base.fpr_at_95_tpr, abs=1e-12)


def test_fpr_with_all_id_accepted():
    # threshold can sit below every OOD score
    report = ood_metrics(_samples([0.9, 0.85, 0.8], [0.95]))
    assert report.fpr_at_95_tpr == 1.0


def test_requires_both_groups():
    with pytest.raises(MissingClass):
        ood_metrics(_samples([0.5], []))
    with pytest.raises(MissingClass):
        ood_metrics(_samples([], [0.5]))
    with pytest.raises(EmptyInput):
        ood_metrics([])
    with pytest.raises(EmptyInput):
        ood_metrics(iter([]))


def test_nan_score_is_rejected_by_id():
    rows = [("a", 0.9, True), ("b", float("nan"), True), ("c", 0.5, False),
            ("d", float("nan"), True)]
    with pytest.raises(BadParameter, match="'b'"):
        ood_metrics(rows)


def test_nan_confidence_or_threshold_is_rejected_by_position():
    nan = float("nan")
    with pytest.raises(BadParameter, match="confidence 1 is NaN"):
        threshold_sweep([0.9, nan, 0.2, nan])
    with pytest.raises(BadParameter, match="threshold 2 is NaN"):
        threshold_sweep([0.9, 0.2], taus=(0.5, 0.7, nan))


def test_infinite_scores_are_ordered_and_tie():
    inf = float("inf")
    rows = [("a", inf, True), ("b", inf, False), ("c", 0.5, True), ("d", -inf, False)]
    report = ood_metrics(rows)
    # pairs (a,b) tie for half credit, (a,d) and (c,d) win, (c,b) loses
    assert report.auroc == 2.5 / 4
    # thresholds inf and 0.5 each add half the recall, at precision 1/2 and 2/3
    assert report.aupr_id == pytest.approx(0.5 * 0.5 + 0.5 * 2 / 3, abs=1e-15)
    assert report.fpr_at_95_tpr == 0.5


def test_scored_sample_is_a_row():
    sample = ScoredSample("a", 0.5, True)
    assert sample == ("a", 0.5, True)
    rec_id, score, is_id = sample
    assert (rec_id, score, is_id) == (sample.id, sample.score, sample.is_id)


def test_report_to_dict():
    d = asdict(ood_metrics(_samples([0.9], [0.1])))
    assert set(d) == {"auroc", "aupr_id", "fpr_at_95_tpr", "n_id", "n_ood"}


def test_default_taus():
    assert DEFAULT_TAUS == (0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 0.8)
    assert REFERENCE_TAU == 0.5


def test_sweep_hand_case():
    points = threshold_sweep([0.25, 0.45, 0.55, 0.75])
    by_tau = {p.tau: p for p in points}
    assert by_tau[0.2].coverage == 1.0
    assert by_tau[0.5].coverage == 0.5
    assert by_tau[0.8].coverage == 0.0
    assert by_tau[0.45].coverage == 0.75  # score >= tau keeps the sample


def test_sweep_exact_complement_and_monotone():
    rng = np.random.default_rng(21)
    for _ in range(50):
        conf = rng.random(size=rng.integers(1, 60))
        points = threshold_sweep(conf)
        coverages = [p.coverage for p in points]
        assert coverages == sorted(coverages, reverse=True)
        for p in points:
            # complement holds exactly in floating point, not just approximately
            assert p.coverage + p.rejection == 1.0
            assert p.reference == (p.tau == REFERENCE_TAU)


def test_sweep_requires_samples():
    with pytest.raises(EmptyInput):
        threshold_sweep([])


def test_sweep_custom_taus():
    points = threshold_sweep([0.5], taus=(0.1, 0.9))
    assert [p.tau for p in points] == [0.1, 0.9]
    assert all(not p.reference for p in points)

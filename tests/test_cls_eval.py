from dataclasses import asdict

import numpy as np
import pytest

from freshkit.cls_eval import accuracy, confusion, cross_entropy, prf_report
from freshkit.errors import (
    BadLabelIndex,
    BadParameter,
    EmptyBatch,
    LengthMismatch,
    RowNotNormalized,
)

# Frozen oracle value, computed once with mpmath at 50 significant digits:
#   -(ln 0.8 + ln 0.7) / 2 for probs [[0.8,0.2],[0.3,0.7]], labels [0,1]
CE_HAND = 0.28990924762647106734


def test_cross_entropy_frozen_value():
    probs = [[0.8, 0.2], [0.3, 0.7]]
    assert cross_entropy(probs, [0, 1]) == pytest.approx(CE_HAND, abs=1e-12)


def test_cross_entropy_perfect_prediction_is_exactly_zero():
    probs = [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    assert cross_entropy(probs, [0, 2]) == 0.0


def test_cross_entropy_positive_otherwise():
    rng = np.random.default_rng(17)
    for _ in range(30):
        raw = rng.random(size=(4, 3)) + 1e-3
        probs = raw / raw.sum(axis=1, keepdims=True)
        labels = rng.integers(0, 3, size=4)
        assert cross_entropy(probs, labels) > 0.0


def test_cross_entropy_is_linear_in_smoothing():
    """L(a) = (1-a) * L_onehot + a * L_uniform, testable without smoothing code."""
    rng = np.random.default_rng(23)
    raw = rng.random(size=(6, 4)) + 1e-3
    probs = raw / raw.sum(axis=1, keepdims=True)
    labels = rng.integers(0, 4, size=6)

    l_onehot = cross_entropy(probs, labels)
    logp = np.log(probs)
    l_uniform = float(-logp.mean(axis=1).mean())
    for alpha in (0.1, 0.3, 0.9):
        mixed = cross_entropy(probs, labels, label_smoothing=alpha)
        assert mixed == pytest.approx((1 - alpha) * l_onehot + alpha * l_uniform, abs=1e-12)


@pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5, float("nan"), float("inf")])
def test_cross_entropy_rejects_smoothing_outside_unit_interval(alpha):
    with pytest.raises(BadParameter):
        cross_entropy([[0.8, 0.2]], [0], label_smoothing=alpha)


def test_cross_entropy_rejects_unnormalized_rows():
    with pytest.raises(RowNotNormalized):
        cross_entropy([[0.5, 0.6]], [0])
    with pytest.raises(RowNotNormalized):
        cross_entropy([[1.2, -0.2]], [0])


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(BadLabelIndex):
        cross_entropy([[0.5, 0.5]], [2])


def test_confusion_hand_case():
    cm = confusion([0, 1, 1], [0, 0, 1], 2)
    assert cm.tolist() == [[1, 0], [1, 1]]
    assert cm.dtype == np.int64


def test_confusion_rows_are_true_labels():
    cm = confusion([0, 0, 0, 1], [1, 1, 0, 0], 2)
    assert cm.tolist() == [[1, 2], [1, 0]]
    assert cm.sum() == 4


def test_confusion_validation():
    with pytest.raises(LengthMismatch):
        confusion([0, 1], [0], 2)
    with pytest.raises(EmptyBatch):
        confusion([], [], 2)
    with pytest.raises(BadLabelIndex):
        confusion([0, 5], [0, 1], 2)


def test_confusion_keep_mask_drops_abstained():
    keep = [True, False, True]
    cm = confusion([0, 1, 1], [0, 0, 1], 2, keep=keep)
    assert cm.tolist() == [[1, 0], [0, 1]]


def test_accuracy_hand_case():
    assert accuracy([0, 1, 1], [0, 0, 1]) == pytest.approx(2 / 3, abs=1e-15)
    assert accuracy([0, 1], [0, 1]) == 1.0


def test_accuracy_with_keep_mask():
    # abstention-aware accuracy only counts kept samples
    got = accuracy([0, 1, 1], [0, 0, 1], keep=[True, False, True])
    assert got == 1.0


def test_prf_hand_case():
    cm = confusion([0, 1, 1], [0, 0, 1], 2)
    report = prf_report(cm)
    c0, c1 = report.per_class
    assert c0.precision == pytest.approx(0.5)
    assert c0.recall == pytest.approx(1.0)
    assert c0.f1 == pytest.approx(2 / 3)
    assert c0.support == 1
    assert c1.precision == pytest.approx(1.0)
    assert c1.recall == pytest.approx(0.5)
    assert c1.f1 == pytest.approx(2 / 3)
    assert c1.support == 2
    assert report.macro_precision == pytest.approx(0.75)
    assert report.macro_recall == pytest.approx(0.75)
    assert report.macro_f1 == pytest.approx(2 / 3)
    assert report.accuracy == pytest.approx(2 / 3)


def test_prf_zero_division_flagged_not_nan():
    # class 1 never predicted and never present: precision/recall defined as 0
    cm = np.array([[3, 0], [0, 0]], dtype=np.int64)
    report = prf_report(cm)
    c1 = report.per_class[1]
    assert c1.precision == 0.0
    assert c1.recall == 0.0
    assert c1.f1 == 0.0
    assert len(c1.zero_division) > 0
    assert report.per_class[0].zero_division == ()


def test_prf_report_to_dict():
    cm = confusion([0, 1], [0, 1], 2)
    d = asdict(prf_report(cm))
    assert d["accuracy"] == 1.0
    assert len(d["per_class"]) == 2
    assert d["per_class"][0]["f1"] == 1.0


def test_perfect_prediction_prf():
    cm = confusion([0, 1, 2, 0], [0, 1, 2, 0], 3)
    report = prf_report(cm)
    assert report.macro_f1 == 1.0
    assert report.accuracy == 1.0

from dataclasses import asdict

import numpy as np
import pytest

from freshkit.data_model import BinaryMask
from freshkit.errors import DimensionMismatch, EmptyInput
from freshkit.seg_eval import (
    METRIC_NAMES,
    MaskMetrics,
    MetricSummary,
    SegSummary,
    dataset_summary,
    mask_metrics,
)


def _mask(rows):
    return BinaryMask(np.array(rows, dtype=bool))


def test_hand_case_four_by_four():
    # prediction covers 4 pixels, truth covers 2, they overlap on 1
    pred = _mask([
        [1, 1, 0, 0],
        [1, 1, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ])
    gt = _mask([
        [1, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 0, 0, 0],
    ])
    m = mask_metrics(pred, gt)
    assert m.iou == pytest.approx(1 / 5, abs=1e-15)
    assert m.dice == pytest.approx(1 / 3, abs=1e-15)
    assert m.precision == pytest.approx(1 / 4, abs=1e-15)
    assert m.recall == pytest.approx(1 / 2, abs=1e-15)
    assert m.pixel_acc == pytest.approx(12 / 16, abs=1e-15)


def test_accepts_plain_arrays():
    pred = np.array([[True, False], [False, False]])
    gt = np.array([[True, True], [False, False]])
    m = mask_metrics(pred, gt)
    assert m.iou == pytest.approx(0.5)


def test_identical_masks_score_one():
    rng = np.random.default_rng(3)
    mask = rng.random((8, 8)) > 0.5
    m = mask_metrics(mask, mask)
    assert (m.iou, m.dice, m.precision, m.recall, m.pixel_acc) == (1.0, 1.0, 1.0, 1.0, 1.0)


def test_disjoint_masks_score_zero_overlap():
    pred = _mask([[1, 0], [0, 0]])
    gt = _mask([[0, 0], [0, 1]])
    m = mask_metrics(pred, gt)
    assert m.iou == 0.0
    assert m.dice == 0.0
    assert m.precision == 0.0
    assert m.recall == 0.0
    assert m.pixel_acc == pytest.approx(0.5)


def test_empty_conventions():
    empty = _mask([[0, 0], [0, 0]])
    full = _mask([[1, 1], [1, 1]])
    both = mask_metrics(empty, empty)
    # nothing predicted, nothing to find: counted as perfect, not undefined
    assert (both.iou, both.dice, both.precision, both.recall) == (1.0, 1.0, 1.0, 1.0)
    assert both.pixel_acc == 1.0

    # exactly one side empty scores 0.0 across the overlap metrics, keeping
    # them total without rewarding a mask that missed everything
    pred_empty = mask_metrics(empty, full)
    assert pred_empty.iou == 0.0
    assert pred_empty.dice == 0.0
    assert pred_empty.precision == 0.0
    assert pred_empty.recall == 0.0

    gt_empty = mask_metrics(full, empty)
    assert gt_empty.iou == 0.0
    assert gt_empty.dice == 0.0
    assert gt_empty.precision == 0.0
    assert gt_empty.recall == 0.0


def test_dice_iou_identity():
    rng = np.random.default_rng(11)
    for _ in range(200):
        pred = rng.random((6, 6)) > rng.random()
        gt = rng.random((6, 6)) > rng.random()
        m = mask_metrics(pred, gt)
        assert abs(m.dice - 2 * m.iou / (1 + m.iou)) < 1e-12


def test_shape_mismatch_rejected():
    with pytest.raises(DimensionMismatch):
        mask_metrics(np.zeros((2, 2), bool), np.zeros((3, 3), bool))


def test_metrics_as_array_order():
    m = MaskMetrics(iou=0.1, dice=0.2, precision=0.3, recall=0.4, pixel_acc=0.5)
    assert m.as_array().tolist() == [0.1, 0.2, 0.3, 0.4, 0.5]
    assert METRIC_NAMES == ("iou", "dice", "precision", "recall", "pixel_acc")
    assert set(asdict(m)) == set(METRIC_NAMES)


def _fake_metrics(rng, n):
    out = []
    for _ in range(n):
        vals = rng.uniform(0.5, 0.9, size=5)
        out.append(MaskMetrics(*vals.tolist()))
    return out


def test_summary_deterministic():
    rng = np.random.default_rng(5)
    per_image = _fake_metrics(rng, 30)
    a = dataset_summary(per_image, n_boot=500, seed=9)
    b = dataset_summary(per_image, n_boot=500, seed=9)
    assert a == b
    c = dataset_summary(per_image, n_boot=500, seed=10)
    assert a != c


def test_summary_brackets_mean():
    rng = np.random.default_rng(6)
    per_image = _fake_metrics(rng, 40)
    summary = dataset_summary(per_image, n_boot=1000, seed=1)
    assert summary.n_images == 40
    for name in METRIC_NAMES:
        s = summary.metrics[name]
        expected_mean = float(np.mean([getattr(m, name) for m in per_image]))
        assert s.mean == pytest.approx(expected_mean, abs=1e-12)
        assert s.ci_lo <= s.mean <= s.ci_hi


def test_summary_constant_values_zero_width():
    # 0.75 is exact in binary so the resampled means are all identical
    per_image = [MaskMetrics(0.75, 0.75, 0.75, 0.75, 0.75)] * 10
    summary = dataset_summary(per_image, n_boot=200, seed=2)
    for name in METRIC_NAMES:
        s = summary.metrics[name]
        assert s.ci_lo == s.ci_hi == s.mean == 0.75


def test_summary_ci_narrows_with_sample_size():
    """Bootstrap CI width for a mean shrinks like 1/sqrt(n)."""
    rng = np.random.default_rng(7)
    small = _fake_metrics(rng, 25)
    big = _fake_metrics(rng, 400)
    w_small = dataset_summary(small, n_boot=2000, seed=3).metrics["iou"]
    w_big = dataset_summary(big, n_boot=2000, seed=3).metrics["iou"]
    width_small = w_small.ci_hi - w_small.ci_lo
    width_big = w_big.ci_hi - w_big.ci_lo
    ratio = width_big / width_small  # expect about 1/4, allow slack
    assert ratio < 0.5


def _summary_one_draw(per_image, n_boot, seed):
    # reference: every replicate's indices from a single (n_boot, n) draw
    values = np.stack([m.as_array() for m in per_image])
    n = values.shape[0]
    idx = np.random.default_rng(seed).integers(0, n, size=(n_boot, n))
    lo, hi = np.percentile(values[idx].mean(axis=1), [2.5, 97.5], axis=0)
    means = values.mean(axis=0)
    return SegSummary(n, n_boot, seed, {
        name: MetricSummary(float(means[j]), float(lo[j]), float(hi[j]))
        for j, name in enumerate(METRIC_NAMES)
    })


@pytest.mark.parametrize("n, n_boot", [(1, 50), (37, 1000), (2000, 999), (2 ** 15 + 1, 7)])
def test_summary_blocks_equal_one_draw(n, n_boot):
    # blocks of max(1, 2**15 // n) replicates: at n = 2000 a block is 16, so
    # 999 ends in a partial one, and past 2**15 rows every block is one
    values = np.random.default_rng(n).uniform(0.0, 1.0, size=(n, 5))
    per_image = [MaskMetrics(*row) for row in values.tolist()]
    got = dataset_summary(per_image, n_boot=n_boot, seed=n + 3)
    assert got == _summary_one_draw(per_image, n_boot, n + 3)


def test_summary_draws_at_most_2_pow_15_indices_at_once(monkeypatch):
    # pins the memory bound of the block-wise draw without reading RSS
    n = 2000
    per_image = _fake_metrics(np.random.default_rng(11), n)
    draws = []

    class CountingGenerator(np.random.Generator):
        def integers(self, *args, size=None, **kwargs):
            draws.append(int(np.prod(size)))
            return super().integers(*args, size=size, **kwargs)

    monkeypatch.setattr(np.random, "default_rng",
                        lambda seed: CountingGenerator(np.random.PCG64(seed)))
    dataset_summary(per_image, n_boot=5000, seed=4)
    assert sum(draws) == 5000 * n
    assert max(draws) <= max(2 ** 15, n)


def test_summary_requires_images():
    with pytest.raises(EmptyInput):
        dataset_summary([])

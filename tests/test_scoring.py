import math

import numpy as np
import pytest

from freshkit.cli import ODIN_GRID_EPSILONS, ODIN_GRID_TEMPERATURES
from freshkit.errors import EmptyVector, NonPositiveTemperature
from freshkit.scoring import (
    OdinConfig,
    energy_score,
    msp_score,
    odin_score,
    softmax,
    stable_logsumexp,
)
from freshkit.tiny_model import init_model, forward

# Frozen oracle values, computed once with mpmath at 50 significant digits:
#   softmax([2,1,0,0]) max  = e^2 / (e^2 + e + 2)
#   energy([2,1,0,0], T=1)  = -ln(e^2 + e + 2)
MSP_2100 = 0.61029568541362319306
ENERGY_2100 = -2.4938117090722385157


def test_msp_frozen_value():
    assert msp_score([2.0, 1.0, 0.0, 0.0]) == pytest.approx(MSP_2100, abs=1e-12)


def test_energy_frozen_value():
    assert energy_score([2.0, 1.0, 0.0, 0.0]) == pytest.approx(ENERGY_2100, abs=1e-12)


def test_softmax_known_probs():
    # log-probabilities invert exactly up to float rounding
    probs = softmax(np.log([1.0, 2.0, 3.0, 4.0]))
    assert probs == pytest.approx([0.1, 0.2, 0.3, 0.4], abs=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    for _ in range(50):
        logits = rng.normal(scale=5.0, size=rng.integers(2, 12))
        p = softmax(logits)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p > 0.0)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=6)
    base = softmax(logits)
    shifted = softmax(logits + 123.456)
    assert shifted == pytest.approx(base, abs=1e-12)


def test_softmax_large_logits_do_not_overflow():
    p = softmax([1000.0, 0.0])
    assert math.isfinite(p[0]) and math.isfinite(p[1])
    assert p[0] == pytest.approx(1.0, abs=1e-12)


def test_softmax_temperature_flattens():
    logits = [3.0, 1.0, 0.0]
    sharp = softmax(logits, temperature=0.1)
    flat = softmax(logits, temperature=100.0)
    assert sharp.max() > softmax(logits).max() > flat.max()
    # very high temperature approaches uniform
    assert flat == pytest.approx([1 / 3] * 3, abs=1e-2)


def test_softmax_rejects_bad_temperature():
    with pytest.raises(NonPositiveTemperature):
        softmax([1.0, 2.0], temperature=0.0)
    with pytest.raises(NonPositiveTemperature):
        softmax([1.0, 2.0], temperature=-1.0)


def test_empty_logits_rejected():
    with pytest.raises(EmptyVector):
        softmax([])
    with pytest.raises(EmptyVector):
        msp_score([])
    with pytest.raises(EmptyVector):
        energy_score([])


def test_rows_must_be_nonempty_and_at_most_2d():
    for bad in (np.empty((0, 3)), np.empty((4, 0)), np.ones((2, 2, 2))):
        for fn in (softmax, stable_logsumexp, msp_score, energy_score):
            with pytest.raises(EmptyVector):
                fn(bad)


@pytest.mark.parametrize("n_classes", [1, 2, 4, 7, 8, 9, 16, 33])
def test_row_batches_equal_per_row_calls(n_classes):
    rows = np.random.default_rng(n_classes).normal(scale=4.0, size=(2000, n_classes))
    for t in (1.0, 2.5, 1000.0):
        assert np.array_equal(softmax(rows, t), np.stack([softmax(r, t) for r in rows]))
        assert np.array_equal(energy_score(rows, t), [energy_score(r, t) for r in rows])
    assert np.array_equal(stable_logsumexp(rows), [stable_logsumexp(r) for r in rows])
    assert np.array_equal(msp_score(rows), [msp_score(r) for r in rows])
    assert isinstance(msp_score(rows[0]), float)
    assert isinstance(energy_score(rows[0]), float)
    assert isinstance(stable_logsumexp(rows[0]), float)


def test_msp_bounds():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(2, 10))
        s = msp_score(rng.normal(scale=3.0, size=k))
        assert 1.0 / k <= s <= 1.0


def test_energy_temperature_identity():
    """energy(z, T) must equal -T * logsumexp(z / T) for arbitrary T."""
    rng = np.random.default_rng(5)
    logits = rng.normal(scale=2.0, size=7)
    for t in (0.5, 1.0, 2.0, 1000.0):
        expected = -t * stable_logsumexp(np.asarray(logits) / t)
        assert energy_score(logits, temperature=t) == pytest.approx(expected, abs=1e-12)


def test_energy_direction():
    # a confidently peaked logit vector has lower energy than a flat one,
    # so negated energy ranks the peaked (in-distribution-like) input higher
    peaked = energy_score([10.0, 0.0, 0.0, 0.0])
    flat = energy_score([0.0, 0.0, 0.0, 0.0])
    assert -peaked > -flat


def test_logsumexp_matches_naive_in_safe_range():
    rng = np.random.default_rng(9)
    v = rng.normal(size=20)
    assert stable_logsumexp(v) == pytest.approx(math.log(np.exp(v).sum()), abs=1e-12)


def test_odin_epsilon_zero_is_temperature_scaled_msp():
    model = init_model(4, 6, 3, seed=21)
    rng = np.random.default_rng(22)
    for _ in range(10):
        x = rng.normal(size=4)
        cfg = OdinConfig(temperature=1000.0, epsilon=0.0)
        expected = float(np.max(softmax(forward(model, x), temperature=1000.0)))
        assert odin_score(model, x, cfg) == expected


def test_odin_perturbation_raises_scaled_confidence():
    # the signed step subtracts the NLL gradient direction, which cannot
    # lower the temperature-scaled confidence to first order
    model = init_model(4, 8, 3, seed=33)
    rng = np.random.default_rng(34)
    raised = 0
    for _ in range(20):
        x = rng.normal(size=4)
        base = odin_score(model, x, OdinConfig(temperature=1000.0, epsilon=0.0))
        stepped = odin_score(model, x, OdinConfig(temperature=1000.0, epsilon=1e-3))
        if stepped >= base - 1e-12:
            raised += 1
    assert raised >= 18


def test_odin_score_bounds():
    model = init_model(3, 5, 4, seed=40)
    rng = np.random.default_rng(41)
    for _ in range(20):
        s = odin_score(model, rng.normal(size=3), OdinConfig(temperature=10.0, epsilon=0.002))
        assert 0.25 <= s <= 1.0


def test_odin_config_validation():
    with pytest.raises(NonPositiveTemperature):
        OdinConfig(temperature=0.0, epsilon=0.0)


@pytest.mark.parametrize("hidden", [8, 0])
@pytest.mark.parametrize("n", [1, 2000])
def test_batched_odin_equals_per_row_calls_on_the_grid(hidden, n):
    model = init_model(16, hidden, 4, seed=5)
    xs = np.random.default_rng(6).normal(0.0, 2.0, (n, 16))
    for temperature in ODIN_GRID_TEMPERATURES:
        for epsilon in ODIN_GRID_EPSILONS:
            cfg = OdinConfig(temperature, epsilon)
            batched = odin_score(model, xs, cfg)
            assert batched.shape == (n,) and batched.dtype == np.float64
            assert np.array_equal(batched, [odin_score(model, x, cfg) for x in xs])

"""Confidence scores for abstention and OOD screening.

Three scores over raw logits: maximum softmax probability, the energy
score, and the ODIN score (temperature scaling plus a one-step input
perturbation, which needs a differentiable model rather than bare logits).
All arithmetic is float64.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyVector, NonPositiveTemperature
from .tiny_model import TinyClassifier, forward_rows, nll_input_gradient

__all__ = [
    "stable_logsumexp",
    "softmax",
    "msp_score",
    "energy_score",
    "OdinConfig",
    "odin_score",
]


def _as_rows(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in (1, 2) or arr.size == 0:
        raise EmptyVector(f"expected a nonempty (C,) or (N, C) array, got shape {arr.shape}")
    return arr


def stable_logsumexp(values) -> float | np.ndarray:
    """log(sum(exp(v))) over the last axis with the max shifted out, exact
    for single elements. (C,) gives a float, (N, C) an (N,) array."""
    arr = _as_rows(values)
    m = arr.max(axis=-1, keepdims=True)
    out = (m + np.log(np.exp(arr - m).sum(axis=-1, keepdims=True)))[..., 0]
    return float(out) if arr.ndim == 1 else out


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """softmax(logits / T) over the last axis; strictly positive, rows sum to 1."""
    if temperature <= 0.0:
        raise NonPositiveTemperature(f"temperature {temperature} must be > 0")
    arr = _as_rows(logits) / temperature
    shifted = np.exp(arr - arr.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def msp_score(logits) -> float | np.ndarray:
    """Maximum softmax probability at temperature 1; in (0, 1]. One per row."""
    scores = softmax(logits).max(axis=-1)
    return float(scores) if scores.ndim == 0 else scores


def energy_score(logits, temperature: float = 1.0) -> float | np.ndarray:
    """-T * logsumexp(logits / T), one per row. Smaller means more in-distribution.

    Detectors that want larger-is-more-ID should negate this value.
    """
    if temperature <= 0.0:
        raise NonPositiveTemperature(f"temperature {temperature} must be > 0")
    return -temperature * stable_logsumexp(_as_rows(logits) / temperature)


@dataclass(frozen=True)
class OdinConfig:
    """Temperature and input perturbation magnitude."""

    temperature: float = 1000.0
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if self.temperature <= 0.0:
            raise NonPositiveTemperature(f"temperature {self.temperature} must be > 0")


def odin_score(model: TinyClassifier, x, config: OdinConfig) -> float | np.ndarray:
    """Max temperature-scaled softmax after nudging x toward higher confidence.

    The input moves one signed step of size epsilon against the gradient of
    the temperature-scaled NLL at the predicted class. With epsilon 0 this
    is exactly msp of the temperature-scaled logits.

    One sample (D,) gives a float. A batch (N, D) is scored in one pass and
    gives an (N,) float64 array whose entry i is bit-identical to the
    one-sample score of row i.
    """
    xs = np.asarray(x, dtype=np.float64)
    logits = forward_rows(model, xs)
    if config.epsilon != 0.0:
        grad = nll_input_gradient(model, xs, logits.argmax(axis=1), config.temperature)
        logits = forward_rows(model, xs - config.epsilon * np.sign(grad))
    scores = softmax(logits, config.temperature).max(axis=-1)
    return float(scores[0]) if xs.ndim == 1 else scores

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


def _as_vector(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyVector(f"expected a nonempty 1-D vector, got shape {arr.shape}")
    return arr


def stable_logsumexp(values) -> float:
    """log(sum(exp(v))) with the max shifted out, exact for single elements."""
    arr = _as_vector(values)
    m = arr.max()
    return float(m + np.log(np.exp(arr - m).sum()))


def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """softmax(logits / T); strictly positive, sums to 1."""
    if temperature <= 0.0:
        raise NonPositiveTemperature(f"temperature {temperature} must be > 0")
    arr = _as_vector(logits) / temperature
    shifted = np.exp(arr - arr.max())
    return shifted / shifted.sum()


def msp_score(logits) -> float:
    """Maximum softmax probability at temperature 1; in (0, 1]."""
    return float(softmax(logits).max())


def energy_score(logits, temperature: float = 1.0) -> float:
    """-T * logsumexp(logits / T). Smaller means more in-distribution.

    Detectors that want larger-is-more-ID should negate this value.
    """
    if temperature <= 0.0:
        raise NonPositiveTemperature(f"temperature {temperature} must be > 0")
    arr = _as_vector(logits)
    return float(-temperature * stable_logsumexp(arr / temperature))


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
    scaled = logits / config.temperature
    shifted = np.exp(scaled - scaled.max(axis=1, keepdims=True))
    scores = (shifted / shifted.sum(axis=1, keepdims=True)).max(axis=1)
    return float(scores[0]) if xs.ndim == 1 else scores

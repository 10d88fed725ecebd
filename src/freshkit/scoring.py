"""Confidence scores for abstention and OOD screening.

Three scores over raw logits: maximum softmax probability, the energy
score, and the ODIN score (temperature scaling plus a one-step input
perturbation, which needs a differentiable model rather than bare logits).
All arithmetic is float64. A temperature small enough to overflow the
scaled logits gives non-finite scores without a numpy warning; callers
that need finite scores check them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tiny_model  # only odin_score reads it, so only odin runs execute it
from .data_model import as_rows, stable_logsumexp
from .errors import BadParameter, NonPositiveTemperature

__all__ = [
    "stable_logsumexp",
    "softmax",
    "msp_score",
    "energy_score",
    "OdinConfig",
    "odin_score",
]


@np.errstate(over="ignore", invalid="ignore")
def softmax(logits, temperature: float = 1.0) -> np.ndarray:
    """softmax(logits / T) over the last axis; strictly positive, rows sum to 1."""
    if not temperature > 0.0:  # also rejects nan
        raise NonPositiveTemperature(f"temperature {temperature} must be > 0")
    arr = as_rows(logits) / temperature
    shifted = np.exp(arr - arr.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def msp_score(logits) -> float | np.ndarray:
    """Maximum softmax probability at temperature 1; in (0, 1]. One per row."""
    scores = softmax(logits).max(axis=-1)
    return float(scores) if scores.ndim == 0 else scores


@np.errstate(over="ignore", invalid="ignore")
def energy_score(logits, temperature: float = 1.0) -> float | np.ndarray:
    """-T * logsumexp(logits / T), one per row. Smaller means more in-distribution.

    Detectors that want larger-is-more-ID should negate this value.
    """
    if not temperature > 0.0:  # also rejects nan
        raise NonPositiveTemperature(f"temperature {temperature} must be > 0")
    return -temperature * stable_logsumexp(as_rows(logits) / temperature)


@dataclass(frozen=True)
class OdinConfig:
    """Temperature and input perturbation magnitude."""

    temperature: float = 1000.0
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not self.temperature > 0.0:  # also rejects nan
            raise NonPositiveTemperature(f"temperature {self.temperature} must be > 0")
        if not 0.0 <= self.epsilon < np.inf:  # also rejects nan
            raise BadParameter(f"epsilon {self.epsilon} must be finite and >= 0")


@np.errstate(over="ignore", invalid="ignore")
def odin_score(model: tiny_model.TinyClassifier, x, config: OdinConfig) -> float | np.ndarray:
    """Max temperature-scaled softmax after nudging x toward higher confidence.

    The input moves one signed step of size epsilon against the gradient of
    the temperature-scaled NLL at the predicted class. With epsilon 0 this
    is exactly msp of the temperature-scaled logits.

    One sample (D,) gives a float. A batch (N, D) is scored in one pass and
    gives an (N,) float64 array whose entry i is bit-identical to the
    one-sample score of row i.
    """
    xs = np.asarray(x, dtype=np.float64)
    logits = tiny_model.forward_rows(model, xs)
    if config.epsilon != 0.0:
        grad = tiny_model.nll_input_gradient(model, xs, logits.argmax(axis=1), config.temperature)
        logits = tiny_model.forward_rows(model, xs - config.epsilon * np.sign(grad))
    scores = softmax(logits, config.temperature).max(axis=-1)
    return float(scores[0]) if xs.ndim == 1 else scores

"""A tiny differentiable classifier with exact analytic gradients.

The network is either a bare linear map (hidden_dim == 0) or one tanh hidden
layer. It exists so gradient-based procedures (ODIN perturbation, SGD
training, the nested CV search) run in seconds on synthetic data while the
gradients stay simple enough to check against finite differences.

Parameter groups: the backbone is the input->hidden block (w_in, b_in), the
head is the output block (w_out, b_out). A linear model has an empty
backbone. Group learning rates scale both the gradient step and the
decoupled weight decay, so a zero learning rate freezes its group exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (
    BadLabelIndex,
    BadTrainConfig,
    DimensionMismatch,
    EmptyDataset,
    MalformedModel,
)

__all__ = [
    "TinyClassifier",
    "TrainConfig",
    "ParamGrads",
    "GradResult",
    "EpochStats",
    "init_model",
    "forward",
    "forward_rows",
    "smooth_targets",
    "mixup",
    "grads",
    "grads_from_targets",
    "nll_input_gradient",
    "train",
    "model_to_json",
    "model_from_json",
    "load_model",
    "save_model",
    "derive_seed",
]


@dataclass(frozen=True, eq=False)
class TinyClassifier:
    """Parameters of a linear or one-hidden-layer tanh network."""

    w_in: np.ndarray   # (H, D); (0, D) when there is no hidden layer
    b_in: np.ndarray   # (H,)
    w_out: np.ndarray  # (C, H) or (C, D) when H == 0
    b_out: np.ndarray  # (C,)

    def __post_init__(self) -> None:
        w_in = np.asarray(self.w_in, dtype=np.float64)
        b_in = np.asarray(self.b_in, dtype=np.float64)
        w_out = np.asarray(self.w_out, dtype=np.float64)
        b_out = np.asarray(self.b_out, dtype=np.float64)
        if w_in.ndim != 2 or b_in.ndim != 1 or w_out.ndim != 2 or b_out.ndim != 1:
            raise DimensionMismatch("parameter arrays have wrong rank")
        hidden = w_in.shape[0]
        if b_in.shape[0] != hidden or w_out.shape[1] != (hidden if hidden else w_in.shape[1]):
            raise DimensionMismatch("parameter shapes are inconsistent")
        if w_out.shape[0] != b_out.shape[0] or w_out.shape[0] < 1:
            raise DimensionMismatch("head shapes are inconsistent")
        for name, arr in (("w_in", w_in), ("b_in", b_in), ("w_out", w_out), ("b_out", b_out)):
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def input_dim(self) -> int:
        return self.w_in.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w_in.shape[0]

    @property
    def n_classes(self) -> int:
        return self.w_out.shape[0]


class ParamGrads(NamedTuple):
    w_in: np.ndarray
    b_in: np.ndarray
    w_out: np.ndarray
    b_out: np.ndarray


class GradResult(NamedTuple):
    loss: float
    params: ParamGrads
    inputs: np.ndarray


@dataclass(frozen=True)
class EpochStats:
    loss: float
    accuracy: float


@dataclass(frozen=True)
class TrainConfig:
    """Plain SGD settings; decoupled weight decay skips biases."""

    epochs: int = 30
    batch_size: int = 32
    head_lr: float = 1e-3
    backbone_lr: float = 0.0
    weight_decay: float = 0.0
    label_smoothing: float = 0.0
    mixup_alpha: float = 0.0
    seed: int = 42

    def __post_init__(self) -> None:
        rates = (self.head_lr, self.backbone_lr, self.weight_decay, self.mixup_alpha)
        if (self.epochs < 0 or self.batch_size < 1 or not 0.0 <= self.label_smoothing < 1.0
                or not all(math.isfinite(r) and r >= 0.0 for r in rates)):
            raise BadTrainConfig(f"need epochs >= 0, batch_size >= 1, finite rates >= 0 "
                                 f"and label_smoothing in [0, 1); got {self}")


def derive_seed(*parts: int) -> int:
    """Fold integer parts into one 64-bit seed, stable across runs.

    The part count is mixed in first: SeedSequence pads entropy with zeros,
    so without it (1,) and (1, 0) would collide.
    """
    state = np.random.SeedSequence([len(parts), *parts]).generate_state(2, dtype=np.uint32)
    return int(state[0]) << 32 | int(state[1])


def init_model(input_dim: int, hidden_dim: int, n_classes: int, seed: int) -> TinyClassifier:
    """Random init: weights N(0, 1/fan_in), biases zero."""
    if input_dim < 1 or n_classes < 1 or hidden_dim < 0:
        raise DimensionMismatch(
            f"bad architecture ({input_dim}, {hidden_dim}, {n_classes})"
        )
    rng = np.random.default_rng(seed)
    w_in = rng.normal(0.0, 1.0 / np.sqrt(input_dim), size=(hidden_dim, input_dim))
    b_in = np.zeros(hidden_dim)
    fan = hidden_dim if hidden_dim else input_dim
    w_out = rng.normal(0.0, 1.0 / np.sqrt(fan), size=(n_classes, fan))
    b_out = np.zeros(n_classes)
    return TinyClassifier(w_in, b_in, w_out, b_out)


def _as_batch(x: np.ndarray, input_dim: int) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != input_dim:
        raise DimensionMismatch(f"inputs have shape {np.shape(x)}, expected (*, {input_dim})")
    return arr, single


def _forward(params: tuple, xs: np.ndarray) -> tuple[np.ndarray | None, np.ndarray]:
    """(hidden, logits) of a batch under raw (w_in, b_in, w_out, b_out) arrays;
    hidden is None for the linear model.

    xs is (N, D), or (N, 1, D) to evaluate every row as its own one-row
    product, which rounds exactly as a one-sample call does.
    """
    w_in, b_in, w_out, b_out = params
    if w_in.shape[0]:
        hidden = np.tanh(xs @ w_in.T + b_in)
        return hidden, hidden @ w_out.T + b_out
    return None, xs @ w_out.T + b_out


def _backward(params: tuple, hidden: np.ndarray | None, dlogits: np.ndarray,
              xs: np.ndarray | None = None) -> tuple[ParamGrads | None, np.ndarray]:
    """(parameter gradients, input gradient) from the gradient wrt the logits.

    The parameter gradients need the batch inputs xs; without them they are
    None, which keeps the one-sample ODIN step free of work it would discard.
    """
    w_in, b_in, w_out, _ = params
    dx = dlogits @ w_out
    if hidden is not None:  # back through the tanh layer
        dpre = dx * (1.0 - hidden * hidden)
        dx = dpre @ w_in
    if xs is None:
        return None, dx
    if hidden is None:
        return ParamGrads(np.zeros_like(w_in), np.zeros_like(b_in), dlogits.T @ xs,
                          dlogits.sum(axis=0)), dx
    return ParamGrads(dpre.T @ xs, dpre.sum(axis=0), dlogits.T @ hidden,
                      dlogits.sum(axis=0)), dx


def forward(model: TinyClassifier, x: np.ndarray) -> np.ndarray:
    """Logits for one sample (D,) -> (C,) or a batch (N, D) -> (N, C)."""
    xs, single = _as_batch(x, model.input_dim)
    logits = _forward((model.w_in, model.b_in, model.w_out, model.b_out), xs)[1]
    return logits[0] if single else logits


def forward_rows(model: TinyClassifier, xs: np.ndarray) -> np.ndarray:
    """Logits (N, C) of a batch (N, D), row i bit-identical to forward(model, xs[i]).

    A batched gemm may round the output layer differently from the one-row
    product, so per-sample procedures (ODIN) use this instead of forward.
    """
    xs, _ = _as_batch(xs, model.input_dim)
    return _forward((model.w_in, model.b_in, model.w_out, model.b_out), xs[:, None, :])[1][:, 0]


def _smoothed(labels, n_classes: int, alpha: float) -> np.ndarray:
    """(N, C) rows of (1 - alpha) * onehot + alpha / C, one per label."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "iu":
        raise BadLabelIndex(f"labels must be a 1-D integer array, got {labels.dtype} "
                            f"of shape {labels.shape}")
    bad = (labels < 0) | (labels >= n_classes)
    if bad.any():
        raise BadLabelIndex(f"label {int(labels[bad][0])} outside [0, {n_classes})")
    targets = np.full((labels.size, n_classes), alpha / n_classes)
    targets[np.arange(labels.size), labels] += 1.0 - alpha
    return targets


def smooth_targets(label: int, n_classes: int, alpha: float) -> np.ndarray:
    """(1 - alpha) * onehot + alpha / C."""
    return _smoothed([label], n_classes, alpha)[0]


def mixup(x1: np.ndarray, t1: np.ndarray, x2: np.ndarray, t2: np.ndarray,
          lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Convex combination of two (input, target) pairs with weight lam on the first."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    t1 = np.asarray(t1, dtype=np.float64)
    t2 = np.asarray(t2, dtype=np.float64)
    if x1.shape != x2.shape or t1.shape != t2.shape:
        raise DimensionMismatch("mixup operands must share shapes")
    return lam * x1 + (1.0 - lam) * x2, lam * t1 + (1.0 - lam) * t2


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _mean_nll(logp: np.ndarray, targets: np.ndarray) -> float:
    return float(-(targets * logp).sum() / logp.shape[0])


def _grads(params: tuple, xs: np.ndarray, targets: np.ndarray) -> GradResult:
    hidden, logits = _forward(params, xs)
    logp = _log_softmax(logits)
    param_grads, dx = _backward(params, hidden, (np.exp(logp) - targets) / xs.shape[0], xs)
    return GradResult(_mean_nll(logp, targets), param_grads, dx)


def grads_from_targets(model: TinyClassifier, xs: np.ndarray,
                       targets: np.ndarray) -> GradResult:
    """Exact gradients of the mean cross-entropy against target distributions.

    Returns the loss, parameter gradients shaped like the model, and the
    gradient with respect to every input row.
    """
    xs = np.asarray(xs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise EmptyDataset("need at least one sample")
    if targets.shape != (xs.shape[0], model.n_classes):
        raise DimensionMismatch(
            f"targets shape {targets.shape}, expected ({xs.shape[0]}, {model.n_classes})"
        )
    return _grads((model.w_in, model.b_in, model.w_out, model.b_out), xs, targets)


def grads(model: TinyClassifier, xs: np.ndarray, labels: np.ndarray,
          label_smoothing: float = 0.0) -> GradResult:
    """grads_from_targets with smoothed one-hot targets built from labels."""
    return grads_from_targets(model, xs, _smoothed(labels, model.n_classes, label_smoothing))


def nll_input_gradient(model: TinyClassifier, x: np.ndarray, label: int | np.ndarray,
                       temperature: float = 1.0) -> np.ndarray:
    """Gradient wrt x of -log softmax(f(x)/T)[label].

    One sample (D,) with an integer label gives (D,). A batch (N, D) with one
    label per row gives (N, D), row i bit-identical to the one-sample call on
    row i.
    """
    xs, single = _as_batch(x, model.input_dim)
    onehot = _smoothed(np.reshape(label, -1), model.n_classes, 0.0)
    if onehot.shape[0] != xs.shape[0]:
        raise DimensionMismatch(f"{onehot.shape[0]} labels for {xs.shape[0]} inputs")
    params = (model.w_in, model.b_in, model.w_out, model.b_out)
    hidden, logits = _forward(params, xs[:, None, :])
    dlogits = (np.exp(_log_softmax(logits / temperature)) - onehot[:, None, :]) / temperature
    dx = _backward(params, hidden, dlogits)[1][:, 0]
    return dx[0] if single else dx


def train(model: TinyClassifier, xs: np.ndarray, labels: np.ndarray,
          config: TrainConfig) -> tuple[TinyClassifier, list[EpochStats]]:
    """Plain SGD over shuffled mini-batches; returns the model and a per-epoch trace.

    The trace entry for an epoch is the full-dataset smoothed loss and
    accuracy after that epoch's updates. Both learning rates at zero leave
    the parameters bit-identical. Identical seed, config, and data give a
    bit-identical model.
    """
    xs = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels)
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise EmptyDataset("training needs at least one sample")
    if labels.shape != (xs.shape[0],):
        raise DimensionMismatch("labels must be one per sample")
    n = xs.shape[0]
    targets = _smoothed(labels, model.n_classes, config.label_smoothing)
    rng = np.random.default_rng(config.seed)
    params = tuple(p.copy() for p in (model.w_in, model.b_in, model.w_out, model.b_out))
    w_in, b_in, w_out, b_out = params
    trace: list[EpochStats] = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start:start + config.batch_size]
            xb = xs[idx]
            tb = targets[idx]
            if config.mixup_alpha > 0.0:
                lam = float(rng.beta(config.mixup_alpha, config.mixup_alpha))
                pair = rng.permutation(len(idx))
                xb, tb = mixup(xb, tb, xb[pair], tb[pair], lam)
            g = _grads(params, xb, tb).params
            # group lr scales the decay too, so lr 0 freezes the group exactly
            if config.backbone_lr != 0.0 and model.hidden_dim:
                w_in -= config.backbone_lr * (g.w_in + config.weight_decay * w_in)
                b_in -= config.backbone_lr * g.b_in
            if config.head_lr != 0.0:
                w_out -= config.head_lr * (g.w_out + config.weight_decay * w_out)
                b_out -= config.head_lr * g.b_out
        logits = _forward(params, xs)[1]
        trace.append(EpochStats(_mean_nll(_log_softmax(logits), targets),
                                float((logits.argmax(axis=1) == labels).mean())))
    return TinyClassifier(*params), trace


# --- serialization ----------------------------------------------------------

def model_to_json(model: TinyClassifier) -> str:
    """Flat JSON: dims plus one parameter list (w_in, b_in, w_out, b_out order)."""
    flat = np.concatenate([
        model.w_in.ravel(), model.b_in, model.w_out.ravel(), model.b_out,
    ])
    payload = {
        "input_dim": model.input_dim,
        "hidden_dim": model.hidden_dim,
        "n_classes": model.n_classes,
        "params": flat.tolist(),
    }
    return json.dumps(payload)


def model_from_json(text: str) -> TinyClassifier:
    """Inverse of model_to_json; any other content raises MalformedModel."""
    try:
        payload = json.loads(text)
        d = int(payload["input_dim"])
        h = int(payload["hidden_dim"])
        c = int(payload["n_classes"])
        flat = np.asarray(payload["params"], dtype=np.float64)
    except (ValueError, TypeError, KeyError, OverflowError) as exc:
        raise MalformedModel(f"not a model JSON object ({type(exc).__name__}: {exc})") from None
    if d < 1 or h < 0 or c < 1:
        raise MalformedModel(f"bad architecture ({d}, {h}, {c})")
    expected = h * d + h + c * (h if h else d) + c
    if flat.shape != (expected,):
        raise MalformedModel(f"got {flat.size} params, expected {expected}")
    if not np.isfinite(flat).all():
        raise MalformedModel("params are not all finite")
    pos = 0
    w_in = flat[pos:pos + h * d].reshape(h, d); pos += h * d
    b_in = flat[pos:pos + h]; pos += h
    width = h if h else d
    w_out = flat[pos:pos + c * width].reshape(c, width); pos += c * width
    b_out = flat[pos:pos + c]
    return TinyClassifier(w_in, b_in, w_out, b_out)


def load_model(path: str | Path) -> TinyClassifier:
    """Read a file written by save_model; errors name the path."""
    try:
        return model_from_json(Path(path).read_text())
    except (MalformedModel, UnicodeDecodeError) as exc:
        raise MalformedModel(f"{path}: {exc}") from None


def save_model(path: str | Path, model: TinyClassifier) -> None:
    Path(path).write_text(model_to_json(model))

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

from .data_model import read_utf8
from .errors import (
    BadLabelIndex,
    BadTrainConfig,
    DimensionMismatch,
    EmptyDataset,
    MalformedModel,
    TrainingDiverged,
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
    "grads",
    "grads_from_targets",
    "nll_input_gradient",
    "Stream",
    "train",
    "train_streams",
    "forward_stack",
    "unstack",
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
    product, which rounds exactly as a one-sample call does. Parameters
    stacked as (G, ., .) with (G, 1, .) biases give (G, N, .) outputs.
    """
    w_in, b_in, w_out, b_out = params
    if w_in.shape[-2]:
        hidden = np.tanh(xs @ w_in.mT + b_in)
        return hidden, hidden @ w_out.mT + b_out
    return None, xs @ w_out.mT + b_out


def _layer_grads(delta: np.ndarray, inputs: np.ndarray,
                 bias: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(weight, bias) gradients of a dense layer from the gradient wrt its outputs,
    over (N, .) rows or (G, N, .) stacks; the bias one is shaped like bias."""
    return delta.mT @ inputs, delta.sum(axis=-2, keepdims=True).reshape(bias.shape)


def _tanh_delta(dlogits: np.ndarray, w_out: np.ndarray, hidden: np.ndarray) -> np.ndarray:
    """Gradient wrt the hidden layer's pre-activations from the one wrt the logits."""
    return (dlogits @ w_out) * (1.0 - hidden * hidden)


def _backward(params: tuple, hidden: np.ndarray | None, dlogits: np.ndarray,
              xs: np.ndarray | None = None) -> tuple[ParamGrads | None, np.ndarray]:
    """(parameter gradients, input gradient) from the gradient wrt the logits.

    The parameter gradients need the batch inputs xs; without them they are
    None, which keeps the one-sample ODIN step free of work it would discard.
    """
    w_in, b_in, w_out, b_out = params
    if hidden is None:
        dx = dlogits @ w_out
        if xs is None:
            return None, dx
        return ParamGrads(np.zeros_like(w_in), np.zeros_like(b_in),
                          *_layer_grads(dlogits, xs, b_out)), dx
    dpre = _tanh_delta(dlogits, w_out, hidden)
    dx = dpre @ w_in
    if xs is None:
        return None, dx
    return ParamGrads(*_layer_grads(dpre, xs, b_in), *_layer_grads(dlogits, hidden, b_out)), dx


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


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    # a max is exact in any reduction order, so reducing with the class axis
    # outermost gives the same shift while numpy compares whole rows at once
    # rather than a few classes per inner loop
    shifted = logits - np.ascontiguousarray(logits.T).max(axis=0).T[..., None]
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


class Stream(NamedTuple):
    """One initialization trained on its own rows under one or more configs.

    The configs share the stream's batches, so they must agree on epochs,
    batch_size, seed and mixup_alpha.
    """

    model: TinyClassifier
    xs: np.ndarray
    labels: np.ndarray
    configs: tuple[TrainConfig, ...]


def _require_shared(what: str, items, fields) -> None:
    for item in items[1:]:
        for field in fields:
            first, other = getattr(items[0], field), getattr(item, field)
            if other != first:
                raise BadTrainConfig(f"{what} trained together must share {field}; "
                                     f"got {first!r} and {other!r}")


def _checked(stream) -> Stream:
    model, xs, labels, configs = stream
    xs = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels)
    if xs.ndim != 2 or xs.shape[0] < 1:
        raise EmptyDataset("training needs at least one sample")
    if xs.shape[1] != model.input_dim:
        raise DimensionMismatch(f"inputs have {xs.shape[1]} features, "
                                f"the model takes {model.input_dim}")
    if labels.shape != (xs.shape[0],):
        raise DimensionMismatch("labels must be one per sample")
    configs = tuple(configs)
    if not configs:
        raise BadTrainConfig("need at least one config to train")
    _require_shared("configs", configs, ("epochs", "batch_size", "seed", "mixup_alpha"))
    return Stream(model, xs, labels, configs)


_ALL = slice(None)  # a step whose slices all move


def _sgd(streams):
    """Plain SGD of several streams at once, one stacked slice per (stream, config).

    Parameters are stacked along a leading slice axis, with biases shaped
    (G, 1, .). Streams must share epochs, batch size and architecture. Each
    has its own initial model, rows, labels, batch seed and mixup alpha, and
    each of its configs its own learning rates, weight decay and label
    smoothing. Every epoch, each stream draws its own row order, and per
    batch its own mixup weight and pair, from its own generator.

    The slices are laid out with the streams sorted by size, so at every
    batch index the streams whose batch has one length hold one contiguous
    range of slices and step together; ragged epoch tails step as separate
    length groups. numpy runs a stacked matmul as one 2-D product per slice,
    so each slice is bit-identical to training its stream alone.

    The first yield is the stacked list [w_in, b_in, w_out, b_out]; it is
    updated in place and yielded again after each epoch. Once training ends
    its slices are put in given order, and exhausting the generator raises
    TrainingDiverged, naming the first config in that order whose
    parameters are not all finite.
    """
    given = [_checked(s) for s in streams]
    if not given:
        raise BadTrainConfig("need at least one stream to train")
    _require_shared("streams", [s.configs[0] for s in given], ("epochs", "batch_size"))
    _require_shared("streams", [s.model for s in given],
                    ("input_dim", "hidden_dim", "n_classes"))
    order = sorted(range(len(given)), key=lambda s: given[s].labels.size)
    runs = [given[s] for s in order]
    counts = [len(run.configs) for run in runs]
    ends = np.cumsum(counts)
    run_of = np.repeat(np.arange(len(runs)), counts)  # the run of each slice
    configs = [c for run in runs for c in run.configs]
    sizes = np.array([run.labels.size for run in runs])
    n, dims = int(sizes[-1]), runs[0].model
    epochs, batch = configs[0].epochs, configs[0].batch_size

    # rows and targets padded to the largest stream; no batch reaches the padding
    xs = np.zeros((len(runs), n, dims.input_dim))
    for r, run in enumerate(runs):
        xs[r, :sizes[r]] = run.xs
    targets = np.zeros((len(configs), n, dims.n_classes))
    for g, config in enumerate(configs):
        run = runs[run_of[g]]
        targets[g, :run.labels.size] = _smoothed(run.labels, dims.n_classes,
                                                 config.label_smoothing)
    inits = [run.model for run in runs for _ in run.configs]
    params = [np.stack([m.w_in for m in inits]), np.stack([m.b_in[None] for m in inits]),
              np.stack([m.w_out for m in inits]), np.stack([m.b_out[None] for m in inits])]
    head_lr = np.array([c.head_lr for c in configs])[:, None, None]
    backbone_lr = np.array([c.backbone_lr for c in configs])[:, None, None]
    decay = np.array([c.weight_decay for c in configs])[:, None, None]

    def rates(lr: np.ndarray, a: int, b: int):
        """(lr, decay, moving slices) of one group on slices a:b, or None
        when its lr is 0 on all of them."""
        live = np.flatnonzero(lr[a:b])
        if not live.size:
            return None
        return lr[a:b], decay[a:b], _ALL if live.size == b - a else live

    plan = []  # the steps of one epoch, the same in every epoch
    for lo in range(0, n, batch):
        lengths = np.clip(sizes - lo, 0, batch)
        for length in np.unique(lengths[lengths > 0]).tolist():
            members = np.flatnonzero(lengths == length)
            a, b = int(ends[members[0]] - counts[members[0]]), int(ends[members[-1]])
            backbone = rates(backbone_lr, a, b) if dims.hidden_dim else None
            head = rates(head_lr, a, b)
            if backbone or head:  # a step that moves no slice changes nothing
                plan.append((slice(a, b), slice(lo, lo + length), length,
                             [p[a:b] for p in params], backbone, head))

    rngs = [np.random.default_rng(run.configs[0].seed) for run in runs]
    alphas = [run.configs[0].mixup_alpha for run in runs]
    mixing = np.flatnonzero(np.array(alphas) > 0.0)
    mixed = np.flatnonzero(np.isin(run_of, mixing))  # the slices of mixing runs
    all_runs = np.arange(len(runs))[:, None]
    all_slices = np.arange(len(configs))[:, None]
    yield params
    for _ in range(epochs):
        local = np.tile(np.arange(n), (len(runs), 1))  # padding rows stay put
        mate = local.copy()
        lam = np.ones((len(runs), n, 1))
        for r, rng in enumerate(rngs):
            size = int(sizes[r])
            local[r, :size] = rng.permutation(size)
            if alphas[r] > 0.0:
                for lo in range(0, size, batch):
                    hi = min(lo + batch, size)
                    lam[r, lo:hi] = rng.beta(alphas[r], alphas[r])
                    mate[r, lo:hi] = lo + rng.permutation(hi - lo)
        with np.errstate(over="ignore", invalid="ignore"):
            # each stream's rows and targets in epoch order, gathered once so
            # that every batch is a view; mixup pairs rows within a batch
            x_epoch = xs[all_runs, local]
            t_epoch = targets[all_slices, local[run_of]]
            if mixing.size:
                partner = np.take_along_axis(local, mate, axis=1)
                w = lam[mixing]
                x_epoch[mixing] = (w * x_epoch[mixing]
                                   + (1.0 - w) * xs[mixing[:, None], partner[mixing]])
                w = lam[run_of[mixed]]
                t_epoch[mixed] = (w * t_epoch[mixed] + (1.0 - w)
                                  * targets[mixed[:, None], partner[run_of[mixed]]])
            x_epoch = x_epoch[run_of]
            for slices, rows, length, group, backbone, head in plan:
                xb = x_epoch[slices, rows]
                hidden, logits = _forward(group, xb)
                dlogits = (np.exp(_log_softmax(logits)) - t_epoch[slices, rows]) / length
                # grads from the pre-step parameters: the backbone's uses w_out
                if backbone is not None:
                    _step(group[0], group[1], *_layer_grads(
                        _tanh_delta(dlogits, group[2], hidden), xb, group[1]), *backbone)
                if head is not None:
                    _step(group[2], group[3], *_layer_grads(
                        dlogits, xb if hidden is None else hidden, group[3]), *head)
        yield params
    if order != sorted(order):
        rank = np.argsort(order)
        slots = np.concatenate([np.arange(ends[r] - counts[r], ends[r]) for r in rank])
        params[:] = [p[slots] for p in params]
    finite = np.logical_and.reduce([np.isfinite(p).all(axis=(1, 2)) for p in params])
    if not finite.all():
        bad = [c for s in given for c in s.configs][int(np.argmin(finite))]
        raise TrainingDiverged(f"parameters are not all finite after training with {bad}")


def _step(w: np.ndarray, b: np.ndarray, gw: np.ndarray, gb: np.ndarray,
          lr: np.ndarray, decay: np.ndarray, live) -> None:
    # only slices with a nonzero group lr move, and the lr scales the decay
    # too, so lr 0 freezes its group exactly even when a gradient is not finite
    if live is _ALL:
        w -= lr * (gw + decay * w)
        b -= lr * gb
    else:
        w[live] -= lr[live] * (gw[live] + decay[live] * w[live])
        b[live] -= lr[live] * gb[live]


def train(model: TinyClassifier, xs: np.ndarray, labels: np.ndarray,
          config: TrainConfig) -> tuple[TinyClassifier, list[EpochStats]]:
    """Plain SGD over shuffled mini-batches; returns the model and a per-epoch trace.

    The trace entry for an epoch is the full-dataset smoothed loss and
    accuracy after that epoch's updates. Both learning rates at zero leave
    the parameters bit-identical. Identical seed, config, and data give a
    bit-identical model. Non-finite trained parameters raise TrainingDiverged.
    """
    steps = _sgd([Stream(model, xs, labels, (config,))])
    params = next(steps)
    xs = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels)
    targets = _smoothed(labels, model.n_classes, config.label_smoothing)
    trace: list[EpochStats] = []
    for _ in steps:
        with np.errstate(over="ignore", invalid="ignore"):
            logits = _forward([p[0] for p in params], xs)[1]
            trace.append(EpochStats(_mean_nll(_log_softmax(logits), targets),
                                    float((logits.argmax(axis=1) == labels).mean())))
    return unstack(params)[0], trace


def train_streams(streams) -> tuple[list[np.ndarray], ...]:
    """train every stream under each of its configs, all in one stacked SGD loop.

    Returns, per stream, its trained [w_in, b_in, w_out, b_out] stacked one
    slice per config in the order of its configs, with biases shaped
    (G, 1, .); slice g is bit-identical to training the stream alone under
    its config g. The streams must share epochs, batch_size and architecture
    (otherwise BadTrainConfig); their models, rows, seeds and mixup_alpha
    may differ. No per-epoch trace is computed.
    """
    streams = [Stream(*s[:3], tuple(s[3])) for s in streams]
    *_, params = _sgd(streams)  # the last yield, put in given order once training ends
    bounds = np.cumsum([0] + [len(s.configs) for s in streams]).tolist()
    return tuple([p[lo:hi] for p in params] for lo, hi in zip(bounds, bounds[1:]))


def forward_stack(params, xs: np.ndarray) -> np.ndarray:
    """Logits (G, N, C) of stacked [w_in, b_in, w_out, b_out] on one batch (N, D).

    The parameters are stacked as train_streams returns them. Slice g is
    bit-identical to forward on unstack(params)[g], since numpy runs the
    stacked matmul as one 2-D product per slice.
    """
    xs, _ = _as_batch(xs, params[0].shape[-1])
    return _forward(params, xs)[1]


def unstack(params) -> tuple[TinyClassifier, ...]:
    """One model per slice of stacked [w_in, b_in, w_out, b_out]."""
    w_in, b_in, w_out, b_out = params
    return tuple(TinyClassifier(w_in[g], b_in[g, 0], w_out[g], b_out[g, 0])
                 for g in range(w_in.shape[0]))


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
    text = read_utf8(path, MalformedModel)
    try:
        return model_from_json(text)
    except MalformedModel as exc:
        raise MalformedModel(f"{path}: {exc}") from None


def save_model(path: str | Path, model: TinyClassifier) -> None:
    Path(path).write_text(model_to_json(model))

import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshkit import tiny_model
from freshkit.errors import (
    BadLabelIndex,
    BadTrainConfig,
    ComputeError,
    DimensionMismatch,
    MalformedModel,
    TrainingDiverged,
)
from freshkit.tiny_model import (
    Stream,
    TinyClassifier,
    TrainConfig,
    derive_seed,
    forward,
    forward_stack,
    grads,
    grads_from_targets,
    init_model,
    load_model,
    model_from_json,
    model_to_json,
    nll_input_gradient,
    save_model,
    train,
    train_streams,
    unstack,
)

PROPERTY = settings(derandomize=True, max_examples=120, deadline=None)


# reference copies of the one-sample target and mixup helpers the package
# no longer has; training builds both for whole batches at once
def smooth_targets(label, n_classes, alpha):
    """(1 - alpha) * onehot + alpha / C."""
    targets = np.full(n_classes, alpha / n_classes)
    targets[label] += 1.0 - alpha
    return targets


def mixup(x1, t1, x2, t2, lam):
    """Convex combination of two (input, target) pairs with weight lam on the first."""
    return lam * x1 + (1.0 - lam) * x2, lam * t1 + (1.0 - lam) * t2


def train_group(model, xs, labels, configs):
    """One trained model per config, from one stream through train_streams."""
    return unstack(train_streams([Stream(model, xs, labels, configs)])[0])


def _loss_at(model, xs, targets):
    return grads_from_targets(model, xs, targets).loss


def _replace_param(model, name, value):
    fields = {
        "w_in": model.w_in, "b_in": model.b_in,
        "w_out": model.w_out, "b_out": model.b_out,
    }
    fields[name] = value
    return TinyClassifier(**fields)


def _central_diff_params(model, xs, targets, h=1e-5):
    """Loss gradient for every parameter entry by central differences."""
    out = {}
    for name in ("w_in", "b_in", "w_out", "b_out"):
        base = getattr(model, name)
        grad = np.zeros_like(base)
        if base.size == 0:
            out[name] = grad
            continue
        it = np.nditer(base, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            plus = base.copy()
            plus[idx] += h
            minus = base.copy()
            minus[idx] -= h
            grad[idx] = (
                _loss_at(_replace_param(model, name, plus), xs, targets)
                - _loss_at(_replace_param(model, name, minus), xs, targets)
            ) / (2 * h)
            it.iternext()
        out[name] = grad
    return out


def _rel_err(a, b):
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-8)
    return np.abs(a - b).max() / denom


@pytest.mark.parametrize("seed", range(10))
def test_param_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    model = init_model(4, 5, 3, seed=seed)
    xs = rng.normal(size=(6, 4))
    labels = rng.integers(0, 3, size=6)
    targets = np.stack([smooth_targets(int(y), 3, 0.1) for y in labels])

    analytic = grads_from_targets(model, xs, targets).params
    numeric = _central_diff_params(model, xs, targets)
    for name in ("w_in", "b_in", "w_out", "b_out"):
        assert _rel_err(getattr(analytic, name), numeric[name]) < 1e-5


@pytest.mark.parametrize("seed", range(10))
def test_input_gradients_match_finite_differences(seed):
    # validates the perturbation direction used by the ODIN score
    rng = np.random.default_rng(100 + seed)
    model = init_model(5, 4, 3, seed=seed)
    x = rng.normal(size=5)
    label = int(rng.integers(0, 3))
    temperature = float(rng.choice([1.0, 10.0, 1000.0]))

    analytic = nll_input_gradient(model, x, label, temperature)

    h = 1e-5
    numeric = np.zeros(5)
    onehot = smooth_targets(label, 3, 0.0)
    for j in range(5):
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] -= h
        lp = _nll(model, xp, onehot, temperature)
        lm = _nll(model, xm, onehot, temperature)
        numeric[j] = (lp - lm) / (2 * h)
    assert _rel_err(analytic, numeric) < 1e-5


def _nll(model, x, onehot, temperature):
    scaled = np.asarray(forward(model, x), dtype=float) / temperature
    scaled = scaled - scaled.max()
    logp = scaled - np.log(np.exp(scaled).sum())
    return -float((onehot * logp).sum())


def test_linear_model_gradients():
    # hidden_dim 0 selects the plain linear head; same oracle applies
    rng = np.random.default_rng(42)
    model = init_model(3, 0, 4, seed=1)
    assert model.hidden_dim == 0
    xs = rng.normal(size=(5, 3))
    labels = rng.integers(0, 4, size=5)
    targets = np.stack([smooth_targets(int(y), 4, 0.0) for y in labels])
    analytic = grads_from_targets(model, xs, targets).params
    numeric = _central_diff_params(model, xs, targets)
    assert _rel_err(analytic.w_out, numeric["w_out"]) < 1e-5
    assert _rel_err(analytic.b_out, numeric["b_out"]) < 1e-5


@pytest.mark.parametrize("bad", [-1, 4])
def test_out_of_range_labels_are_rejected(bad):
    # vectorised target building must not let numpy wrap -1 to the last class
    model = init_model(3, 2, 4, seed=0)
    xs = np.zeros((3, 3))
    labels = np.array([0, bad, 1])
    with pytest.raises(BadLabelIndex):
        grads(model, xs, labels, label_smoothing=0.1)
    with pytest.raises(BadLabelIndex):
        train(model, xs, labels, TrainConfig(epochs=1, head_lr=0.1, seed=0))


def test_label_targets_match_a_per_label_loop():
    rng = np.random.default_rng(3)
    model = init_model(4, 3, 3, seed=3)
    xs = rng.normal(size=(5, 4))
    labels = rng.integers(0, 3, size=5)
    targets = np.full((5, 3), 0.2 / 3)
    for row, label in enumerate(labels):
        targets[row, label] += 1.0 - 0.2
    a = grads(model, xs, labels, label_smoothing=0.2)
    b = grads_from_targets(model, xs, targets)
    assert a.loss == b.loss
    for name in ("w_in", "b_in", "w_out", "b_out"):
        assert np.array_equal(getattr(a.params, name), getattr(b.params, name))
    assert np.array_equal(a.inputs, b.inputs)


def test_derive_seed_is_deterministic_and_spread():
    assert derive_seed(42, 1, 2) == derive_seed(42, 1, 2)
    seen = {derive_seed(42, i) for i in range(100)}
    assert len(seen) == 100
    assert derive_seed(42, 1, 2) != derive_seed(42, 2, 1)


def test_init_is_seeded():
    a = init_model(4, 3, 2, seed=9)
    b = init_model(4, 3, 2, seed=9)
    c = init_model(4, 3, 2, seed=10)
    assert np.array_equal(a.w_in, b.w_in) and np.array_equal(a.w_out, b.w_out)
    assert not np.array_equal(a.w_in, c.w_in)
    assert a.b_in.tolist() == [0.0, 0.0, 0.0]


def _blobs(n_per_class, n_classes, dim, spread, seed):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(n_classes, dim))
    xs = np.concatenate(
        [centers[c] + rng.normal(scale=spread, size=(n_per_class, dim)) for c in range(n_classes)]
    )
    labels = np.repeat(np.arange(n_classes), n_per_class)
    perm = rng.permutation(len(labels))
    return xs[perm], labels[perm]


def test_training_separates_blobs():
    xs, labels = _blobs(40, 3, 2, spread=0.3, seed=5)
    model = init_model(2, 8, 3, seed=0)
    cfg = TrainConfig(epochs=40, batch_size=16, head_lr=0.05, backbone_lr=0.05, seed=1)
    trained, trace = train(model, xs, labels, cfg)
    assert trace[-1].accuracy >= 0.99
    # loss came down substantially from the start of training
    assert trace[-1].loss < 0.5 * trace[0].loss


def test_zero_lr_freezes_parameter_group():
    xs, labels = _blobs(20, 3, 4, spread=0.5, seed=2)
    model = init_model(4, 6, 3, seed=3)
    cfg = TrainConfig(epochs=5, batch_size=8, head_lr=0.05, backbone_lr=0.0,
                      weight_decay=0.01, seed=4)
    trained, _ = train(model, xs, labels, cfg)
    # backbone group untouched bit for bit, decay included
    assert np.array_equal(trained.w_in, model.w_in)
    assert np.array_equal(trained.b_in, model.b_in)
    assert not np.array_equal(trained.w_out, model.w_out)


def test_weight_decay_shrinks_weights_not_biases():
    xs, labels = _blobs(20, 2, 3, spread=0.4, seed=6)
    model = init_model(3, 5, 2, seed=7)
    no_decay = TrainConfig(epochs=10, batch_size=10, head_lr=0.01, backbone_lr=0.01,
                           weight_decay=0.0, seed=8)
    decay = TrainConfig(epochs=10, batch_size=10, head_lr=0.01, backbone_lr=0.01,
                        weight_decay=1.0, seed=8)
    plain, _ = train(model, xs, labels, no_decay)
    shrunk, _ = train(model, xs, labels, decay)
    assert np.linalg.norm(shrunk.w_out) < np.linalg.norm(plain.w_out)
    assert np.linalg.norm(shrunk.w_in) < np.linalg.norm(plain.w_in)


def test_training_is_deterministic():
    xs, labels = _blobs(15, 3, 3, spread=0.5, seed=11)
    model = init_model(3, 4, 3, seed=12)
    cfg = TrainConfig(epochs=6, batch_size=8, head_lr=0.02, backbone_lr=0.01,
                      mixup_alpha=0.2, label_smoothing=0.1, seed=13)
    a, trace_a = train(model, xs, labels, cfg)
    b, trace_b = train(model, xs, labels, cfg)
    assert np.array_equal(a.w_in, b.w_in)
    assert np.array_equal(a.w_out, b.w_out)
    assert [e.loss for e in trace_a] == [e.loss for e in trace_b]


def _reference_train(model, xs, labels, cfg):
    """The SGD loop of `train`, written out with public pieces only."""
    rng = np.random.default_rng(cfg.seed)
    targets = np.stack([smooth_targets(int(y), model.n_classes, cfg.label_smoothing)
                        for y in labels])
    current = model
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(labels))
        for start in range(0, len(labels), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, tb = xs[idx], targets[idx]
            if cfg.mixup_alpha > 0.0:
                lam = float(rng.beta(cfg.mixup_alpha, cfg.mixup_alpha))
                pair = rng.permutation(len(idx))
                xb, tb = mixup(xb, tb, xb[pair], tb[pair], lam)
            g = grads_from_targets(current, xb, tb).params
            current = TinyClassifier(
                current.w_in - cfg.backbone_lr * (g.w_in + cfg.weight_decay * current.w_in),
                current.b_in - cfg.backbone_lr * g.b_in,
                current.w_out - cfg.head_lr * (g.w_out + cfg.weight_decay * current.w_out),
                current.b_out - cfg.head_lr * g.b_out,
            )
        loss = grads_from_targets(current, xs, targets).loss
        accuracy = float((forward(current, xs).argmax(axis=1) == labels).mean())
        trace.append((loss, accuracy))
    return current, trace


def test_train_is_bit_identical_to_reference_loop():
    xs, labels = _blobs(13, 3, 3, spread=0.6, seed=21)
    model = init_model(3, 5, 3, seed=22)
    cfg = TrainConfig(epochs=4, batch_size=8, head_lr=0.05, backbone_lr=0.03,
                      weight_decay=0.01, label_smoothing=0.1, mixup_alpha=0.3, seed=23)
    trained, trace = train(model, xs, labels, cfg)
    expected, expected_trace = _reference_train(model, xs, labels, cfg)
    for name in ("w_in", "b_in", "w_out", "b_out"):
        assert np.array_equal(getattr(trained, name), getattr(expected, name))
    assert [(e.loss, e.accuracy) for e in trace] == expected_trace


def _per_config_train(model, xs, labels, cfg):
    """The per-config SGD loop `train` ran before configs trained as stacked
    groups: one config, 2-D parameters, gradients of every group computed
    and a step skipped only for a zero group lr."""
    rng = np.random.default_rng(cfg.seed)
    targets = np.stack([smooth_targets(int(y), model.n_classes, cfg.label_smoothing)
                        for y in labels])
    w_in, b_in, w_out, b_out = (p.copy() for p in (model.w_in, model.b_in,
                                                   model.w_out, model.b_out))
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(labels))
        for start in range(0, len(labels), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            xb, tb = xs[idx], targets[idx]
            if cfg.mixup_alpha > 0.0:
                lam = float(rng.beta(cfg.mixup_alpha, cfg.mixup_alpha))
                pair = rng.permutation(len(idx))
                xb, tb = mixup(xb, tb, xb[pair], tb[pair], lam)
            g = grads_from_targets(TinyClassifier(w_in, b_in, w_out, b_out), xb, tb).params
            if cfg.backbone_lr != 0.0 and model.hidden_dim:
                w_in -= cfg.backbone_lr * (g.w_in + cfg.weight_decay * w_in)
                b_in -= cfg.backbone_lr * g.b_in
            if cfg.head_lr != 0.0:
                w_out -= cfg.head_lr * (g.w_out + cfg.weight_decay * w_out)
                b_out -= cfg.head_lr * g.b_out
        current = TinyClassifier(w_in, b_in, w_out, b_out)
        trace.append((grads_from_targets(current, xs, targets).loss,
                      float((forward(current, xs).argmax(axis=1) == labels).mean())))
    return TinyClassifier(w_in, b_in, w_out, b_out), trace


@st.composite
def training_groups(draw):
    """(model, xs, labels, configs) for one stacked group."""
    dim, hidden = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    n_classes = draw(st.integers(2, 4))
    n = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xs = rng.normal(0.0, 1.5, (n, dim))
    labels = rng.integers(0, n_classes, n)
    shared = {"epochs": draw(st.integers(0, 3)), "batch_size": draw(st.integers(1, 30)),
              "mixup_alpha": draw(st.sampled_from([0.0, 0.3])),
              "seed": draw(st.integers(0, 2 ** 32 - 1))}
    rate = st.sampled_from([0.0, 0.05, 0.3])
    configs = draw(st.lists(st.builds(
        TrainConfig, head_lr=rate, backbone_lr=rate,
        weight_decay=st.sampled_from([0.0, 0.01, 0.5]),
        label_smoothing=st.sampled_from([0.0, 0.1]), **{k: st.just(v) for k, v in shared.items()},
    ), min_size=1, max_size=5))
    model = init_model(dim, hidden, n_classes, seed=draw(st.integers(0, 2 ** 32 - 1)))
    return model, xs, labels, configs


@PROPERTY
@given(training_groups())
def test_train_group_equals_per_config_loop_slice_for_slice(group):
    model, xs, labels, configs = group
    fitted = train_group(model, xs, labels, configs)
    assert len(fitted) == len(configs)
    for cfg, got in zip(configs, fitted):
        expected, expected_trace = _per_config_train(model, xs, labels, cfg)
        for name in ("w_in", "b_in", "w_out", "b_out"):
            assert np.array_equal(getattr(got, name), getattr(expected, name))
        if cfg.head_lr == cfg.backbone_lr == 0.0:
            for name in ("w_in", "b_in", "w_out", "b_out"):
                assert np.array_equal(getattr(got, name), getattr(model, name))
    if len(configs) == 1:
        alone, trace = train(model, xs, labels, configs[0])
        for name in ("w_in", "b_in", "w_out", "b_out"):
            assert np.array_equal(getattr(alone, name), getattr(fitted[0], name))
        assert [(e.loss, e.accuracy) for e in trace] == expected_trace


def test_train_group_rejects_an_empty_config_list():
    model = init_model(2, 3, 2, seed=0)
    with pytest.raises(BadTrainConfig, match="at least one config"):
        train_group(model, np.zeros((4, 2)), np.array([0, 1, 0, 1]), [])


@pytest.mark.parametrize("field, other", [("epochs", 3), ("batch_size", 4),
                                          ("seed", 8), ("mixup_alpha", 0.2)])
def test_train_group_rejects_configs_that_cannot_share_batches(field, other):
    model = init_model(2, 3, 2, seed=0)
    base = TrainConfig(epochs=2, batch_size=2, head_lr=0.1, seed=7)
    odd = TrainConfig(**{**base.__dict__, "head_lr": 0.2, field: other})
    with pytest.raises(BadTrainConfig, match=f"must share {field}"):
        train_group(model, np.zeros((4, 2)), np.array([0, 1, 0, 1]), [base, odd])


@pytest.mark.parametrize("fields", [{"head_lr": 1e300}, {"backbone_lr": 1e300}])
def test_diverging_training_names_the_first_bad_config(fields):
    xs, labels = _blobs(10, 2, 3, spread=0.5, seed=3)
    model = init_model(3, 4, 2, seed=4)
    good = TrainConfig(epochs=2, batch_size=8, head_lr=0.1, weight_decay=0.01, seed=5)
    bad = TrainConfig(**{**good.__dict__, **fields})
    worse = TrainConfig(**{**bad.__dict__, "weight_decay": 0.5})
    # slices 1 and 2 both diverge; the message names the first of them
    with pytest.raises(TrainingDiverged,
                       match=r"training with TrainConfig\(.*weight_decay=0\.01,"):
        train_group(model, xs, labels, [good, bad, worse])
    with pytest.raises(TrainingDiverged) as info:
        train(model, xs, labels, bad)
    assert isinstance(info.value, ComputeError)


def test_zero_lr_group_stays_exact_under_non_finite_gradients():
    # slice 0's head overflows, so its backbone gradient turns NaN; a step of
    # 0 * NaN would poison the frozen backbone, a skipped step leaves it exact
    xs, labels = _blobs(10, 2, 3, spread=0.5, seed=3)
    model = init_model(3, 4, 2, seed=4)
    base = TrainConfig(epochs=3, batch_size=8, head_lr=1e300, weight_decay=0.5, seed=5)
    for configs in ([base], [base, TrainConfig(**{**base.__dict__, "head_lr": 0.1,
                                                  "backbone_lr": 0.1})]):
        steps = tiny_model._sgd([Stream(model, xs, labels, configs)])
        w_in, b_in, w_out, _ = next(steps)
        for _ in range(base.epochs):
            next(steps)
        assert not np.isfinite(w_out[0]).all()
        assert np.array_equal(w_in[0], model.w_in)
        assert np.array_equal(b_in[0, 0], model.b_in)
        with pytest.raises(TrainingDiverged):
            next(steps)


@st.composite
def training_streams(draw):
    """Streams for one stacked loop: shared epochs, batch size and
    architecture; each with its own init, rows, seed, mixup and configs."""
    dim, hidden = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    n_classes = draw(st.integers(2, 4))
    epochs, batch_size = draw(st.integers(0, 3)), draw(st.integers(1, 12))
    base = draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rate = st.sampled_from([0.0, 0.05, 0.3])
    streams = []
    for _ in range(draw(st.integers(1, 4))):
        # sizes within about a batch of each other make ragged epoch tails
        n = max(1, base + draw(st.integers(-batch_size - 1, batch_size + 1)))
        shared = {"epochs": epochs, "batch_size": batch_size,
                  "mixup_alpha": draw(st.sampled_from([0.0, 0.3])),
                  "seed": draw(st.integers(0, 2 ** 32 - 1))}
        configs = draw(st.lists(st.builds(
            TrainConfig, head_lr=rate, backbone_lr=rate,
            weight_decay=st.sampled_from([0.0, 0.01, 0.5]),
            label_smoothing=st.sampled_from([0.0, 0.1]),
            **{k: st.just(v) for k, v in shared.items()},
        ), min_size=1, max_size=4))
        model = init_model(dim, hidden, n_classes, seed=draw(st.integers(0, 2 ** 32 - 1)))
        streams.append(Stream(model, rng.normal(0.0, 1.5, (n, dim)),
                              rng.integers(0, n_classes, n), tuple(configs)))
    return streams


@PROPERTY
@given(training_streams())
def test_train_streams_equals_per_stream_train_group(streams):
    fitted = train_streams(streams)
    assert len(fitted) == len(streams)
    for stream, got in zip(streams, fitted):
        g, model = len(stream.configs), stream.model
        assert [p.shape for p in got] == [
            (g, model.hidden_dim, model.input_dim), (g, 1, model.hidden_dim),
            (g, *model.w_out.shape), (g, 1, model.n_classes)]
        expected = train_group(*stream)
        assert len(expected) == g
        for a, b in zip(unstack(got), expected):
            for name in ("w_in", "b_in", "w_out", "b_out"):
                assert np.array_equal(getattr(a, name), getattr(b, name))


@st.composite
def one_step_streams(draw, hidden):
    """Streams of one size, each trained one epoch of a single batch without
    mixup, so _sgd makes exactly one step on every slice at once."""
    dim, n_classes = draw(st.integers(1, 5)), draw(st.integers(2, 4))
    n = draw(st.integers(1, 25))
    batch_size = draw(st.integers(n, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rate = st.sampled_from([0.0, 0.05, 0.3])
    streams = []
    for _ in range(draw(st.integers(1, 3))):
        seed = draw(st.integers(0, 2 ** 32 - 1))
        configs = draw(st.lists(st.builds(
            TrainConfig, epochs=st.just(1), batch_size=st.just(batch_size), seed=st.just(seed),
            head_lr=rate, backbone_lr=rate, weight_decay=st.sampled_from([0.0, 0.5]),
            label_smoothing=st.sampled_from([0.0, 0.1]),
        ), min_size=1, max_size=4))
        model = init_model(dim, hidden, n_classes, seed=draw(st.integers(0, 2 ** 32 - 1)))
        streams.append(Stream(model, rng.normal(0.0, 1.5, (n, dim)),
                              rng.integers(0, n_classes, n), tuple(configs)))
    # one live slice in each group, so both groups take their step
    first = streams[0]
    streams[0] = first._replace(configs=(replace(first.configs[0], head_lr=0.1, backbone_lr=0.1),
                                         *first.configs[1:]))
    return streams


@pytest.mark.parametrize("hidden", [0, 5])
@PROPERTY
@given(data=st.data())
def test_sgd_applies_the_gradients_grads_from_targets_gives_each_slice(hidden, data):
    streams = data.draw(one_step_streams(hidden))
    steps = tiny_model._sgd(streams)
    params = next(steps)
    applied = {}
    step = tiny_model._step

    def spy(w, b, gw, gb, *rates):
        applied["backbone" if np.shares_memory(w, params[0]) else "head"] = (gw.copy(), gb.copy())
        step(w, b, gw, gb, *rates)

    with mock.patch.object(tiny_model, "_step", spy):
        for _ in steps:
            pass
    assert set(applied) == ({"backbone", "head"} if hidden else {"head"})
    # equal sizes keep the streams in given order among the slices
    slices = [(stream, config) for stream in streams for config in stream.configs]
    for g, (stream, config) in enumerate(slices):
        order = np.random.default_rng(config.seed).permutation(stream.labels.size)
        targets = np.stack([smooth_targets(int(y), stream.model.n_classes,
                                           config.label_smoothing) for y in stream.labels])
        expected = grads_from_targets(stream.model, stream.xs[order], targets[order]).params
        gw, gb = applied["head"]
        assert np.array_equal(gw[g], expected.w_out)
        assert np.array_equal(gb[g, 0], expected.b_out)
        if hidden:
            gw, gb = applied["backbone"]
            assert np.array_equal(gw[g], expected.w_in)
            assert np.array_equal(gb[g, 0], expected.b_in)


def test_train_streams_rejects_an_empty_stream_list():
    with pytest.raises(BadTrainConfig, match="at least one stream"):
        train_streams([])


@pytest.mark.parametrize("field, other", [("epochs", 3), ("batch_size", 4), ("input_dim", 3),
                                          ("hidden_dim", 2), ("n_classes", 3)])
def test_train_streams_rejects_streams_that_cannot_share_a_loop(field, other):
    base = TrainConfig(epochs=2, batch_size=2, head_lr=0.1, seed=7)
    arch = {"input_dim": 2, "hidden_dim": 3, "n_classes": 2}
    first = Stream(init_model(**arch, seed=0), np.zeros((4, 2)), np.array([0, 1, 0, 1]),
                   (base,))
    config = replace(base, seed=8, mixup_alpha=0.2)  # streams may differ in these
    if field in arch:
        arch[field] = other
    else:
        config = replace(config, **{field: other})
    second = Stream(init_model(**arch, seed=1), np.zeros((5, arch["input_dim"])),
                    np.array([0, 1, 0, 1, 0]), (config,))
    with pytest.raises(BadTrainConfig, match=f"streams trained together must share {field};"):
        train_streams([first, second])


def test_train_streams_names_the_config_the_per_stream_sequence_names_first():
    xs, labels = _blobs(10, 2, 3, spread=0.5, seed=3)
    good = TrainConfig(epochs=2, batch_size=8, head_lr=0.1, weight_decay=0.01, seed=5)
    bad = replace(good, head_lr=1e300)
    streams = [
        Stream(init_model(3, 4, 2, seed=4), xs, labels, (good, replace(good, head_lr=0.2))),
        # the second stream diverges at its second config ...
        Stream(init_model(3, 4, 2, seed=6), xs[:17], labels[:17],
               (replace(good, seed=7), replace(bad, seed=7, weight_decay=0.5))),
        # ... and the third, the smallest and so the first among the slices, at once
        Stream(init_model(3, 4, 2, seed=8), xs[:9], labels[:9], (replace(bad, seed=9),)),
    ]
    expected = None
    for stream in streams:
        try:
            train_group(*stream)
        except TrainingDiverged as exc:
            expected = str(exc)
            break
    assert expected is not None and "weight_decay=0.5" in expected
    with pytest.raises(TrainingDiverged) as info:
        train_streams(streams)
    assert str(info.value) == expected


@pytest.mark.parametrize("hidden", [8, 0])
def test_stacked_forward_equals_per_model_calls(hidden):
    xs, labels = _blobs(40, 4, 16, spread=2.0, seed=9)
    configs = [TrainConfig(epochs=2, batch_size=16, head_lr=lr, backbone_lr=0.1, seed=10)
               for lr in (0.0, 0.01, 0.05, 0.1, 0.3)]
    (params,) = train_streams([Stream(init_model(16, hidden, 4, seed=11), xs, labels, configs)])
    stacked = forward_stack(params, xs)
    assert stacked.shape == (5, 160, 4)
    for model, logits in zip(unstack(params), stacked):
        expected = forward(model, xs)
        assert np.array_equal(logits, expected)
        assert np.array_equal(logits.argmax(axis=1), expected.argmax(axis=1))


@pytest.mark.parametrize("fields", [
    {"batch_size": 0},
    {"batch_size": -3},
    {"epochs": -1},
    {"head_lr": float("nan")},
    {"backbone_lr": -0.1},
    {"weight_decay": float("inf")},
    {"label_smoothing": 1.0},
    {"label_smoothing": -0.1},
    {"mixup_alpha": -0.2},
])
def test_train_config_rejects_out_of_range_settings(fields):
    with pytest.raises(BadTrainConfig) as info:
        TrainConfig(**fields)
    assert isinstance(info.value, ComputeError)


def test_mixup_changes_the_path():
    xs, labels = _blobs(15, 3, 3, spread=0.5, seed=14)
    model = init_model(3, 4, 3, seed=15)
    base = TrainConfig(epochs=3, batch_size=8, head_lr=0.02, seed=16)
    mixed = TrainConfig(epochs=3, batch_size=8, head_lr=0.02, mixup_alpha=0.4, seed=16)
    a, _ = train(model, xs, labels, base)
    b, _ = train(model, xs, labels, mixed)
    assert not np.array_equal(a.w_out, b.w_out)


def test_serialization_round_trip(tmp_path):
    model = init_model(5, 7, 4, seed=20)
    blob = model_to_json(model)
    back = model_from_json(blob)
    assert np.array_equal(back.w_in, model.w_in)
    assert np.array_equal(back.b_in, model.b_in)
    assert np.array_equal(back.w_out, model.w_out)
    assert np.array_equal(back.b_out, model.b_out)

    path = tmp_path / "model.json"
    save_model(path, model)
    again = load_model(path)
    assert np.array_equal(again.w_out, model.w_out)
    # the file is plain JSON with self-describing dims
    doc = json.loads(path.read_text())
    assert doc["input_dim"] == 5
    assert doc["hidden_dim"] == 7
    assert doc["n_classes"] == 4


@pytest.mark.parametrize("text, message", [
    ("not json", "not a model JSON object (JSONDecodeError: Expecting value"),
    ('{"input_dim": 16}', "not a model JSON object (KeyError: 'hidden_dim')"),
    ("[1]", "not a model JSON object (TypeError: list indices"),
    ('{"input_dim": 1e400, "hidden_dim": 0, "n_classes": 1, "params": []}',
     "not a model JSON object (OverflowError: "),
    ('{"input_dim": 1, "hidden_dim": 0, "n_classes": 1, "params": ["a", 0]}',
     "not a model JSON object (ValueError: "),
    ('{"input_dim": -16, "hidden_dim": 8, "n_classes": 4, "params": [0, 0]}',
     "bad architecture (-16, 8, 4)"),
    ('{"input_dim": 2, "hidden_dim": 0, "n_classes": 0, "params": []}',
     "bad architecture (2, 0, 0)"),
    ('{"input_dim": 2, "hidden_dim": 0, "n_classes": 2, "params": [0, 0]}',
     "got 2 params, expected 6"),
    ('{"input_dim": 1, "hidden_dim": 0, "n_classes": 1, "params": [[0, 0]]}',
     "got 2 params, expected 2"),
    ('{"input_dim": 1, "hidden_dim": 0, "n_classes": 1, "params": [NaN, 0]}',
     "params are not all finite"),
])
def test_malformed_model_json_is_rejected(text, message):
    with pytest.raises(MalformedModel) as err:
        model_from_json(text)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("payload", [b'{"input_dim": 16}', b"\xff\xfe"])
def test_load_model_names_the_path(tmp_path, payload):
    path = tmp_path / "model.json"
    path.write_bytes(payload)
    with pytest.raises(MalformedModel) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: ")


def test_load_model_reports_bad_bytes_as_other_text_readers_do(tmp_path):
    path = tmp_path / "model.json"
    path.write_bytes(b'{"input_dim": \xe9}')
    with pytest.raises(MalformedModel) as err:
        load_model(path)
    assert str(err.value) == f"{path}: not UTF-8: byte 14 (invalid continuation byte)"


def test_forward_shapes():
    model = init_model(3, 4, 2, seed=1)
    single = forward(model, np.zeros(3))
    batch = forward(model, np.zeros((5, 3)))
    assert np.asarray(single).shape == (2,)
    assert np.asarray(batch).shape == (5, 2)
    assert np.allclose(batch[0], single)


@pytest.mark.parametrize("hidden", [8, 0])
@pytest.mark.parametrize("n", [1, 2000])
def test_batched_input_gradient_equals_per_row_calls(hidden, n):
    model = init_model(16, hidden, 4, seed=3)
    rng = np.random.default_rng(4)
    xs = rng.normal(0.0, 2.0, (n, 16))
    labels = rng.integers(0, 4, n)
    for temperature in (1.0, 10.0, 100.0, 1000.0):
        batched = nll_input_gradient(model, xs, labels, temperature)
        rows = np.stack([nll_input_gradient(model, x, int(label), temperature)
                         for x, label in zip(xs, labels)])
        assert batched.shape == (n, 16)
        assert np.array_equal(batched, rows)


def test_batched_input_gradient_needs_one_label_per_row():
    model = init_model(3, 2, 2, seed=0)
    with pytest.raises(DimensionMismatch):
        nll_input_gradient(model, np.zeros((4, 3)), np.array([0, 1, 1]))
    with pytest.raises(BadLabelIndex):
        nll_input_gradient(model, np.zeros((2, 3)), np.array([0, 2]))

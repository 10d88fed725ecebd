import json

import numpy as np
import pytest

from freshkit.errors import (
    BadLabelIndex,
    BadTrainConfig,
    ComputeError,
    DimensionMismatch,
    MalformedModel,
)
from freshkit.tiny_model import (
    TinyClassifier,
    TrainConfig,
    derive_seed,
    forward,
    grads,
    grads_from_targets,
    init_model,
    load_model,
    mixup,
    model_from_json,
    model_to_json,
    nll_input_gradient,
    save_model,
    smooth_targets,
    train,
)


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


def test_smooth_targets():
    t = smooth_targets(1, 4, 0.0)
    assert t.tolist() == [0.0, 1.0, 0.0, 0.0]
    t = smooth_targets(1, 4, 0.2)
    assert t.sum() == pytest.approx(1.0, abs=1e-12)
    assert t[1] == pytest.approx(0.8 + 0.05, abs=1e-12)
    assert t[0] == pytest.approx(0.05, abs=1e-12)


@pytest.mark.parametrize("bad", [-1, 4])
def test_out_of_range_labels_are_rejected(bad):
    # vectorised target building must not let numpy wrap -1 to the last class
    with pytest.raises(BadLabelIndex):
        smooth_targets(bad, 4, 0.1)
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


def test_mixup_combines_inputs_and_targets():
    x1 = np.ones((2, 3))
    x2 = np.zeros((2, 3))
    t1 = np.array([[1.0, 0.0], [1.0, 0.0]])
    t2 = np.array([[0.0, 1.0], [0.0, 1.0]])
    xm, tm = mixup(x1, t1, x2, t2, 0.25)
    assert np.allclose(xm, 0.25)
    assert np.allclose(tm, [[0.25, 0.75], [0.25, 0.75]])
    assert np.allclose(tm.sum(axis=1), 1.0)


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

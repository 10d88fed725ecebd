"""End-to-end pipeline walk on synthetic data.

Four well-separated Gaussian blobs in the plane stand in for the
in-distribution classes. A fifth blob, centered in the gap between them and
excluded from training, plays the out-of-distribution stream. The run
mirrors the full pipeline: stratified split, nested cross-validated model
selection, a final fit, confidence scoring with all three detectors,
detector metrics, an abstention sweep, and a paired significance test
between the selected configuration and a deliberately crippled one.

Everything is deterministic in the single seed. The returned report holds
plain containers and result dataclasses, which `cli.render_json` renders
from their fields.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np

from .cls_eval import confusion, prf_report
from .hygiene import HyperGrid, nested_cv_run, stratified_split
from .ood_eval import DEFAULT_TAUS, ood_metrics, threshold_sweep
from .scoring import OdinConfig, energy_score, msp_score, odin_score
from .stats import mcnemar, paired_acc_diff_ci, paired_outcomes
from .tiny_model import (Stream, TrainConfig, derive_seed, forward, init_model,
                         train_streams, unstack)

N_CLASSES = 4
N_PER_CLASS = 150
N_OOD = 150
HIDDEN_DIM = 8
ODIN_TEMPERATURE = 1000.0
ODIN_EPSILON = 0.001

DEMO_GRID = HyperGrid(
    head_lrs=(0.0, 0.1),
    weight_decays=(0.0, 1e-4),
    label_smoothings=(0.0,),
    backbone_lrs=(0.0, 0.05),
    mixup_alphas=(0.0,),
    top_k=2,
)


def make_blobs(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (id_features, id_labels, ood_features).

    Class blobs sit at the four corners (+-3, +-3) with spread 0.5; the
    out-of-distribution blob sits at the origin with spread 0.3, far inside
    the region every decision boundary must cross.
    """
    rng = np.random.default_rng(derive_seed(seed, 0))
    centers = np.array([(-3.0, -3.0), (-3.0, 3.0), (3.0, -3.0), (3.0, 3.0)])
    xs = np.concatenate([
        rng.normal(center, 0.5, size=(N_PER_CLASS, 2)) for center in centers
    ])
    labels = np.repeat(np.arange(N_CLASSES), N_PER_CLASS)
    ood = rng.normal(0.0, 0.3, size=(N_OOD, 2))
    return xs, labels, ood


def _majority_config(configs) -> TrainConfig:
    # max keeps the first maximal item, so the earliest fold wins ties
    return max(configs, key=Counter(configs).__getitem__)


def run_demo(seed: int = 42) -> dict:
    xs, labels, ood = make_blobs(seed)

    assignment = stratified_split(labels, (0.70, 0.15, 0.15), seed=seed)
    train_ids, val_ids, test_ids = (np.flatnonzero(assignment == part) for part in range(3))

    cv = nested_cv_run(DEMO_GRID, xs[train_ids], labels[train_ids],
                       n_outer=5, n_inner=3, epochs=15, batch_size=32,
                       hidden_dim=HIDDEN_DIM, seed=seed)

    # the rival is the weakest stage-1 candidate of outer fold 0
    weakest = min(cv.selections[0].stage1, key=lambda c: c.mean_accuracy).config

    best = _majority_config(cv.selected)
    fit_ids = np.concatenate([train_ids, val_ids])

    def stream(config: TrainConfig, tag: int) -> Stream:
        model = init_model(2, HIDDEN_DIM, N_CLASSES, seed=derive_seed(seed, tag, 0))
        return Stream(model, xs[fit_ids], labels[fit_ids],
                      [replace(config, seed=derive_seed(seed, tag, 1))])

    fits = train_streams([stream(best, 1), stream(weakest, 2)])
    model, rival = (unstack(fitted)[0] for fitted in fits)  # ODIN scoring takes models

    test_x = xs[test_ids]
    test_y = labels[test_ids]
    test_pred = forward(model, test_x).argmax(axis=1)
    test_accuracy = prf_report(confusion(test_y, test_pred, N_CLASSES)).accuracy

    odin_config = OdinConfig(temperature=ODIN_TEMPERATURE, epsilon=ODIN_EPSILON)

    def detector_scores(points: np.ndarray) -> dict[str, np.ndarray]:
        logits = forward(model, points)
        return {
            "msp": msp_score(logits),
            # detectors share the larger-is-ID orientation, so energy enters negated
            "energy": -energy_score(logits),
            "odin": odin_score(model, points, odin_config),
        }

    id_scores = detector_scores(test_x)
    ood_scores = detector_scores(ood)
    ids = [f"id{i}" for i in range(len(test_x))] + [f"ood{i}" for i in range(len(ood))]
    is_id = [True] * len(test_x) + [False] * len(ood)
    scores = {method: np.concatenate([id_scores[method], ood_scores[method]])
              for method in id_scores}
    ood_reports = {method: ood_metrics(zip(ids, column.tolist(), is_id))
                   for method, column in scores.items()}
    sweep = threshold_sweep(scores["msp"], DEFAULT_TAUS)

    rival_pred = forward(rival, test_x).argmax(axis=1)
    outcome = paired_outcomes(test_pred == test_y, rival_pred == test_y)
    test_result = mcnemar(outcome)
    ci = paired_acc_diff_ci(outcome)

    return {
        "data": {
            "n_classes": N_CLASSES,
            "n_id": int(xs.shape[0]),
            "n_ood": int(ood.shape[0]),
            "input_dim": 2,
        },
        "split_counts": {
            "train": int(train_ids.size),
            "val": int(val_ids.size),
            "test": int(test_ids.size),
        },
        "nested_cv": cv.to_dict(),
        "final_config": best,
        "test_accuracy": test_accuracy,
        "odin_config": {"temperature": ODIN_TEMPERATURE, "epsilon": ODIN_EPSILON},
        "ood": ood_reports,
        "sweep": sweep,
        "mcnemar": {
            "config_a": best,
            "config_b": weakest,
            "n11": outcome.n11,
            "n10": outcome.n10,
            "n01": outcome.n01,
            "n00": outcome.n00,
            "chi2": test_result.chi2,
            "p": test_result.p,
            "degenerate": test_result.degenerate,
            "delta": ci.delta,
            "ci": [ci.lo, ci.hi],
        },
    }

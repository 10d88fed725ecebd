"""Dataset hygiene: near-duplicate removal, stratified splits, nested CV.

The perceptual hash keeps all arithmetic before the DCT in exact integers
(luma numerators, area-overlap resize numerators, integer mean centering),
so adding a constant brightness offset to every channel leaves the hash
bit-identical rather than approximately so. The DC coefficient never enters
the hash and positive scaling cannot move a value across the median.

Split and fold construction is deterministic for a fixed seed and uses one
generator family (numpy PCG64 via default_rng) like the rest of the package.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .data_model import RgbImage
from .errors import (
    BadParameter,
    EmptyInput,
    InputFormatError,
    LengthMismatch,
    MissingClass,
    RowNotNormalized,
    TooFewSamplesPerClass,
)
from .tiny_model import (
    TinyClassifier,
    TrainConfig,
    derive_seed,
    forward,
    init_model,
    train,
)

__all__ = [
    "phash64",
    "hamming",
    "DedupReport",
    "cluster_near_duplicates",
    "stratified_split",
    "FoldPlan",
    "nested_fold_plan",
    "audit_fold_plan",
    "class_weights",
    "HyperGrid",
    "CandidateScore",
    "SelectionResult",
    "inner_select",
    "NestedCvResult",
    "nested_cv_run",
]


# --- perceptual hash --------------------------------------------------------

def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis as an n x n matrix."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    mat = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    mat[0] *= np.sqrt(0.5)
    return mat


_DCT32 = _dct_matrix(32)


@functools.lru_cache(maxsize=64)
def _area_weights(length: int, bins: int = 32) -> np.ndarray:
    """Integer overlap of each source pixel with each target bin, as read-only float64.

    Pixel p covers [p, p+1) and bin j covers [j*length/bins, (j+1)*length/bins);
    scaling both by `bins` makes every overlap an integer. Each row sums to
    `length`, so bin means are (row @ values) / length.
    """
    pixel = np.arange(length)[None, :] * bins
    edge = np.arange(bins)[:, None] * length
    overlap = np.minimum(pixel + bins, edge + length) - np.maximum(pixel, edge)
    weights = np.maximum(overlap, 0).astype(np.float64)
    weights.flags.writeable = False
    return weights


_BIT_SHIFTS = np.arange(63, 0, -1, dtype=np.uint64)


def phash64(image: RgbImage) -> int:
    """64-bit perceptual hash: luma, 32x32 area resize, DCT, median bits.

    The top-left 8x8 DCT block supplies 63 coefficients (DC excluded); each
    bit is 1 when its coefficient strictly exceeds their median. Bits are
    packed row-major from the most significant end with a zero pad bit last.
    """
    px = image.pixels.astype(np.int64)
    luma = 299 * px[:, :, 0] + 587 * px[:, :, 1] + 114 * px[:, :, 2]
    # the resize runs in float64 BLAS but stays exact: every partial sum is
    # an integer <= 255000 * h * w, below 2**53 for any image under 3.5e10 px
    resized = _area_weights(image.height) @ luma.astype(np.float64) @ _area_weights(image.width).T
    cells = resized.astype(np.int64)
    # exact integer centering: true cell values scaled by 1024 * 1000 * h * w
    centered = 1024 * cells - cells.sum()
    coeffs = _DCT32 @ centered.astype(np.float64) @ _DCT32.T
    ac = coeffs[:8, :8].ravel()[1:]
    median = np.partition(ac, 31)[31]  # the middle of 63 values, exactly np.median
    bits = (ac > median).astype(np.uint64)
    return int((bits << _BIT_SHIFTS).sum())


def hamming(a: int, b: int) -> int:
    """Number of differing bits between two hashes."""
    return (a ^ b).bit_count()


@dataclass(frozen=True)
class DedupReport:
    """Transitive-closure clusters at the distance threshold.

    clusters is the full partition (singletons included), each sorted, in
    order of its representative. representatives holds the lexicographically
    smallest id of each cluster; those are the images to keep.
    """

    clusters: tuple[tuple[str, ...], ...]
    representatives: tuple[str, ...]
    total: int
    removed: int
    removed_fraction: float
    max_dist: int


_DEDUP_BLOCK = 256  # rows per XOR block: one block is 256 x n uint64 words at a time


def _near_pairs(values: np.ndarray, max_dist: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs i < j whose hashes differ in at most max_dist bits."""
    firsts, seconds = [], []
    for start in range(0, values.size, _DEDUP_BLOCK):
        block = values[start:start + _DEDUP_BLOCK]
        near = np.bitwise_count(block[:, None] ^ values[None, start:]) <= max_dist
        i, j = np.nonzero(np.triu(near, 1))
        firsts.append(i + start)
        seconds.append(j + start)
    return np.concatenate(firsts), np.concatenate(seconds)


def _components(n: int, firsts: np.ndarray, seconds: np.ndarray) -> np.ndarray:
    """Smallest member index of each node's connected component.

    Every round moves the smaller label of each pair onto both ends, then
    lets each node jump to its label's label; it stops once no pair joins
    two labels, and the smallest index never changes, so it wins.
    """
    label = np.arange(n)
    while True:
        low = np.minimum(label[firsts], label[seconds])
        new = label.copy()
        np.minimum.at(new, firsts, low)
        np.minimum.at(new, seconds, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def cluster_near_duplicates(hashes: dict[str, int], max_dist: int = 10) -> DedupReport:
    """Group ids whose 64-bit hashes chain together within max_dist.

    All pairs are compared by XOR and popcount over blocks of rows, which
    keeps the O(n^2) distance matrix to a block at a time; connected
    components of the pairs within max_dist are the clusters. A cluster may
    span more than max_dist end to end because closure is transitive.
    """
    ids = sorted(hashes)
    if not ids:
        raise EmptyInput("no hashes to cluster")
    raw = [hashes[i] for i in ids]
    # a uint64 array would truncate floats silently, so check the type first
    if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
               and 0 <= v < 2**64 for v in raw):
        raise InputFormatError("hashes must be integers in [0, 2**64)")
    values = np.array(raw, dtype=np.uint64)
    roots = _components(len(ids), *_near_pairs(values, max_dist))
    # a root is its cluster's smallest index, hence its smallest id, so
    # grouping by root yields clusters already in representative order
    order = np.argsort(roots, kind="stable")
    bounds = np.flatnonzero(np.diff(roots[order])) + 1
    clusters = [tuple(ids[k] for k in group) for group in np.split(order, bounds)]
    removed = len(ids) - len(clusters)
    return DedupReport(
        clusters=tuple(clusters),
        representatives=tuple(c[0] for c in clusters),
        total=len(ids),
        removed=removed,
        removed_fraction=removed / len(ids),
        max_dist=max_dist,
    )


# --- splits and folds -------------------------------------------------------

def _largest_remainder(n: int, ratios: tuple[float, ...]) -> list[int]:
    """Integer allocation of n by ratio; leftovers go to largest remainders,
    ties to the earlier part."""
    scaled = [n * r for r in ratios]
    base = [int(np.floor(s)) for s in scaled]
    leftover = n - sum(base)
    order = sorted(range(len(ratios)), key=lambda k: (-(scaled[k] - base[k]), k))
    for k in order[:leftover]:
        base[k] += 1
    return base


def _check_ratios(ratios) -> tuple[float, ...]:
    ratios = tuple(float(r) for r in ratios)
    if not ratios or not all(0.0 <= r < math.inf for r in ratios):  # also rejects nan
        raise RowNotNormalized(f"ratios must be finite and nonnegative, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise RowNotNormalized(f"ratios sum to {sum(ratios)!r}, not 1")
    return ratios


def stratified_split(labels, ratios=(0.70, 0.15, 0.15), seed: int = 42) -> np.ndarray:
    """Per-class largest-remainder allocation into len(ratios) parts.

    Returns one part index per sample. Within each class (processed in
    sorted class order) the samples are shuffled once, then dealt to parts
    in order, so part sizes per class match largest-remainder rounding
    exactly and every sample lands in exactly one part.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise EmptyInput("no labels to split")
    ratios = _check_ratios(ratios)
    rng = np.random.default_rng(seed)
    assignment = np.full(labels.shape[0], -1, dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        counts = _largest_remainder(idx.size, ratios)
        start = 0
        for part, count in enumerate(counts):
            assignment[idx[start:start + count]] = part
            start += count
    return assignment


@dataclass(frozen=True)
class FoldPlan:
    """Stratified nested fold layout over sample positions 0..n-1.

    outer_test[k] holds fold k's held-out ids. inner_val[k][i] holds the
    i-th inner validation set, the three of which partition fold k's
    training ids (everything outside outer_test[k]).
    """

    n_samples: int
    outer_test: tuple[tuple[int, ...], ...]
    inner_val: tuple[tuple[tuple[int, ...], ...], ...]

    @property
    def n_outer(self) -> int:
        return len(self.outer_test)

    @property
    def n_inner(self) -> int:
        return len(self.inner_val[0]) if self.inner_val else 0

    def outer_train(self, k: int) -> tuple[int, ...]:
        held = set(self.outer_test[k])
        return tuple(i for i in range(self.n_samples) if i not in held)


def _stratified_partition(ids: np.ndarray, labels: np.ndarray, k: int,
                          rng: np.random.Generator) -> list[list[int]]:
    """Split ids into k stratified chunks; per-class sizes differ by <= 1."""
    chunks: list[list[int]] = [[] for _ in range(k)]
    for cls in np.unique(labels[ids]):
        members = ids[labels[ids] == cls]
        members = members[rng.permutation(members.size)]
        base, extra = divmod(members.size, k)
        start = 0
        for fold in range(k):
            size = base + (1 if fold < extra else 0)
            chunks[fold].extend(int(i) for i in members[start:start + size])
            start += size
    return chunks


def nested_fold_plan(labels, n_outer: int = 5, n_inner: int = 3,
                     seed: int = 42) -> FoldPlan:
    """Stratified n_outer x n_inner fold layout.

    Every class needs at least n_outer samples. Outer folds partition all
    ids; each outer fold's training ids are partitioned again into n_inner
    validation sets, so no outer-test id can appear in any inner set of its
    own fold by construction.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise EmptyInput("no labels to fold")
    if n_outer < 2 or n_inner < 2:
        raise TooFewSamplesPerClass("fold counts must be at least 2")
    classes, counts = np.unique(labels, return_counts=True)
    for cls, count in zip(classes, counts):
        if count < n_outer:
            raise TooFewSamplesPerClass(f"class {cls.item()!r} has {count} samples, needs >= {n_outer}")
    rng = np.random.default_rng(seed)
    all_ids = np.arange(labels.size)
    outer = _stratified_partition(all_ids, labels, n_outer, rng)
    inner_all = []
    for k in range(n_outer):
        train_ids = np.asarray(sorted(set(range(labels.size)) - set(outer[k])))
        inner = _stratified_partition(train_ids, labels, n_inner, rng)
        if any(len(chunk) == 0 for chunk in inner):
            raise TooFewSamplesPerClass(f"outer fold {k} leaves an empty inner set")
        inner_all.append(tuple(tuple(sorted(chunk)) for chunk in inner))
    return FoldPlan(
        n_samples=int(labels.size),
        outer_test=tuple(tuple(sorted(f)) for f in outer),
        inner_val=tuple(inner_all),
    )


def audit_fold_plan(plan: FoldPlan, labels) -> dict[str, bool]:
    """Leakage audit: partition properties every conforming plan must satisfy."""
    labels = np.asarray(labels)
    n = plan.n_samples
    outer_ids = [set(f) for f in plan.outer_test]
    union = set().union(*outer_ids) if outer_ids else set()
    outer_partition = len(union) == n and sum(len(f) for f in outer_ids) == n
    inner_ok = True
    no_leak = True
    for k in range(plan.n_outer):
        train = set(plan.outer_train(k))
        seen: set[int] = set()
        for val in plan.inner_val[k]:
            vs = set(val)
            if vs & outer_ids[k]:
                no_leak = False
            if vs & seen:
                inner_ok = False
            seen |= vs
        if seen != train:
            inner_ok = False
    counts_ok = True
    for cls in np.unique(labels):
        per_fold = [sum(1 for i in f if labels[i] == cls) for f in plan.outer_test]
        if max(per_fold) - min(per_fold) > 1:
            counts_ok = False
    return {
        "outer_sets_partition_all_ids": outer_partition,
        "inner_sets_partition_training_ids": inner_ok,
        "no_outer_test_id_in_inner_sets": no_leak,
        "per_class_outer_counts_within_one": counts_ok,
    }


def class_weights(labels, n_classes: int) -> np.ndarray:
    """Inverse-frequency weights (N / C) / count_c; mean-1 normalized in the
    sense that the weighted sample count equals N."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise EmptyInput("no labels to weight")
    counts = np.bincount(labels.astype(np.int64), minlength=n_classes)
    if (counts[:n_classes] == 0).any():
        missing = int(np.flatnonzero(counts[:n_classes] == 0)[0])
        raise MissingClass(f"class {missing} has no samples")
    return (labels.size / n_classes) / counts[:n_classes].astype(np.float64)


# --- two-stage nested search -------------------------------------------------

@dataclass(frozen=True)
class HyperGrid:
    """Search space: stage 1 tunes the head with the backbone frozen, stage 2
    unfreezes and tunes backbone lr and mixup on the stage-1 survivors."""

    head_lrs: tuple[float, ...] = (1e-3, 3e-3)
    weight_decays: tuple[float, ...] = (1e-4, 1e-1)
    label_smoothings: tuple[float, ...] = (0.0, 0.1)
    backbone_lrs: tuple[float, ...] = (1e-5, 3e-4)
    mixup_alphas: tuple[float, ...] = (0.0, 0.2)
    top_k: int = 2

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise BadParameter(f"top_k must be >= 1, got {self.top_k}")


@dataclass(frozen=True)
class CandidateScore:
    config: TrainConfig
    mean_accuracy: float


@dataclass(frozen=True)
class SelectionResult:
    best: TrainConfig
    stage1: tuple[CandidateScore, ...]
    stage2: tuple[CandidateScore, ...]


def _eval_candidate(config: TrainConfig, xs: np.ndarray, labels: np.ndarray,
                    plan: FoldPlan, outer_index: int, hidden_dim: int,
                    n_classes: int, stage: int, seed: int) -> float:
    """Mean inner-validation accuracy of one config on one outer fold.

    Seeds depend on (outer fold, stage, inner fold) but never on the
    candidate's position in the grid, so every candidate trains from the same
    initialization on the same batches. Configs with identical effect then
    score identically and the tie rules actually decide.
    """
    train_ids = set(plan.outer_train(outer_index))
    accs = []
    for fold, val in enumerate(plan.inner_val[outer_index]):
        val_ids = np.asarray(val)
        fit_ids = np.asarray(sorted(train_ids - set(val)))
        run_seed = derive_seed(seed, outer_index, stage, fold)
        model = init_model(xs.shape[1], hidden_dim, n_classes,
                           seed=derive_seed(run_seed, 0))
        fitted, _ = train(model, xs[fit_ids], labels[fit_ids],
                          replace(config, seed=derive_seed(run_seed, 1)))
        pred = forward(fitted, xs[val_ids]).argmax(axis=1)
        accs.append(float((pred == labels[val_ids]).mean()))
    return float(np.mean(accs))


def _pick_best(cands: list[CandidateScore]) -> CandidateScore:
    # ties: lower weight decay first, then enumeration order
    best = cands[0]
    for cand in cands[1:]:
        if cand.mean_accuracy > best.mean_accuracy or (
            cand.mean_accuracy == best.mean_accuracy
            and cand.config.weight_decay < best.config.weight_decay
        ):
            best = cand
    return best


def inner_select(grid: HyperGrid, xs, labels, plan: FoldPlan, outer_index: int,
                 *, epochs: int = 20, batch_size: int = 32, hidden_dim: int = 8,
                 seed: int = 42) -> SelectionResult:
    """Two-stage inner-loop search on one outer fold.

    Stage 1 trains with the backbone frozen over head lr x weight decay x
    label smoothing and keeps the top_k configs by mean inner accuracy.
    Stage 2 crosses the survivors with backbone lr x mixup. Ties break
    toward lower weight decay, then earlier enumeration order.
    """
    xs = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels)
    n_classes = int(labels.max()) + 1

    stage1: list[CandidateScore] = []
    combos1 = list(itertools.product(grid.head_lrs, grid.weight_decays,
                                     grid.label_smoothings))
    for head_lr, decay, smoothing in combos1:
        config = TrainConfig(
            epochs=epochs, batch_size=batch_size, head_lr=head_lr,
            backbone_lr=0.0, weight_decay=decay, label_smoothing=smoothing,
            mixup_alpha=0.0, seed=0,
        )
        score = _eval_candidate(config, xs, labels, plan, outer_index,
                                hidden_dim, n_classes, 1, seed)
        stage1.append(CandidateScore(config, score))

    ranked = sorted(
        range(len(stage1)),
        key=lambda i: (-stage1[i].mean_accuracy, stage1[i].config.weight_decay, i),
    )
    survivors = [stage1[i] for i in ranked[:grid.top_k]]

    stage2: list[CandidateScore] = []
    combos2 = list(itertools.product(range(len(survivors)), grid.backbone_lrs,
                                     grid.mixup_alphas))
    for si, backbone_lr, mixup_alpha in combos2:
        config = replace(survivors[si].config, backbone_lr=backbone_lr,
                         mixup_alpha=mixup_alpha)
        score = _eval_candidate(config, xs, labels, plan, outer_index,
                                hidden_dim, n_classes, 2, seed)
        stage2.append(CandidateScore(config, score))

    return SelectionResult(_pick_best(stage2).config, tuple(stage1), tuple(stage2))


@dataclass(frozen=True)
class NestedCvResult:
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    sd_accuracy: float
    selections: tuple[SelectionResult, ...]  # one inner search per outer fold
    audit: dict[str, bool]

    @property
    def selected(self) -> tuple[TrainConfig, ...]:
        return tuple(choice.best for choice in self.selections)

    @property
    def audit_passed(self) -> bool:
        return all(self.audit.values())

    def to_dict(self) -> dict:
        from dataclasses import asdict
        return {
            "fold_accuracies": list(self.fold_accuracies),
            "mean_accuracy": self.mean_accuracy,
            "sd_accuracy": self.sd_accuracy,
            "selected": [asdict(c) for c in self.selected],
            "audit": dict(self.audit),
            "audit_passed": self.audit_passed,
        }


def nested_cv_run(grid: HyperGrid, xs, labels, n_outer: int = 5, n_inner: int = 3,
                  *, epochs: int = 20, batch_size: int = 32, hidden_dim: int = 8,
                  seed: int = 42) -> NestedCvResult:
    """Full nested CV: per outer fold, inner_select then retrain and test.

    Reports one accuracy per outer fold, their mean, and the sample standard
    deviation (ddof 1). The audit block re-checks the fold plan for leakage.
    """
    xs = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels)
    plan = nested_fold_plan(labels, n_outer, n_inner, seed)
    audit = audit_fold_plan(plan, labels)
    n_classes = int(labels.max()) + 1

    accuracies = []
    selections = []
    for k in range(n_outer):
        choice = inner_select(grid, xs, labels, plan, k, epochs=epochs,
                              batch_size=batch_size, hidden_dim=hidden_dim,
                              seed=seed)
        train_ids = np.asarray(plan.outer_train(k))
        test_ids = np.asarray(plan.outer_test[k])
        run_seed = derive_seed(seed, k, 3)
        model = init_model(xs.shape[1], hidden_dim, n_classes,
                           seed=derive_seed(run_seed, 0))
        fitted, _ = train(model, xs[train_ids], labels[train_ids],
                          replace(choice.best, seed=derive_seed(run_seed, 1)))
        pred = forward(fitted, xs[test_ids]).argmax(axis=1)
        accuracies.append(float((pred == labels[test_ids]).mean()))
        selections.append(choice)

    mean = float(np.mean(accuracies))
    sd = float(np.std(accuracies, ddof=1)) if len(accuracies) > 1 else 0.0
    return NestedCvResult(tuple(accuracies), mean, sd, tuple(selections), audit)

"""Dataset hygiene: near-duplicate removal, stratified splits, nested CV.

The perceptual hash keeps all arithmetic before the DCT in exact integers
(luma numerators, area-overlap resize numerators, integer mean centering),
so adding a constant brightness offset to every channel leaves the hash
bit-identical rather than approximately so. The DC coefficient never enters
the hash and positive scaling cannot move a value across the median.

Split and fold construction is deterministic for a fixed seed and uses one
generator family (numpy PCG64 via default_rng) like the rest of the package.
Both deal each class, shuffled once, to parts in runs. A split is a part
index per sample; a fold plan is an outer fold per sample, shape (n,), plus an
inner fold per outer fold and sample, shape (n_outer, n), -1 where held out.

nested_cv_run spreads its outer folds' searches over the usable CPUs
(freshkit.shares): this process and one forked helper per further CPU each
run inner_select on a share of the folds, dealt by training-row count.
Each fold's selection equals inner_select on that fold alone, so the report
does not depend on how many CPUs there are, and a failing search raises
what it raises on one CPU.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import shares, tiny_model  # bound unexecuted under the cli: split and folds run neither
from .data_model import RgbImage, derive_seed
from .errors import (
    BadParameter,
    DimensionMismatch,
    EmptyInput,
    InputFormatError,
    RowNotNormalized,
    TooFewSamplesPerClass,
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

def _largest_remainder(n: int, ratios: tuple[float, ...]) -> np.ndarray:
    """Integer allocation of n by ratio; leftovers go to largest remainders,
    ties to the earlier part."""
    scaled = n * np.array(ratios)
    base = np.floor(scaled).astype(np.int64)
    base[np.argsort(base - scaled, kind="stable")[:n - base.sum()]] += 1
    return base


def _check_ratios(ratios) -> tuple[float, ...]:
    ratios = tuple(float(r) for r in ratios)
    if not ratios or not all(0.0 <= r < math.inf for r in ratios):  # also rejects nan
        raise RowNotNormalized(f"ratios must be finite and nonnegative, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise RowNotNormalized(f"ratios sum to {sum(ratios)!r}, not 1")
    return ratios


def _even_sizes(n: int, parts: int) -> list[int]:
    base, extra = divmod(n, parts)  # sizes differ by at most one, larger first
    return [base + (part < extra) for part in range(parts)]


def _deal(labels: np.ndarray, sizes, rng: np.random.Generator) -> np.ndarray:
    """Part index per sample: each class, in sorted order, is shuffled once
    and dealt to parts 0, 1, ... in runs of sizes(class count)."""
    parts = np.empty(labels.size, dtype=np.int64)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        counts = sizes(members.size)
        parts[members[rng.permutation(members.size)]] = np.repeat(np.arange(len(counts)), counts)
    return parts


def stratified_split(labels, ratios=(0.70, 0.15, 0.15), seed: int = 42) -> np.ndarray:
    """Per-class largest-remainder allocation into len(ratios) parts.

    Returns one part index per sample; part sizes per class match
    largest-remainder rounding exactly.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise EmptyInput("no labels to split")
    ratios = _check_ratios(ratios)
    return _deal(labels, lambda n: _largest_remainder(n, ratios), np.random.default_rng(seed))


@dataclass(frozen=True, eq=False)
class FoldPlan:
    """Stratified nested fold layout over sample positions 0..n-1.

    Two read-only int64 arrays: outer (n,) is the outer fold that holds
    sample i out; inner (n_outer, n) is i's inner validation fold inside outer
    fold k, or -1 where i is in fold k's test set. Keeping both lets the audit
    compare two independent facts; the accessors return ascending ids.
    """

    outer: np.ndarray
    inner: np.ndarray

    def __post_init__(self) -> None:
        for name in ("outer", "inner"):
            array = np.array(getattr(self, name), dtype=np.int64)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def n_samples(self) -> int:
        return self.outer.size

    @property
    def n_outer(self) -> int:
        return self.inner.shape[0]

    @property
    def n_inner(self) -> int:
        return int(self.inner.max(initial=-1)) + 1

    def outer_test(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.outer == k)

    def outer_train(self, k: int) -> np.ndarray:
        return np.flatnonzero(self.outer != k)

    def inner_val(self, k: int, fold: int) -> np.ndarray:
        return np.flatnonzero(self.inner[k] == fold)

    def inner_fit(self, k: int, fold: int) -> np.ndarray:
        """Outer fold k's training ids outside inner validation fold `fold`."""
        return np.flatnonzero((self.outer != k) & (self.inner[k] != fold))


def nested_fold_plan(labels, n_outer: int = 5, n_inner: int = 3,
                     seed: int = 42) -> FoldPlan:
    """Stratified n_outer x n_inner fold layout.

    Every class needs at least n_outer samples. Outer folds partition all
    ids; each outer fold's training ids are dealt again into n_inner
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
    outer = _deal(labels, lambda n: _even_sizes(n, n_outer), rng)
    inner = np.full((n_outer, labels.size), -1, dtype=np.int64)
    for k in range(n_outer):
        train = np.flatnonzero(outer != k)
        inner[k, train] = _deal(labels[train], lambda n: _even_sizes(n, n_inner), rng)
        if np.bincount(inner[k, train], minlength=n_inner).min() == 0:
            raise TooFewSamplesPerClass(f"outer fold {k} leaves an empty inner set")
    return FoldPlan(outer, inner)


def audit_fold_plan(plan: FoldPlan, labels) -> dict[str, bool]:
    """Leakage audit: partition properties every conforming plan must satisfy.

    A sample whose outer fold index is out of range is in no outer test set.
    labels must hold one label per sample of the plan (else DimensionMismatch).
    """
    labels = np.asarray(labels)
    if labels.shape != (plan.n_samples,):
        raise DimensionMismatch(f"{labels.size} labels for a plan of {plan.n_samples} samples")
    held = plan.outer == np.arange(plan.n_outer)[:, None]
    placed = held.any(axis=0)
    in_inner = plan.inner >= 0
    classes, cls = np.unique(labels, return_inverse=True)
    table = np.zeros((classes.size, plan.n_outer), dtype=np.int64)
    np.add.at(table, (cls[placed], plan.outer[placed]), 1)
    return {
        "outer_sets_partition_all_ids": bool(placed.all()),
        "inner_sets_partition_training_ids": bool(np.array_equal(in_inner, ~held)),
        "no_outer_test_id_in_inner_sets": not (in_inner & held).any(),
        "per_class_outer_counts_within_one": bool((np.ptp(table, axis=1) <= 1).all()),
    }


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
    config: tiny_model.TrainConfig
    mean_accuracy: float


@dataclass(frozen=True)
class SelectionResult:
    best: tiny_model.TrainConfig
    stage1: tuple[CandidateScore, ...]
    stage2: tuple[CandidateScore, ...]


def _run_streams(run_seed: int, xs: np.ndarray, labels: np.ndarray, hidden_dim: int,
                 n_classes: int, groups) -> list[tiny_model.Stream]:
    """One stream per group of configs on the rows xs, all of one training
    run: the run seed gives their initial model and their batch seed."""
    model = tiny_model.init_model(xs.shape[1], hidden_dim, n_classes,
                                  seed=derive_seed(run_seed, 0))
    batch_seed = derive_seed(run_seed, 1)
    return [tiny_model.Stream(model, xs, labels, [replace(c, seed=batch_seed) for c in group])
            for group in groups]


def _eval_configs(folds, xs: np.ndarray, labels: np.ndarray, plan: FoldPlan,
                  hidden_dim: int, n_classes: int, stage: int,
                  seed: int) -> list[list[CandidateScore]]:
    """One stage of inner_select: each (outer fold, configs) pair's configs
    scored by mean inner-validation accuracy, in one stacked call."""
    streams, owners = [], []
    for slot, (outer, configs) in enumerate(folds):
        groups = [[i for i, c in enumerate(configs) if c.mixup_alpha == alpha]
                  for alpha in dict.fromkeys(c.mixup_alpha for c in configs)]
        for fold in range(plan.n_inner):
            fit_ids = plan.inner_fit(outer, fold)
            val_ids = plan.inner_val(outer, fold)
            streams += _run_streams(derive_seed(seed, outer, stage, fold), xs[fit_ids],
                                    labels[fit_ids], hidden_dim, n_classes,
                                    [[configs[i] for i in members] for members in groups])
            owners += [(slot, members, val_ids) for members in groups]
    accs = [[[] for _ in configs] for _, configs in folds]
    for fitted, (slot, members, val_ids) in zip(tiny_model.train_streams(streams), owners):
        hits = tiny_model.forward_stack(fitted, xs[val_ids]).argmax(axis=2) == labels[val_ids]
        for i, acc in zip(members, hits.mean(axis=1)):
            accs[slot][i].append(float(acc))
    return [[CandidateScore(c, float(np.mean(a))) for c, a in zip(configs, fold)]
            for (_, configs), fold in zip(folds, accs)]


def _ranked(cands: list[CandidateScore]) -> list[CandidateScore]:
    # best first; ties: lower weight decay first, then enumeration order (stable sort)
    return sorted(cands, key=lambda c: (-c.mean_accuracy, c.config.weight_decay))


def inner_select(grid: HyperGrid, xs, labels, plan: FoldPlan, outers: list[int],
                 *, epochs: int = 20, batch_size: int = 32, hidden_dim: int = 8,
                 seed: int = 42) -> list[SelectionResult]:
    """Two-stage inner-loop search on each listed outer fold, one result per fold.

    Stage 1 trains with the backbone frozen over head lr x weight decay x
    label smoothing and keeps the top_k configs by mean inner accuracy.
    Stage 2 crosses the survivors with backbone lr x mixup. Ties break
    toward lower weight decay, then earlier enumeration order.

    A run's seeds depend on (outer fold, stage, inner fold) but never on a
    candidate's position in the grid, so on each inner fold every candidate
    of a stage trains from the same initialization on the same batches.
    Configs with identical effect then score identically and the tie rules
    actually decide. That is also what lets each stage of all listed folds
    train in one stacked SGD loop of streams, one per (outer fold, inner
    fold, mixup alpha), since the batch draws depend on alpha; the streams
    share epochs, batch size and architecture, while their rows,
    initializations and batch seeds differ, and the folds may differ in
    size. In stage 1 no candidate moves its backbone, so the loop evaluates
    each stream's hidden layer once for all its candidates. A candidate's
    score equals training it alone, and stage 2 of a fold depends only on
    its own stage 1, so a fold's result does not depend on which other
    folds are listed. Peak memory grows with listed folds x n_inner x grid
    size.
    """
    xs = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels)
    n_classes = int(labels.max()) + 1
    configs1 = [
        tiny_model.TrainConfig(epochs=epochs, batch_size=batch_size, head_lr=head_lr,
                               backbone_lr=0.0, weight_decay=decay,
                               label_smoothing=smoothing, mixup_alpha=0.0, seed=0)
        for head_lr, decay, smoothing in itertools.product(
            grid.head_lrs, grid.weight_decays, grid.label_smoothings)
    ]
    stage1 = _eval_configs([(k, configs1) for k in outers], xs, labels, plan,
                           hidden_dim, n_classes, 1, seed)
    stage2 = _eval_configs([
        (k, [replace(survivor.config, backbone_lr=backbone_lr, mixup_alpha=mixup_alpha)
             for survivor, backbone_lr, mixup_alpha in itertools.product(
                 _ranked(fold)[:grid.top_k], grid.backbone_lrs, grid.mixup_alphas)])
        for k, fold in zip(outers, stage1)
    ], xs, labels, plan, hidden_dim, n_classes, 2, seed)
    return [SelectionResult(_ranked(two)[0].config, tuple(one), tuple(two))
            for one, two in zip(stage1, stage2)]


@dataclass(frozen=True)
class NestedCvResult:
    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    sd_accuracy: float
    selections: tuple[SelectionResult, ...]  # one inner search per outer fold
    audit: dict[str, bool]

    @property
    def selected(self) -> tuple[tiny_model.TrainConfig, ...]:
        return tuple(choice.best for choice in self.selections)

    @property
    def audit_passed(self) -> bool:
        return all(self.audit.values())

    def to_dict(self) -> dict:
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
    """Full nested CV: inner_select on every outer fold, then retrain and test.

    Reports one accuracy per outer fold, their mean, and the sample standard
    deviation (ddof 1). The audit block re-checks the fold plan for leakage.

    The outer folds are dealt by training-row count into one share per
    usable CPU, min(n_outer, CPUs) shares, and each share runs inner_select
    on its folds, share 0 in this process and each other share in a forked
    helper (freshkit.shares). The final fits of every fold are one more
    stacked call here, each seeded as a search run of stage 3. Each
    selection equals inner_select on its fold alone, so the result does not
    depend on the CPU count. If a share fails, this process searches every
    fold itself, so a diverging candidate raises the TrainingDiverged a run
    on one CPU raises.
    """
    xs = np.asarray(xs, dtype=np.float64)
    labels = np.asarray(labels)
    plan = nested_fold_plan(labels, n_outer, n_inner, seed)
    audit = audit_fold_plan(plan, labels)
    n_classes = int(labels.max()) + 1

    # read before the fork, so tiny_model executes once, here, not in each helper
    train_streams = tiny_model.train_streams
    selections = shares.map_shares(
        functools.partial(inner_select, grid, xs, labels, plan, epochs=epochs,
                          batch_size=batch_size, hidden_dim=hidden_dim, seed=seed),
        [plan.outer_train(k).size for k in range(n_outer)])
    # the final fits train as one stacked call, one stream per outer fold
    finals = []
    for k, choice in enumerate(selections):
        train_ids = plan.outer_train(k)
        finals += _run_streams(derive_seed(seed, k, 3), xs[train_ids], labels[train_ids],
                               hidden_dim, n_classes, [[choice.best]])
    accuracies = []
    for k, fitted in enumerate(train_streams(finals)):
        test_ids = plan.outer_test(k)
        pred = tiny_model.forward_stack(fitted, xs[test_ids])[0].argmax(axis=1)
        accuracies.append(float((pred == labels[test_ids]).mean()))

    mean = float(np.mean(accuracies))
    sd = float(np.std(accuracies, ddof=1)) if len(accuracies) > 1 else 0.0
    return NestedCvResult(tuple(accuracies), mean, sd, tuple(selections), audit)

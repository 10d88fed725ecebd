import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freshkit import demo, hygiene, tiny_model
from freshkit.data_model import RgbImage, grayscale_as_rgb
from freshkit.demo import DEMO_GRID
from freshkit.errors import (
    BadLabelIndex,
    BadParameter,
    DimensionMismatch,
    InputFormatError,
    RowNotNormalized,
    TooFewSamplesPerClass,
)
from freshkit.hygiene import (
    _DEDUP_BLOCK,
    CandidateScore,
    FoldPlan,
    HyperGrid,
    NestedCvResult,
    _area_weights,
    _ranked,
    audit_fold_plan,
    cluster_near_duplicates,
    hamming,
    inner_select,
    nested_cv_run,
    nested_fold_plan,
    phash64,
    phash64_stack,
    stratified_split,
)
from freshkit.tiny_model import derive_seed, forward, init_model, train, train_streams


def _random_image(rng, h=48, w=64):
    return RgbImage(rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8))


# --- perceptual hash --------------------------------------------------------

def test_phash_is_deterministic_64_bit():
    rng = np.random.default_rng(0)
    img = _random_image(rng)
    h1 = phash64(img)
    h2 = phash64(img)
    assert h1 == h2
    assert 0 <= h1 < 2**64


def test_phash_brightness_offset_invariance():
    # uniform brightness shifts cancel in the mean-centering step; the
    # arithmetic is integer so the cancellation is exact, never approximate
    rng = np.random.default_rng(1)
    for _ in range(20):
        base = rng.integers(30, 220, size=(40, 56, 3)).astype(np.int32)
        img = RgbImage(base.astype(np.uint8))
        brighter = RgbImage((base + 20).astype(np.uint8))
        darker = RgbImage((base - 20).astype(np.uint8))
        assert phash64(img) == phash64(brighter) == phash64(darker)


def test_phash_downscale_idempotence():
    # an image constant on 2x2 blocks carries no information the 32x32
    # resample loses, so hashing it and its half-size version must agree
    rng = np.random.default_rng(2)
    small = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
    big = np.kron(small, np.ones((2, 2), dtype=np.uint8))
    assert phash64(grayscale_as_rgb(small)) == phash64(grayscale_as_rgb(big))


def test_phash_separates_structured_images():
    yy, xx = np.mgrid[0:64, 0:64]
    gradient = (xx * 4).astype(np.uint8)
    checker = (((yy // 8 + xx // 8) % 2) * 255).astype(np.uint8)
    d = hamming(phash64(grayscale_as_rgb(gradient)), phash64(grayscale_as_rgb(checker)))
    assert d > 10


def _reference_phash(image):
    """phash64 with every step before the DCT in Python-loop integers."""
    def weights(length, bins=32):
        out = np.zeros((bins, length), dtype=np.int64)
        for j in range(bins):
            for p in range(length):
                out[j, p] = max(0, min((p + 1) * bins, (j + 1) * length)
                                - max(p * bins, j * length))
        return out

    px = image.pixels.astype(np.int64)
    luma = 299 * px[:, :, 0] + 587 * px[:, :, 1] + 114 * px[:, :, 2]
    cells = weights(image.height) @ luma @ weights(image.width).T  # int64 matmul, no BLAS
    centered = 1024 * cells - cells.sum()
    k = np.arange(32)[:, None]
    dct = np.sqrt(2.0 / 32) * np.cos(np.pi * (2 * np.arange(32)[None, :] + 1) * k / 64)
    dct[0] *= np.sqrt(0.5)
    ac = (dct @ centered.astype(np.float64) @ dct.T)[:8, :8].ravel()[1:]
    median = np.median(ac)
    value = 0
    for coeff in ac:
        value = (value << 1) | int(coeff > median)
    return value << 1


@pytest.mark.parametrize("shape", [(9, 13), (48, 48), (257, 311), (1000, 700)])
def test_phash_equals_integer_reference(shape):
    rng = np.random.default_rng(shape[0])
    for pixels in (rng.integers(0, 256, size=(*shape, 3), dtype=np.uint8),
                   np.full((*shape, 3), 255, dtype=np.uint8)):
        image = RgbImage(pixels)
        assert phash64(image) == _reference_phash(image)


# 1x1, 1xN, Nx1, square and non-square images
PHASH_SHAPES = st.tuples(st.integers(1, 40), st.integers(1, 40))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(shape=PHASH_SHAPES, k=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
       flat=st.booleans())
def test_phash64_stack_equals_per_image_hashes(shape, k, seed, flat):
    # an image's hash does not depend on which images share its stack, and
    # is the integer reference's
    rng = np.random.default_rng(seed)
    stack = rng.integers(0, 256, size=(k, *shape, 3), dtype=np.uint8)
    if flat:  # one colour per image: every AC coefficient ties at the median
        stack[:] = stack[:, :1, :1]
    hashes = phash64_stack(stack)
    assert hashes.dtype == np.uint64 and hashes.shape == (k,)
    assert hashes.tolist() == [phash64(RgbImage(pixels)) for pixels in stack]
    assert hashes.tolist() == [_reference_phash(RgbImage(pixels)) for pixels in stack]


def test_cached_area_weights_are_read_only():
    weights = _area_weights(37)
    assert weights is _area_weights(37)
    assert not weights.flags.writeable
    with pytest.raises(ValueError):
        weights[0, 0] = 1.0


def test_hamming_counts_bits():
    assert hamming(0b1010, 0b0110) == 2
    assert hamming(0, 2**64 - 1) == 64
    assert hamming(7, 7) == 0


# --- near-duplicate clustering ----------------------------------------------

def test_cluster_exact_duplicates():
    hashes = {"a": 5, "b": 5, "c": 900000}
    report = cluster_near_duplicates(hashes, max_dist=10)
    assert sorted(map(sorted, report.clusters)) == [["a", "b"], ["c"]]
    assert report.representatives == ("a", "c")
    assert report.total == 3
    assert report.removed == 1
    assert report.removed_fraction == pytest.approx(1 / 3)


def test_cluster_is_transitive():
    # b sits within range of both a and c, but a and c are 12 apart;
    # the chain still pulls all three into one cluster
    a = 0
    b = 0b111111  # 6 bits from a
    c = 0b111111111111  # 6 bits from b, 12 from a
    assert hamming(a, c) == 12 > 10
    report = cluster_near_duplicates({"x_a": a, "x_b": b, "x_c": c}, max_dist=10)
    assert len(report.clusters) == 1
    assert report.removed == 2


def test_cluster_representative_is_lowest_id():
    report = cluster_near_duplicates({"zz": 1, "aa": 1, "mm": 1}, max_dist=0)
    assert report.representatives == ("aa",)
    assert report.clusters == (("aa", "mm", "zz"),)


def test_cluster_threshold_zero_splits_near_misses():
    report = cluster_near_duplicates({"a": 0, "b": 1}, max_dist=0)
    assert len(report.clusters) == 2
    report = cluster_near_duplicates({"a": 0, "b": 1}, max_dist=1)
    assert len(report.clusters) == 1


def _brute_force_clusters(hashes, max_dist):
    ids = sorted(hashes)
    parent = list(range(len(ids)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            if hamming(hashes[ids[i]], hashes[ids[j]]) <= max_dist:
                parent[find(i)] = find(j)
    groups = {}
    for i, name in enumerate(ids):
        groups.setdefault(find(i), []).append(name)
    return tuple(sorted(tuple(g) for g in groups.values()))


def _flip(rng, value, k):
    for bit in rng.choice(64, size=k, replace=False):
        value ^= 1 << int(bit)
    return value


@pytest.mark.parametrize("seed", range(6))
def test_cluster_equals_brute_force_oracle(seed):
    rng = np.random.default_rng(seed)
    max_dist = int(rng.integers(0, 12))
    n = 2 * _DEDUP_BLOCK + 37 + seed * 11  # above the block size, not a multiple
    values = [int(v) for v in rng.integers(0, 2**64, size=n // 2, dtype=np.uint64)]
    while len(values) < n:
        kind = rng.integers(0, 3)
        base = values[int(rng.integers(0, len(values)))]
        if kind == 0:  # a pair at exactly max_dist
            values.append(_flip(rng, base, max_dist))
        elif kind == 1:  # a chain whose ends lie beyond max_dist
            for _ in range(int(rng.integers(2, 6))):
                base = _flip(rng, base, max(max_dist, 1))
                values.append(base)
        else:  # a near miss
            values.append(_flip(rng, base, max_dist + 1))
    order = rng.permutation(n)
    hashes = {f"h{order[i]:04d}": v for i, v in enumerate(values[:n])}
    report = cluster_near_duplicates(hashes, max_dist=max_dist)
    assert report.clusters == _brute_force_clusters(hashes, max_dist)
    assert report.representatives == tuple(c[0] for c in report.clusters)
    assert any(len(c) > 2 for c in report.clusters)


@pytest.mark.parametrize("bad", [1.5, -1, 2**64, True])
def test_cluster_rejects_hashes_outside_uint64(bad):
    with pytest.raises(InputFormatError):
        cluster_near_duplicates({"a": 3, "b": bad}, max_dist=1)


def test_dedup_of_constructed_corpus():
    """Injecting k duplicates must remove exactly k images."""
    rng = np.random.default_rng(3)
    images = {f"orig_{i:02d}": _random_image(rng) for i in range(12)}
    hashes = {name: phash64(img) for name, img in images.items()}
    # distinct random images must not collide for this check to mean anything
    assert len({*hashes.values()}) == 12
    k = 0
    for i in (1, 4, 7):
        for copy in range(i % 2 + 1):
            hashes[f"dup_{i}_{copy}"] = hashes[f"orig_{i:02d}"]
            k += 1
    report = cluster_near_duplicates(hashes, max_dist=10)
    assert report.removed == k
    assert report.total == 12 + k
    # one representative survives per cluster
    assert len(report.representatives) == 12
    assert len(set(report.representatives)) == 12


# --- stratified splitting -----------------------------------------------------

def test_split_exact_on_round_numbers():
    labels = np.repeat([0, 1, 2], 100)
    parts = stratified_split(labels, seed=0)
    for c in range(3):
        counts = [int(np.sum((labels == c) & (parts == p))) for p in range(3)]
        assert counts == [70, 15, 15]


def test_split_largest_remainder_tie_goes_to_earlier_part():
    labels = np.zeros(5, dtype=int)
    parts = stratified_split(labels, ratios=(0.5, 0.5), seed=1)
    counts = [int(np.sum(parts == p)) for p in range(2)]
    assert counts == [3, 2]


def test_split_is_deterministic_and_seed_sensitive():
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 4, size=200)
    a = stratified_split(labels, seed=7)
    b = stratified_split(labels, seed=7)
    c = stratified_split(labels, seed=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_split_shuffles_within_class():
    # with a fixed seed the assignment must not simply be positional
    labels = np.zeros(100, dtype=int)
    parts = stratified_split(labels, seed=9)
    assert len(set(parts[:70].tolist())) > 1


def test_split_rejects_bad_ratios():
    with pytest.raises(RowNotNormalized):
        stratified_split(np.zeros(10, dtype=int), ratios=(0.5, 0.4))
    with pytest.raises(RowNotNormalized):
        stratified_split(np.zeros(10, dtype=int), ratios=(1.2, -0.2))


@pytest.mark.parametrize("ratios", [(0.5, 0.5, float("nan")), (float("nan"), 1.0)])
def test_split_rejects_non_finite_ratios(ratios):
    with pytest.raises(RowNotNormalized):
        stratified_split(np.zeros(10, dtype=int), ratios=ratios)


@pytest.mark.parametrize("labels, first", [
    ([0.0, 1.0, float("nan"), 1.0, 0.0, 1.0], "nan at position 2"),
    ([0.0, 1.0, 0.0, float("-inf"), float("inf"), 1.0], "-inf at position 3"),
])
def test_split_and_folds_reject_labels_that_are_not_finite(labels, first):
    # a NaN label never equals its own class: the split read uninitialized
    # memory, and the fold plan asked for terabytes
    with pytest.raises(BadLabelIndex, match=f"^label {first} is not finite$"):
        stratified_split(labels)
    with pytest.raises(BadLabelIndex, match=f"^label {first} is not finite$"):
        nested_fold_plan(labels * 3, n_outer=2, n_inner=2)


def test_split_total_is_preserved_per_class():
    rng = np.random.default_rng(10)
    sizes = (231, 78, 155)
    labels = np.repeat(np.arange(3), sizes)
    parts = stratified_split(labels, seed=11)
    for c, size in enumerate(sizes):
        assert int(np.sum(labels == c)) == size
        assert sum(int(np.sum((labels == c) & (parts == p))) for p in range(3)) == size


# --- fold planning --------------------------------------------------------------

def test_fold_plan_audit_on_random_labels():
    rng = np.random.default_rng(13)
    for trial in range(10):
        n = int(rng.integers(60, 200))
        labels = rng.integers(0, 3, size=n)
        while np.bincount(labels, minlength=3).min() < 15:
            labels = rng.integers(0, 3, size=n)
        plan = nested_fold_plan(labels, seed=trial)
        audit = audit_fold_plan(plan, labels)
        assert all(audit.values()), f"trial {trial}: {audit}"


def test_fold_plan_shapes():
    labels = np.repeat(np.arange(4), 30)
    plan = nested_fold_plan(labels, seed=0)
    assert (plan.n_samples, plan.n_outer, plan.n_inner) == (120, 5, 3)
    assert plan.outer.shape == (120,) and plan.inner.shape == (5, 120)
    for array in (plan.outer, plan.inner):
        assert array.dtype == np.int64 and not array.flags.writeable
    for k in range(5):
        # outer train/test partition the ids, and the inner sets partition train
        train, test = plan.outer_train(k), plan.outer_test(k)
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(120))
        inner = [plan.inner_val(k, fold) for fold in range(3)]
        assert np.array_equal(np.sort(np.concatenate(inner)), train)
        for fold, val in enumerate(inner):
            assert np.array_equal(plan.inner_fit(k, fold), np.setdiff1d(train, val))


def test_fold_plan_deterministic():
    labels = np.repeat(np.arange(3), 40)
    a = nested_fold_plan(labels, seed=3)
    b = nested_fold_plan(labels, seed=3)
    c = nested_fold_plan(labels, seed=4)
    assert np.array_equal(a.outer, b.outer) and np.array_equal(a.inner, b.inner)
    assert not np.array_equal(a.outer, c.outer)


def test_fold_plan_rejects_tiny_classes():
    labels = np.array([0] * 50 + [1] * 3)
    with pytest.raises(TooFewSamplesPerClass):
        nested_fold_plan(labels, seed=0)


def _hand_plan(outer, n_outer=3):
    """A plan whose inner folds split each outer fold's training ids by parity."""
    outer = np.asarray(outer)
    held = outer == np.arange(n_outer)[:, None]
    return FoldPlan(outer, np.where(held, -1, np.arange(outer.size) % 2))


_HAND_LABELS = np.repeat([0, 1], 6)
_HAND_OUTER = np.tile([0, 1, 2], 4)  # two of each class per outer fold
_AUDIT_KEYS = ("outer_sets_partition_all_ids", "inner_sets_partition_training_ids",
               "no_outer_test_id_in_inner_sets", "per_class_outer_counts_within_one")


def _with(array, index, value):
    array = np.array(array)
    array[index] = value
    return array


def _leaked():
    # sample 0 is a test id of outer fold 0 and also sits in that fold's inner set 0
    plan = _hand_plan(_HAND_OUTER)
    return FoldPlan(plan.outer, _with(plan.inner, (0, 0), 0))


def _orphaned():
    # sample 1 trains in outer fold 0 but is in none of its inner sets
    plan = _hand_plan(_HAND_OUTER)
    return FoldPlan(plan.outer, _with(plan.inner, (0, 1), -1))


@pytest.mark.parametrize("plan, failed", [
    (_hand_plan(_HAND_OUTER), ()),
    (_leaked(), ("inner_sets_partition_training_ids", "no_outer_test_id_in_inner_sets")),
    (_orphaned(), ("inner_sets_partition_training_ids",)),
    # sample 2 names outer fold 3 of 3, so no outer test set holds it
    (_hand_plan(_with(_HAND_OUTER, 2, 3)), ("outer_sets_partition_all_ids",)),
    (_hand_plan(_with(_HAND_OUTER, 2, -1)), ("outer_sets_partition_all_ids",)),
    # class 0 moves sample 1 from fold 1 to fold 0: its fold counts are 3, 1, 2
    (_hand_plan(_with(_HAND_OUTER, 1, 0)), ("per_class_outer_counts_within_one",)),
], ids=["clean", "leak", "orphan", "fold_past_end", "negative_fold", "counts_off_by_two"])
def test_audit_fails_on_each_defect(plan, failed):
    audit = audit_fold_plan(plan, _HAND_LABELS)
    assert audit == {key: key not in failed for key in _AUDIT_KEYS}
    assert NestedCvResult((), 0.0, 0.0, (), audit).audit_passed == (not failed)
    assert audit == _reference_audit(_HAND_LABELS, *_as_tuples(plan))


def test_derive_seed_varies_by_position():
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(1) != derive_seed(1, 0)


# --- reference: the set-based fold plan, audit and split loop --------------------

def _reference_partition(ids, labels, k, rng):
    """Split ids into k stratified chunks; per-class sizes differ by <= 1."""
    chunks = [[] for _ in range(k)]
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


def _reference_plan(labels, n_outer, n_inner, seed):
    """(outer_test, inner_val) as sorted id tuples, built with set arithmetic."""
    classes, counts = np.unique(labels, return_counts=True)
    for cls, count in zip(classes, counts):
        if count < n_outer:
            raise TooFewSamplesPerClass(f"class {cls.item()!r} has {count} samples, needs >= {n_outer}")
    rng = np.random.default_rng(seed)
    outer = _reference_partition(np.arange(labels.size), labels, n_outer, rng)
    inner_all = []
    for k in range(n_outer):
        train_ids = np.asarray(sorted(set(range(labels.size)) - set(outer[k])))
        inner = _reference_partition(train_ids, labels, n_inner, rng)
        if any(len(chunk) == 0 for chunk in inner):
            raise TooFewSamplesPerClass(f"outer fold {k} leaves an empty inner set")
        inner_all.append(tuple(tuple(sorted(chunk)) for chunk in inner))
    return tuple(tuple(sorted(f)) for f in outer), tuple(inner_all)


def _reference_audit(labels, outer_test, inner_val):
    n = len(labels)
    outer_ids = [set(f) for f in outer_test]
    union = set().union(*outer_ids)
    inner_ok = no_leak = True
    for k, held in enumerate(outer_ids):
        train = set(range(n)) - held
        seen = set()
        for val in map(set, inner_val[k]):
            no_leak &= not val & held
            inner_ok &= not val & seen
            seen |= val
        inner_ok &= seen == train
    counts_ok = True
    for cls in np.unique(labels):
        per_fold = [sum(1 for i in f if labels[i] == cls) for f in outer_test]
        counts_ok &= max(per_fold) - min(per_fold) <= 1
    return dict(zip(_AUDIT_KEYS, (len(union) == n and sum(map(len, outer_ids)) == n,
                                  inner_ok, no_leak, counts_ok)))


def _reference_split(labels, ratios, seed):
    """Per-class shuffle, then deal by largest remainder, one part at a time."""
    rng = np.random.default_rng(seed)
    assignment = np.full(labels.shape[0], -1, dtype=np.int64)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(idx.size)]
        scaled = [idx.size * r for r in ratios]
        counts = [int(np.floor(x)) for x in scaled]
        order = sorted(range(len(ratios)), key=lambda k: (-(scaled[k] - counts[k]), k))
        for k in order[:idx.size - sum(counts)]:
            counts[k] += 1
        start = 0
        for part, count in enumerate(counts):
            assignment[idx[start:start + count]] = part
            start += count
    return assignment


def _as_tuples(plan):
    """The plan as the sorted id tuples the set-based layout held."""
    return (tuple(tuple(plan.outer_test(k).tolist()) for k in range(plan.n_outer)),
            tuple(tuple(tuple(plan.inner_val(k, fold).tolist()) for fold in range(plan.n_inner))
                  for k in range(plan.n_outer)))


# uneven classes, sparse and negative label values, some too small to fold
_class_sizes = st.dictionaries(st.integers(-40, 40), st.integers(1, 24), min_size=1, max_size=4)


def _shuffled_labels(sizes, seed):
    labels = np.repeat(list(sizes), list(sizes.values()))
    return labels[np.random.default_rng(seed).permutation(labels.size)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sizes=_class_sizes, n_outer=st.integers(2, 6), n_inner=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1))
def test_fold_plan_equals_set_based_reference(sizes, n_outer, n_inner, seed):
    labels = _shuffled_labels(sizes, seed)
    try:
        expected = _reference_plan(labels, n_outer, n_inner, seed)
    except TooFewSamplesPerClass as error:
        with pytest.raises(TooFewSamplesPerClass) as raised:
            nested_fold_plan(labels, n_outer, n_inner, seed)
        assert str(raised.value) == str(error)
        return
    plan = nested_fold_plan(labels, n_outer, n_inner, seed)
    assert (plan.n_samples, plan.n_outer, plan.n_inner) == (labels.size, n_outer, n_inner)
    assert _as_tuples(plan) == expected
    outer_test, inner_val = expected
    for k in range(n_outer):
        train = set(range(labels.size)) - set(outer_test[k])
        assert plan.outer_train(k).tolist() == sorted(train)
        for fold, val in enumerate(inner_val[k]):
            assert plan.inner_fit(k, fold).tolist() == sorted(train - set(val))
    audit = audit_fold_plan(plan, labels)
    assert audit == _reference_audit(labels, *expected) == dict.fromkeys(_AUDIT_KEYS, True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sizes=_class_sizes, n_outer=st.integers(2, 6), n_inner=st.integers(2, 6),
       seed=st.integers(0, 2**32 - 1), edits=st.lists(st.tuples(
           st.booleans(), st.integers(0, 10**6), st.integers(-2, 7)), max_size=4))
def test_audit_keeps_the_set_based_truth_table(sizes, n_outer, n_inner, seed, edits):
    # a conforming plan with a few entries overwritten, in range or not
    labels = np.repeat(list(sizes), [max(v, n_outer * n_inner) for v in sizes.values()])
    plan = nested_fold_plan(labels, n_outer, n_inner, seed)
    outer, inner = np.array(plan.outer), np.array(plan.inner)
    for in_outer, where, value in edits:
        if in_outer:
            outer[where % outer.size] = value
        else:
            inner.flat[where % inner.size] = value
    edited = FoldPlan(outer, inner)
    assert audit_fold_plan(edited, labels) == _reference_audit(labels, *_as_tuples(edited))


@pytest.mark.parametrize("n_labels", [29, 31])
def test_audit_rejects_labels_of_another_length(n_labels):
    labels = np.arange(30) % 3
    plan = nested_fold_plan(labels, 3, 2, seed=5)
    with pytest.raises(DimensionMismatch, match=f"^{n_labels} labels for a plan of 30 samples$"):
        audit_fold_plan(plan, np.arange(n_labels) % 3)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sizes=_class_sizes, weights=st.lists(st.integers(0, 9), min_size=1, max_size=5)
       .filter(any), seed=st.integers(0, 2**32 - 1))
def test_split_equals_loop_reference(sizes, weights, seed):
    labels = _shuffled_labels(sizes, seed)
    ratios = tuple(w / sum(weights) for w in weights)
    assert np.array_equal(stratified_split(labels, ratios, seed), _reference_split(labels, ratios, seed))


# --- hyperparameter selection ----------------------------------------------------

def _blobs(n_per_class, seed):
    rng = np.random.default_rng(seed)
    centers = np.array([[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0]])
    xs = np.concatenate([c + rng.normal(scale=0.4, size=(n_per_class, 2)) for c in centers])
    labels = np.repeat(np.arange(3), n_per_class)
    perm = rng.permutation(len(labels))
    return xs[perm], labels[perm]


@pytest.mark.parametrize("top_k", [0, -1])
def test_hyper_grid_rejects_top_k_below_one(top_k):
    with pytest.raises(BadParameter):
        HyperGrid(top_k=top_k)


def test_inner_select_prefers_the_lr_that_learns():
    xs, labels = _blobs(40, seed=14)
    plan = nested_fold_plan(labels, seed=14)
    grid = HyperGrid(head_lrs=(0.0, 0.1), weight_decays=(0.0,),
                     label_smoothings=(0.0,), backbone_lrs=(0.0,),
                     mixup_alphas=(0.0,), top_k=1)
    [result] = inner_select(grid, xs, labels, plan, [0],
                            epochs=8, batch_size=16, hidden_dim=4, seed=14)
    assert result.best.head_lr == 0.1
    assert max(c.mean_accuracy for c in result.stage2) > 0.9
    # the zero-lr candidate was evaluated and lost
    by_lr = {c.config.head_lr: c.mean_accuracy for c in result.stage1}
    assert by_lr[0.0] < by_lr[0.1]


def test_inner_select_tie_breaks_to_lower_weight_decay():
    # with head_lr 0 nothing trains, so both decay settings score the same
    # and the tie must resolve to the smaller decay even though it comes
    # second in enumeration order
    xs, labels = _blobs(15, seed=15)
    plan = nested_fold_plan(labels, seed=15)
    grid = HyperGrid(head_lrs=(0.0,), weight_decays=(0.1, 1e-4),
                     label_smoothings=(0.0,), backbone_lrs=(0.0,),
                     mixup_alphas=(0.0,), top_k=1)
    [result] = inner_select(grid, xs, labels, plan, [0],
                            epochs=2, batch_size=16, hidden_dim=4, seed=15)
    assert result.stage1[0].mean_accuracy == result.stage1[1].mean_accuracy
    assert result.best.weight_decay == 1e-4


def test_nested_cv_on_separable_data():
    xs, labels = _blobs(40, seed=16)
    grid = HyperGrid(head_lrs=(0.05,), weight_decays=(0.0,),
                     label_smoothings=(0.0, 0.1), backbone_lrs=(0.0, 0.05),
                     mixup_alphas=(0.0,), top_k=1)
    result = nested_cv_run(grid, xs, labels, epochs=10, batch_size=16,
                           hidden_dim=4, seed=17)
    assert len(result.fold_accuracies) == 5
    assert result.mean_accuracy >= 0.99
    assert result.audit_passed
    assert len(result.selected) == 5
    d = result.to_dict()
    assert set(d) >= {"fold_accuracies", "mean_accuracy", "sd_accuracy", "audit"}


def test_nested_cv_keeps_every_fold_selection():
    xs, labels = _blobs(15, seed=20)
    grid = HyperGrid(head_lrs=(0.0, 0.05), weight_decays=(0.0,),
                     label_smoothings=(0.0,), backbone_lrs=(0.0, 0.05),
                     mixup_alphas=(0.0,), top_k=1)
    result = nested_cv_run(grid, xs, labels, n_outer=3, n_inner=2, epochs=3,
                           batch_size=16, hidden_dim=4, seed=21)
    plan = nested_fold_plan(labels, 3, 2, seed=21)
    assert len(result.selections) == 3
    for k in range(3):
        alone = inner_select(grid, xs, labels, plan, [k], epochs=3, batch_size=16,
                             hidden_dim=4, seed=21)[0]
        assert result.selections[k] == alone
    assert result.selected == tuple(s.best for s in result.selections)
    assert list(result.to_dict()) == [
        "fold_accuracies", "mean_accuracy", "sd_accuracy", "selected", "audit",
        "audit_passed",
    ]


def test_nested_cv_deterministic():
    xs, labels = _blobs(20, seed=18)
    grid = HyperGrid(head_lrs=(0.05,), weight_decays=(0.0,),
                     label_smoothings=(0.0,), backbone_lrs=(0.0,),
                     mixup_alphas=(0.0,), top_k=1)
    a = nested_cv_run(grid, xs, labels, epochs=4, batch_size=16, hidden_dim=4, seed=19)
    b = nested_cv_run(grid, xs, labels, epochs=4, batch_size=16, hidden_dim=4, seed=19)
    assert a.fold_accuracies == b.fold_accuracies
    assert a.mean_accuracy == b.mean_accuracy


# --- reference: one training per candidate -----------------------------------

def _eval_candidate(config, xs, labels, plan, outer_index, hidden_dim, n_classes,
                    stage, seed):
    """Mean inner-validation accuracy of one config on one outer fold, with
    one `train` call per inner fold: the search before candidates trained in
    groups."""
    accs = []
    for fold in range(plan.n_inner):
        val_ids = plan.inner_val(outer_index, fold)
        fit_ids = np.setdiff1d(plan.outer_train(outer_index), val_ids)
        run_seed = derive_seed(seed, outer_index, stage, fold)
        model = init_model(xs.shape[1], hidden_dim, n_classes,
                           seed=derive_seed(run_seed, 0))
        fitted = train(model, xs[fit_ids], labels[fit_ids],
                       replace(config, seed=derive_seed(run_seed, 1)))
        pred = forward(fitted, xs[val_ids]).argmax(axis=1)
        accs.append(float((pred == labels[val_ids]).mean()))
    return float(np.mean(accs))


def _stacked(models):
    """[w_in, b_in, w_out, b_out] of models stacked as train_streams returns them."""
    return [np.stack([m.w_in for m in models]), np.stack([m.b_in[None] for m in models]),
            np.stack([m.w_out for m in models]), np.stack([m.b_out[None] for m in models])]


def _per_candidate(monkeypatch):
    """Route the search and the final fits through one `train` per config."""
    monkeypatch.setattr(hygiene, "_eval_configs", lambda folds, xs, labels, plan, *rest: [
        [CandidateScore(c, _eval_candidate(c, xs, labels, plan, outer, *rest)) for c in configs]
        for outer, configs in folds])
    monkeypatch.setattr(tiny_model, "train_streams", lambda streams: tuple(
        _stacked([train(model, xs, labels, c) for c in configs])
        for model, xs, labels, configs in streams))


def _counted_calls(monkeypatch, *modules):
    """The stream count of each train_streams call the modules make, in order."""
    calls = []

    def counted(streams):
        calls.append(len(streams))
        return train_streams(streams)

    for module in modules:
        monkeypatch.setattr(module, "train_streams", counted)
    return calls


def _cpus(monkeypatch, n_cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))


# with two CPUs this process searches the share holding the most training rows:
# fold 2 of 3 (28 rows against 26 and 26), or folds 0, 2 and 4 of 5 (32 rows each)
@pytest.mark.parametrize("n_outer, n_cpus, searched_here", [
    pytest.param(3, 1, 3, id="3"), pytest.param(5, 1, 5, id="5"),
    pytest.param(3, 2, 1, id="3-two_cpus"), pytest.param(5, 2, 3, id="5-two_cpus")])
def test_nested_search_trains_in_three_stacked_calls(monkeypatch, n_outer, n_cpus,
                                                     searched_here):
    # stage 1 of the folds searched here, stage 2 of them, the final fits of all
    _cpus(monkeypatch, n_cpus)
    calls = _counted_calls(monkeypatch, tiny_model)  # in this process only
    labels = np.arange(40) % 2
    xs = np.random.default_rng(3).normal(0.0, 1.0, (40, 3)) + labels[:, None]
    nested_cv_run(HyperGrid(), xs, labels, n_outer, 3, epochs=2, hidden_dim=4, seed=3)
    # streams: one per (outer, inner) fold, then per (outer, inner, mixup alpha), then per outer
    assert calls == [searched_here * 3, searched_here * 3 * 2, n_outer]


@pytest.mark.parametrize("n_cpus, expected", [
    pytest.param(1, [[0, 1, 2, 3, 4]], id="one_cpu"),
    pytest.param(2, [[0, 2, 4], [1, 3]], id="two_cpus")])
def test_each_share_runs_inner_select_once(monkeypatch, tmp_path, n_cpus, expected):
    # the spy appends to a file, since a helper's memory is lost when it exits
    _cpus(monkeypatch, n_cpus)
    log = tmp_path / "calls"
    real = hygiene.inner_select

    def spy(grid, xs, labels, plan, outers, **kwargs):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {' '.join(map(str, outers))}\n")
        return real(grid, xs, labels, plan, outers, **kwargs)

    monkeypatch.setattr(hygiene, "inner_select", spy)
    labels = np.arange(40) % 2  # 32 training rows in every outer fold
    xs = np.random.default_rng(3).normal(0.0, 1.0, (40, 3)) + labels[:, None]
    nested_cv_run(HyperGrid(), xs, labels, 5, 3, epochs=2, hidden_dim=4, seed=3)
    calls = [line.split() for line in log.read_text().splitlines()]
    assert len({pid for pid, *_ in calls}) == len(expected)  # one process per share
    assert sorted([int(k) for k in folds] for _, *folds in calls) == expected


def test_stacked_search_selects_as_inner_select_on_each_fold():
    # overlapping classes, so the stage-1 survivors differ between outer folds
    rng = np.random.default_rng(30)
    labels = np.arange(53) % 4
    xs = rng.normal(0.0, 1.0, (53, 3))
    xs[np.arange(53), labels % 3] += 1.5
    kwargs = {"epochs": 3, "batch_size": 8, "hidden_dim": 4, "seed": 31}
    plan = nested_fold_plan(labels, 3, 2, seed=31)
    alone = tuple(inner_select(_SEARCH_GRID, xs, labels, plan, [k], **kwargs)[0]
                  for k in range(3))
    assert len({tuple(c.config for c in _ranked(s.stage1)[:2]) for s in alone}) > 1
    assert nested_cv_run(_SEARCH_GRID, xs, labels, 3, 2, **kwargs).selections == alone


def test_demo_trains_in_four_stacked_calls(monkeypatch):
    # counted in this process only, which searches 3 of the 5 outer folds on two CPUs
    for n_cpus, expected in ((1, [15, 15, 5, 2]), (2, [9, 9, 5, 2])):
        with monkeypatch.context() as patch:
            _cpus(patch, n_cpus)
            calls = _counted_calls(patch, tiny_model, demo)
            demo.run_demo(seed=7)
        assert calls == expected


_SEARCH_GRID = HyperGrid(head_lrs=(0.0, 0.05, 0.3), weight_decays=(0.0, 0.1),
                         label_smoothings=(0.0, 0.1), backbone_lrs=(0.0, 0.2),
                         mixup_alphas=(0.0, 0.2), top_k=2)


@pytest.mark.parametrize("grid, n", [
    pytest.param(_SEARCH_GRID, 48, id="mixup_alphas0"),
    pytest.param(replace(_SEARCH_GRID, mixup_alphas=(0.2, 0.2)), 48, id="mixup_alphas1"),
    # the grid demo runs: lr 0 freezes the head or the backbone on some slices
    pytest.param(DEMO_GRID, 48, id="demo_grid"),
    # inner folds and outer training sets of unequal size: ragged epoch tails
    pytest.param(_SEARCH_GRID, 53, id="unequal_folds"),
    pytest.param(DEMO_GRID, 53, id="demo_grid_unequal_folds"),
])
def test_grouped_search_equals_per_candidate_reference(monkeypatch, grid, n):
    # overlapping classes and few epochs, so candidates score differently
    rng = np.random.default_rng(30)
    labels = np.arange(n) % 4
    xs = rng.normal(0.0, 1.0, (n, 3))
    xs[np.arange(n), labels % 3] += 1.5
    kwargs = {"epochs": 3, "batch_size": 8, "hidden_dim": 4, "seed": 31}
    plan = nested_fold_plan(labels, 3, 2, seed=31)
    fit_sizes = [{plan.inner_fit(k, fold).size for fold in range(2)} for k in range(3)]
    assert all(len(sizes) == (1 if n == 48 else 2) for sizes in fit_sizes)
    grouped = inner_select(grid, xs, labels, plan, [1], **kwargs)[0]
    grouped_cv = nested_cv_run(grid, xs, labels, 3, 2, **kwargs)
    with monkeypatch.context() as patch:
        _per_candidate(patch)
        expected = inner_select(grid, xs, labels, plan, [1], **kwargs)[0]
        expected_cv = nested_cv_run(grid, xs, labels, 3, 2, **kwargs)
    assert grouped == expected
    assert grouped_cv == expected_cv
    assert len({c.mean_accuracy for c in expected.stage1 + expected.stage2}) > 2

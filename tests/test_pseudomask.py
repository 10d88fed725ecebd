import itertools
import math
from unittest import mock

import numpy as np
import pytest

from freshkit import pseudomask
from freshkit.data_model import BinaryMask, RgbImage
from freshkit.errors import (
    BadParameter,
    DegenerateGraph,
    DimensionMismatch,
    ImageTooSmall,
    TooFewPixels,
)
from freshkit.pseudomask import (
    Box,
    CutProblem,
    GmmModel,
    GrabCutResult,
    build_cut_problem,
    cut_energy,
    fit_gmm,
    gmm_nll,
    grabcut,
    init_box,
    morph_close,
    morph_open,
    rgb_to_lab,
    solve_cut,
)
from freshkit.pseudomask import _floor_covariance, _grid_pairs, _mixture_log_matrix
from freshkit.scoring import stable_logsumexp
from freshkit.seg_eval import mask_metrics
from freshkit.tiny_model import derive_seed


# --- init box ---------------------------------------------------------------

def test_init_box_deterministic():
    assert init_box(100, 80, seed=5) == init_box(100, 80, seed=5)
    assert init_box(100, 80, seed=5) != init_box(100, 80, seed=6)


def test_init_box_strictly_inside_with_margin():
    for seed in range(40):
        box = init_box(64, 48, seed=seed)
        assert 0 <= box.x0 and box.x0 + box.width < 64
        assert 0 <= box.y0 and box.y0 + box.height < 48
        # side fractions live in [0.81, 0.99) before flooring
        assert math.floor(64 * 0.81) <= box.width <= math.floor(64 * 0.99)
        assert math.floor(48 * 0.81) <= box.height <= math.floor(48 * 0.99)


def test_init_box_centered():
    box = init_box(100, 100, seed=0)
    left = box.x0
    right = 100 - (box.x0 + box.width)
    assert abs(left - right) <= 1
    top = box.y0
    bottom = 100 - (box.y0 + box.height)
    assert abs(top - bottom) <= 1


def test_init_box_rejects_tiny_images():
    with pytest.raises(ImageTooSmall):
        init_box(7, 100, seed=0)
    with pytest.raises(ImageTooSmall):
        init_box(100, 7, seed=0)


def test_box_interior_mask():
    box = Box(x0=1, y0=2, width=3, height=2)
    mask = box.interior_mask(5, 6)
    assert mask.sum() == 6
    assert mask[2:4, 1:4].all()
    assert not mask[0].any()


# --- color conversion ---------------------------------------------------------

def test_lab_primary_red():
    lab = rgb_to_lab(np.array([255, 0, 0]))
    assert lab[0] == pytest.approx(53.2408, abs=1e-3)
    assert lab[1] == pytest.approx(80.0925, abs=1e-3)
    assert lab[2] == pytest.approx(67.2032, abs=1e-3)


def test_lab_white_and_black():
    white = rgb_to_lab(np.array([255, 255, 255]))
    assert white[0] == pytest.approx(100.0, abs=1e-4)
    assert white[1] == pytest.approx(0.0, abs=1e-3)
    assert white[2] == pytest.approx(0.0, abs=1e-3)
    black = rgb_to_lab(np.array([0, 0, 0]))
    assert black == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_lab_preserves_leading_shape():
    img = np.zeros((4, 5, 3), dtype=np.uint8)
    assert rgb_to_lab(img).shape == (4, 5, 3)
    with pytest.raises(DimensionMismatch):
        rgb_to_lab(np.zeros((4, 5, 4)))


def test_lab_lightness_is_monotone_in_gray_level():
    grays = np.stack([np.arange(256)] * 3, axis=1)
    lightness = rgb_to_lab(grays)[:, 0]
    assert np.all(np.diff(lightness) > 0)
    # gray axis is neutral up to the rounding of the standard matrix constants
    assert np.allclose(rgb_to_lab(grays)[:, 1:], 0.0, atol=1e-4)


# --- mixtures -------------------------------------------------------------------

def _two_blobs(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(loc=(-6.0, -6.0, -6.0), scale=0.5, size=(n, 3))
    b = rng.normal(loc=(6.0, 6.0, 6.0), scale=0.5, size=(n, 3))
    return np.concatenate([a, b])


def test_gmm_recovers_two_blobs():
    points = _two_blobs(200, seed=0)
    model = fit_gmm(points, n_components=2, seed=1)
    assert model.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert model.weights == pytest.approx([0.5, 0.5], abs=0.05)
    means = model.means[np.argsort(model.means[:, 0])]
    assert means[0] == pytest.approx([-6.0, -6.0, -6.0], abs=0.3)
    assert means[1] == pytest.approx([6.0, 6.0, 6.0], abs=0.3)


def test_gmm_ll_trace_is_monotone():
    points = _two_blobs(150, seed=2)
    model = fit_gmm(points, n_components=3, n_iter=10, seed=3)
    trace = model.ll_trace
    assert len(trace) == 10
    for earlier, later in zip(trace, trace[1:]):
        assert later >= earlier - 1e-9


def test_gmm_covariance_floor():
    # all points identical: the covariance must still be positive definite
    points = np.zeros((50, 3))
    model = fit_gmm(points, n_components=2, seed=4)
    for cov in model.covariances:
        values = np.linalg.eigvalsh(cov)
        assert values.min() >= 1e-6 - 1e-12


def test_gmm_is_seeded():
    points = _two_blobs(100, seed=5)
    a = fit_gmm(points, n_components=2, seed=6)
    b = fit_gmm(points, n_components=2, seed=6)
    assert np.array_equal(a.means, b.means)
    assert a.ll_trace == b.ll_trace


def test_gmm_requires_enough_pixels():
    with pytest.raises(TooFewPixels):
        fit_gmm(np.zeros((3, 3)), n_components=5)


def test_gmm_needs_a_component():
    with pytest.raises(BadParameter):
        fit_gmm(np.zeros((10, 3)), n_components=0)


def test_gmm_nll_orders_points_by_fit():
    points = _two_blobs(200, seed=7)
    model = fit_gmm(points, n_components=2, seed=8)
    near = gmm_nll(model, np.array([[-6.0, -6.0, -6.0]]))[0]
    far = gmm_nll(model, np.array([[30.0, -30.0, 12.0]]))[0]
    assert near < far


def _reference_mixture_log_matrix(points, weights, means, covs):
    """The per-component slogdet + inv + einsum kernel the batched Cholesky one replaced."""
    log_terms = np.empty((points.shape[0], weights.shape[0]))
    for comp in range(weights.shape[0]):
        d = points - means[comp]
        _, logdet = np.linalg.slogdet(covs[comp])
        quad = np.einsum("ni,ij,nj->n", d, np.linalg.inv(covs[comp]), d)
        log_gauss = -0.5 * (3 * math.log(2.0 * math.pi) + logdet + quad)
        log_terms[:, comp] = math.log(weights[comp]) + log_gauss
    return log_terms


def _mixture_case(name):
    """(points, weights, means, covs) for one kernel test case."""
    rng = np.random.default_rng(31)
    k = 1 if name == "k1" else 5
    means = rng.normal(50.0, 20.0, size=(k, 3))
    if name == "floored":
        # rank-deficient and zero scatter, floored to small eigenvalues only.
        # A floored covariance with a condition number near 1e8 puts both
        # kernels about 1e-7 (relative) from the exact value, so 1e-12 only
        # holds where the floor leaves the covariance well-conditioned.
        shapes = [np.zeros((3, 3)), np.outer([1.0, 2.0, 2.0], [1.0, 2.0, 2.0]) * 3e-7,
                  np.diag([0.0, 4e-6, 0.0]), np.diag([2e-6, 0.0, 5e-6]), np.zeros((3, 3))]
        points = means[rng.integers(k, size=200)] + rng.normal(0.0, 2e-3, size=(200, 3))
    else:
        shapes = [a @ a.T + np.eye(3) for a in rng.normal(0.0, 8.0, size=(k, 3, 3))]
        points = rng.normal(50.0, 30.0, size=(300, 3))
    covs = np.stack([_floor_covariance(c) for c in shapes])
    if name == "one pixel":
        points = points[:1]
    return points, rng.dirichlet(np.ones(k)), means, covs


def _columns_kernel(kernel):
    """A kernel over (n, 3) points returning (n, K), called as the (3, n) -> (K, n) one."""
    return lambda cols, weights, means, covs: kernel(cols.T, weights, means, covs).T


@pytest.mark.parametrize("name", ["k1", "k5", "floored", "one pixel"])
def test_mixture_kernel_matches_per_component_reference(name):
    points, weights, means, covs = _mixture_case(name)
    expected = _reference_mixture_log_matrix(points, weights, means, covs)
    got = _mixture_log_matrix(np.ascontiguousarray(points.T), weights, means, covs).T
    assert got.shape == expected.shape == (points.shape[0], weights.shape[0])
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
    model = GmmModel(weights, means, covs, ())
    np.testing.assert_allclose(gmm_nll(model, points), -stable_logsumexp(expected),
                               rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("points", [np.zeros((50, 3)), _two_blobs(100, seed=9)])
def test_fitted_mixture_nll_matches_per_component_reference(points):
    model = fit_gmm(points, n_components=5, seed=10)
    expected = -stable_logsumexp(_reference_mixture_log_matrix(
        points, model.weights, model.means, model.covariances))
    np.testing.assert_allclose(gmm_nll(model, points), expected, rtol=1e-12, atol=0.0)


def _row_mixture_log_matrix(points, weights, means, covs):
    """The batched Cholesky kernel over (n, 3) points, before it took (3, n)."""
    chol = np.linalg.cholesky(covs)
    whiten = np.ascontiguousarray(np.linalg.inv(chol).transpose(0, 2, 1))
    y = (points - means[:, None, :]) @ whiten
    y *= y
    quad = y[..., 0] + y[..., 1] + y[..., 2]
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    log_gauss = -0.5 * (3 * math.log(2.0 * math.pi) + logdet[:, None] + quad)
    return (np.log(weights)[:, None] + log_gauss).T


def _row_floor_covariance(cov):
    values, vectors = np.linalg.eigh(cov)
    values = np.maximum(values, 1e-6)
    return (vectors * values) @ vectors.T


def _row_fit_gmm(points, n_components, n_iter=10, seed=42):
    """fit_gmm over (n, 3) points before the warm start: k-means++ recomputing
    every center's distances, a per-component floor."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    centers = [points[rng.integers(n)]]
    for _ in range(n_components - 1):
        d2 = np.min([((points - c) ** 2).sum(axis=1) for c in centers], axis=0)
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        centers.append(points[idx])
    centers = np.stack(centers)
    assign = np.argmin(((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1)
    counts = np.bincount(assign, minlength=n_components).astype(np.float64)
    weights = np.maximum(counts, 1e-12)
    weights = weights / weights.sum()
    means = centers.copy()
    covs = np.stack([_row_floor_covariance(np.cov(points.T) if n > 1 else np.eye(3))]
                    * n_components)
    trace = []
    for _ in range(n_iter):
        log_terms = _row_mixture_log_matrix(points, weights, means, covs)
        log_norm = stable_logsumexp(log_terms)
        trace.append(float(log_norm.sum()))
        resp = np.exp(log_terms - log_norm[:, None])
        bulk = resp.sum(axis=0)
        weights = bulk / n
        means = (resp.T @ points) / bulk[:, None]
        for comp in range(n_components):
            d = points - means[comp]
            covs[comp] = _row_floor_covariance((resp[:, comp][:, None] * d).T @ d / bulk[comp])
    return GmmModel(weights, means, covs, tuple(trace))


_CLOUDS = ("spread", "duplicates", "plane", "line", "single")


def _point_cloud(rng, kind, n):
    if kind == "spread":
        return rng.normal(50.0, 30.0, size=(n, 3))
    if kind == "duplicates":
        distinct = max(1, n // 4)
        return rng.normal(50.0, 30.0, size=(distinct, 3))[rng.integers(distinct, size=n)]
    if kind == "plane":
        return rng.normal(0.0, 10.0, size=(n, 2)) @ rng.normal(0.0, 1.0, size=(2, 3)) + 40.0
    if kind == "line":
        return rng.normal(0.0, 10.0, size=(n, 1)) * rng.normal(0.0, 1.0, size=(1, 3)) + 40.0
    return np.repeat(rng.normal(50.0, 30.0, size=(1, 3)), n, axis=0)  # one point, n times


def _same_mixture(a, b):
    return (np.array_equal(a.weights, b.weights) and np.array_equal(a.means, b.means)
            and np.array_equal(a.covariances, b.covariances))


def _same_model(a, b):
    return _same_mixture(a, b) and a.ll_trace == b.ll_trace


@pytest.mark.parametrize("kind", _CLOUDS)
def test_fresh_fit_is_bit_identical_to_the_row_kernel(kind):
    rng = np.random.default_rng(_CLOUDS.index(kind))
    for trial in range(12):
        k = int(rng.integers(1, 6))
        # n < 8 runs numpy's unrolled sums; n in the thousands its pairwise ones
        n = int(rng.integers(k, 8)) if trial % 3 == 0 else int(rng.integers(k, 3000))
        points = _point_cloud(rng, kind, n)
        seed = int(rng.integers(2 ** 31))
        n_iter = int(rng.integers(0, 11))
        expected = _row_fit_gmm(points, k, n_iter, seed)
        assert _same_model(fit_gmm(points, k, n_iter, seed), expected), (kind, trial, n, k)


@pytest.mark.parametrize("a, b", [(0, 3), (1, 1), (2, 5), (4, 0)])
def test_warm_fit_chains(a, b):
    points = _two_blobs(120, seed=40 + a)
    start = fit_gmm(points[::2], n_components=3, n_iter=2, seed=41)
    whole = fit_gmm(points, n_components=3, n_iter=a + b, init=start)
    first = fit_gmm(points, n_components=3, n_iter=a, init=start)
    chained = fit_gmm(points, n_components=3, n_iter=b, init=first)
    assert _same_mixture(whole, chained)
    assert whole.ll_trace == first.ll_trace + chained.ll_trace
    # the seed plays no part in a warm fit
    assert _same_model(whole, fit_gmm(points, 3, a + b, seed=99, init=start))


def test_warm_fit_trace_starts_at_the_old_mixture_log_likelihood():
    rng = np.random.default_rng(42)
    for trial in range(40):
        k = int(rng.integers(1, 6))
        old = fit_gmm(_point_cloud(rng, "spread", 200), k, n_iter=3, seed=trial)
        points = _point_cloud(rng, ["spread", "duplicates", "plane"][trial % 3],
                              int(rng.integers(k, 500)))
        warm = fit_gmm(points, k, n_iter=1, init=old)
        assert -warm.ll_trace[0] == gmm_nll(old, points).sum()


def test_warm_fit_needs_a_matching_mixture():
    old = fit_gmm(_two_blobs(30, seed=43), n_components=2, seed=1)
    with pytest.raises(BadParameter):
        fit_gmm(_two_blobs(30, seed=44), n_components=3, init=old)


def test_warm_fit_survives_a_component_without_support():
    # the second component sits far from every pixel, so its responsibilities
    # underflow to 0; the step still gives a finite mixture
    points = _two_blobs(50, seed=45)
    old = GmmModel(np.array([0.5, 0.5]), np.array([[0.0, 0.0, 0.0], [1e4, 1e4, 1e4]]),
                   np.stack([np.eye(3)] * 2), ())
    new = fit_gmm(points, n_components=2, n_iter=2, init=old)
    assert np.isfinite(new.means).all() and np.isfinite(new.covariances).all()
    assert new.ll_trace[1] >= new.ll_trace[0]
    assert np.isfinite(gmm_nll(new, points)).all()


# --- exact min-cut ----------------------------------------------------------------

def _random_problem(rng, h, w, lock_prob=0.2, zero_weight_prob=0.2):
    n = h * w
    pairs = _grid_pairs(h, w)
    pair_w = rng.uniform(0.0, 3.0, size=pairs.shape[0])
    pair_w[rng.random(pairs.shape[0]) < zero_weight_prob] = 0.0
    return CutProblem(
        shape=(h, w),
        d_fg=rng.uniform(0.0, 10.0, size=n),
        d_bg=rng.uniform(0.0, 10.0, size=n),
        pairs=pairs,
        pair_w=pair_w,
        locked_bg=rng.random(n) < lock_prob,
    )


def _enumerate_min(problem):
    n = problem.d_fg.size
    best = math.inf
    for bits in itertools.product([False, True], repeat=n):
        energy = cut_energy(problem, np.array(bits))
        if energy < best:
            best = energy
    return best


def test_solver_matches_enumeration_on_small_grids():
    rng = np.random.default_rng(11)
    for trial in range(30):
        h = int(rng.integers(1, 4))
        w = int(rng.integers(1, 4))
        problem = _random_problem(rng, h, w)
        labels = solve_cut(problem)
        assert cut_energy(problem, labels) == _enumerate_min(problem), f"trial {trial}"


def test_solver_respects_locks():
    rng = np.random.default_rng(12)
    for _ in range(10):
        problem = _random_problem(rng, 3, 3, lock_prob=0.5)
        labels = solve_cut(problem)
        assert not (labels & problem.locked_bg).any()


def test_zero_smoothness_decouples_pixels():
    # with no pairwise term each pixel independently takes its cheaper label;
    # exact ties have zero capacity on both links and fall to background
    rng = np.random.default_rng(13)
    n = 12
    problem = CutProblem(
        shape=(3, 4),
        d_fg=rng.uniform(0.0, 5.0, size=n),
        d_bg=rng.uniform(0.0, 5.0, size=n),
        pairs=_grid_pairs(3, 4),
        pair_w=np.zeros(10 + 9 + 3 - 5),
        locked_bg=np.zeros(n, dtype=bool),
    )
    labels = solve_cut(problem)
    assert np.array_equal(labels, problem.d_fg < problem.d_bg)


def test_fully_degenerate_graph_raises():
    n = 4
    problem = CutProblem(
        shape=(2, 2),
        d_fg=np.ones(n),
        d_bg=np.ones(n),  # shift removes both t-links everywhere
        pairs=_grid_pairs(2, 2),
        pair_w=np.zeros(4),
        locked_bg=np.zeros(n, dtype=bool),
    )
    with pytest.raises(DegenerateGraph):
        solve_cut(problem)


@pytest.mark.parametrize("smoothness", [-1.0, -1e-300, math.nan, math.inf])
def test_build_cut_problem_rejects_bad_smoothness(smoothness):
    # a negative weight makes the energy non-submodular; min-cut would drop it
    rng = np.random.default_rng(15)
    img = RgbImage(rng.integers(0, 256, size=(5, 6, 3), dtype=np.uint8))
    points = rgb_to_lab(img.pixels).reshape(-1, 3)
    fg = fit_gmm(points[:15], n_components=2, seed=1)
    bg = fit_gmm(points[15:], n_components=2, seed=2)
    with pytest.raises(BadParameter):
        build_cut_problem(img, fg, bg, smoothness=smoothness)


def test_build_cut_problem_fields():
    rng = np.random.default_rng(14)
    img = RgbImage(rng.integers(0, 256, size=(5, 6, 3), dtype=np.uint8))
    points = rgb_to_lab(img.pixels).reshape(-1, 3)
    fg = fit_gmm(points[:15], n_components=2, seed=1)
    bg = fit_gmm(points[15:], n_components=2, seed=2)
    locked = np.zeros((5, 6), dtype=bool)
    locked[0, :] = True
    problem = build_cut_problem(img, fg, bg, smoothness=50.0, locked_bg=locked)
    assert problem.d_fg.shape == (30,)
    assert problem.pairs.shape == (5 * 5 + 4 * 6, 2)
    assert (problem.pair_w >= 0.0).all()
    assert (problem.pair_w <= 50.0 + 1e-12).all()
    assert problem.locked_bg.sum() == 6
    # a flat gradient-free region still yields finite weights
    assert np.isfinite(problem.pair_w).all()


def test_min_cut_segment_separates_synthetic_object():
    rng = np.random.default_rng(15)
    img = np.full((16, 16, 3), 30, dtype=np.int32)
    img[4:12, 4:12] = (220, 40, 40)
    img += rng.integers(-5, 6, size=img.shape)
    image = RgbImage(np.clip(img, 0, 255).astype(np.uint8))
    truth = np.zeros((16, 16), dtype=bool)
    truth[4:12, 4:12] = True

    lab = rgb_to_lab(image.pixels).reshape(-1, 3)
    fg = fit_gmm(lab[truth.ravel()], n_components=2, seed=3)
    bg = fit_gmm(lab[~truth.ravel()], n_components=2, seed=4)
    problem = build_cut_problem(image, fg, bg, smoothness=50.0)
    mask = BinaryMask(solve_cut(problem).reshape(problem.shape))
    assert mask_metrics(mask, truth).iou >= 0.9


# --- full grabcut ------------------------------------------------------------------

def _ellipse_image(h, w, seed):
    yy, xx = np.mgrid[0:h, 0:w]
    truth = ((yy - h / 2) / (h * 0.3)) ** 2 + ((xx - w / 2) / (w * 0.35)) ** 2 <= 1.0
    rng = np.random.default_rng(seed)
    img = np.empty((h, w, 3), dtype=np.int32)
    img[~truth] = (45, 80, 45)
    img[truth] = (200, 60, 50)
    img += rng.integers(-10, 11, size=img.shape)
    return RgbImage(np.clip(img, 0, 255).astype(np.uint8)), truth


def test_grabcut_recovers_ellipse():
    image, truth = _ellipse_image(64, 64, seed=20)
    result = grabcut(image, seed=42)
    assert not result.degenerate
    assert mask_metrics(result.mask, truth).iou >= 0.9
    # foreground stays inside the initialization box
    outside = ~result.box.interior_mask(64, 64)
    assert not (result.mask.pixels & outside).any()


def test_grabcut_energy_never_increases():
    image, _ = _ellipse_image(48, 56, seed=21)
    result = grabcut(image, seed=7)
    for earlier, later in zip(result.energies, result.energies[1:]):
        assert later <= earlier + 1e-6


def test_grabcut_is_deterministic():
    image, _ = _ellipse_image(40, 40, seed=22)
    a = grabcut(image, seed=3)
    b = grabcut(image, seed=3)
    assert a.mask == b.mask
    assert a.energies == b.energies


def test_grabcut_uniform_image_degenerates_to_box():
    image = RgbImage(np.full((32, 32, 3), 120, dtype=np.uint8))
    result = grabcut(image, seed=42)
    assert result.degenerate
    assert np.array_equal(result.mask.pixels,
                          result.box.interior_mask(32, 32))


def _reference_grabcut(image, seed=42, n_iter=5, n_components=5, smoothness=50.0):
    """grabcut before it reused its Lab pixels, n-links and repeated cuts, and
    before its refit test read the old mixture's data term from the trace."""
    box = init_box(image.width, image.height, seed)
    locked = ~box.interior_mask(image.height, image.width)
    lab = rgb_to_lab(image.pixels).reshape(-1, 3)
    fg_mask = ~locked
    fg_gmm = bg_gmm = None
    energies = []
    for iteration in range(n_iter):
        fg_px = lab[fg_mask.ravel()]
        bg_px = lab[~fg_mask.ravel()]
        if fg_px.shape[0] < n_components or bg_px.shape[0] < n_components:
            return GrabCutResult(BinaryMask(~locked), box, True, tuple(energies))
        if iteration == 0:
            fg_gmm = fit_gmm(fg_px, n_components, seed=derive_seed(seed, 0, 0))
            bg_gmm = fit_gmm(bg_px, n_components, seed=derive_seed(seed, 0, 1))
        else:
            new_fg = fit_gmm(fg_px, n_components, n_iter=1, init=fg_gmm)
            new_bg = fit_gmm(bg_px, n_components, n_iter=1, init=bg_gmm)
            if gmm_nll(new_fg, fg_px).sum() <= gmm_nll(fg_gmm, fg_px).sum():
                fg_gmm = new_fg
            if gmm_nll(new_bg, bg_px).sum() <= gmm_nll(bg_gmm, bg_px).sum():
                bg_gmm = new_bg
        problem = build_cut_problem(image, fg_gmm, bg_gmm, smoothness, locked)
        labels = solve_cut(problem)
        energies.append(cut_energy(problem, labels))
        if not labels.any():
            return GrabCutResult(BinaryMask(~locked), box, True, tuple(energies))
        fg_mask = labels.reshape(image.height, image.width)
    return GrabCutResult(BinaryMask(fg_mask), box, False, tuple(energies))


def _textured_image(size, seed):
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0:size, 0:size]
    disc = (yy - size * 0.45) ** 2 + (xx - size * 0.5) ** 2 <= (size * 0.3) ** 2
    stripes = (np.sin(xx * 0.9) + np.cos(yy * 0.7))[..., None] * 30
    img = np.where(disc[..., None], (170, 70, 60), (60, 90, 120)) + stripes
    img += rng.normal(0.0, 12.0, size=img.shape)
    return RgbImage(np.clip(img, 0, 255).astype(np.uint8))


def _noisy_ellipse(size, seed):
    image, _ = _ellipse_image(size, size, seed)
    noise = np.random.default_rng(seed + 1).integers(-40, 41, size=image.pixels.shape)
    return RgbImage(np.clip(image.pixels + noise, 0, 255).astype(np.uint8))


@pytest.mark.parametrize("image, seed", [
    pytest.param(_ellipse_image(128, 128, seed=5)[0], 42, id="criterion07-ellipse"),
    pytest.param(_noisy_ellipse(64, seed=23), 7, id="noisy-ellipse"),
    pytest.param(_textured_image(64, seed=24), 42, id="textured"),
])
def test_grabcut_matches_reference_without_repeated_work(image, seed):
    expected = _reference_grabcut(image, seed=seed)
    calls = {"solve_cut": 0, "rgb_to_lab": 0}

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    with mock.patch.object(pseudomask, "solve_cut", counting(solve_cut)), \
            mock.patch.object(pseudomask, "rgb_to_lab", counting(rgb_to_lab)):
        result = grabcut(image, seed=seed)
    assert result.mask == expected.mask
    assert result.energies == expected.energies
    assert not result.degenerate and not expected.degenerate
    assert calls["rgb_to_lab"] == 1
    # every warm refit here improves its mixture, so every iteration cuts
    assert calls["solve_cut"] == len(result.energies) == 5
    # and the per-component kernel the batched one replaced gives the same masks
    with mock.patch.object(pseudomask, "_mixture_log_matrix",
                           _columns_kernel(_reference_mixture_log_matrix)):
        old_kernel = _reference_grabcut(image, seed=seed)
    assert result.mask == old_kernel.mask
    np.testing.assert_allclose(result.energies, old_kernel.energies, rtol=1e-12, atol=0.0)


def test_grabcut_stops_cutting_once_both_refits_are_rejected():
    image, _ = _ellipse_image(32, 32, seed=25)
    first = grabcut(image, seed=3, n_iter=1)
    cuts = []

    def counting(problem):
        cuts.append(problem)
        return solve_cut(problem)

    with mock.patch.object(pseudomask, "_refit", lambda model, pixels: (model, False)), \
            mock.patch.object(pseudomask, "solve_cut", counting):
        result = grabcut(image, seed=3, n_iter=4)
    # nothing changes after the first cut, so its energy stands for the rest
    assert len(cuts) == 1
    assert result.energies == first.energies * 4
    assert result.mask == first.mask


def test_refit_keeps_the_old_mixture_when_a_step_worsens_the_data_term():
    points = _two_blobs(80, seed=26)
    old = fit_gmm(points, n_components=2, seed=27)
    step = fit_gmm(points, 2, n_iter=1, init=old)
    worse = GmmModel(step.weights, step.means + 3.0, step.covariances, step.ll_trace)
    with mock.patch.object(pseudomask, "fit_gmm", lambda *args, **kwargs: worse):
        assert pseudomask._refit(old, points) == (old, False)
    kept, accepted = pseudomask._refit(old, points)
    assert accepted and _same_model(kept, step)


def _random_scene(rng):
    """An ellipse of one random colour on another, under random noise."""
    h, w = (int(v) for v in rng.integers(12, 28, size=2))
    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = rng.uniform(0.35, 0.65) * h, rng.uniform(0.35, 0.65) * w
    ry, rx = rng.uniform(0.15, 0.35) * h, rng.uniform(0.15, 0.35) * w
    inside = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
    fg, bg = rng.integers(0, 256, size=(2, 3))
    noise = int(rng.integers(0, 60))
    pixels = np.where(inside[..., None], fg, bg) + rng.integers(-noise, noise + 1, size=(h, w, 3))
    return RgbImage(np.clip(pixels, 0, 255).astype(np.uint8))


def test_grabcut_energy_never_increases_on_random_images():
    rng = np.random.default_rng(28)
    cut_again = 0
    for trial in range(40):
        result = grabcut(_random_scene(rng), seed=trial, n_iter=int(rng.integers(2, 8)),
                         n_components=int(rng.integers(1, 6)))
        for earlier, later in zip(result.energies, result.energies[1:]):
            assert later <= earlier, (trial, result.energies)
        cut_again += len(result.energies) > 1
    assert cut_again >= 30  # most scenes keep a foreground past the first cut


# --- cleanup -------------------------------------------------------------------

def test_open_removes_isolated_pixel():
    mask = np.zeros((7, 7), dtype=bool)
    mask[3, 3] = True
    assert morph_open(BinaryMask(mask)).foreground_count() == 0


def test_close_fills_single_pixel_hole():
    mask = np.ones((7, 7), dtype=bool)
    mask[3, 3] = False
    closed = morph_close(BinaryMask(mask))
    assert closed.pixels[3, 3]


def test_open_is_anti_extensive_and_idempotent():
    rng = np.random.default_rng(30)
    for _ in range(30):
        mask = BinaryMask(rng.random((10, 12)) > 0.5)
        opened = morph_open(mask)
        assert not (opened.pixels & ~mask.pixels).any()
        assert morph_open(opened) == opened


def test_close_is_idempotent():
    rng = np.random.default_rng(31)
    for _ in range(30):
        mask = BinaryMask(rng.random((10, 12)) > 0.5)
        closed = morph_close(mask)
        assert morph_close(closed) == closed


def _window_reference(pixels, radius, combine_any):
    """Dilation (any) or erosion (all) pixel by pixel, over an unclamped window."""
    h, w = pixels.shape
    padded = np.zeros((h + 2 * radius, w + 2 * radius), dtype=bool)
    padded[radius:radius + h, radius:radius + w] = pixels
    windows = [[padded[y:y + 2 * radius + 1, x:x + 2 * radius + 1] for x in range(w)]
               for y in range(h)]
    return np.array([[win.any() if combine_any else win.all() for win in row]
                     for row in windows])


@pytest.mark.parametrize("shape", [(9, 13), (16, 16), (20, 7), (1, 1), (1, 17), (17, 1)])
def test_morphology_radius_is_clamped_exactly(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    mask = BinaryMask(rng.random(shape) > 0.4)
    side = max(shape)
    for radius in (1, 2, 5, side - 1, side, side + 1, side + 7, 3 * side):
        eroded = _window_reference(mask.pixels, radius, False)
        dilated = _window_reference(mask.pixels, radius, True)
        assert np.array_equal(morph_open(mask, radius).pixels,
                              _window_reference(eroded, radius, True))
        assert np.array_equal(morph_close(mask, radius).pixels,
                              _window_reference(dilated, radius, False))
    # a radius far beyond the mask runs no longer than one of max(h, w)
    assert morph_open(mask, 10 ** 12) == morph_open(mask, side)
    assert morph_close(mask, 10 ** 12) == morph_close(mask, side)


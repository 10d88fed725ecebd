"""GrabCut-style pseudo-mask generation from a single automatic box prompt.

The pipeline: draw a centered initialization rectangle, model foreground and
background colors in CIELAB with small Gaussian mixtures, and alternate
between refitting the mixtures and solving an exact min-cut whose t-links
are mixture negative log-likelihoods and whose n-links are contrast-weighted
4-neighbor edges. Pixels outside the rectangle stay locked to background.

The min-cut energy for a labeling x is

    sum_i D_i(x_i) + smoothness * sum_{(i,j)} exp(-beta * ||z_i - z_j||^2) * [x_i != x_j]

with D the mixture NLLs and beta = 1 / (2 * mean squared neighbor
difference). cut_energy evaluates exactly this, and solve_cut returns a
labeling attaining its minimum, so the two can be cross-checked by
enumeration on tiny images.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import BinaryMask, RgbImage
from .errors import (
    BadParameter,
    DegenerateGraph,
    DimensionMismatch,
    ImageTooSmall,
    TooFewPixels,
)
from .maxflow import FlowGraph
from .scoring import stable_logsumexp
from .tiny_model import derive_seed

__all__ = [
    "Box",
    "init_box",
    "rgb_to_lab",
    "GmmModel",
    "fit_gmm",
    "gmm_nll",
    "CutProblem",
    "build_cut_problem",
    "cut_energy",
    "solve_cut",
    "GrabCutResult",
    "grabcut",
    "morph_open",
    "morph_close",
]

_LOCK_CAP = 1e30
_COV_FLOOR = 1e-6
_TINY = np.finfo(np.float64).tiny
# EM steps per warm refit. On the 128^2 masks tray (1 CPU, in process),
# GrabCut took 0.273 s with one step, 0.284 s with two and 0.328 s with
# three, against 0.432 s for ten steps from a fresh start, at the same IoU.
_WARM_STEPS = 1


# --- initialization box -----------------------------------------------------

@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle; x is the column of the left edge."""

    x0: int
    y0: int
    width: int
    height: int

    def interior_mask(self, image_height: int, image_width: int) -> np.ndarray:
        mask = np.zeros((image_height, image_width), dtype=bool)
        mask[self.y0:self.y0 + self.height, self.x0:self.x0 + self.width] = True
        return mask


def init_box(width: int, height: int, seed: int = 42) -> Box:
    """Centered box with side fractions drawn uniformly from [0.81, 0.99].

    Side lengths are floored, which keeps the box strictly inside the image
    so a background ring always exists. Images must be at least 8x8.
    """
    if width < 8 or height < 8:
        raise ImageTooSmall(f"image {width}x{height} is below the 8x8 minimum")
    rng = np.random.default_rng(seed)
    frac_w = rng.uniform(0.81, 0.99)
    frac_h = rng.uniform(0.81, 0.99)
    box_w = max(2, int(math.floor(width * frac_w)))
    box_h = max(2, int(math.floor(height * frac_h)))
    return Box((width - box_w) // 2, (height - box_h) // 2, box_w, box_h)


# --- color space ------------------------------------------------------------

_RGB_TO_XYZ = np.array([
    [0.4124564, 0.3575761, 0.1804375],
    [0.2126729, 0.7151522, 0.0721750],
    [0.0193339, 0.1191920, 0.9503041],
])
_D65_WHITE = np.array([0.95047, 1.0, 1.08883])


def rgb_to_lab(rgb) -> np.ndarray:
    """sRGB (uint8 scale, any leading shape) to CIELAB under D65."""
    c = np.asarray(rgb, dtype=np.float64) / 255.0
    if c.shape[-1] != 3:
        raise DimensionMismatch(f"last axis must be 3 channels, got shape {c.shape}")
    linear = np.where(c <= 0.04045, c / 12.92, ((c + 0.055) / 1.055) ** 2.4)
    xyz = linear @ _RGB_TO_XYZ.T / _D65_WHITE
    delta = 6.0 / 29.0
    f = np.where(xyz > delta ** 3, np.cbrt(xyz), xyz / (3.0 * delta ** 2) + 4.0 / 29.0)
    out = np.empty_like(f)
    out[..., 0] = 116.0 * f[..., 1] - 16.0
    out[..., 1] = 500.0 * (f[..., 0] - f[..., 1])
    out[..., 2] = 200.0 * (f[..., 1] - f[..., 2])
    return out


# --- Gaussian mixtures --------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GmmModel:
    """Full-covariance mixture; covariance eigenvalues are floored at 1e-6."""

    weights: np.ndarray      # (K,)
    means: np.ndarray        # (K, 3)
    covariances: np.ndarray  # (K, 3, 3)
    ll_trace: tuple[float, ...]

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]


def _floor_covariance(cov: np.ndarray) -> np.ndarray:
    """Floor the eigenvalues of one (3, 3) covariance or a (K, 3, 3) stack."""
    values, vectors = np.linalg.eigh(cov)
    values = np.maximum(values, _COV_FLOOR)
    return (vectors * values[..., None, :]) @ np.swapaxes(vectors, -1, -2)


def _as_pixels(pixels) -> np.ndarray:
    points = np.asarray(pixels, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 3:
        raise DimensionMismatch(f"expected (n, 3) pixels, got shape {points.shape}")
    return points


def _mixture_log_matrix(cols, weights, means, covs) -> np.ndarray:
    """log(w_k) + log N(x | mu_k, S_k) as a (K, n) matrix, for pixels cols as (3, n).

    With S_k = L_k L_k^T, the Mahalanobis term is ||L_k^-1 (x - mu_k)||^2
    and log det S_k = 2 * sum(log diag L_k), for all K components at once.
    Each channel is a row, so every elementwise step runs along n.
    """
    chol = np.linalg.cholesky(covs)
    y = np.linalg.inv(chol) @ (cols - means[:, :, None])
    y *= y
    # rounds as a sum over the channel axis does
    quad = y[:, 0] + y[:, 1] + y[:, 2]
    logdet = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    log_gauss = -0.5 * (3 * math.log(2.0 * math.pi) + logdet[:, None] + quad)
    return np.log(weights)[:, None] + log_gauss


def _kmeanspp(cols: np.ndarray, k: int, rng: np.random.Generator):
    """k-means++ centers (k, 3), and how many points lie nearest each one."""
    n = cols.shape[1]
    centers = [cols[:, rng.integers(n)]]
    dist: list[np.ndarray] = []
    nearest = np.full(n, np.inf)
    while True:
        d = cols - centers[-1][:, None]
        d *= d
        dist.append(d[0] + d[1] + d[2])
        if len(centers) == k:
            return np.stack(centers), np.bincount(np.argmin(dist, axis=0), minlength=k)
        nearest = np.minimum(nearest, dist[-1])
        total = nearest.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=nearest / total))
        centers.append(cols[:, idx])


def fit_gmm(pixels, n_components: int = 5, n_iter: int = 10, seed: int = 42, *,
            init: GmmModel | None = None) -> GmmModel:
    """A fixed number of EM updates from a seeded k-means++ start, or from init.

    The trace holds the total data log-likelihood at the start of each EM
    iteration; with the eigenvalue floor acting as a constrained M-step the
    trace is non-decreasing. A warm start (init given) takes its components
    from init and ignores seed; its ll_trace[0] is init's log-likelihood
    over these pixels, and fit_gmm(x, init=m, n_iter=a + b) equals
    fit_gmm(x, init=fit_gmm(x, init=m, n_iter=a), n_iter=b). Needs at least
    n_components pixels.
    """
    points = _as_pixels(pixels)
    if init is not None and init.n_components != n_components:
        raise BadParameter(f"init has {init.n_components} components, not {n_components}")
    if n_components < 1:
        raise BadParameter(f"n_components must be >= 1, got {n_components}")
    n = points.shape[0]
    if n < n_components:
        raise TooFewPixels(f"{n} pixels cannot support {n_components} components")
    cols = np.ascontiguousarray(points.T)

    if init is None:
        means, counts = _kmeanspp(cols, n_components, np.random.default_rng(seed))
        weights = np.maximum(counts.astype(np.float64), 1e-12)
        weights = weights / weights.sum()
        global_cov = _floor_covariance(np.cov(points.T) if n > 1 else np.eye(3))
        covs = np.stack([global_cov] * n_components)
    else:
        weights, means, covs = init.weights, init.means, init.covariances

    trace: list[float] = []
    scatter = np.empty((n_components, 3, 3))
    for _ in range(n_iter):
        log_terms = _mixture_log_matrix(cols, weights, means, covs)
        log_norm = stable_logsumexp(log_terms.T)
        trace.append(float(log_norm.sum()))
        resp = np.exp(log_terms - log_norm)
        # a warm start can leave a component with no pixel's support, whose
        # responsibilities all underflow to 0; it collapses to a floored
        # covariance at the origin with a weight near 0, not to NaN
        bulk = np.maximum(resp.sum(axis=1), _TINY)
        weights = bulk / n
        means = (resp @ points) / bulk[:, None]
        # the scatter operands stay (n, 3), so each product runs the gemm of
        # a plain (r * d).T @ d; a transposed layout rounds differently
        d = np.empty((n, 3))
        rd = np.empty((n, 3))
        for comp in range(n_components):
            np.subtract(cols, means[comp][:, None], out=d.T)
            np.multiply(d.T, resp[comp], out=rd.T)
            scatter[comp] = rd.T @ d / bulk[comp]
        covs = _floor_covariance(scatter)
    return GmmModel(weights, means, covs, tuple(trace))


def gmm_nll(model: GmmModel, pixels) -> np.ndarray:
    """Per-pixel negative log-likelihood under the full mixture."""
    cols = np.ascontiguousarray(_as_pixels(pixels).T)
    log_terms = _mixture_log_matrix(cols, model.weights, model.means, model.covariances)
    return -stable_logsumexp(log_terms.T)


# --- the cut ------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CutProblem:
    """Energy terms over h*w pixels in row-major order."""

    shape: tuple[int, int]
    d_fg: np.ndarray      # (n,) cost of labeling each pixel foreground
    d_bg: np.ndarray      # (n,)
    pairs: np.ndarray     # (m, 2) 4-neighbor index pairs
    pair_w: np.ndarray    # (m,) nonnegative cut penalties
    locked_bg: np.ndarray  # (n,) pixels forced to background


def _grid_pairs(height: int, width: int) -> np.ndarray:
    idx = np.arange(height * width).reshape(height, width)
    horizontal = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    vertical = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    return np.concatenate([horizontal, vertical])


def _image_terms(image: RgbImage, smoothness: float):
    """What a cut problem takes from the image alone: the Lab pixels as
    (n, 3), the 4-neighbor pairs and their cut penalties."""
    if not (math.isfinite(smoothness) and smoothness >= 0.0):
        raise BadParameter(f"smoothness must be finite and >= 0, got {smoothness}")
    z = rgb_to_lab(image.pixels).reshape(-1, 3)
    pairs = _grid_pairs(image.height, image.width)
    diff2 = ((z[pairs[:, 0]] - z[pairs[:, 1]]) ** 2).sum(axis=1)
    mean_diff2 = float(diff2.mean()) if diff2.size else 0.0
    beta = 0.0 if mean_diff2 <= 0.0 else 1.0 / (2.0 * mean_diff2)
    return z, pairs, smoothness * np.exp(-beta * diff2)


def build_cut_problem(image: RgbImage, fg_gmm: GmmModel, bg_gmm: GmmModel,
                      smoothness: float = 50.0, locked_bg=None, *,
                      terms=None) -> CutProblem:
    """Assemble data and smoothness terms from an image and two mixtures.

    smoothness must be finite and >= 0: a negative weight makes the energy
    non-submodular, which an exact min-cut cannot minimize. terms, when
    given, is _image_terms(image, smoothness) computed once by the caller.
    """
    z, pairs, pair_w = _image_terms(image, smoothness) if terms is None else terms
    height, width = image.height, image.width
    if locked_bg is None:
        locked = np.zeros(height * width, dtype=bool)
    else:
        locked = np.asarray(locked_bg, dtype=bool)
        if locked.shape != (height, width):
            raise DimensionMismatch(
                f"locked_bg shape {locked.shape} does not match image {(height, width)}"
            )
        locked = locked.ravel()
    return CutProblem((height, width), gmm_nll(fg_gmm, z), gmm_nll(bg_gmm, z),
                      pairs, pair_w, locked)


def cut_energy(problem: CutProblem, labels) -> float:
    """Energy of a labeling; infinite when a locked pixel is foreground."""
    flat = np.asarray(labels, dtype=bool).ravel()
    if flat.size != problem.d_fg.size:
        raise DimensionMismatch(f"labeling has {flat.size} entries, expected {problem.d_fg.size}")
    if (flat & problem.locked_bg).any():
        return math.inf
    data = np.where(flat, problem.d_fg, problem.d_bg).sum()
    cut = flat[problem.pairs[:, 0]] != flat[problem.pairs[:, 1]]
    return float(data + problem.pair_w[cut].sum())


def solve_cut(problem: CutProblem) -> np.ndarray:
    """Exact minimizer of cut_energy as a flat boolean labeling.

    Both t-links of a pixel are shifted down by their minimum, which changes
    every labeling's cut capacity by the same constant and keeps all
    capacities nonnegative even when a mixture density exceeds 1. Locked
    pixels get one huge (finite) sink link.
    """
    n = problem.d_fg.size
    source, sink = n, n + 1
    graph = FlowGraph(n + 2)
    shift = np.minimum(problem.d_fg, problem.d_bg)
    locked = problem.locked_bg
    # per pixel: the source link (paid when the pixel ends up background),
    # then the sink link (paid when it ends up foreground)
    t_cap = np.stack([np.where(locked, 0.0, problem.d_bg - shift),
                      np.where(locked, _LOCK_CAP, problem.d_fg - shift)], axis=1).ravel()
    pixel = np.repeat(np.arange(n), 2)
    to_sink = np.tile([False, True], n)
    t_keep = t_cap > 0.0
    graph.add_edge(np.where(to_sink, pixel, source)[t_keep],
                   np.where(to_sink, sink, pixel)[t_keep], t_cap[t_keep])
    n_keep = problem.pair_w > 0.0
    w = problem.pair_w[n_keep]
    graph.add_edge(problem.pairs[n_keep, 0], problem.pairs[n_keep, 1], w, w)
    if not (t_keep.any() or n_keep.any()):
        raise DegenerateGraph("every capacity is zero; the labeling is unconstrained")
    graph.max_flow(source, sink)
    return graph.source_side()[:n]


# --- the full loop --------------------------------------------------------------

@dataclass(frozen=True)
class GrabCutResult:
    mask: BinaryMask
    box: Box
    degenerate: bool
    energies: tuple[float, ...]


def _refit(model: GmmModel, pixels: np.ndarray) -> tuple[GmmModel, bool]:
    """One warm EM step from model, kept only if it does not worsen the data term."""
    new = fit_gmm(pixels, model.n_components, _WARM_STEPS, init=model)
    # ll_trace[0] is model's log-likelihood over pixels, from the same kernel
    # on the same inputs as gmm_nll(model, pixels), so it is that sum negated
    if gmm_nll(new, pixels).sum() <= -new.ll_trace[0]:
        return new, True
    return model, False


def grabcut(image: RgbImage, seed: int = 42, n_iter: int = 5,
            n_components: int = 5, smoothness: float = 50.0) -> GrabCutResult:
    """Box init, then alternate mixture refits with exact min-cuts.

    If the foreground empties at any point (a uniform image does this on the
    first cut) the box interior is returned with the degenerate flag set.
    The first iteration fits both mixtures from a seeded k-means++ start.
    Each later one refits each mixture by one EM step started from the
    mixture it would replace, as Rother, Kolmogorov & Blake (2004) do. A
    refit is only accepted when it does not worsen the data term of the
    current assignment, so the energy trace never increases.

    The Lab pixels and the n-links are computed once per image. When both
    refits are rejected, the pixels and mixtures stay as they were, so
    every later iteration would repeat this one: its energy is repeated to
    the end instead.
    """
    box = init_box(image.width, image.height, seed)
    locked = ~box.interior_mask(image.height, image.width)
    terms = _image_terms(image, smoothness)
    lab = terms[0]
    fg_mask = ~locked
    energies: list[float] = []
    for iteration in range(n_iter):
        fg_px = lab[fg_mask.ravel()]
        bg_px = lab[~fg_mask.ravel()]
        if fg_px.shape[0] < n_components or bg_px.shape[0] < n_components:
            return GrabCutResult(BinaryMask(~locked), box, True, tuple(energies))
        if iteration == 0:
            fg_gmm = fit_gmm(fg_px, n_components, seed=derive_seed(seed, 0, 0))
            bg_gmm = fit_gmm(bg_px, n_components, seed=derive_seed(seed, 0, 1))
        else:
            fg_gmm, fg_refit = _refit(fg_gmm, fg_px)
            bg_gmm, bg_refit = _refit(bg_gmm, bg_px)
            if not (fg_refit or bg_refit):
                energies += [energies[-1]] * (n_iter - iteration)
                break
        problem = build_cut_problem(image, fg_gmm, bg_gmm, smoothness, locked, terms=terms)
        labels = solve_cut(problem)
        energies.append(cut_energy(problem, labels))
        if not labels.any():
            return GrabCutResult(BinaryMask(~locked), box, True, tuple(energies))
        fg_mask = labels.reshape(image.height, image.width)
    return GrabCutResult(BinaryMask(fg_mask), box, False, tuple(energies))


# --- cleanup -----------------------------------------------------------------

def _window_reduce(pixels: np.ndarray, radius: int, combine_any: bool) -> np.ndarray:
    """OR (dilate) or AND (erode) over a (2r+1)^2 window; outside is background."""
    h, w = pixels.shape
    radius = min(radius, max(h, w))  # from every pixel this already reaches past each edge
    padded = np.zeros((h + 2 * radius, w + 2 * radius), dtype=bool)
    padded[radius:radius + h, radius:radius + w] = pixels
    combine = np.logical_or if combine_any else np.logical_and
    # the square is separable: a column window, then a row window of those
    columns = padded[:h].copy()
    for dy in range(1, 2 * radius + 1):
        combine(columns, padded[dy:dy + h], out=columns)
    out = columns[:, :w].copy()
    for dx in range(1, 2 * radius + 1):
        combine(out, columns[:, dx:dx + w], out=out)
    return out


def morph_open(mask: BinaryMask, radius: int = 1) -> BinaryMask:
    """Erosion then dilation with a square element; trims thin spurs."""
    eroded = _window_reduce(mask.pixels, radius, combine_any=False)
    return BinaryMask(_window_reduce(eroded, radius, combine_any=True))


def morph_close(mask: BinaryMask, radius: int = 1) -> BinaryMask:
    """Dilation then erosion with a square element; fills small holes."""
    dilated = _window_reduce(mask.pixels, radius, combine_any=True)
    return BinaryMask(_window_reduce(dilated, radius, combine_any=False))


"""Seeded input generator for the three benchmark workloads.

Every file the program reads is written here, before any timing starts, from
one integer seed: the same seed gives byte-identical files and another seed
gives other files. The generator never imports freshkit, so the planted truth
(object masks, near-duplicate clusters) does not depend on the code under
test.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOAD_TAGS = {"masks": 1, "select": 2, "screen": 3}

# dedup corpus: Hamming radius passed to `dedup --max-dist`
MAX_DIST = 10
# minimum hash distance between members of different planted clusters,
# except for the one deliberate near-miss pair at MAX_DIST + 2
CLUSTER_GAP = 14
N_AC_BITS = 63
N_ONES = 31


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([WORKLOAD_TAGS[workload], seed])


def _write_ppm(path: Path, pixels: np.ndarray) -> None:
    height, width, _ = pixels.shape
    path.write_bytes(f"P6\n{width} {height}\n255\n".encode("ascii")
                     + np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def _write_pgm(path: Path, mask: np.ndarray) -> None:
    height, width = mask.shape
    payload = np.where(mask, 255, 0).astype(np.uint8)
    path.write_bytes(f"P5\n{width} {height}\n255\n".encode("ascii") + payload.tobytes())


def _write_records(path: Path, prefix: str, ids, splits, labels, values) -> None:
    """Record CSV as docs/formats.md describes it; label -1 is written empty."""
    width = values.shape[1]
    lines = [",".join(["id", "split", "label"] + [f"{prefix}_{i}" for i in range(width)])]
    for rec_id, split, label, row in zip(ids, splits, labels, values):
        label_text = "" if label < 0 else str(int(label))
        lines.append(",".join([rec_id, split, label_text] + [repr(float(v)) for v in row]))
    path.write_text("\n".join(lines) + "\n")


# --- masks: trays with planted truth ------------------------------------------

def _noisy(rng, truth, fg, bg, amplitude):
    base = np.where(truth[..., None], fg, bg).astype(np.int64)
    base += rng.integers(-amplitude, amplitude + 1, size=base.shape)
    return np.clip(base, 0, 255).astype(np.uint8)


def smooth_ellipse(rng, size):
    """Two-colour ellipse with mild noise: graph assembly and GMM dominate."""
    yy, xx = np.mgrid[0:size, 0:size]
    cy, cx = size * (0.5 + rng.uniform(-0.02, 0.02, size=2))
    ay, ax = size * rng.uniform(0.29, 0.31), size * rng.uniform(0.33, 0.35)
    truth = ((yy - cy) / ay) ** 2 + ((xx - cx) / ax) ** 2 <= 1.0
    return _noisy(rng, truth, np.array([200, 62, 52]), np.array([46, 82, 46]), 10), truth


def textured_blobs(rng, size):
    """Two discs on a strongly noisy background: Dinic dominates."""
    yy, xx = np.mgrid[0:size, 0:size]
    truth = np.zeros((size, size), dtype=bool)
    for cy, cx in ((0.38, 0.35), (0.62, 0.65)):
        cy, cx = size * (np.array([cy, cx]) + rng.uniform(-0.02, 0.02, size=2))
        radius = size * rng.uniform(0.17, 0.18)
        truth |= (yy - cy) ** 2 + (xx - cx) ** 2 <= radius * radius
    return _noisy(rng, truth, np.array([180, 90, 70]), np.array([60, 90, 60]), 28), truth


def uniform_tray(rng, size):
    """One flat colour: GrabCut's first cut empties and takes the early exit."""
    colour = rng.integers(60, 200, size=3)
    return np.broadcast_to(colour, (size, size, 3)).astype(np.uint8), np.zeros((size, size), bool)


# (stem, maker, side, class); the class map feeds `seg-eval --classes`
TRAYS = (
    ("smooth_64", smooth_ellipse, 64, "smooth"),
    ("smooth_128", smooth_ellipse, 128, "smooth"),
    ("textured_64", textured_blobs, 64, "textured"),
    ("uniform_64", uniform_tray, 64, "uniform"),
)


def generate_masks(root: Path, seed: int, trays=TRAYS) -> dict:
    trays_dir, truth_dir = root / "trays", root / "truth"
    trays_dir.mkdir(parents=True)
    truth_dir.mkdir()
    rng = _rng("masks", seed)
    classes = {}
    for stem, maker, side, cls in trays:
        pixels, truth = maker(rng, side)
        _write_ppm(trays_dir / f"{stem}.ppm", pixels)
        _write_pgm(truth_dir / f"{stem}.pgm", truth)
        classes[stem] = cls
    (root / "classes.csv").write_text(
        "id,class\n" + "".join(f"{stem},{cls}\n" for stem, cls in classes.items()))
    return {"classes": classes, "program_seed": int(rng.integers(2 ** 31))}


# --- select: features for nested CV -------------------------------------------

def _blobs(rng, n_per_class, n_classes, dim, separation, spread):
    """Class centres on orthogonal axes plus isotropic noise."""
    centres = np.zeros((n_classes, dim))
    for c in range(n_classes):
        centres[c, (c * dim) // n_classes] = separation
    labels = np.repeat(np.arange(n_classes), n_per_class)
    xs = centres[labels] + rng.normal(0.0, spread, size=(labels.size, dim))
    order = rng.permutation(labels.size)
    return xs[order], labels[order]


def generate_select(root: Path, seed: int, n_per_class: int = 100) -> dict:
    root.mkdir(parents=True)
    rng = _rng("select", seed)
    xs, labels = _blobs(rng, n_per_class, 4, 16, separation=8.0, spread=1.0)
    ids = [f"s{i:04d}" for i in range(labels.size)]
    _write_records(root / "features.csv", "x", ids, ["train"] * labels.size, labels, xs)
    return {"program_seed": int(rng.integers(2 ** 31))}


# --- screen: dedup corpus with planted clusters -------------------------------

def _hash_of(bits: np.ndarray) -> int:
    """Pack 63 AC bits MSB first with a zero pad bit, as phash64 does."""
    value = 0
    for bit in bits:
        value = (value << 1) | int(bit)
    return value << 1


def _swap(rng, bits: np.ndarray, k: int, avoid=()) -> np.ndarray:
    """Move k ones to k zero positions: Hamming distance exactly 2k."""
    ones = np.setdiff1d(np.flatnonzero(bits), avoid)
    zeros = np.setdiff1d(np.flatnonzero(~bits), avoid)
    out = bits.copy()
    out[rng.choice(ones, size=k, replace=False)] = False
    out[rng.choice(zeros, size=k, replace=False)] = True
    return out


def _random_bits(rng) -> np.ndarray:
    bits = np.zeros(N_AC_BITS, dtype=bool)
    bits[rng.choice(N_AC_BITS, size=N_ONES, replace=False)] = True
    return bits


def _dct_rows(length: int) -> np.ndarray:
    """DCT-II basis of 32 bins sampled at the centres of `length` pixels."""
    t = (np.arange(length) + 0.5) * 32.0 / length
    u = np.arange(8)[:, None]
    rows = np.sqrt(2.0 / 32) * np.cos(np.pi * t[None, :] * u / 32.0)
    rows[0] *= np.sqrt(0.5)
    return rows  # (8, length)


def render_hash_image(rng, bits: np.ndarray, side: int) -> np.ndarray:
    """An image whose 8x8 low-frequency DCT block has the sign pattern `bits`.

    Set bits get coefficients near +1 and clear bits near -1, so exactly the
    31 set bits exceed the median of the 63 AC coefficients. The margin is
    wide enough that resizing and 8-bit rounding cannot flip a bit, and a
    per-channel brightness offset only moves the DC term, which the hash
    ignores.
    """
    coeffs = np.zeros(64)
    coeffs[1:] = np.where(bits, 1.0, -1.0) * rng.uniform(0.7, 1.3, size=N_AC_BITS)
    basis = _dct_rows(side)
    pattern = basis.T @ coeffs.reshape(8, 8) @ basis
    pattern *= 80.0 / np.abs(pattern).max()
    offsets = 128 + rng.integers(-30, 31, size=3)
    pixels = np.rint(pattern[..., None] + offsets)
    return np.clip(pixels, 0, 255).astype(np.uint8)


def _plant_clusters(rng, n_images: int) -> list[list[np.ndarray]]:
    """Bit patterns grouped by planted cluster.

    Besides random singletons and tight groups (1 to 3 swaps from a base), the
    corpus holds one transitive chain whose ends are 16 bits apart, one pair at
    exactly MAX_DIST (must merge) and one pair at MAX_DIST + 2 (must not).
    """
    groups: list[list[np.ndarray]] = []
    base = _random_bits(rng)
    middle = _swap(rng, base, 4)
    changed = np.flatnonzero(base != middle)
    groups.append([base, middle, _swap(rng, middle, 4, avoid=changed)])
    base = _random_bits(rng)
    groups.append([base, _swap(rng, base, MAX_DIST // 2)])
    base = _random_bits(rng)
    groups.extend([[base], [_swap(rng, base, MAX_DIST // 2 + 1)]])
    count = sum(len(g) for g in groups)
    while count < n_images:
        base = _random_bits(rng)
        size = 1 if rng.random() < 0.8 else int(rng.integers(2, 5))
        size = min(size, n_images - count)
        groups.append([base] + [_swap(rng, base, int(rng.integers(1, 4)))
                                for _ in range(size - 1)])
        count += size
    return groups


def _separated(groups) -> bool:
    """True when members of different groups sit at least CLUSTER_GAP apart,
    the deliberate near-miss pair (groups 2 and 3) aside."""
    hashes = np.array([_hash_of(b) for g in groups for b in g], dtype=np.uint64)
    owner = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    owner[owner == 3] = 2
    for i in range(hashes.size):
        dist = np.bitwise_count(hashes[i + 1:] ^ hashes[i])
        other = owner[i + 1:] != owner[i]
        if (dist[other] < CLUSTER_GAP).any():
            return False
    return True


def generate_dedup(root: Path, rng, n_images: int, side: int = 48) -> list[list[str]]:
    root.mkdir(parents=True)
    groups = _plant_clusters(rng, n_images)
    while not _separated(groups):
        groups = _plant_clusters(rng, n_images)
    names = iter(f"im{i:05d}" for i in rng.permutation(n_images))
    clusters = []
    for group in groups:
        members = []
        for bits in group:
            name = next(names)
            _write_ppm(root / f"{name}.ppm", render_hash_image(rng, bits, side))
            members.append(name + ".ppm")
        clusters.append(sorted(members))
    return sorted(clusters)


# --- screen: features, model, logits, values ----------------------------------

def _screen_model(dim: int = 16, hidden: int = 8, n_classes: int = 4) -> dict:
    """16-8-4 tanh network that is confident near a class centre of _blobs
    (separation 3) and near uniform at the origin, where the OOD rows sit."""
    w_in = np.zeros((hidden, dim))
    b_in = np.zeros(hidden)
    w_out = np.zeros((n_classes, hidden))
    for c in range(n_classes):
        w_in[c, (c * dim) // n_classes] = 1.5
        b_in[c] = -2.25  # tanh(1.5 * x - 2.25) flips sign halfway to the centre
        w_out[c, c] = 2.0
    for j in range(n_classes, hidden):
        w_in[j, (j * 5) % dim] = 0.3
        w_out[:, j] = 0.1 * np.arange(n_classes)
    params = np.concatenate([w_in.ravel(), b_in, w_out.ravel(), np.zeros(n_classes)])
    return {"input_dim": dim, "hidden_dim": hidden, "n_classes": n_classes,
            "params": params.tolist()}


def _logits(rng, labels, strength):
    out = rng.normal(0.0, 1.0, size=(labels.size, 4))
    out[np.arange(labels.size), labels] += strength
    return out


def generate_screen(root: Path, seed: int, n_images: int = 2000, n_id: int = 1600,
                    n_ood: int = 400, n_logits: int = 2000, n_values: int = 2000) -> dict:
    rng = _rng("screen", seed)
    clusters = generate_dedup(root / "images", rng, n_images)

    xs, labels = _blobs(rng, n_id // 4, 4, 16, separation=3.0, spread=1.0)
    ood = rng.normal(0.0, 1.0, size=(n_ood, 16))
    ids = [f"r{i:05d}" for i in range(n_id + n_ood)]
    splits = ["test"] * n_id + ["ood"] * n_ood
    _write_records(root / "features.csv", "x", ids, splits,
                   np.concatenate([labels, np.full(n_ood, -1)]), np.concatenate([xs, ood]))
    _write_records(root / "labeled.csv", "x", ids[:n_id], splits[:n_id], labels, xs)
    (root / "model.json").write_text(json.dumps(_screen_model()))

    truth = rng.integers(0, 4, size=n_logits)
    logit_ids = [f"p{i:05d}" for i in range(n_logits)]
    for name, strength in (("preds_a.csv", 2.6), ("preds_b.csv", 2.2)):
        _write_records(root / name, "logit", logit_ids, ["test"] * n_logits, truth,
                       _logits(rng, truth, strength))

    values = rng.normal(0.8, 0.05, size=n_values)
    (root / "values.txt").write_text("".join(f"{v!r}\n" for v in values.tolist()))
    return {"clusters": clusters, "program_seed": int(rng.integers(2 ** 31))}


GENERATORS = {"masks": generate_masks, "select": generate_select, "screen": generate_screen}


def generate(workload: str, root: Path, seed: int, **sizes) -> dict:
    """Write the workload's inputs under root (which must not exist yet) and
    return what was planted in them."""
    return GENERATORS[workload](Path(root), seed, **sizes)

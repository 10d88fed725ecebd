"""Byte pins: the full sha256 of reports that no refactor may change.

The hashes were recorded with CPython 3.11 and numpy 2.4 on x86-64. Another
numpy or Python version may round a product differently, so a CI leg on one
of those can disagree without any change to freshkit.

The inputs come from generators in this file. The runs use the machine's
usable CPUs, so nested-cv, demo, pseudomask and dedup pin the bytes of the
paths that share work among processes. A failing run pins its exit code and
its stderr line, with the test's directory spelled <tmp>. A usage error pins
only its exit code and last stderr line: argparse's usage text above that
line differs across Python versions.
"""
import hashlib
import json

import numpy as np
import pytest

from freshkit.cli import main
from freshkit.data_model import BinaryMask, RgbImage, write_pgm, write_ppm


def _report_sha256(argv, capsys) -> str:
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return hashlib.sha256(out.encode()).hexdigest()


def _csv(path, prefix, rows):
    """A record CSV of (id, split, label, values) rows; a label of None is empty."""
    lines = ["id,split,label," + ",".join(f"{prefix}_{j}" for j in range(len(rows[0][3])))]
    lines += [f"{rec_id},{split},{'' if label is None else label},"
              + ",".join(repr(float(v)) for v in values)
              for rec_id, split, label, values in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


def _features(tmp_path):
    # three overlapping classes, so candidates score differently and both
    # stages, mixup and the frozen stage-1 backbone all shape the report
    rng = np.random.default_rng(1616)
    labels = np.arange(90) % 3
    xs = rng.normal(0.0, 1.0, (90, 6))
    xs[np.arange(90), labels] += 1.5
    rows = [(f"s{i:03d}", "train", label, row) for i, (label, row) in enumerate(zip(labels, xs))]
    return _csv(tmp_path / "features.csv", "x", rows)


def test_demo_report_bytes(capsys):
    for seed, sha256 in (
            ("42", "77ee5606df1fc8cd279522003280acca9b62b0f3178620bd05cbd8c3f3ab5985"),
            ("1", "fa476cd56d1bc1745be079bd302fd0e4b2a6327a841b8617935fed873ee353e3")):
        assert _report_sha256(["demo", "--seed", seed], capsys) == sha256


def test_nested_cv_report_bytes(tmp_path, capsys):
    data = _features(tmp_path)
    for flags, sha256 in (
            (["--outer", "3", "--inner", "3", "--epochs", "8", "--hidden", "4",
              "--head-lrs", "0.05,0.1", "--seed", "16"],
             "2eebf07defb7db492d369f916f6b9b72e30773b195a36bfed3b94fd368dbe386"),
            (["--hidden", "0"],
             "f55770f69e87a10242cd56e799b0586f07b0b671a2da4f1435b42ec520b09378"),
            (["--mixups", "0.3,0.0", "--backbone-lrs", "0,0.1", "--head-lrs", "0,0.1"],
             "b735f3d44e355beb46c0c8abc0776310d59c4dd3ca1a647d6b46376bbe96976b")):
        assert _report_sha256(["nested-cv", "--data", str(data), *flags], capsys) == sha256


def _outputs_sha256(argv, out_dir, capsys) -> str:
    """sha256 of the report, then of each written file's name and bytes in name order."""
    digest = hashlib.sha256(_report_sha256(argv, capsys).encode())
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("flags, sha256", [
    ([], "ebd2a724c03fa31b1bac952ffc268b75a9a2605cf133b59126efedc9ff6fac13"),
    (["--open", "3", "--close", "5", "--close-first"],
     "f2f81381c4deb4cfb7fe972cd419b58d03d8cfceff27d1649d812498c49a6ca8"),
], ids=["defaults", "open3_close5_close_first"])
def test_pseudomask_output_bytes(tmp_path, capsys, flags, sha256):
    # noisy trays of three sizes with an off-centre item, and one uniform tray
    rng = np.random.default_rng(1818)
    in_dir = tmp_path / "trays"
    in_dir.mkdir()
    for name, side, uniform in (("a", 24, False), ("b", 32, False), ("c", 20, True),
                                ("d", 28, False)):
        img = np.full((side, side, 3), 50, dtype=np.int64)
        if not uniform:
            img[side // 5:3 * side // 4, side // 3:4 * side // 5] = (190, 70, 60)
            img += rng.integers(-12, 13, size=img.shape)
        write_ppm(in_dir / f"{name}.ppm", RgbImage(np.clip(img, 0, 255).astype(np.uint8)))
    out_dir = tmp_path / "masks"
    argv = ["pseudomask", "--in", str(in_dir), "--out", str(out_dir), *flags]
    assert _outputs_sha256(argv, out_dir, capsys) == sha256


def test_dedup_report_bytes(tmp_path, capsys):
    # noise images of five sizes, two with a brighter copy, and one mask
    rng = np.random.default_rng(1919)
    for name, side in (("a", 24), ("b", 40), ("c", 32), ("d", 16), ("e", 36)):
        pixels = rng.integers(0, 200, (side, side, 3), dtype=np.uint8)
        write_ppm(tmp_path / f"{name}.ppm", RgbImage(pixels))
        if name in "ad":
            write_ppm(tmp_path / f"{name}_bright.ppm", RgbImage(pixels + 40))
    write_pgm(tmp_path / "f.pgm", BinaryMask(np.arange(28 * 20).reshape(28, 20) % 7 < 3))
    assert _report_sha256(["dedup", "--images", str(tmp_path)], capsys) == (
        "3e277e52ba521263a1bdfcd0fb8e8d29471f32f52b4f141390d0e72092f0a24d")


# --- the other subcommands, on inputs of their own ---------------------------------

def _logit_rows(rng, n, n_ood):
    """Three-class logits: n labeled test rows, one class ahead, and n_ood flat ood rows."""
    rows = []
    for i in range(n):
        logits = rng.normal(0.0, 1.0, 3)
        logits[i % 3] += 2.0
        rows.append((f"s{i:03d}", "test", i % 3, logits))
    rows += [(f"o{i:03d}", "ood", None, rng.normal(0.0, 0.4, 3)) for i in range(n_ood)]
    return rows


def _model_json(path, rng):
    # a 2-4-3 classifier in the flat layout: w_in, b_in, w_out, b_out
    params = np.concatenate([rng.normal(0.0, 1.5, 8), rng.normal(0.0, 0.3, 4),
                             rng.normal(0.0, 1.5, 12), rng.normal(0.0, 0.3, 3)])
    path.write_text(json.dumps({"input_dim": 2, "hidden_dim": 4, "n_classes": 3,
                                "params": params.tolist()}))
    return path


def _masks(directory, rng, shift):
    # six masks of three sizes: a box, moved by shift, with scattered noise
    directory.mkdir()
    for i, side in enumerate((12, 16, 20, 12, 16, 20)):
        mask = rng.random((side, side)) < 0.05
        lo = side // 4 + shift * (i % 2)
        mask[lo:lo + side // 2, side // 4:3 * side // 4] = True
        write_pgm(directory / f"m{i}.pgm", BinaryMask(mask))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Paths of the generated inputs, by name."""
    root = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(2020)
    centers = np.array([(-1.5, -1.5), (1.5, -1.5), (0.0, 1.5)])
    points = [(f"f{i:03d}", "test", i % 3, rng.normal(centers[i % 3], 0.8)) for i in range(60)]
    points += [(f"q{i:03d}", "ood", None, rng.normal(0.0, 0.3, 2)) for i in range(20)]
    confidence = [(rec_id, split, None, [value]) for (rec_id, split, _, _), value in
                  zip(points, np.concatenate([rng.beta(5, 2, 60), rng.beta(2, 4, 20)]))]
    _masks(root / "pred", rng, 1)
    _masks(root / "gt", rng, 0)
    (root / "classes.csv").write_text("id,class\n" + "".join(
        f"m{i},{'ab'[i % 2]}\n" for i in range(6)))
    (root / "values.txt").write_text("".join(f"{float(v)!r}\n" for v in rng.gamma(2.0, 1.5, 120)))
    return {
        "logits": _csv(root / "logits.csv", "logit", _logit_rows(rng, 60, 15)),
        "labeled": _csv(root / "labeled.csv", "logit", _logit_rows(rng, 90, 0)),
        "rival": _csv(root / "rival.csv", "logit", _logit_rows(rng, 90, 0)),
        "points": _csv(root / "points.csv", "x", points),
        "model": _model_json(root / "model.json", rng),
        "scores": _csv(root / "scores.csv", "score", confidence),
        "pred": root / "pred",
        "gt": root / "gt",
        "classes": root / "classes.csv",
        "values": root / "values.txt",
        "features": _features(root),
    }


@pytest.mark.parametrize("argv, sha256", [
    ("score --method msp --logits {logits}",
     "621881302beceace2dff93ef6ff6a607047447f049813e6f9e1a8daf8c504698"),
    ("score --method energy --temperature 2 --logits {logits}",
     "8a44610357debb221e67de743e5eb79a5c9a6ce2e571d48620f2aea3bd1bd206"),
    ("score --method odin --temperature 10 --epsilon 0.002 --logits {points} --prefix x "
     "--model {model}",
     "4612244d6e4cbc011917ff193f3b209715478848b690f7606cbe6350d22c5eb9"),
    ("score --method odin --logits {points} --prefix x --model {model} "
     "--scores-out {out}/scores.csv",
     "c583a97ed078907b3896cd00e0bd5890915f7aa466b1a92b2d68bf1706ad3048"),
    ("ood-eval --flip --scores {scores}",
     "274885a44e1703bb7078d3a77ab7e3a2806b532afd7372e62364716c4d418cdf"),
    ("sweep --taus 0.3,0.5,0.8 --scores {scores}",
     "b4cc234f8847c36dcb03ea3f6467e2c9853f39dfecf2c4e848bad8f3d3c927d4"),
    ("cls-eval --label-smoothing 0.1 --logits {labeled}",
     "bb5b4a8ad8747f90dd1b9fd68a0a4263fddae7a7d9bede338f7815c2f6e920c4"),
    ("seg-eval --pred {pred} --gt {gt} --boot 300",
     "e9d60f71cc60140ca72b8d069dded38256e03352288f4e2b5cea897b31503cf4"),
    ("seg-eval --pred {pred} --gt {gt} --boot 300 --classes {classes}",
     "f7f1526e1ea56225c14a4726b60f6428aa50ee60f5533f0fe679ff6e3b47fe28"),
    ("mcnemar --n11 640 --n10 41 --n01 23 --n00 96",
     "8891c98a3b72095172bb676d8d9d97e27587946b4522e9bf058628bb4a1375cf"),
    ("mcnemar --pred-a {labeled} --pred-b {rival}",
     "23753314be59303d7d05cd90c6904dc3b6b2aa4038a1c5c3ac9d1e6a1ac2ea73"),
    ("bootstrap --stat mean --values {values}",
     "1939e59780533a2b7173fa57c57108371ce57e91ee95e34081e743749560495f"),
    ("bootstrap --stat median --values {values}",
     "75ad2f64168d548ef0f6b749ef653b3f30f1f34257020845869e0539ef37e7b6"),
    ("split --labels {features}",
     "2647feee9c41f8a5da56ac1a187df7be81d27d0d9085b9697387dceb8479cb59"),
    ("folds --labels {features}",
     "bcaacff2b1cea50d727ae73b6ed1718a9f004edc9d3cb9b90237c2fdf66dd4c8"),
    ("folds --labels {features} --outer 4 --inner 5",
     "3927f2ef104890ecd5ba25da7be36ce4b610dde8faa498e8aefb0beb6dc5d724"),
], ids=["msp", "energy_t2", "odin_fixed", "odin_grid_scores_out", "ood_eval_flip",
        "sweep_taus", "cls_eval_smoothing", "seg_eval", "seg_eval_classes", "mcnemar_counts",
        "mcnemar_files", "bootstrap_mean", "bootstrap_median", "split", "folds",
        "folds_outer4_inner5"])
def test_report_bytes(inputs, tmp_path, capsys, argv, sha256):
    argv = argv.format(out=tmp_path, **inputs).split()
    assert _outputs_sha256(argv, tmp_path, capsys) == sha256


# --- failing runs: the exit code and stderr bytes ----------------------------------

def _failure_sha256(argv, tmp_path, capsys) -> tuple[int, str]:
    """Exit code of a failing run, and the sha256 of its stderr with tmp_path as <tmp>."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert out == ""
    return code, hashlib.sha256(err.replace(str(tmp_path), "<tmp>").encode()).hexdigest()


def _tray(path, side, cut=0):
    # a red item on a dark tray, less its last cut bytes
    img = np.full((side, side, 3), 40, dtype=np.uint8)
    img[side // 4:3 * side // 4, side // 4:3 * side // 4] = (200, 60, 50)
    write_ppm(path, RgbImage(img))
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - cut])


def test_pseudomask_failure_bytes(tmp_path, capsys):
    # a 4x4 tray is too small to mask, and it sorts ahead of a truncated tray;
    # the ImageTooSmall line names it
    _tray(tmp_path / "a_small.ppm", 4)
    _tray(tmp_path / "b.ppm", 24, cut=100)
    argv = ["pseudomask", "--in", str(tmp_path), "--out", str(tmp_path / "masks")]
    assert _failure_sha256(argv, tmp_path, capsys) == (
        3, "f7cb584a714190a82fb871dacb6d2c566d8117f28de1b7c1a8bfbd02c00396fa")
    assert not (tmp_path / "masks").exists()


def test_dedup_failure_bytes(tmp_path, capsys):
    # a P5 file named .ppm sorts ahead of a truncated PPM
    (tmp_path / "a_small.ppm").write_bytes(b"P5\n4 4\n255\n" + bytes(16))
    _tray(tmp_path / "b.ppm", 24, cut=100)
    assert _failure_sha256(["dedup", "--images", str(tmp_path)], tmp_path, capsys) == (
        2, "004cab6bd4c2f195678f9f9bc68c5f6479e108001b64ffb6c28783c97abf1e00")


def test_nested_cv_failure_bytes(tmp_path, capsys):
    # a head lr of 1e308 overflows every stage-1 candidate that uses it
    argv = ["nested-cv", "--data", str(_features(tmp_path)), "--head-lrs", "1e308"]
    assert _failure_sha256(argv, tmp_path, capsys) == (
        3, "8d7c209ec0f57ea1737d9d96d156ae02d0a196cbe87c174e0becc252088ce1e2")


def test_usage_error_exit_code_and_last_line(tmp_path, capsys):
    # argparse's usage text differs across Python versions, so only the exit
    # code and the last stderr line are pinned
    argv = ["pseudomask", "--in", str(tmp_path), "--out", str(tmp_path / "masks"),
            "--iters", "10000"]
    with pytest.raises(SystemExit) as stop:
        main(argv)
    out, err = capsys.readouterr()
    assert (stop.value.code, out) == (1, "")
    assert err.splitlines()[-1] == ("freshkit pseudomask: error: argument --iters: "
                                    "values must lie in [0, 10000), got '10000'")
    assert not (tmp_path / "masks").exists()

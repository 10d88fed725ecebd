"""Byte pins: the full sha256 of reports that no refactor may change.

The hashes were recorded with CPython 3.11 and numpy 2.4 on x86-64. Another
numpy or Python version may round a product differently, so a CI leg on one
of those can disagree without any change to freshkit.

The inputs come from generators in this file. The runs use the machine's
usable CPUs, so nested-cv, demo, pseudomask and dedup pin the bytes of the
paths that share work among processes.
"""
import hashlib

import numpy as np
import pytest

from freshkit.cli import main
from freshkit.data_model import BinaryMask, RgbImage, write_pgm, write_ppm


def _report_sha256(argv, capsys) -> str:
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return hashlib.sha256(out.encode()).hexdigest()


def _features(tmp_path):
    # three overlapping classes, so candidates score differently and both
    # stages, mixup and the frozen stage-1 backbone all shape the report
    rng = np.random.default_rng(1616)
    labels = np.arange(90) % 3
    xs = rng.normal(0.0, 1.0, (90, 6))
    xs[np.arange(90), labels] += 1.5
    lines = ["id,split,label," + ",".join(f"x_{j}" for j in range(6))]
    lines += [f"s{i:03d},train,{label}," + ",".join(repr(float(v)) for v in row)
              for i, (label, row) in enumerate(zip(labels, xs))]
    data = tmp_path / "features.csv"
    data.write_text("\n".join(lines) + "\n")
    return data


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
    ([], "64625a821b5119747dddcd8e06a830f26f333a2cd88be173b4bf6ff72b1453dc"),
    (["--open", "3", "--close", "5", "--close-first"],
     "5cb6bdd47c1f86a2bdf348beb01ddd2e3e01e763d064c2f3968387fef436258f"),
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

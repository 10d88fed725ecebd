"""Byte pins: the full sha256 of reports that no refactor may change.

The hashes were recorded with CPython 3.11 and numpy 2.4 on x86-64. Another
numpy or Python version may round a product differently, so a CI leg on one
of those can disagree without any change to freshkit.
"""
import hashlib

import numpy as np

from freshkit.cli import main


def _report_sha256(argv, capsys) -> str:
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    return hashlib.sha256(out.encode()).hexdigest()


def test_demo_report_bytes(capsys):
    assert _report_sha256(["demo", "--seed", "42"], capsys) == (
        "77ee5606df1fc8cd279522003280acca9b62b0f3178620bd05cbd8c3f3ab5985")


def test_nested_cv_report_bytes(tmp_path, capsys):
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
    argv = ["nested-cv", "--data", str(data), "--outer", "3", "--inner", "3",
            "--epochs", "8", "--hidden", "4", "--head-lrs", "0.05,0.1", "--seed", "16"]
    assert _report_sha256(argv, capsys) == (
        "2eebf07defb7db492d369f916f6b9b72e30773b195a36bfed3b94fd368dbe386")

import io
import json
import os
import pickle
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freshkit
from freshkit import cli, errors, hygiene, tiny_model
from freshkit.cli import build_parser, main, render_json
from freshkit.cls_eval import confusion, prf_report
from freshkit.data_model import (
    BinaryMask,
    RecordTable,
    RgbImage,
    grayscale_as_rgb,
    read_logit_csv,
    read_pgm,
    write_logit_csv,
    write_pgm,
    write_ppm,
)
from freshkit.hygiene import CandidateScore, cluster_near_duplicates, phash64, phash64_stack
from freshkit.ood_eval import DEFAULT_TAUS, ScoredSample, ood_metrics, threshold_sweep
from freshkit.pseudomask import init_box
from freshkit.seg_eval import METRIC_NAMES, dataset_summary, mask_metrics
from freshkit.stats import PairedOutcome, mcnemar, paired_acc_diff_ci, percentile_bootstrap
from freshkit.tiny_model import (TrainConfig, derive_seed, init_model, save_model, train,
                                 train_streams)

SCHEMA_PATH = Path(__file__).resolve().parents[1] / "docs" / "report.schema.json"


def run_cli(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def run_script(argv):
    """Run `python -m freshkit.cli` in a child process that imports this freshkit."""
    src = str(Path(freshkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "freshkit.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def validate(document) -> None:
    from jsonschema import Draft202012Validator

    schema = json.loads(SCHEMA_PATH.read_text())
    Draft202012Validator.check_schema(schema)
    Draft202012Validator(schema).validate(document)


def table(rows):
    """A RecordTable from (id, split, label, values) rows."""
    ids, splits, labels, values = zip(*rows)
    return RecordTable(ids, splits, labels, values)


def write_labeled_logits(path, n_per_class=20, n_ood=10, seed=0):
    rng = np.random.default_rng(seed)
    records = []
    for i in range(3 * n_per_class):
        label = i % 3
        logits = rng.normal(0.0, 1.0, 3)
        logits[label] += 3.0
        records.append((f"s{i:03d}", "test", label, tuple(logits)))
    for i in range(n_ood):
        logits = rng.normal(0.0, 0.3, 3)
        records.append((f"o{i:03d}", "ood", -1, tuple(logits)))
    write_logit_csv(path, table(records))
    return records


# --- envelope and formatting ---------------------------------------------

def test_mcnemar_counts_reproduce_reference_row(capsys):
    code, out, _ = run_cli(
        ["mcnemar", "--n11", "788", "--n10", "35", "--n01", "8", "--n00", "12"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["schema_version"] == 1
    assert doc["command"] == "mcnemar"
    assert doc["seed"] == 42
    rep = doc["report"]
    assert rep["chi2"] == pytest.approx(16.331, abs=1e-3)
    assert rep["delta"] == pytest.approx(0.0320, abs=1e-4)
    assert rep["ci"][0] == pytest.approx(0.0169, abs=2e-4)
    assert rep["ci"][1] == pytest.approx(0.0471, abs=2e-4)
    # small p prints in scientific notation with three significant figures
    assert '"p": 5.32e-05' in out


def test_p_value_prints_decimal_above_millis(capsys):
    code, out, _ = run_cli(
        ["mcnemar", "--n11", "815", "--n10", "7", "--n01", "8", "--n00", "13"],
        capsys,
    )
    assert code == 0
    assert '"p": 0.897' in out
    assert json.loads(out)["report"]["chi2"] == pytest.approx(0.0167, abs=1e-3)


def test_floats_carry_six_decimals(capsys):
    _, out, _ = run_cli(
        ["mcnemar", "--n11", "1", "--n10", "2", "--n01", "1", "--n00", "0"],
        capsys,
    )
    assert '"delta": 0.250000' in out


def test_seed_is_echoed(capsys):
    code, out, _ = run_cli(
        ["mcnemar", "--seed", "7", "--n11", "5", "--n10", "1", "--n01", "1",
         "--n00", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["seed"] == 7


def test_out_flag_writes_file(tmp_path, capsys):
    dest = tmp_path / "r.json"
    code, out, _ = run_cli(
        ["mcnemar", "--n11", "5", "--n10", "1", "--n01", "1", "--n00", "1",
         "--out", str(dest)],
        capsys,
    )
    assert code == 0
    assert out == ""
    validate(json.loads(dest.read_text()))


def test_module_is_runnable_as_script():
    proc = run_script(["mcnemar", "--n11", "5", "--n10", "1", "--n01", "1", "--n00", "1"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "mcnemar"


# --- score / ood-eval / sweep pipeline ---------------------------------------

def test_score_msp_pipeline(tmp_path, capsys):
    src = tmp_path / "logits.csv"
    write_labeled_logits(src)
    scores_csv = tmp_path / "scores.csv"
    code, out, _ = run_cli(
        ["score", "--method", "msp", "--logits", str(src),
         "--scores-out", str(scores_csv)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["report"]["n"] == 70
    for row in doc["report"]["scores"]:
        assert 1 / 3 - 1e-9 <= row["score"] <= 1.0

    scores = read_logit_csv(scores_csv, column_prefix="score")
    assert scores.values.shape == (70, 1)
    assert (scores.labels == -1).all()  # labels dropped on purpose

    code, out, _ = run_cli(["ood-eval", "--scores", str(scores_csv)], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    assert doc["report"]["n_id"] == 60
    assert doc["report"]["n_ood"] == 10
    assert doc["report"]["auroc"] > 0.9


def test_energy_scores_need_the_flip(tmp_path, capsys):
    """Native energy is lower on confident rows, so ood-eval without --flip
    sees the orientation backwards and with --flip sees it right."""
    src = tmp_path / "logits.csv"
    write_labeled_logits(src)
    scores_csv = tmp_path / "escores.csv"
    code, _, _ = run_cli(
        ["score", "--method", "energy", "--logits", str(src),
         "--scores-out", str(scores_csv)],
        capsys,
    )
    assert code == 0
    _, plain, _ = run_cli(["ood-eval", "--scores", str(scores_csv)], capsys)
    _, flipped, _ = run_cli(["ood-eval", "--scores", str(scores_csv), "--flip"],
                            capsys)
    auroc_plain = json.loads(plain)["report"]["auroc"]
    auroc_flipped = json.loads(flipped)["report"]["auroc"]
    assert auroc_flipped == pytest.approx(1.0 - auroc_plain, abs=1e-12)
    assert auroc_flipped > 0.9


def test_sweep_defaults_and_reference_point(tmp_path, capsys):
    src = tmp_path / "logits.csv"
    write_labeled_logits(src)
    scores_csv = tmp_path / "scores.csv"
    run_cli(["score", "--method", "msp", "--logits", str(src),
             "--scores-out", str(scores_csv)], capsys)
    code, out, _ = run_cli(["sweep", "--scores", str(scores_csv)], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    points = doc["report"]["points"]
    assert [p["tau"] for p in points] == [0.2, 0.3, 0.4, 0.45, 0.5, 0.55, 0.6, 0.7, 0.8]
    assert [p["reference"] for p in points] == [False] * 4 + [True] + [False] * 4
    coverages = [p["coverage"] for p in points]
    assert coverages == sorted(coverages, reverse=True)
    for p in points:
        assert p["coverage"] + p["rejection"] == pytest.approx(1.0, abs=1e-12)

    code, out, _ = run_cli(
        ["sweep", "--scores", str(scores_csv), "--taus", "0.1,0.9"], capsys)
    assert code == 0
    assert [p["tau"] for p in json.loads(out)["report"]["points"]] == [0.1, 0.9]


def test_sweep_help_lists_the_default_taus(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert re.search(r"thresholds \(default ([^)]*)\)", help_text).group(1) == \
        ",".join(str(tau) for tau in DEFAULT_TAUS)


def write_odin_inputs(tmp_path):
    """A trained model file and a features file with 120 ID and 30 OOD rows."""
    rng = np.random.default_rng(3)
    centers = np.array([(-2.0, -2.0), (2.0, -2.0), (0.0, 2.0)])
    xs = np.concatenate([rng.normal(c, 0.4, (40, 2)) for c in centers])
    ys = np.repeat(np.arange(3), 40)
    model = init_model(2, 8, 3, seed=1)
    fitted = train(model, xs, ys, TrainConfig(epochs=30, head_lr=0.1, seed=2))
    model_path = tmp_path / "model.json"
    save_model(model_path, fitted)

    records = [
        (f"f{i:03d}", "test", int(ys[i]), tuple(xs[i]))
        for i in range(len(ys))
    ]
    ood = rng.normal(0.0, 0.2, (30, 2))
    records += [
        (f"q{i:03d}", "ood", -1, tuple(row)) for i, row in enumerate(ood)
    ]
    src = tmp_path / "features.csv"
    write_logit_csv(src, table(records), column_prefix="x")
    return src, model_path


def test_odin_grid_and_fixed_modes(tmp_path, capsys):
    src, model_path = write_odin_inputs(tmp_path)
    code, out, _ = run_cli(
        ["score", "--method", "odin", "--logits", str(src), "--prefix", "x",
         "--model", str(model_path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    rep = doc["report"]
    assert rep["mode"] == "grid"
    assert len(rep["grid"]) == 16
    # the first of equal AUROCs wins
    chosen = max(rep["grid"], key=lambda row: row["auroc"])
    assert (rep["temperature"], rep["epsilon"]) == (chosen["temperature"], chosen["epsilon"])

    code, out, _ = run_cli(
        ["score", "--method", "odin", "--logits", str(src), "--prefix", "x",
         "--model", str(model_path), "--temperature", "1000", "--epsilon", "0.001"],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["mode"] == "fixed"
    assert rep["temperature"] == 1000.0
    assert rep["epsilon"] == 0.001


@pytest.mark.parametrize("flags, keys", [
    (["--method", "msp"], ["method", "n", "scores"]),
    (["--method", "energy"], ["method", "temperature", "n", "scores"]),
    (["--method", "odin", "--temperature", "10", "--epsilon", "0.002"],
     ["method", "mode", "temperature", "epsilon", "n", "scores"]),
    (["--method", "odin"], ["method", "mode", "temperature", "epsilon", "grid", "n", "scores"]),
])
def test_score_report_key_order(tmp_path, capsys, flags, keys):
    if "odin" in flags:
        src, model_path = write_odin_inputs(tmp_path)
        flags = [*flags, "--prefix", "x", "--model", str(model_path)]
    else:
        src = tmp_path / "logits.csv"
        write_labeled_logits(src)
    code, out, _ = run_cli(["score", "--logits", str(src), *flags], capsys)
    assert code == 0
    rep = json.loads(out)["report"]
    assert list(rep) == keys
    assert [list(row) for row in rep["scores"]] == [["id", "split", "label", "score"]] * rep["n"]
    for row in rep.get("grid", []):
        assert list(row) == ["temperature", "epsilon", "auroc"]


# --- evaluation commands ----------------------------------------------------

def test_cls_eval_counts(tmp_path, capsys):
    records = [
        ("a", "test", 0, (2.0, 0.0)),
        ("b", "test", 0, (0.0, 2.0)),  # predicted 1, wrong
        ("c", "test", 1, (0.0, 2.0)),
    ]
    src = tmp_path / "p.csv"
    write_logit_csv(src, table(records))
    code, out, _ = run_cli(["cls-eval", "--logits", str(src)], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    rep = doc["report"]
    assert rep["accuracy"] == pytest.approx(2 / 3, abs=1e-6)
    assert rep["confusion"] == [[1, 1], [0, 1]]
    assert rep["per_class"][0]["precision"] == pytest.approx(1.0)
    assert rep["per_class"][0]["recall"] == pytest.approx(0.5)


def test_mcnemar_from_prediction_files(tmp_path, capsys):
    a_rows, b_rows = [], []
    # 6 both-correct, 3 only A, 1 only B
    for i in range(10):
        label = i % 2
        good = (2.0, 0.0) if label == 0 else (0.0, 2.0)
        bad = (0.0, 2.0) if label == 0 else (2.0, 0.0)
        a_rows.append((f"r{i}", "test", label, bad if i == 9 else good))
        b_rows.append((f"r{i}", "test", label, bad if i in (6, 7, 8) else good))
    write_logit_csv(tmp_path / "a.csv", table(a_rows))
    write_logit_csv(tmp_path / "b.csv", table(b_rows))
    code, out, _ = run_cli(
        ["mcnemar", "--pred-a", str(tmp_path / "a.csv"),
         "--pred-b", str(tmp_path / "b.csv")],
        capsys,
    )
    assert code == 0
    rep = json.loads(out)["report"]
    assert (rep["n11"], rep["n10"], rep["n01"], rep["n00"]) == (6, 3, 1, 0)


def test_bootstrap_mean(tmp_path, capsys):
    values = np.random.default_rng(5).normal(0.8, 0.05, 300)
    src = tmp_path / "v.txt"
    src.write_text("\n".join(repr(float(v)) for v in values) + "\n")
    code, out, _ = run_cli(
        ["bootstrap", "--values", str(src), "--b", "500"], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    rep = doc["report"]
    assert rep["estimate"] == pytest.approx(values.mean(), abs=1e-6)
    assert rep["lo"] < rep["estimate"] < rep["hi"]
    assert rep["n_boot"] == 500


def test_bootstrap_overflowing_mean_prints_one_stderr_line(tmp_path):
    # numpy's overflow and invalid-subtract warnings printed before the typed line
    values = tmp_path / "v.txt"
    values.write_text("1e308\n-1e308\n1e308\n")
    report = tmp_path / "report.json"
    proc = run_script(["bootstrap", "--values", str(values), "--stat", "mean",
                       "--out", str(report)])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "freshkit bootstrap: ComputeError: non-finite number under key 'lo'\n"
    assert not report.exists()


def test_seg_eval_directories(tmp_path, capsys):
    pred_dir = tmp_path / "pred"
    gt_dir = tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    for i in range(4):
        gt = np.zeros((10, 10), dtype=bool)
        gt[2:8, 2:8] = True
        pred = np.zeros((10, 10), dtype=bool)
        pred[2:8, 2:8] = True
        if i % 2:
            pred[0, 0] = True  # one stray pixel on odd images
        write_pgm(gt_dir / f"m{i}.pgm", BinaryMask(gt))
        write_pgm(pred_dir / f"m{i}.pgm", BinaryMask(pred))
    class_map = tmp_path / "classes.csv"
    class_map.write_text("id,class\nm0,x\nm1,y\nm2,x\nm3,y\n")

    code, out, _ = run_cli(
        ["seg-eval", "--pred", str(pred_dir), "--gt", str(gt_dir),
         "--classes", str(class_map), "--boot", "200"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    rep = doc["report"]
    assert rep["n_images"] == 4
    assert set(rep["per_class"]) == {"x", "y"}
    assert rep["per_class"]["x"]["metrics"]["iou"]["mean"] == pytest.approx(1.0)
    assert rep["per_class"]["y"]["metrics"]["iou"]["mean"] == pytest.approx(36 / 37, abs=1e-6)
    by_id = {row["id"]: row for row in rep["per_image"]}
    assert by_id["m1"]["precision"] == pytest.approx(36 / 37, abs=1e-6)
    assert by_id["m1"]["recall"] == pytest.approx(1.0)


def test_seg_eval_name_mismatch_is_input_error(tmp_path, capsys):
    pred_dir = tmp_path / "pred"
    gt_dir = tmp_path / "gt"
    pred_dir.mkdir()
    gt_dir.mkdir()
    mask = BinaryMask(np.ones((4, 4), dtype=bool))
    write_pgm(pred_dir / "a.pgm", mask)
    write_pgm(gt_dir / "b.pgm", mask)
    code, _, err = run_cli(
        ["seg-eval", "--pred", str(pred_dir), "--gt", str(gt_dir)], capsys)
    assert code == 2
    assert "disagree" in err


# --- hygiene commands ------------------------------------------------------

def test_dedup_clusters_brightness_twin(tmp_path, capsys):
    rng = np.random.default_rng(11)
    root = tmp_path / "imgs"
    root.mkdir()
    base = rng.integers(0, 226, (32, 32, 3)).astype(np.uint8)
    write_ppm(root / "a.ppm", RgbImage(base))
    write_ppm(root / "b.ppm", RgbImage((base.astype(int) + 20).astype(np.uint8)))
    write_ppm(root / "c.ppm", RgbImage(rng.integers(0, 256, (32, 32, 3)).astype(np.uint8)))
    code, out, _ = run_cli(["dedup", "--images", str(root)], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    rep = doc["report"]
    assert ["a.ppm", "b.ppm"] in rep["clusters"]
    assert rep["representatives"] == ["a.ppm", "c.ppm"]
    assert rep["removed"] == 1


def test_split_counts_and_assignment(tmp_path, capsys):
    records = [
        (f"s{i:03d}", "train", i % 3, (0.0,)) for i in range(60)
    ]
    src = tmp_path / "labels.csv"
    write_logit_csv(src, table(records), column_prefix="x")
    code, out, _ = run_cli(["split", "--labels", str(src)], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    rep = doc["report"]
    assert rep["counts"] == {"train": 42, "val": 9, "test": 9}
    for row in rep["per_class"]:
        assert (row["train"], row["val"], row["test"]) == (14, 3, 3)
    assert len(rep["assignment"]) == 60


@pytest.mark.parametrize("ratios, total", [("0,0,0", "0.0"), ("0.5,0.5,0.5", "1.5"),
                                           ("0.7,0.15,0.1500001", "1.0000001")])
def test_split_ratios_not_summing_to_one_exit_1_before_reading(tmp_path, capsys,
                                                               ratios, total):
    # the labels file does not exist: the flag check comes first, so it is never read
    report = tmp_path / "report.json"
    code, out, err = run_cli(["split", "--ratios", ratios, "--labels",
                              str(tmp_path / "absent.csv"), "--out", str(report)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"freshkit split: error: --ratios must sum to 1, got {total}\n"
    assert not report.exists()


def test_folds_audit_passes(tmp_path, capsys):
    records = [
        (f"s{i:03d}", "train", i % 3, (0.0,)) for i in range(45)
    ]
    src = tmp_path / "labels.csv"
    write_logit_csv(src, table(records), column_prefix="x")
    code, out, _ = run_cli(["folds", "--labels", str(src)], capsys)
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    rep = doc["report"]
    assert rep["audit_passed"] is True
    seen = [i for fold in rep["outer_test"] for i in fold]
    assert sorted(seen) == [rec_id for rec_id, *_ in records]


def test_nested_cv_on_separable_features(tmp_path, capsys):
    rng = np.random.default_rng(7)
    centers = np.array([(-2.0, -2.0), (2.0, 2.0)])
    xs = np.concatenate([rng.normal(c, 0.3, (30, 2)) for c in centers])
    ys = np.repeat(np.arange(2), 30)
    records = [
        (f"s{i:03d}", "train", int(ys[i]), tuple(xs[i]))
        for i in range(60)
    ]
    src = tmp_path / "data.csv"
    write_logit_csv(src, table(records), column_prefix="x")
    code, out, _ = run_cli(
        ["nested-cv", "--data", str(src), "--outer", "3", "--inner", "2",
         "--epochs", "8", "--head-lrs", "0.1", "--weight-decays", "0.0",
         "--smoothings", "0.0", "--backbone-lrs", "0.0", "--mixups", "0.0",
         "--top-k", "1"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    validate(doc)
    rep = doc["report"]
    assert rep["mean_accuracy"] >= 0.95
    assert rep["audit_passed"] is True
    assert len(rep["fold_accuracies"]) == 3


@pytest.mark.parametrize("flag, field", [("--head-lrs", "head_lr"),
                                         ("--backbone-lrs", "backbone_lr")])
def test_nested_cv_diverging_rate_exits_3_with_one_line(tmp_path, flag, field):
    rng = np.random.default_rng(8)
    xs = rng.normal(0.0, 1.0, (40, 3))
    ys = np.arange(40) % 4
    xs[np.arange(40), ys % 3] += 4.0
    src = tmp_path / "data.csv"
    write_logit_csv(src, table([(f"s{i:03d}", "train", int(ys[i]), tuple(xs[i]))
                                for i in range(40)]), column_prefix="x")
    report = tmp_path / "report.json"
    proc = run_script(["nested-cv", "--data", str(src), "--outer", "2", "--inner", "2",
                       "--epochs", "2", flag, "1e300", "--out", str(report)])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert re.fullmatch(r"freshkit nested-cv: TrainingDiverged: parameters are not all "
                        rf"finite after training with TrainConfig\(.*\b{field}=1e\+300, .*\)\n",
                        proc.stderr)
    assert not report.exists()


@pytest.mark.parametrize("hidden, code, line", [
    # 10**11 units by 512 features is 373 TiB, past any user address space
    ("100000000000", 3, r"freshkit nested-cv: MemoryError: Unable to allocate .*"),
    ("10000000000000000000000", 1,
     r"freshkit nested-cv: error: argument --hidden: values must lie in .*"),
])
def test_oversized_hidden_layer_exits_with_one_line(tmp_path, hidden, code, line):
    rng = np.random.default_rng(8)
    xs = rng.normal(0.0, 1.0, (40, 512))
    src = tmp_path / "data.csv"
    write_logit_csv(src, table([(f"s{i:03d}", "train", i % 4, tuple(xs[i]))
                                for i in range(40)]), column_prefix="x")
    report = tmp_path / "report.json"
    proc = run_script(["nested-cv", "--data", str(src), "--outer", "2", "--inner", "2",
                       "--hidden", hidden, "--out", str(report)])
    assert proc.returncode == code
    assert proc.stdout == ""
    assert re.fullmatch(line + "\n", proc.stderr)
    assert not report.exists()


# --- pseudomask -----------------------------------------------------------------

def test_pseudomask_writes_masks(tmp_path, capsys):
    rng = np.random.default_rng(9)
    in_dir = tmp_path / "in"
    out_dir = tmp_path / "out"
    in_dir.mkdir()
    img = np.full((40, 40, 3), 40, dtype=np.int32)
    img[10:30, 10:30] = (200, 60, 50)
    img += rng.integers(-8, 9, size=img.shape)
    write_ppm(in_dir / "obj.ppm", RgbImage(np.clip(img, 0, 255).astype(np.uint8)))

    report_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["pseudomask", "--in", str(in_dir), "--out", str(out_dir),
         "--iters", "3", "--k", "3", "--lambda", "50",
         "--report", str(report_path)],
        capsys,
    )
    assert code == 0
    assert out == ""
    doc = json.loads(report_path.read_text())
    validate(doc)
    row = doc["report"]["images"][0]
    assert row["mask"] == "obj.pgm"
    assert row["degenerate"] is False
    mask = read_pgm(out_dir / "obj.pgm")
    truth = np.zeros((40, 40), dtype=bool)
    truth[10:30, 10:30] = True
    overlap = (mask.pixels & truth).sum()
    union = (mask.pixels | truth).sum()
    assert overlap / union > 0.8
    energies = row["energies"]
    assert all(b <= a + 1e-6 for a, b in zip(energies, energies[1:]))


def test_pseudomask_radius_past_the_image_exits_0(tmp_path, capsys):
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_ppm(in_dir / "tray.ppm", _tray(24))
    code, out, err = run_cli(["pseudomask", "--in", str(in_dir), "--out", str(tmp_path / "out"),
                              "--iters", "1", "--k", "2", "--open", "1000000000000",
                              "--close", "1000000000000"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["report"]["open_radius"] == 10 ** 12
    assert read_pgm(tmp_path / "out" / "tray.pgm").pixels.shape == (24, 24)


# --- demo --------------------------------------------------------------------

def test_demo_end_to_end(capsys):
    code, first, _ = run_cli(["demo"], capsys)
    assert code == 0
    doc = json.loads(first)
    validate(doc)
    rep = doc["report"]
    assert rep["test_accuracy"] >= 0.95
    for method in ("msp", "energy", "odin"):
        assert rep["ood"][method]["auroc"] >= 0.90
    assert rep["nested_cv"]["audit_passed"] is True
    assert rep["mcnemar"]["p"] < 0.05

    code, second, _ = run_cli(["demo"], capsys)
    assert code == 0
    assert second == first  # byte-identical repeat run


# --- exit codes ----------------------------------------------------------------

@pytest.mark.parametrize("argv, prefix, rows, message", [
    (["cls-eval", "--logits"], "logit",
     [("r0", 0, (1.0, 0.0)), ("r1", -1, (1.0, 0.0)), ("r2", -1, (0.0, 1.0))],
     "BadLabelIndex: {path}: record 'r1' has no label"),
    (["split", "--labels"], "x",
     [("r0", 0, (1.0, 0.0)), ("r1", 1, (1.0, 0.0)), ("r2", -1, (0.0, 1.0))],
     "BadLabelIndex: {path}: record 'r2' has no label"),
    (["ood-eval", "--scores"], "score",
     [("r0", -1, (1.0, 0.0)), ("r1", -1, (0.5, 0.0))],
     "InconsistentWidth: {path}: score files carry exactly one value column, "
     "record 'r0' has 2"),
    (["mcnemar", "--pred-b", "{path}", "--pred-a"], "logit",
     [("r0", 0, (1.0, 0.0)), ("r1", 1, (1.0, 0.0)), ("r1", 1, (0.0, 1.0)),
      ("r0", 0, (0.0, 1.0))],
     "InputFormatError: {path}: duplicate id 'r1'"),
], ids=["unlabeled-logits", "unlabeled-features", "two-column-scores", "duplicate-id"])
def test_column_checks_name_the_first_offending_record(tmp_path, capsys, argv, prefix,
                                                       rows, message):
    path = tmp_path / "records.csv"
    write_logit_csv(path, table([(rec_id, "test", label, values)
                                 for rec_id, label, values in rows]), column_prefix=prefix)
    argv = [arg.format(path=path) for arg in argv] + [str(path), "--prefix", prefix]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == f"freshkit {argv[0]}: {message.format(path=path)}\n"


def test_empty_input_file_is_exit_2(tmp_path, capsys):
    src = tmp_path / "empty.csv"
    src.write_text("id,split,label,logit_0\n")
    code, _, err = run_cli(["score", "--method", "energy", "--logits", str(src)],
                           capsys)
    assert code == 2
    assert "EmptyInput" in err


def test_missing_file_is_exit_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["score", "--method", "msp", "--logits", str(tmp_path / "nope.csv")],
        capsys,
    )
    assert code == 2


def test_malformed_header_is_exit_2(tmp_path, capsys):
    src = tmp_path / "bad.csv"
    src.write_text("identifier,split,label,logit_0\na,test,0,1.0\n")
    code, _, err = run_cli(["score", "--method", "msp", "--logits", str(src)],
                           capsys)
    assert code == 2
    assert "MalformedHeader" in err


def test_one_sided_scores_is_exit_3(tmp_path, capsys):
    src = tmp_path / "one.csv"
    src.write_text("id,split,label,score_0\na,test,,0.5\nb,test,,0.7\n")
    code, _, err = run_cli(["ood-eval", "--scores", str(src)], capsys)
    assert code == 3
    assert "MissingClass" in err


def test_partial_counts_is_usage_error(capsys):
    code, _, err = run_cli(["mcnemar", "--n11", "5"], capsys)
    assert code == 1
    assert "all four" in err


def test_mixing_counts_and_files_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["mcnemar", "--n11", "1", "--n10", "1", "--n01", "1", "--n00", "1",
         "--pred-a", "x.csv"],
        capsys,
    )
    assert code == 1


def test_irrelevant_flag_is_usage_error(tmp_path, capsys):
    src = tmp_path / "l.csv"
    write_labeled_logits(src, n_per_class=2, n_ood=1)
    code, _, err = run_cli(
        ["score", "--method", "energy", "--logits", str(src),
         "--epsilon", "0.1"],
        capsys,
    )
    assert code == 1
    assert "odin" in err


def test_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as info:
        main(["score", "--nope"])
    assert info.value.code == 1


def test_unknown_command_exits_1():
    with pytest.raises(SystemExit) as info:
        main(["transmogrify"])
    assert info.value.code == 1


@pytest.mark.parametrize("flags", [
    ["--batch-size", "0"],
    ["--batch-size", "-3"],
    ["--epochs", "-1"],
    ["--head-lrs", "0.05,nan"],
    ["--weight-decays", "-0.1"],
    ["--backbone-lrs", "inf"],
    ["--smoothings", "0.0,1.0"],
    ["--mixups", "-0.2"],
    ["--epochs", "100000"],
    ["--epochs", "1000000000000"],
])
def test_bad_training_flags_fail_at_parse_time(tmp_path, capsys, flags):
    # the data file does not exist: reaching it would exit 2, not 1
    with pytest.raises(SystemExit) as info:
        main(["nested-cv", "--data", str(tmp_path / "missing.csv"), *flags])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert flags[0] in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["score", "--method", "energy", "--temperature", "nan"], "--temperature"),
    (["score", "--method", "energy", "--temperature", "inf"], "--temperature"),
    (["score", "--method", "energy", "--temperature", "0"], "--temperature"),
    (["score", "--method", "odin", "--temperature", "nan", "--epsilon", "0.001"], "--temperature"),
    (["score", "--method", "odin", "--temperature", "1000", "--epsilon", "nan"], "--epsilon"),
    (["score", "--method", "odin", "--temperature", "1000", "--epsilon", "-0.5"], "--epsilon"),
    (["dedup", "--max-dist", "-1"], "--max-dist"),
    (["dedup", "--max-dist", "65"], "--max-dist"),
    (["bootstrap", "--b", "0"], "--b"),
    (["bootstrap", "--b", "-5"], "--b"),
])
def test_bad_numeric_flags_fail_at_parse_time(tmp_path, capsys, argv, flag):
    # score gets real inputs, so only the parser stands between a bad flag
    # and a written scores file; the others would exit 2 on their inputs
    logits = tmp_path / "logits.csv"
    write_labeled_logits(logits)
    model = tmp_path / "model.json"
    save_model(model, init_model(3, 4, 3, seed=0))
    scores = tmp_path / "scores.csv"
    missing = str(tmp_path / "missing")
    inputs = {"score": ["--logits", str(logits), "--scores-out", str(scores)]
              + (["--model", str(model), "--prefix", "logit"] if "odin" in argv else []),
              "dedup": ["--images", missing], "bootstrap": ["--values", missing]}
    with pytest.raises(SystemExit) as info:
        main([*argv, *inputs[argv[0]]])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert not scores.exists()


@pytest.mark.parametrize("argv, flag", [
    (["pseudomask", "--lambda", "-1"], "--lambda"),
    (["pseudomask", "--lambda", "nan"], "--lambda"),
    (["pseudomask", "--lambda", "inf"], "--lambda"),
    (["pseudomask", "--k", "0"], "--k"),
    (["pseudomask", "--iters", "-1"], "--iters"),
    (["pseudomask", "--open", "-1"], "--open"),
    (["pseudomask", "--close", "-1"], "--close"),
    (["seg-eval", "--boot", "0"], "--boot"),
    (["seg-eval", "--boot", "-1"], "--boot"),
    (["pseudomask", "--iters", "10000"], "--iters"),
])
def test_bad_mask_flags_fail_at_parse_time(tmp_path, capsys, argv, flag):
    # real inputs, so only the parser stands between a bad flag and the
    # written masks (pseudomask) or report (seg-eval)
    images = tmp_path / "images"
    truth = tmp_path / "truth"
    images.mkdir()
    truth.mkdir()
    write_ppm(images / "a.ppm", RgbImage(np.full((16, 16, 3), 90, dtype=np.uint8)))
    write_pgm(truth / "a.pgm", BinaryMask(np.eye(16, dtype=bool)))
    out = tmp_path / "out"
    inputs = {"pseudomask": ["--in", str(images), "--out", str(out / "masks"),
                             "--report", str(out / "report.json")],
              "seg-eval": ["--pred", str(truth), "--gt", str(truth),
                           "--out", str(out / "report.json")]}
    with pytest.raises(SystemExit) as info:
        main([*argv, *inputs[argv[0]]])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [("seg-eval", "--boot"), ("bootstrap", "--b")])
def test_replicate_count_past_2_pow_40_fails_at_parse_time(tmp_path, capsys, command, flag):
    # unbounded, 10**29 replicates raised a raw ValueError from seg-eval's
    # index draw and kept bootstrap drawing blocks without end
    masks = tmp_path / "masks"
    masks.mkdir()
    write_pgm(masks / "a.pgm", BinaryMask(np.eye(16, dtype=bool)))
    values = tmp_path / "values.txt"
    values.write_text("1.0\n2.5\n4.0\n")
    inputs = {"seg-eval": ["--pred", str(masks), "--gt", str(masks)],
              "bootstrap": ["--values", str(values)]}
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as info:
        main([command, *inputs[command], flag, str(10 ** 29), "--out", str(report)])
    assert info.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(rf"freshkit {command}: error: argument {flag}: "
                        r"values must lie in \[1, 1099511627776\), got '10{29}'\n", err)
    assert not report.exists()


@pytest.mark.parametrize("count", [2 ** 63, 10 ** 400], ids=["2**63", "10**400"])
def test_mcnemar_counts_beyond_int64_fail_at_parse_time(count):
    # 10**400 printed an OverflowError traceback from the chi2 formula
    for flag in ("--n11", "--n10", "--n01", "--n00"):
        counts = {"--n11": "0", "--n10": "0", "--n01": "0", "--n00": "0", flag: str(count)}
        proc = run_script(["mcnemar", *(part for item in counts.items() for part in item)])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (f"freshkit mcnemar: error: argument {flag}: values must lie "
                               f"in [0, {2 ** 63}), got '{count}'\n")


@pytest.mark.parametrize("command, flag, limit", [("nested-cv", "--epochs", 10 ** 5),
                                                  ("pseudomask", "--iters", 10 ** 4)])
def test_training_lengths_are_bounded_at_parse_time(tmp_path, capsys, command, flag, limit):
    # unbounded, nested-cv --epochs 10**12 trained silently until killed
    images = tmp_path / "images"
    images.mkdir()
    write_ppm(images / "a.ppm", RgbImage(np.full((16, 16, 3), 90, dtype=np.uint8)))
    report = tmp_path / "report.json"
    inputs = {"nested-cv": ["--data", str(tmp_path / "missing.csv"), "--out", str(report)],
              "pseudomask": ["--in", str(images), "--out", str(tmp_path / "masks"),
                             "--report", str(report)]}
    assert getattr(build_parser().parse_args([command, *inputs[command], flag, str(limit - 1)]),
                   flag[2:]) == limit - 1
    with pytest.raises(SystemExit) as info:
        main([command, *inputs[command], flag, str(limit)])
    assert info.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"freshkit {command}: error: argument {flag}: "
                   f"values must lie in [0, {limit}), got '{limit}'\n")
    assert not report.exists() and not (tmp_path / "masks").exists()


def test_help_exits_0():
    for argv in (["--help"], ["mcnemar", "--help"], ["pseudomask", "--help"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0


@pytest.mark.parametrize("argv, flag", [
    (["cls-eval", "--label-smoothing", "-1"], "--label-smoothing"),
    (["cls-eval", "--label-smoothing", "nan"], "--label-smoothing"),
    (["cls-eval", "--label-smoothing", "1"], "--label-smoothing"),
    (["mcnemar", "--n11", "-1", "--n10", "3", "--n01", "2", "--n00", "4"], "--n11"),
    (["mcnemar", "--n11", "1", "--n10", "3", "--n01", "2", "--n00", "-4"], "--n00"),
    (["split", "--ratios", "0.5,0.5,nan"], "--ratios"),
    (["split", "--ratios", "0.5,1,-0.5"], "--ratios"),
    (["sweep", "--taus", "0.5,inf"], "--taus"),
    (["sweep", "--taus", "nan"], "--taus"),
    (["folds", "--outer", "1"], "--outer"),
    (["folds", "--inner", "1"], "--inner"),
    (["nested-cv", "--outer", "1"], "--outer"),
    (["nested-cv", "--inner", "0"], "--inner"),
    (["nested-cv", "--hidden", "-1"], "--hidden"),
    (["nested-cv", "--top-k", "0"], "--top-k"),
])
def test_bad_report_flags_fail_at_parse_time(tmp_path, capsys, argv, flag):
    # real inputs, except for nested-cv, whose missing data file would exit 2
    logits = tmp_path / "logits.csv"
    records = write_labeled_logits(logits)
    scores = tmp_path / "scores.csv"
    write_logit_csv(scores, table([(rec_id, split, -1, (0.5,))
                                   for rec_id, split, _, _ in records]),
                    column_prefix="score")
    labels = tmp_path / "labels.csv"
    write_logit_csv(labels, table([r for r in records if r[2] >= 0]), column_prefix="x")
    inputs = {"cls-eval": ["--logits", str(logits)], "mcnemar": [],
              "split": ["--labels", str(labels)], "sweep": ["--scores", str(scores)],
              "folds": ["--labels", str(labels)],
              "nested-cv": ["--data", str(tmp_path / "missing.csv")]}
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as info:
        main([*argv, *inputs[argv[0]], "--out", str(report)])
    assert info.value.code == 1
    err = capsys.readouterr().err
    assert flag in err
    assert "Traceback" not in err
    assert not report.exists()


# --- no partial outputs ------------------------------------------------------

def _tray(side):
    img = np.full((side, side, 3), 40, dtype=np.uint8)
    img[side // 4:3 * side // 4, side // 4:3 * side // 4] = (200, 60, 50)
    return RgbImage(img)


@pytest.mark.parametrize("bad, code", [("small", 3), ("truncated", 2)])
def test_pseudomask_failure_writes_nothing(tmp_path, capsys, bad, code):
    # the good tray sorts first, so its mask is ready before the bad one fails
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_ppm(in_dir / "a_good.ppm", _tray(24))
    if bad == "small":
        write_ppm(in_dir / "b_bad.ppm", _tray(4))
    else:
        write_ppm(in_dir / "b_bad.ppm", _tray(24))
        data = (in_dir / "b_bad.ppm").read_bytes()
        (in_dir / "b_bad.ppm").write_bytes(data[:-100])
    out_dir = tmp_path / "masks"
    report = tmp_path / "report.json"
    result, out, err = run_cli(
        ["pseudomask", "--in", str(in_dir), "--out", str(out_dir), "--iters", "1",
         "--k", "2", "--report", str(report)],
        capsys,
    )
    assert result == code
    assert out == ""
    assert "Traceback" not in err
    assert not out_dir.exists()
    assert not report.exists()


# --- pseudomask shares its trays among processes ------------------------------

def _noisy_tray(rng, side, uniform=False):
    img = np.full((side, side, 3), 40, dtype=np.int64)
    if not uniform:
        img[side // 4:3 * side // 4, side // 3:3 * side // 4] = (200, 60, 50)
        img += rng.integers(-10, 11, size=img.shape)
    return RgbImage(np.clip(img, 0, 255).astype(np.uint8))


def _run_shared(argv, n_cpus, monkeypatch, capsys):
    """Exit code, stdout, stderr and the number of forks of argv on n_cpus CPUs."""
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)  # counted in this process only
            return fork()

        patch.setattr(os, "fork", counting_fork)
        code, out, err = run_cli(argv, capsys)
    with pytest.raises(ChildProcessError):  # every helper was reaped
        os.waitpid(-1, os.WNOHANG)
    return code, out, err, len(forks)


def _run_pseudomask(in_dir, out_dir, n_cpus, monkeypatch, capsys):
    """Exit code, stdout, stderr, the written files, and the number of forks."""
    code, out, err, forks = _run_shared(["pseudomask", "--in", str(in_dir), "--out",
                                         str(out_dir), "--iters", "2", "--k", "2"],
                                        n_cpus, monkeypatch, capsys)
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())} if out_dir.exists() else {}
    return code, out, err, files, forks


@pytest.fixture
def five_trays(tmp_path):
    rng = np.random.default_rng(17)
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for name, side, uniform in (("a", 20, False), ("b", 28, False), ("c", 16, True),
                                ("d", 24, False), ("e", 20, False)):
        write_ppm(in_dir / f"{name}.ppm", _noisy_tray(rng, side, uniform))
    return in_dir


def test_pseudomask_bytes_do_not_depend_on_the_cpu_count(tmp_path, five_trays, monkeypatch,
                                                         capsys):
    runs = {n: _run_pseudomask(five_trays, tmp_path / f"out{n}", n, monkeypatch, capsys)
            for n in (1, 2, 4)}
    code, out, err, files, forks = runs[1]
    assert (code, err, forks) == (0, "", 0)
    assert sorted(files) == ["a.pgm", "b.pgm", "c.pgm", "d.pgm", "e.pgm"]
    assert [row["degenerate"] for row in json.loads(out)["report"]["images"]] == \
        [False, False, True, False, False]
    for n in (2, 4):
        assert runs[n][:4] == runs[1][:4]
        assert runs[n][4] == n - 1  # one helper per share but the caller's


def test_pseudomask_raises_the_first_failing_tray_of_any_share(tmp_path, monkeypatch, capsys):
    # b.ppm is the larger file, so with two CPUs this process takes it, and a
    # helper takes a_small.ppm: the helper's failure still comes first
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    write_ppm(in_dir / "a_small.ppm", _tray(4))
    write_ppm(in_dir / "b.ppm", _tray(24))
    (in_dir / "b.ppm").write_bytes((in_dir / "b.ppm").read_bytes()[:-100])
    runs = [_run_pseudomask(in_dir, tmp_path / "masks", n, monkeypatch, capsys)
            for n in (1, 2, 4)]
    assert [run[4] for run in runs] == [0, 1, 1]
    for code, out, err, files, _ in runs:
        assert (code, out, files) == (3, "", {})
        assert err.startswith("freshkit pseudomask: ") and err.count("\n") == 1
    assert runs[1][2] == runs[2][2] == runs[0][2]


@pytest.mark.parametrize("failure", ["fork", "exit"])
def test_pseudomask_computes_an_undelivered_share_itself(tmp_path, five_trays, monkeypatch,
                                                         capsys, failure):
    expected = _run_pseudomask(five_trays, tmp_path / "serial", 1, monkeypatch, capsys)
    if failure == "fork":
        def fork():
            raise OSError("no process")
        monkeypatch.setattr(os, "fork", fork)
    else:  # a helper dies before it sends; this process never calls dump
        monkeypatch.setattr(pickle, "dump", lambda *args: os._exit(5))
    got = _run_pseudomask(five_trays, tmp_path / "masks", 2, monkeypatch, capsys)
    assert got[:4] == expected[:4]


def test_pseudomask_forks_without_a_warning(tmp_path, five_trays, features):
    # OpenBLAS stops its thread pool before a fork, so Python 3.12+ finds
    # one thread and does not warn that forking a threaded process may deadlock;
    # nested-cv forks the same way
    src = str(Path(freshkit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for command, *argv in (["pseudomask", "--in", str(five_trays), "--out",
                            str(tmp_path / "masks"), "--iters", "1", "--k", "2", "--report"],
                           ["nested-cv", "--data", str(features), "--epochs", "2", "--out"]):
        report = tmp_path / f"{command}.json"
        proc = subprocess.run([sys.executable, "-W", "error::DeprecationWarning", "-m",
                               "freshkit.cli", command, *argv, str(report)],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(report.read_text())["command"] == command
    assert len(list((tmp_path / "masks").iterdir())) == 5


# --- nested-cv and demo share their outer folds' searches among processes -------

@pytest.fixture
def features(tmp_path):
    """90 rows of 6 features in 3 overlapping classes, so the searches differ by fold."""
    rng = np.random.default_rng(1818)
    labels = np.arange(90) % 3
    xs = rng.normal(0.0, 1.0, (90, 6))
    xs[np.arange(90), labels] += 1.5
    path = tmp_path / "features.csv"
    write_logit_csv(path, table([(f"s{i:03d}", "train", int(labels[i]), tuple(xs[i]))
                                 for i in range(90)]), column_prefix="x")
    return path


@pytest.mark.parametrize("flags", [[], ["--hidden", "0"], ["--outer", "3", "--inner", "4"]],
                         ids=["defaults", "hidden0", "outer3_inner4"])
def test_nested_cv_bytes_do_not_depend_on_the_cpu_count(features, monkeypatch, capsys, flags):
    argv = ["nested-cv", "--data", str(features), "--epochs", "4", *flags]
    n_outer = int(flags[1]) if flags[:1] == ["--outer"] else 5
    runs = {n: _run_shared(argv, n, monkeypatch, capsys) for n in (1, 2, 4)}
    code, out, err, forks = runs[1]
    assert (code, err, forks) == (0, "", 0)
    assert len(json.loads(out)["report"]["fold_accuracies"]) == n_outer
    for n in (2, 4):
        assert runs[n][:3] == runs[1][:3]
        assert runs[n][3] == min(n, n_outer) - 1  # one helper per share but the caller's


def test_demo_bytes_do_not_depend_on_the_cpu_count(monkeypatch, capsys):
    runs = {n: _run_shared(["demo", "--seed", "3"], n, monkeypatch, capsys) for n in (1, 2, 4)}
    assert runs[1][0] == 0 and runs[1][2] == ""
    for n in (2, 4):
        assert runs[n][:3] == runs[1][:3]
    assert [runs[n][3] for n in (1, 2, 4)] == [0, 1, 3]


@pytest.mark.parametrize("failure", ["fork", "exit"])
def test_nested_cv_computes_an_undelivered_share_itself(features, monkeypatch, capsys,
                                                        failure):
    argv = ["nested-cv", "--data", str(features), "--epochs", "4"]
    expected = _run_shared(argv, 1, monkeypatch, capsys)
    if failure == "fork":
        def fork():
            raise OSError("no process")
        monkeypatch.setattr(os, "fork", fork)
    else:  # a helper dies before it sends; this process never calls dump
        monkeypatch.setattr(pickle, "dump", lambda *args: os._exit(5))
    got = _run_shared(argv, 4, monkeypatch, capsys)
    assert got[:3] == expected[:3]


@pytest.mark.parametrize("poisoned, first", [
    # a serial search trains stage 1 of every outer fold before any stage 2
    ({(2, 0), (1, 3)}, (1, 3)),
    ({(1, 4), (1, 1)}, (1, 1)),
    ({(2, 2), (2, 1), (2, 4)}, (2, 1)),
    ({(2, 0)}, (2, 0)),
], ids=["stage1_before_stage2", "lower_fold", "stage2_lower_fold", "caller_share"])
def test_nested_cv_divergence_is_the_one_a_serial_search_meets(features, monkeypatch, capsys,
                                                                poisoned, first):
    # the streams of each poisoned (stage, outer fold) train on NaN rows
    batch_seed = {derive_seed(derive_seed(42, outer, stage, fold), 1): (stage, outer)
                  for stage in (1, 2) for outer in range(5) for fold in range(3)}

    def poisoning(streams):
        return train_streams([
            s._replace(xs=np.full_like(s.xs, np.nan))
            if batch_seed.get(s.configs[0].seed) in poisoned else s for s in streams])

    monkeypatch.setattr(tiny_model, "train_streams", poisoning)
    runs = [_run_shared(["nested-cv", "--data", str(features), "--epochs", "2"], n,
                        monkeypatch, capsys) for n in (1, 2, 4)]
    code, out, err, _ = runs[0]
    assert (code, out) == (3, "")
    # the first config named is on inner fold 0 of the first (stage, outer fold)
    stage, outer = first
    assert err.startswith("freshkit nested-cv: TrainingDiverged: ") and err.count("\n") == 1
    assert f"seed={derive_seed(derive_seed(42, outer, stage, 0), 1)})" in err
    assert [run[:3] for run in runs[1:]] == [runs[0][:3]] * 2
    assert [run[3] for run in runs] == [0, 1, 3]


# --- dedup shares its files among processes --------------------------------------

def test_dedup_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch, capsys):
    # four noise images of four sizes, two with a brighter copy, and one mask
    rng = np.random.default_rng(19)
    for name, side in (("a", 24), ("b", 40), ("c", 32), ("d", 16)):
        pixels = rng.integers(0, 200, (side, side, 3), dtype=np.uint8)
        write_ppm(tmp_path / f"{name}.ppm", RgbImage(pixels))
        if name in "ab":
            write_ppm(tmp_path / f"{name}_bright.ppm", RgbImage(pixels + 40))
    write_pgm(tmp_path / "e.pgm", BinaryMask(np.arange(28 * 20).reshape(28, 20) % 7 < 3))
    runs = {n: _run_shared(["dedup", "--images", str(tmp_path)], n, monkeypatch, capsys)
            for n in (1, 2, 4)}
    assert runs[1][0] == 0 and runs[1][2] == "" and runs[1][3] == 0
    assert json.loads(runs[1][1])["report"]["clusters"] == [
        ["a.ppm", "a_bright.ppm"], ["b.ppm", "b_bright.ppm"], ["c.ppm"], ["d.ppm"], ["e.pgm"]]
    for n in (2, 4):
        assert runs[n][:3] == runs[1][:3]
        assert runs[n][3] == n - 1


@settings(derandomize=True, max_examples=40, deadline=None)
@given(shapes=st.lists(st.sampled_from([(1, 1), (1, 9), (9, 1), (5, 7), (7, 5), (12, 12)]),
                       min_size=1, max_size=10),
       budget=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1))
def test_dedup_hashes_in_chunks_as_it_would_one_image_at_a_time(shapes, budget, seed):
    # runs of one shape, cut into chunks at pixel budgets that fall between,
    # on and beyond image sizes; every third file is a PGM
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        files, images = [], []
        for i, (h, w) in enumerate(shapes):
            if i % 3 == 2:
                gray = rng.integers(0, 256, (h, w), dtype=np.uint8)
                files.append(Path(tmp) / f"{i}.pgm")
                files[-1].write_bytes(b"P5 %d %d 255\n" % (w, h) + gray.tobytes())
                images.append(grayscale_as_rgb(gray))
            else:
                images.append(RgbImage(rng.integers(0, 256, (h, w, 3), dtype=np.uint8)))
                files.append(Path(tmp) / f"{i}.ppm")
                write_ppm(files[-1], images[-1])
        want = [phash64(image) for image in images]
        with mock.patch.object(cli, "_HASH_PIXELS", budget):
            assert cli._hash_files(phash64_stack, files, list(range(len(files)))) == want
            odd = list(range(1, len(files), 2))
            if odd:
                assert cli._hash_files(phash64_stack, files, odd) == want[1::2]


def test_dedup_raises_the_first_failing_file_of_any_share(tmp_path, monkeypatch, capsys):
    # b.ppm is the larger file, so with two CPUs this process hashes it, and a
    # helper hashes a_small.ppm: the helper's failure still comes first. The
    # message names the file as pathlib spells it, so ./images reads images
    images = tmp_path / "images"
    images.mkdir()
    (images / "a_small.ppm").write_bytes(b"P5\n4 4\n255\n" + bytes(16))
    write_ppm(images / "b.ppm", _tray(24))
    (images / "b.ppm").write_bytes((images / "b.ppm").read_bytes()[:-100])
    monkeypatch.chdir(tmp_path)
    for arg, shown in ((str(images), images), ("./images", "images"), ("./images/", "images")):
        runs = [_run_shared(["dedup", "--images", arg], n, monkeypatch, capsys)
                for n in (1, 2, 4)]
        assert [run[3] for run in runs] == [0, 1, 1]
        for code, out, err, _ in runs:
            assert (code, out) == (2, "")
            assert err == f"freshkit dedup: BadMagic: {shown}/a_small.ppm: expected P6 file\n"


@pytest.mark.parametrize("scores_out, out", [
    ("x.csv", "x.csv"),
    ("x.csv", "./x.csv"),
    ("./x.csv", "sub/../x.csv"),
    ("{tmp}/x.csv", "x.csv"),
    ("sub/x.csv", "link/x.csv"),  # link is a symlink to sub
])
def test_scores_and_report_on_one_path_fail_before_writing(tmp_path, monkeypatch, capsys,
                                                           scores_out, out):
    # the report overwrote the scores, and the run exited 0
    write_labeled_logits(tmp_path / "logits.csv")
    (tmp_path / "sub").mkdir()
    (tmp_path / "link").symlink_to(tmp_path / "sub")
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run_cli(["score", "--method", "msp", "--logits", "logits.csv",
                                 "--scores-out", scores_out.format(tmp=tmp_path),
                                 "--out", out], capsys)
    assert (code, stdout) == (1, "")
    assert err == "freshkit score: error: --scores-out and --out name the same file\n"
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["link", "logits.csv", "sub"]


def test_unrenderable_report_writes_no_scores(tmp_path, capsys):
    # a tiny temperature overflows the energies: rendering fails after scoring
    logits = tmp_path / "logits.csv"
    write_labeled_logits(logits)
    scores = tmp_path / "scores.csv"
    code, out, err = run_cli(
        ["score", "--method", "energy", "--temperature", "1e-320",
         "--logits", str(logits), "--scores-out", str(scores)],
        capsys,
    )
    assert code == 3
    assert out == ""
    assert "ComputeError" in err
    assert "Traceback" not in err
    assert not scores.exists()


@pytest.mark.parametrize("method", ["energy", "odin"])
def test_overflowing_temperature_prints_one_stderr_line(tmp_path, method):
    # numpy's overflow warnings would print before the typed error
    logits = tmp_path / "logits.csv"
    write_labeled_logits(logits)
    flags = []
    if method == "odin":
        model = tmp_path / "model.json"
        save_model(model, init_model(3, 4, 3, seed=0))
        flags = ["--prefix", "logit", "--model", str(model), "--epsilon", "0.01"]
    scores = tmp_path / "scores.csv"
    proc = run_script(["score", "--method", method, "--temperature", "1e-320",
                       "--logits", str(logits), "--scores-out", str(scores), *flags])
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "freshkit score: ComputeError: non-finite number under key 'score'\n"
    assert not scores.exists()


@pytest.mark.parametrize("edit", [
    lambda doc: "not json",
    lambda doc: '{"input_dim": 16}',
    lambda doc: "[1]",
    lambda doc: json.dumps({**doc, "input_dim": -doc["input_dim"]}),
    lambda doc: json.dumps({**doc, "params": [float("nan")] * len(doc["params"])}),
], ids=["not-json", "missing-key", "list", "negative-dim", "nan-params"])
def test_malformed_model_exits_2_with_one_line(tmp_path, capsys, edit):
    features = tmp_path / "features.csv"
    write_logit_csv(features, table([("a", "test", 0, (0.5, 1.0)),
                                     ("b", "ood", -1, (0.0, 0.0))]), column_prefix="x")
    model = tmp_path / "model.json"
    save_model(model, init_model(2, 0, 2, seed=0))
    model.write_text(edit(json.loads(model.read_text())))
    scores = tmp_path / "scores.csv"
    code, out, err = run_cli(
        ["score", "--method", "odin", "--logits", str(features), "--prefix", "x",
         "--model", str(model), "--temperature", "2", "--epsilon", "0.01",
         "--scores-out", str(scores)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"freshkit score: MalformedModel: {model}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not scores.exists()


@pytest.mark.parametrize("command, flag", [("folds", "--labels"), ("nested-cv", "--data")])
def test_too_few_samples_names_the_plain_class(tmp_path, capsys, command, flag):
    records = [(f"s{i:03d}", "train", 1 + i % 2, (float(i),)) for i in range(20)]
    records.append(("s999", "train", 0, (0.0,)))
    src = tmp_path / "few.csv"
    write_logit_csv(src, table(records), column_prefix="x")
    code, out, err = run_cli([command, flag, str(src)], capsys)
    assert code == 3
    assert out == ""
    assert err == (f"freshkit {command}: TooFewSamplesPerClass: "
                   "class 0 has 1 samples, needs >= 5\n")



@pytest.mark.parametrize("command, flag", [("folds", "--labels"), ("nested-cv", "--data")])
@pytest.mark.parametrize("inner", [10**6, 10**18])
def test_more_inner_sets_than_rows_fail_before_dealing(tmp_path, capsys, monkeypatch,
                                                       command, flag, inner):
    # dealing first allocated `inner` sizes per class: 64 MiB at 10**6
    records = [(f"s{i:03d}", "train", i % 3, (float(i),)) for i in range(45)]
    src = tmp_path / "labels.csv"
    write_logit_csv(src, table(records), column_prefix="x")
    deal = hygiene._even_sizes

    def bounded(n, parts):
        assert parts <= len(records), f"asked for {parts} parts"
        return deal(n, parts)

    monkeypatch.setattr(hygiene, "_even_sizes", bounded)
    code, out, err = run_cli([command, flag, str(src), "--inner", str(inner)], capsys)
    assert (code, out) == (3, "")
    assert err == (f"freshkit {command}: TooFewSamplesPerClass: "
                   "outer fold 0 leaves an empty inner set\n")


# --- contract on malformed record CSVs -------------------------------------------

# every subcommand that reads a record CSV, with the file under test as {f}
# and, for mcnemar, an intact partner file as {good}
RECORD_CSV_COMMANDS = {
    "score": (["score", "--method", "msp", "--logits", "{f}", "--scores-out", "{scores}"],
              "logit"),
    "cls-eval": (["cls-eval", "--logits", "{f}"], "logit"),
    "mcnemar-a": (["mcnemar", "--pred-a", "{f}", "--pred-b", "{good}"], "logit"),
    "mcnemar-b": (["mcnemar", "--pred-a", "{good}", "--pred-b", "{f}"], "logit"),
    "ood-eval": (["ood-eval", "--scores", "{f}"], "score"),
    "sweep": (["sweep", "--scores", "{f}"], "score"),
    "split": (["split", "--labels", "{f}"], "x"),
    "folds": (["folds", "--labels", "{f}"], "x"),
}


def contract_rows(prefix):
    """A valid record CSV, as lists of fields: header first, then 40 rows."""
    width = {"logit": 3, "score": 1, "x": 2}[prefix]
    rows = [["id", "split", "label"] + [f"{prefix}_{j}" for j in range(width)]]
    for i in range(40):
        label = "" if prefix == "score" else str(i % (3 if prefix == "logit" else 2))
        split = "ood" if prefix == "score" and i % 4 == 3 else "test"
        rows.append([f"r{i:02d}", split, label]
                    + [repr((i * 7 + j * 3) % 11 / 10) for j in range(width)])
    return rows


def run_contract(command, rows, tmp):
    """Run one RECORD_CSV_COMMANDS entry in-process with rows as {f}."""
    argv, prefix = RECORD_CSV_COMMANDS[command]
    files = {"f": tmp / "f.csv", "good": tmp / "good.csv", "scores": tmp / "scores.csv"}
    # lone surrogates stand for raw bytes, so a row can hold bytes that are not UTF-8
    files["f"].write_bytes("".join(",".join(row) + "\n" for row in rows)
                          .encode("utf-8", "surrogateescape"))
    files["good"].write_text("".join(",".join(row) + "\n" for row in contract_rows(prefix)))
    out = tmp / "report.json"
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main([arg.format(**files) for arg in argv] + ["--out", str(out)])
    return code, stdout.getvalue(), stderr.getvalue(), [out, files["scores"]]


@pytest.mark.parametrize("command", sorted(RECORD_CSV_COMMANDS))
def test_contract_base_files_are_valid(tmp_path, command):
    code, _, err, written = run_contract(command, contract_rows(RECORD_CSV_COMMANDS[command][1]),
                                         tmp_path)
    assert (code, err) == (0, "")
    assert written[0].exists()


@pytest.mark.parametrize("kind", ["empty", "header", "ragged", "split", "label", "cell",
                                  "encoding"])
@pytest.mark.parametrize("command", sorted(RECORD_CSV_COMMANDS))
@settings(derandomize=True, max_examples=5, deadline=None)
@given(data=st.data())
def test_malformed_record_csv_exits_2_with_one_line(command, kind, data):
    prefix = RECORD_CSV_COMMANDS[command][1]
    rows = contract_rows(prefix)
    header = rows[0]
    row = rows[data.draw(st.integers(1, len(rows) - 1), label="row")]
    if kind == "empty":
        rows = []
    elif kind == "header":
        j = data.draw(st.integers(0, len(header) - 1), label="column")
        header[j] = data.draw(st.sampled_from(
            [header[j][:-1], header[j] + "x", header[j].upper(), " " + header[j]]))
    elif kind == "ragged":
        row[:] = row[:-1] if data.draw(st.booleans(), label="short") else row + ["0.5"]
    elif kind == "split":
        row[1] = data.draw(st.sampled_from(["holdout", "TEST", "", "tst"]))
    elif kind == "label":
        n_columns = len(header) - 3
        out_of_range = [str(2 ** 63)] if prefix == "x" else [str(n_columns), str(n_columns + 4)]
        row[2] = data.draw(st.sampled_from(["1.5", "x", " ", "-2", "-10", *out_of_range]))
    elif kind == "cell":
        j = data.draw(st.integers(3, len(header) - 1), label="column")
        row[j] = data.draw(st.sampled_from(["nan", "inf", "-inf", "1e400", "abc", "", "0x1"]))
    else:
        # bytes 0xff 0xfe, latin-1 e-acute, a lead byte with a bad continuation
        bad = data.draw(st.sampled_from(["\udcff\udcfe", "\udce9", "\udcc3("]))
        cells = header if data.draw(st.booleans(), label="in header") else row
        j = data.draw(st.integers(0, len(cells) - 1), label="column")
        cells[j] += bad
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err, written = run_contract(command, rows, Path(tmp))
        assert code == 2
        assert out == ""
        name = RECORD_CSV_COMMANDS[command][0][0]
        match = re.fullmatch(rf"freshkit {name}: (\w+): [^\n]+\n", err)
        assert match, err
        assert issubclass(getattr(errors, match.group(1)), errors.InputFormatError)
        assert not any(path.exists() for path in written)


def test_class_map_that_is_not_utf8_exits_2_with_one_line(tmp_path, capsys):
    for d in ("pred", "gt"):
        (tmp_path / d).mkdir()
        write_pgm(tmp_path / d / "m0.pgm", BinaryMask(np.ones((4, 4), dtype=bool)))
    class_map = tmp_path / "classes.csv"
    class_map.write_bytes(b"id,class\nm0,fr\xe9sh\n")
    out = tmp_path / "report.json"
    code, stdout, err = run_cli(["seg-eval", "--pred", str(tmp_path / "pred"),
                                 "--gt", str(tmp_path / "gt"), "--classes", str(class_map),
                                 "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err == (f"freshkit seg-eval: InputFormatError: {class_map}: "
                   "not UTF-8: byte 14 (invalid continuation byte)\n")
    assert not out.exists()



def test_class_map_with_a_duplicate_id_exits_2_with_one_line(tmp_path, capsys):
    # the last row used to win: a then reported only 'spoiled'. The row
    # counts the blank line, as the values file's line numbers do.
    for d in ("pred", "gt"):
        (tmp_path / d).mkdir()
        for name in ("a", "b"):
            write_pgm(tmp_path / d / f"{name}.pgm", BinaryMask(np.ones((4, 4), dtype=bool)))
    class_map = tmp_path / "classes.csv"
    class_map.write_text("id,class\na,fresh\n\na,spoiled\nb,fresh\n")
    out = tmp_path / "report.json"
    code, stdout, err = run_cli(["seg-eval", "--pred", str(tmp_path / "pred"),
                                 "--gt", str(tmp_path / "gt"), "--classes", str(class_map),
                                 "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err == f"freshkit seg-eval: InputFormatError: {class_map}:4: duplicate id 'a'\n"
    assert not out.exists()

def test_values_file_that_is_not_utf8_exits_2_with_one_line(tmp_path, capsys):
    values = tmp_path / "v.txt"
    values.write_bytes(b"0.5\n0.25\n\xff\n")
    out = tmp_path / "report.json"
    code, stdout, err = run_cli(["bootstrap", "--values", str(values), "--out", str(out)],
                                capsys)
    assert (code, stdout) == (2, "")
    assert err == (f"freshkit bootstrap: InputFormatError: {values}: "
                   "not UTF-8: byte 9 (invalid start byte)\n")
    assert not out.exists()


# --- rendering result dataclasses ------------------------------------------------
# The serializers the result types carried before render_json rendered
# dataclasses from their fields; each one is the reference for its type.

def _old_class_report(c):
    return {"precision": c.precision, "recall": c.recall, "f1": c.f1,
            "support": c.support, "zero_division": list(c.zero_division)}


def _old_prf_report(r):
    return {"per_class": [_old_class_report(c) for c in r.per_class],
            "macro_precision": r.macro_precision, "macro_recall": r.macro_recall,
            "macro_f1": r.macro_f1, "accuracy": r.accuracy}


def _old_dedup_report(r):
    return {"clusters": [list(c) for c in r.clusters],
            "representatives": list(r.representatives), "total": r.total,
            "removed": r.removed, "removed_fraction": r.removed_fraction,
            "max_dist": r.max_dist}


def _old_candidate_score(c):
    return {"config": asdict(c.config), "mean_accuracy": c.mean_accuracy}


def _old_ood_report(r):
    return {"auroc": r.auroc, "aupr_id": r.aupr_id, "fpr_at_95_tpr": r.fpr_at_95_tpr,
            "n_id": r.n_id, "n_ood": r.n_ood}


def _old_sweep_point(p):
    return {"tau": p.tau, "coverage": p.coverage, "rejection": p.rejection,
            "reference": p.reference}


def _old_box(b):
    return {"x0": b.x0, "y0": b.y0, "width": b.width, "height": b.height}


def _old_mask_metrics(m):
    return {name: getattr(m, name) for name in METRIC_NAMES}


def _old_metric_summary(s):
    return {"mean": s.mean, "ci_lo": s.ci_lo, "ci_hi": s.ci_hi}


def _old_seg_summary(s):
    return {"n_images": s.n_images, "n_boot": s.n_boot, "seed": s.seed,
            "metrics": {name: _old_metric_summary(ms) for name, ms in s.metrics.items()}}


def _old_paired_outcome(o):
    return {"n11": o.n11, "n10": o.n10, "n01": o.n01, "n00": o.n00}


def _old_mcnemar_result(r):
    return {"chi2": r.chi2, "p": r.p, "degenerate": r.degenerate}


def _old_delta_accuracy_ci(c):
    return {"delta": c.delta, "se": c.se, "lo": c.lo, "hi": c.hi}


def _old_bootstrap_ci(c):
    return {"estimate": c.estimate, "lo": c.lo, "hi": c.hi, "n_boot": c.n_boot,
            "seed": c.seed}


def _result_objects():
    rng = np.random.default_rng(3)
    # class 2 is never predicted and class 3 never occurs: zero-division flags
    cm = confusion([0, 0, 1, 1, 2, 0], [0, 1, 1, 1, 0, 0], 4)
    prf = prf_report(cm)
    hashes = {"a": 0, "b": 1, "c": 3, "d": 2 ** 63 + 5, "e": 2 ** 40}
    outcome = PairedOutcome(788, 35, 8, 12)
    pred = rng.random((20, 20)) > 0.5
    metrics = [mask_metrics(pred, rng.random((20, 20)) > 0.4) for _ in range(4)]
    samples = [ScoredSample(f"s{i}", float(s), i % 3 != 0)
               for i, s in enumerate(rng.random(30))]
    return [
        (prf.per_class[2], _old_class_report),
        (prf, _old_prf_report),
        (cluster_near_duplicates(hashes, max_dist=2), _old_dedup_report),
        (CandidateScore(TrainConfig(head_lr=0.05, mixup_alpha=0.2), 0.875),
         _old_candidate_score),
        (ood_metrics(samples), _old_ood_report),
        (threshold_sweep([0.1, 0.5, 0.9], (0.2, 0.5))[1], _old_sweep_point),
        (init_box(40, 30, seed=7), _old_box),
        (metrics[0], _old_mask_metrics),
        (dataset_summary(metrics, n_boot=50, seed=1).metrics["dice"], _old_metric_summary),
        (dataset_summary(metrics, n_boot=50, seed=1), _old_seg_summary),
        (outcome, _old_paired_outcome),
        (mcnemar(outcome), _old_mcnemar_result),
        (mcnemar(PairedOutcome(5, 0, 0, 1)), _old_mcnemar_result),
        (paired_acc_diff_ci(outcome), _old_delta_accuracy_ci),
        (percentile_bootstrap(rng.normal(size=30), np.median, n_boot=200, seed=4),
         _old_bootstrap_ci),
    ]


def test_dataclasses_render_as_their_old_dicts():
    objects = _result_objects()
    assert len({type(obj) for obj, _ in objects}) == 14
    for obj, old_to_dict in objects:
        assert render_json(obj) == render_json(old_to_dict(obj)), type(obj).__name__
        nested = {"p": obj, "rows": [obj, obj]}
        assert render_json(nested) == render_json(
            {"p": old_to_dict(obj), "rows": [old_to_dict(obj)] * 2})

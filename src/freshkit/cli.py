"""Single executable exposing every pipeline stage as a subcommand.

Every subcommand accepts --seed (default 42) and writes one JSON report,
to stdout or to the --out path. The one exception is `pseudomask`, where
--out names the directory that receives the generated masks and the JSON
report goes to stdout or --report. Subcommand modules execute on first
use; importing freshkit.<module> as a library is unchanged.

`pseudomask` and `dedup` spread a directory's files over the usable CPUs,
and `nested-cv` and `demo` their outer folds' searches: this process and
one os.fork()ed helper per further CPU each compute a share, and the
helpers pipe their results back (freshkit.shares). The outputs do not
depend on how many CPUs there are. A failing run raises what a run on one
CPU raises, after at most one extra one-CPU pass: when a share fails, this
process computes every share itself. Helpers exit through os._exit, so
inherited stdio buffers and atexit handlers never run twice.

Exit codes: 0 success; 1 command line usage error; 2 malformed or empty
input data (including files with zero data rows, reported as EmptyInput,
and unreadable paths); 3 numeric or semantic failure on well-formed input,
including an allocation that does not fit in memory (MemoryError).

Nothing is written until the report has rendered: each subcommand returns
its report and its pending file writes, and main renders the report, runs
the writes, and writes the report last. An OSError partway through the
writes exits 2 and can leave the earlier files behind.

Report serialization: floats carry six decimal places, except values under
a key named "p", which carry three significant figures and switch to
scientific notation below 1e-3. Repeat runs with the same flags, seed, and
inputs produce byte-identical output.
"""
from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import math
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .data_model import (
    RecordTable,
    Split,
    grayscale_as_rgb,
    read_feature_csv,
    read_logit_csv,
    read_pgm,
    read_pgm_values,
    read_ppm,
    read_utf8,
    write_logit_csv,
    write_pgm,
)
from .errors import (
    BadLabelIndex,
    ComputeError,
    EmptyInput,
    ImageTooSmall,
    InconsistentWidth,
    InputFormatError,
    MissingClass,
)


def _lazy(name: str):
    """freshkit.<name>, executed when an attribute is first read (LazyLoader)."""
    qualname = f"{__package__}.{name}"
    if qualname in sys.modules:
        return sys.modules[qualname]
    spec = importlib.util.find_spec(qualname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[qualname] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# in sys.modules from import on, where perfbench wraps them; each runs on first use
cls_eval = _lazy("cls_eval")
demo = _lazy("demo")
hygiene = _lazy("hygiene")
maxflow = _lazy("maxflow")  # only pseudomask calls it
ood_eval = _lazy("ood_eval")
pseudomask = _lazy("pseudomask")
scoring = _lazy("scoring")
seg_eval = _lazy("seg_eval")
shares = _lazy("shares")
stats = _lazy("stats")
tiny_model = _lazy("tiny_model")

SCHEMA_VERSION = 1

ODIN_GRID_TEMPERATURES = (1.0, 10.0, 100.0, 1000.0)
ODIN_GRID_EPSILONS = (0.0, 0.001, 0.002, 0.004)


# --- JSON rendering --------------------------------------------------------

def render_json(obj, indent: int = 0, key=None) -> str:
    """Deterministic pretty printer applying the float conventions above.

    A dataclass instance renders as the dict of its fields, in declaration
    order; tuples render as lists.
    """
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        obj = float(obj)
        if not math.isfinite(obj):
            raise ComputeError(f"non-finite number under key {key!r}")
        if key == "p":
            return f"{obj:.2e}" if 0.0 < obj < 1e-3 else f"{obj:.3g}"
        return f"{obj:.6f}"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {render_json(v, indent + 1, k)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        rows = [f"{inner}{render_json(v, indent + 1, key)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__} under key {key!r}")


# --- shared input handling ---------------------------------------------------

def _load(read, path: str, prefix: str) -> RecordTable:
    table = read(path, column_prefix=prefix)
    if not table.ids:
        raise EmptyInput(f"{path}: no data rows")
    return table


def _require_labels(table: RecordTable, path: str) -> np.ndarray:
    unlabeled = np.flatnonzero(table.labels < 0)
    if unlabeled.size:
        raise BadLabelIndex(f"{path}: record {table.ids[unlabeled[0]]!r} has no label")
    return table.labels


def _single_column(table: RecordTable, path: str) -> np.ndarray:
    width = table.values.shape[1]
    if width != 1:
        raise InconsistentWidth(
            f"{path}: score files carry exactly one value column, "
            f"record {table.ids[0]!r} has {width}"
        )
    return table.values[:, 0]


def _float_list(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    return values


def _bounded(parse, lo: float, hi: float = math.inf, *, open_lo: bool = False):
    """type= that parses with parse and requires every value in [lo, hi),
    or in (lo, hi) with open_lo; nan lies in neither."""
    def check(text: str):
        value = parse(text)
        if not all((lo < v if open_lo else lo <= v) and v < hi
                   for v in (value if isinstance(value, tuple) else (value,))):
            interval = f"{'(' if open_lo else '['}{lo}, {hi})"
            raise argparse.ArgumentTypeError(f"values must lie in {interval}, got {text!r}")
        return value
    check.__name__ = parse.__name__  # argparse names the parser in its errors
    return check


def _score_records(table: RecordTable, scores) -> list[dict]:
    return [
        {"id": rec_id, "split": split.value, "label": label, "score": float(score)}
        for rec_id, split, label, score in zip(table.ids, table.splits,
                                               table.labels.tolist(), scores)
    ]


def _write_scores_csv(path: str, table: RecordTable, scores) -> None:
    # labels are dropped: a score file has one value column, and the reader
    # bounds labels by the column count; split tags carry the ID/OOD side
    write_logit_csv(path, replace(table, labels=np.full(len(table.ids), -1),
                                  values=np.reshape(scores, (-1, 1))),
                    column_prefix="score")


# --- subcommands --------------------------------------------------------------

def _is_id(table: RecordTable) -> list[bool]:
    # every row not tagged split=ood counts as in-distribution
    return [split is not Split.OOD for split in table.splits]


def _odin(args, table: RecordTable):
    """(settings, scores) for --method odin: the given setting, or else the
    built-in grid tuned against the rows tagged split=ood by AUROC, where
    the first of equal AUROCs wins."""
    if args.model is None:
        raise UsageError("--method odin requires --model")
    if (args.temperature is None) != (args.epsilon is None):
        raise UsageError("give both --temperature and --epsilon, "
                         "or neither to tune over the built-in grid")
    model = tiny_model.load_model(args.model)
    if args.temperature is not None:
        config = scoring.OdinConfig(args.temperature, args.epsilon)
        return {"mode": "fixed", **asdict(config)}, scoring.odin_score(model, table.values, config)
    is_id = _is_id(table)
    if all(is_id) or not any(is_id):
        raise MissingClass("grid tuning needs both ood-tagged and in-distribution rows")
    runs = []
    for temperature, epsilon in itertools.product(ODIN_GRID_TEMPERATURES, ODIN_GRID_EPSILONS):
        config = scoring.OdinConfig(temperature, epsilon)
        scores = scoring.odin_score(model, table.values, config)
        auroc = ood_eval.ood_metrics(zip(table.ids, scores.tolist(), is_id)).auroc
        runs.append((auroc, config, scores))
    _, config, scores = max(runs, key=lambda run: run[0])
    grid = [{**asdict(c), "auroc": auroc} for auroc, c, _ in runs]
    return {"mode": "grid", **asdict(config), "grid": grid}, scores


def _cmd_score(args):
    if args.method != "odin":
        if args.model is not None:
            raise UsageError("--model only applies to --method odin")
        if args.epsilon is not None:
            raise UsageError("--epsilon only applies to --method odin")
    if args.method == "msp" and args.temperature is not None:
        raise UsageError("--temperature does not apply to --method msp")

    read = read_feature_csv if args.method == "odin" else read_logit_csv
    table = _load(read, args.logits, args.prefix)

    if args.method == "msp":
        settings, scores = {}, scoring.msp_score(table.values)
    elif args.method == "energy":
        settings = {"temperature": 1.0 if args.temperature is None else args.temperature}
        scores = scoring.energy_score(table.values, settings["temperature"])
    else:
        settings, scores = _odin(args, table)
    report = {"method": args.method, **settings, "n": len(table.ids),
              "scores": _score_records(table, scores)}

    writes = []
    if args.scores_out:
        writes.append(partial(_write_scores_csv, args.scores_out, table, scores))
    return report, writes


def _cmd_ood_eval(args):
    table = _load(read_logit_csv, args.scores, args.prefix)
    raw = _single_column(table, args.scores)
    if args.flip:
        raw = -raw
    report = ood_eval.ood_metrics(zip(table.ids, raw.tolist(), _is_id(table)))
    return {**asdict(report), "flipped": bool(args.flip)}, []


def _cmd_sweep(args):
    table = _load(read_logit_csv, args.scores, args.prefix)
    conf = _single_column(table, args.scores)
    taus = ood_eval.DEFAULT_TAUS if args.taus is None else args.taus
    points = ood_eval.threshold_sweep(conf, taus)
    return {"n": len(table.ids), "taus": list(taus), "points": points}, []


def _cmd_cls_eval(args):
    table = _load(read_logit_csv, args.logits, args.prefix)
    labels = _require_labels(table, args.logits)
    logits = table.values
    n_classes = logits.shape[1]
    cm = cls_eval.confusion(labels, logits.argmax(axis=1), n_classes)
    ce = cls_eval.cross_entropy(scoring.softmax(logits), labels, args.label_smoothing)
    return {
        "n": len(table.ids),
        "n_classes": n_classes,
        "cross_entropy": ce,
        "label_smoothing": args.label_smoothing,
        "confusion": cm.tolist(),
        **asdict(cls_eval.prf_report(cm)),
    }, []


def _read_class_map(path: str) -> dict[str, str]:
    lines = [ln for ln in read_utf8(path).splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "id,class":
        raise InputFormatError(f"{path}: expected header 'id,class'")
    mapping = {}
    for row_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 2:
            raise InputFormatError(f"{path}:{row_no}: expected two fields")
        mapping[parts[0].strip()] = parts[1].strip()
    return mapping


def _cmd_seg_eval(args):
    pred_dir = Path(args.pred)
    gt_dir = Path(args.gt)
    pred_names = sorted(p.name for p in pred_dir.glob("*.pgm"))
    gt_names = sorted(p.name for p in gt_dir.glob("*.pgm"))
    if not pred_names:
        raise EmptyInput(f"{pred_dir}: no .pgm masks")
    if pred_names != gt_names:
        missing = set(pred_names) ^ set(gt_names)
        raise InputFormatError(
            f"mask directories disagree on file names: {sorted(missing)}"
        )

    class_of = _read_class_map(args.classes) if args.classes else None
    per_image = []
    for name in pred_names:
        stem = Path(name).stem
        if class_of is not None and stem not in class_of:
            raise InputFormatError(f"{args.classes}: no class for {stem!r}")
        metrics = seg_eval.mask_metrics(read_pgm(pred_dir / name), read_pgm(gt_dir / name))
        per_image.append((stem, metrics))

    summary = seg_eval.dataset_summary([m for _, m in per_image],
                                       n_boot=args.boot, seed=args.seed)
    report = {
        "n_images": len(per_image),
        "global": summary,
        "per_image": [{"id": stem, **asdict(m)} for stem, m in per_image],
    }
    if class_of is not None:
        by_class: dict[str, list] = {}
        for stem, m in per_image:
            by_class.setdefault(class_of[stem], []).append(m)
        report["per_class"] = {
            cls: seg_eval.dataset_summary(rows, n_boot=args.boot, seed=args.seed)
            for cls, rows in sorted(by_class.items())
        }
    return report, []


def _correctness(table: RecordTable, path: str) -> dict[str, bool]:
    labels = _require_labels(table, path)
    correct = (table.values.argmax(axis=1) == labels).tolist()
    out: dict[str, bool] = {}
    for rec_id, ok in zip(table.ids, correct):
        if rec_id in out:
            raise InputFormatError(f"{path}: duplicate id {rec_id!r}")
        out[rec_id] = ok
    return out


def _cmd_mcnemar(args):
    counts = (args.n11, args.n10, args.n01, args.n00)
    have_counts = any(c is not None for c in counts)
    have_files = args.pred_a is not None or args.pred_b is not None
    if have_counts == have_files:
        raise UsageError("give the four --nXY counts or two prediction files")
    if have_counts:
        if any(c is None for c in counts):
            raise UsageError("all four of --n11 --n10 --n01 --n00 are required")
        outcome = stats.PairedOutcome(*counts)
    else:
        if args.pred_a is None or args.pred_b is None:
            raise UsageError("both --pred-a and --pred-b are required")
        correct_a = _correctness(_load(read_logit_csv, args.pred_a, args.prefix), args.pred_a)
        correct_b = _correctness(_load(read_logit_csv, args.pred_b, args.prefix), args.pred_b)
        if set(correct_a) != set(correct_b):
            raise InputFormatError("prediction files disagree on record ids")
        outcome = stats.paired_outcomes(  # in file A's row order
            list(correct_a.values()), [correct_b[i] for i in correct_a]
        )
    result = stats.mcnemar(outcome)
    ci = stats.paired_acc_diff_ci(outcome)
    return {
        "n11": outcome.n11, "n10": outcome.n10,
        "n01": outcome.n01, "n00": outcome.n00,
        "n": outcome.n,
        "chi2": result.chi2, "p": result.p, "degenerate": result.degenerate,
        "delta": ci.delta, "se": ci.se, "ci": [ci.lo, ci.hi],
    }, []


def _cmd_bootstrap(args):
    path = Path(args.values)
    values = []
    for line_no, line in enumerate(read_utf8(path).splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise InputFormatError(f"{path}:{line_no}: not a number: {token!r}")
        if not math.isfinite(value):
            raise InputFormatError(f"{path}:{line_no}: non-finite value")
        values.append(value)
    if not values:
        raise EmptyInput(f"{path}: no values")
    statistic = {"mean": np.mean, "median": np.median}[args.stat]
    result = stats.percentile_bootstrap(values, statistic, n_boot=args.b, seed=args.seed)
    return {"statistic": args.stat, "n": len(values), **asdict(result)}, []


def _hash_file(path: Path) -> int:
    image = read_ppm(path) if path.suffix == ".ppm" else grayscale_as_rgb(read_pgm_values(path))
    return hygiene.phash64(image)


def _cmd_dedup(args):
    root = Path(args.images)
    files = sorted(p for p in root.iterdir()
                   if p.suffix in (".ppm", ".pgm") and p.is_file())
    if not files:
        raise EmptyInput(f"{root}: no .ppm or .pgm files")
    hashes = shares.map_items(_hash_file, files, [p.stat().st_size for p in files])
    return hygiene.cluster_near_duplicates(dict(zip((p.name for p in files), hashes)),
                                           max_dist=args.max_dist), []


SPLIT_TAGS = ("train", "val", "test")


def _cmd_split(args):
    if len(args.ratios) != len(SPLIT_TAGS):
        raise UsageError("--ratios takes exactly three comma-separated values")
    if abs(sum(args.ratios) - 1.0) > 1e-9:  # the tolerance stratified_split applies
        raise UsageError(f"--ratios must sum to 1, got {sum(args.ratios)!r}")
    table = _load(read_feature_csv, args.labels, args.prefix)
    labels = _require_labels(table, args.labels)
    assignment = hygiene.stratified_split(labels, args.ratios, seed=args.seed)
    classes, cls = np.unique(labels, return_inverse=True)
    counts = np.zeros((classes.size, len(SPLIT_TAGS)), dtype=np.int64)
    np.add.at(counts, (cls, assignment), 1)
    return {
        "ratios": list(args.ratios),
        "n": len(table.ids),
        "counts": dict(zip(SPLIT_TAGS, counts.sum(axis=0).tolist())),
        "per_class": [{"label": label, **dict(zip(SPLIT_TAGS, row))}
                      for label, row in zip(classes.tolist(), counts.tolist())],
        "assignment": [
            {"id": rec_id, "split": SPLIT_TAGS[part]}
            for rec_id, part in zip(table.ids, assignment)
        ],
    }, []


def _cmd_folds(args):
    table = _load(read_feature_csv, args.labels, args.prefix)
    labels = _require_labels(table, args.labels)
    plan = hygiene.nested_fold_plan(labels, args.outer, args.inner, seed=args.seed)
    audit = hygiene.audit_fold_plan(plan, labels)
    ids = np.array(table.ids, dtype=object)  # a str array would drop trailing NULs
    return {
        "n_samples": plan.n_samples,
        "n_outer": plan.n_outer,
        "n_inner": plan.n_inner,
        "audit": audit,
        "audit_passed": all(audit.values()),
        "outer_test": [ids[plan.outer_test(k)].tolist() for k in range(plan.n_outer)],
        "inner_val": [[ids[plan.inner_val(k, fold)].tolist() for fold in range(plan.n_inner)]
                      for k in range(plan.n_outer)],
    }, []


def _cmd_nested_cv(args):
    table = _load(read_feature_csv, args.data, args.prefix)
    labels = _require_labels(table, args.data)
    grid = hygiene.HyperGrid(
        head_lrs=args.head_lrs,
        weight_decays=args.weight_decays,
        label_smoothings=args.smoothings,
        backbone_lrs=args.backbone_lrs,
        mixup_alphas=args.mixups,
        top_k=args.top_k,
    )
    result = hygiene.nested_cv_run(grid, table.values, labels, n_outer=args.outer,
                                   n_inner=args.inner, epochs=args.epochs,
                                   batch_size=args.batch_size, hidden_dim=args.hidden,
                                   seed=args.seed)
    return result.to_dict(), []


def _mask_tray(args, path: Path):
    """Read one tray, segment it and clean the mask: (mask, report row)."""
    try:
        result = pseudomask.grabcut(read_ppm(path), seed=args.seed, n_iter=args.iters,
                                    n_components=args.k, smoothness=args.smoothness)
    except ImageTooSmall as error:
        raise ImageTooSmall(f"{path}: {error}") from None
    mask = result.mask
    ops = [(pseudomask.morph_close, args.close), (pseudomask.morph_open, args.open)]
    for op, radius in ops if args.close_first else reversed(ops):
        if radius > 0:
            mask = op(mask, radius)
    height, width = mask.pixels.shape
    return mask, {
        "id": path.stem,
        "mask": path.stem + ".pgm",
        "degenerate": result.degenerate,
        "energies": list(result.energies),
        "foreground_fraction": float(mask.foreground_count() / (height * width)),
        "box": result.box,
    }


def _cmd_pseudomask(args):
    in_dir = Path(args.in_dir)
    out_dir = Path(args.out)
    files = sorted(p for p in in_dir.glob("*.ppm") if p.is_file())
    if not files:
        raise EmptyInput(f"{in_dir}: no .ppm images")
    results = shares.map_items(partial(_mask_tray, args), files,
                               [p.stat().st_size for p in files])
    writes = [partial(out_dir.mkdir, parents=True, exist_ok=True)]
    writes += [partial(write_pgm, out_dir / (p.stem + ".pgm"), mask)
               for p, (mask, _) in zip(files, results)]
    return {
        "n_images": len(results),
        "iters": args.iters,
        "k": args.k,
        "smoothness": args.smoothness,
        "open_radius": args.open,
        "close_radius": args.close,
        "close_first": bool(args.close_first),
        "images": [row for _, row in results],
    }, writes


def _cmd_demo(args):
    return demo.run_demo(args.seed), []


# --- parser -------------------------------------------------------------------

class UsageError(Exception):
    """Flag combination errors detected after parsing; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        self.exit(1, f"{self.prog}: error: {message}\n")


LOGIT_CSV_HELP = (
    "CSV layout: header id,split,label,%s_0..%s_{C-1}; split is one of "
    "train/val/test/ood; an empty label field means unlabeled."
)


def build_parser() -> argparse.ArgumentParser:
    seed_parent = _Parser(add_help=False)
    seed_parent.add_argument("--seed", type=_bounded(int, 0, 2 ** 64), default=42,
                             help="RNG seed, unsigned 64-bit (default 42)")
    out_parent = _Parser(add_help=False)
    out_parent.add_argument("--out", dest="report_path", default=None, metavar="PATH",
                            help="write the JSON report here (default stdout)")

    parser = _Parser(
        prog="freshkit",
        description="Deterministic desk-scale pipeline tools: confidence "
                    "scoring, detector and classifier metrics, paired "
                    "significance tests, dataset hygiene, and pseudo-mask "
                    "generation.",
        epilog="Exit codes: 0 ok, 1 usage, 2 malformed input, 3 numeric failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, help_text, description, parents=(seed_parent, out_parent)):
        p = sub.add_parser(name, parents=list(parents), help=help_text,
                           description=description)
        p.set_defaults(func=func)
        return p

    p = add("score", _cmd_score, "confidence scores from a logit or feature CSV",
            "Compute per-record confidence scores. For msp and energy the "
            "numeric columns are logits; for odin they are model input "
            "features and --model supplies the classifier. "
            + LOGIT_CSV_HELP % ("logit", "logit"))
    p.add_argument("--method", required=True, choices=("msp", "energy", "odin"))
    p.add_argument("--logits", required=True, metavar="CSV",
                   help="input records (see description for the layout)")
    p.add_argument("--prefix", default="logit",
                   help="numeric column prefix (default logit)")
    p.add_argument("--temperature", type=_bounded(float, 0.0, open_lo=True), default=None,
                   help="softmax temperature; energy default 1.0; for odin, "
                        "give neither --temperature nor --epsilon to tune "
                        "over the built-in grid (T in 1/10/100/1000, eps in "
                        "0/0.001/0.002/0.004) against the split=ood rows")
    p.add_argument("--epsilon", type=_bounded(float, 0.0), default=None,
                   help="odin input perturbation size; set together with "
                        "--temperature")
    p.add_argument("--model", metavar="JSON",
                   help="classifier parameters for odin (flat JSON layout)")
    p.add_argument("--scores-out", metavar="CSV",
                   help="also write id,split,label,score_0 rows here")

    p = add("ood-eval", _cmd_ood_eval, "AUROC / AUPR / FPR@95TPR from a score CSV",
            "Detector metrics for one score per record; rows tagged "
            "split=ood are the out-of-distribution side, all others count "
            "as in-distribution. " + LOGIT_CSV_HELP % ("score", "score"))
    p.add_argument("--scores", required=True, metavar="CSV")
    p.add_argument("--prefix", default="score")
    p.add_argument("--flip", action="store_true",
                   help="scores are oriented smaller = more in-distribution "
                        "(native energy); negate them first")

    p = add("sweep", _cmd_sweep, "abstention coverage/rejection threshold sweep",
            "Coverage (fraction of records with confidence >= tau) and "
            "rejection at each threshold; tau 0.5 is marked as the "
            "reference operating point. " + LOGIT_CSV_HELP % ("score", "score"))
    p.add_argument("--scores", required=True, metavar="CSV")
    p.add_argument("--prefix", default="score")
    p.add_argument("--taus", type=_bounded(_float_list, -math.inf, open_lo=True), default=None,
                   # ood_eval.DEFAULT_TAUS, spelled out so that building the
                   # parser does not execute ood_eval; a test pins the two equal
                   help="comma-separated thresholds "
                        "(default 0.2,0.3,0.4,0.45,0.5,0.55,0.6,0.7,0.8)")

    p = add("cls-eval", _cmd_cls_eval, "confusion matrix and per-class P/R/F1",
            "Classifier metrics from a labeled logit CSV; predictions are "
            "per-row argmax. Every row must carry a label. "
            + LOGIT_CSV_HELP % ("logit", "logit"))
    p.add_argument("--logits", required=True, metavar="CSV")
    p.add_argument("--prefix", default="logit")
    p.add_argument("--label-smoothing", type=_bounded(float, 0.0, 1.0), default=0.0,
                   help="smoothing for the reported cross entropy (default 0)")

    p = add("seg-eval", _cmd_seg_eval, "mask overlap metrics over two directories",
            "Per-image IoU/Dice/precision/recall/pixel accuracy between "
            "equally named binary PGM (P5, maxval 255, >=128 = foreground) "
            "masks, with bootstrap confidence intervals; --classes adds "
            "per-class summaries from a CSV with header id,class keyed by "
            "file stem.")
    p.add_argument("--pred", required=True, metavar="DIR")
    p.add_argument("--gt", required=True, metavar="DIR")
    p.add_argument("--classes", metavar="CSV", default=None)
    p.add_argument("--boot", type=_bounded(int, 1, 2 ** 40), default=5000,
                   help="bootstrap replicates, below 2**40 (default 5000)")

    p = add("mcnemar", _cmd_mcnemar, "paired test between two classifiers",
            "Continuity-corrected McNemar test plus the paired accuracy "
            "difference with a 95% Wald interval. Give the four pair "
            "counts directly, or two labeled logit CSVs whose rows are "
            "matched by id (correctness = argmax equals label). "
            + LOGIT_CSV_HELP % ("logit", "logit"))
    p.add_argument("--n11", type=_bounded(int, 0), default=None, help="both correct")
    p.add_argument("--n10", type=_bounded(int, 0), default=None, help="only A correct")
    p.add_argument("--n01", type=_bounded(int, 0), default=None, help="only B correct")
    p.add_argument("--n00", type=_bounded(int, 0), default=None, help="both wrong")
    p.add_argument("--pred-a", metavar="CSV", default=None)
    p.add_argument("--pred-b", metavar="CSV", default=None)
    p.add_argument("--prefix", default="logit")

    p = add("bootstrap", _cmd_bootstrap, "percentile bootstrap CI of a statistic",
            "Reads one finite number per line (blank lines skipped) and "
            "reports the statistic with a 95% percentile bootstrap "
            "interval, linear interpolation between order statistics.")
    p.add_argument("--values", required=True, metavar="TXT")
    p.add_argument("--stat", choices=("mean", "median"), default="mean")
    p.add_argument("--b", type=_bounded(int, 1, 2 ** 40), default=4000,
                   help="bootstrap replicates, below 2**40 (default 4000)")

    p = add("dedup", _cmd_dedup, "perceptual-hash near-duplicate clusters",
            "Hashes every .ppm (P6) and .pgm (P5) file in a directory with "
            "a 64-bit DCT perceptual hash and clusters ids whose Hamming "
            "distance is within --max-dist by transitive closure; the "
            "lexicographically smallest id of each cluster is kept.")
    p.add_argument("--images", required=True, metavar="DIR")
    p.add_argument("--max-dist", type=_bounded(int, 0, 65), default=10,
                   help="Hamming radius in bits, of 64 (default 10)")

    p = add("split", _cmd_split, "stratified train/val/test assignment",
            "Per-class largest-remainder allocation into train/val/test. "
            "Every row must carry a label; numeric columns are features "
            "and do not bound the label range. "
            + LOGIT_CSV_HELP % ("x", "x"))
    p.add_argument("--labels", required=True, metavar="CSV")
    p.add_argument("--prefix", default="x")
    p.add_argument("--ratios", type=_bounded(_float_list, 0.0), default=(0.70, 0.15, 0.15),
                   help="three comma-separated fractions summing to 1 "
                        "(default 0.70,0.15,0.15)")

    p = add("folds", _cmd_folds, "stratified nested fold plan with leakage audit",
            "Builds the outer/inner fold layout used for nested "
            "cross-validation and reports the audit that proves no "
            "held-out id leaks into model selection. Numeric columns "
            "are features and do not bound the label range. "
            + LOGIT_CSV_HELP % ("x", "x"))
    p.add_argument("--labels", required=True, metavar="CSV")
    p.add_argument("--prefix", default="x")
    p.add_argument("--outer", type=_bounded(int, 2), default=5)
    p.add_argument("--inner", type=_bounded(int, 2), default=3)

    p = add("nested-cv", _cmd_nested_cv, "nested cross-validated model selection",
            "Two-stage hyperparameter search on the inner folds of each "
            "outer fold, then retrain and evaluate on the outer test ids; "
            "numeric columns are model input features and do not bound "
            "the label range. " + LOGIT_CSV_HELP % ("x", "x"))
    p.add_argument("--data", required=True, metavar="CSV")
    p.add_argument("--prefix", default="x")
    p.add_argument("--outer", type=_bounded(int, 2), default=5)
    p.add_argument("--inner", type=_bounded(int, 2), default=3)
    # below 2**40 numpy can size the (H, D) first layer for up to 2**20 features;
    # a layer that numpy can size but memory cannot hold exits 3 with MemoryError
    p.add_argument("--hidden", type=_bounded(int, 0, 2 ** 40), default=8,
                   help="hidden width of the small classifier, below 2**40 (default 8)")
    # finite, so a mistyped count cannot train without end: 20 epochs of the
    # nested search on 400 x 16 features take about 0.5 s, so 10**5 stay within an hour
    p.add_argument("--epochs", type=_bounded(int, 0, 10 ** 5), default=20,
                   help="SGD epochs per fit, below 10**5 (default 20)")
    p.add_argument("--batch-size", type=_bounded(int, 1), default=32)
    p.add_argument("--head-lrs", type=_bounded(_float_list, 0.0), default=(1e-3, 3e-3))
    p.add_argument("--weight-decays", type=_bounded(_float_list, 0.0), default=(1e-4, 1e-1))
    p.add_argument("--smoothings", type=_bounded(_float_list, 0.0, 1.0), default=(0.0, 0.1))
    p.add_argument("--backbone-lrs", type=_bounded(_float_list, 0.0), default=(1e-5, 3e-4))
    p.add_argument("--mixups", type=_bounded(_float_list, 0.0), default=(0.0, 0.2))
    p.add_argument("--top-k", type=_bounded(int, 1), default=2,
                   help="stage-1 survivors carried into stage 2 (default 2)")

    p = add("pseudomask", _cmd_pseudomask, "box-seeded min-cut masks for a directory",
            "Runs iterative box-initialized color-model min-cut "
            "segmentation on every .ppm (P6) image and writes one binary "
            "PGM mask per image into --out; the JSON report goes to "
            "stdout or --report. The images are spread over the usable "
            "CPUs; the masks and the report do not depend on how many "
            "there are.", parents=(seed_parent,))
    p.add_argument("--in", dest="in_dir", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="DIR",
                   help="directory that receives the generated masks")
    # an iteration on a 128 x 128 image takes about 0.1 s and the energy
    # settles within a few dozen, so 10**4 is ample and stays finite
    p.add_argument("--iters", type=_bounded(int, 0, 10 ** 4), default=5,
                   help="refinement iterations, below 10**4 (default 5)")
    p.add_argument("--k", type=_bounded(int, 1), default=5,
                   help="mixture components per side (default 5)")
    p.add_argument("--lambda", dest="smoothness", type=_bounded(float, 0.0), default=50.0,
                   help="smoothness weight on neighbor disagreement (default 50)")
    p.add_argument("--open", type=_bounded(int, 0), default=1,
                   help="opening radius, 0 disables (default 1)")
    p.add_argument("--close", type=_bounded(int, 0), default=1,
                   help="closing radius, 0 disables (default 1)")
    p.add_argument("--close-first", action="store_true",
                   help="apply closing before opening")
    p.add_argument("--report", dest="report_path", metavar="PATH", default=None,
                   help="write the JSON report here (default stdout)")

    add("demo", _cmd_demo, "end-to-end pipeline walk on synthetic blobs",
        "Generates four well-separated Gaussian classes plus a disjoint "
        "out-of-distribution blob, then runs split, nested "
        "cross-validation, a final fit, all three detectors, detector "
        "metrics, an abstention sweep, and a paired significance test, "
        "emitting one consolidated report.")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, writes = args.func(args)
        text = render_json({"schema_version": SCHEMA_VERSION, "command": args.command,
                            "seed": args.seed, "report": report}) + "\n"
        for write in writes:
            write()
        if args.report_path:
            Path(args.report_path).write_text(text)
        else:
            sys.stdout.write(text)
    except UsageError as exc:
        print(f"freshkit {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (InputFormatError, EmptyInput, OSError) as exc:
        print(f"freshkit {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 2
    except ComputeError as exc:
        print(f"freshkit {args.command}: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy raises a private subclass; name the public type
        print(f"freshkit {args.command}: MemoryError: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

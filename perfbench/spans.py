"""In-memory span recorder for the traced pass, and its aggregation.

The recorder wraps public freshkit functions from outside the package: each
wrapper is bound in every freshkit module namespace that holds the original
object (cli does `from .pseudomask import grabcut`, so patching pseudomask
alone would miss the CLI's call). Spans carry their parent's id and stay in
memory until the process ends; then they are written out as JSONL.

A layer's self time is its span's duration minus the part of that interval
its child spans cover. Hot leaves are counted, not timed, because a timer
around a sub-microsecond call would distort the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# (metric prefix, module, attribute path, mode)
#   span      calls and self time
#   busy      calls, self time and busy time (including traced children)
#   count     calls only
#   outermost like span, but recursive calls inside an open span are not timed
LAYERS = (
    ("maxflow.FlowGraph.max_flow", "maxflow", "FlowGraph.max_flow", "span"),
    ("maxflow.FlowGraph.source_side", "maxflow", "FlowGraph.source_side", "span"),
    ("maxflow.FlowGraph.add_edge", "maxflow", "FlowGraph.add_edge", "count"),
    ("pseudomask.grabcut", "pseudomask", "grabcut", "busy"),
    ("pseudomask.solve_cut", "pseudomask", "solve_cut", "busy"),
    ("pseudomask.build_cut_problem", "pseudomask", "build_cut_problem", "span"),
    ("pseudomask.rgb_to_lab", "pseudomask", "rgb_to_lab", "span"),
    ("pseudomask.fit_gmm", "pseudomask", "fit_gmm", "span"),
    ("pseudomask.gmm_nll", "pseudomask", "gmm_nll", "span"),
    ("pseudomask.cut_energy", "pseudomask", "cut_energy", "span"),
    ("pseudomask.morph_open", "pseudomask", "morph_open", "span"),
    ("pseudomask.morph_close", "pseudomask", "morph_close", "span"),
    ("tiny_model.train", "tiny_model", "train", "busy"),
    ("tiny_model.grads_from_targets", "tiny_model", "grads_from_targets", "span"),
    ("tiny_model.forward", "tiny_model", "forward", "span"),
    ("tiny_model.nll_input_gradient", "tiny_model", "nll_input_gradient", "span"),
    ("tiny_model.init_model", "tiny_model", "init_model", "span"),
    ("tiny_model.TinyClassifier", "tiny_model", "TinyClassifier.__init__", "count"),
    ("hygiene.nested_cv_run", "hygiene", "nested_cv_run", "busy"),
    ("hygiene.inner_select", "hygiene", "inner_select", "busy"),
    ("hygiene.nested_fold_plan", "hygiene", "nested_fold_plan", "span"),
    ("hygiene.audit_fold_plan", "hygiene", "audit_fold_plan", "span"),
    ("hygiene.stratified_split", "hygiene", "stratified_split", "span"),
    ("hygiene.phash64", "hygiene", "phash64", "span"),
    ("hygiene.cluster_near_duplicates", "hygiene", "cluster_near_duplicates", "busy"),
    ("hygiene.hamming", "hygiene", "hamming", "count"),
    ("scoring.odin_score", "scoring", "odin_score", "busy"),
    ("scoring.msp_score", "scoring", "msp_score", "span"),
    ("scoring.energy_score", "scoring", "energy_score", "span"),
    ("ood_eval.ood_metrics", "ood_eval", "ood_metrics", "span"),
    ("ood_eval.threshold_sweep", "ood_eval", "threshold_sweep", "span"),
    ("stats.percentile_bootstrap", "stats", "percentile_bootstrap", "span"),
    ("stats.mcnemar", "stats", "mcnemar", "span"),
    ("stats.paired_acc_diff_ci", "stats", "paired_acc_diff_ci", "span"),
    ("cls_eval.confusion", "cls_eval", "confusion", "span"),
    ("cls_eval.prf_report", "cls_eval", "prf_report", "span"),
    ("cls_eval.cross_entropy", "cls_eval", "cross_entropy", "span"),
    ("seg_eval.mask_metrics", "seg_eval", "mask_metrics", "span"),
    ("seg_eval.dataset_summary", "seg_eval", "dataset_summary", "span"),
    ("data_model.read_ppm", "data_model", "read_ppm", "span"),
    ("data_model.read_pgm", "data_model", "read_pgm", "span"),
    ("data_model.write_pgm", "data_model", "write_pgm", "span"),
    ("data_model.read_logit_csv", "data_model", "read_logit_csv", "span"),
    ("data_model.read_feature_csv", "data_model", "read_feature_csv", "span"),
    ("data_model.write_logit_csv", "data_model", "write_logit_csv", "span"),
    ("cli.main", "cli", "main", "busy"),
    ("cli.render_json", "cli", "render_json", "outermost"),
    ("demo.run_demo", "demo", "run_demo", "busy"),
)

# name -> (factor, numerator, base); every ratio is reported with its base
RATIOS = {
    # add_edge adds an arc and its reverse
    "maxflow.arcs_per_cut": (2, "maxflow.FlowGraph.add_edge.calls", "maxflow.FlowGraph.max_flow.calls"),
    "pseudomask.lab_per_image": (1, "pseudomask.rgb_to_lab.calls", "pseudomask.grabcut.calls"),
    "pseudomask.nll_per_fit": (1, "pseudomask.gmm_nll.calls", "pseudomask.fit_gmm.calls"),
    "tiny_model.models_per_step": (1, "tiny_model.TinyClassifier.calls", "tiny_model.grads_from_targets.calls"),
    "hygiene.pairs_per_hash": (1, "hygiene.hamming.calls", "hygiene.phash64.calls"),
    # one odin_score call scores one row under one (T, eps) setting
    "scoring.grads_per_row": (1, "tiny_model.nll_input_gradient.calls", "scoring.odin_score.calls"),
}

SUBCOMMANDS = ("pseudomask", "seg-eval", "nested-cv", "demo", "dedup", "score",
               "ood-eval", "sweep", "cls-eval", "mcnemar", "bootstrap", "split", "folds")


class Recorder:
    """Spans as (id, parent, name, start, end) plus plain call counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = [-1]
        self._open: dict[str, int] = defaultdict(int)
        self._next_id = 0

    def wrap(self, func, name: str, mode: str):
        if mode == "count":
            counts = self.counts

            @functools.wraps(func)
            def counted(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return counted

        @functools.wraps(func)
        def timed(*args, **kwargs):
            if mode == "outermost" and self._open[name]:
                return func(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            self._open[name] += 1
            start = self.clock()
            try:
                return func(*args, **kwargs)
            finally:
                end = self.clock()
                self._open[name] -= 1
                self._stack.pop()
                self.spans.append((span_id, parent, name, start, end))
        return timed

    def install(self, package: str = "freshkit") -> None:
        """Wrap every LAYERS entry wherever a freshkit module binds it."""
        importlib.import_module(f"{package}.cli")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for name, module, attr, mode in LAYERS:
            owner = importlib.import_module(f"{package}.{module}")
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self.wrap(original, name, mode)
            if outer:  # a method: the class is shared by every namespace
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write_jsonl(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"kind": "process", **meta}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"kind": "span", "id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end}) + "\n")
            fh.write(json.dumps({"kind": "counts", "counts": dict(self.counts)}) + "\n")


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """span id -> duration minus the part of its interval its children cover."""
    by_id = {s[0]: s for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span_id, parent, _, start, end in spans:
        if parent in by_id:
            p_start, p_end = by_id[parent][3], by_id[parent][4]
            children[parent].append((max(start, p_start), min(end, p_end)))
    return {span_id: (end - start) - _covered(children[span_id])
            for span_id, _, _, start, end in spans}


def read_jsonl(path):
    """(meta, spans, counts) of one traced process."""
    meta, spans, counts = {}, [], {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["kind"] == "process":
                meta = rec
            elif rec["kind"] == "span":
                spans.append((rec["id"], rec["parent"], rec["name"], rec["start"], rec["end"]))
            else:
                counts = rec["counts"]
    return meta, spans, counts


def per_layer(processes) -> tuple[dict[str, float], dict[str, dict]]:
    """Aggregate traced processes into per-layer metrics.

    Returns (metrics, ratios): metrics maps each per-layer metric name to its
    value; ratios maps each ratio name to its numerator, base and value.
    """
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    busy_s: dict[str, float] = defaultdict(float)
    main_by_sub: dict[str, float] = defaultdict(float)
    for meta, spans, counts in processes:
        selfs = self_times(spans)
        for span_id, _, name, start, end in spans:
            calls[name] += 1
            self_s[name] += selfs[span_id]
            busy_s[name] += end - start
            if name == "cli.main":
                main_by_sub[meta.get("subcommand", "")] += end - start
        for name, n in counts.items():
            calls[name] += n

    metrics: dict[str, float] = {}
    for name, _, _, mode in LAYERS:
        metrics[f"{name}.calls"] = calls[name]
        if mode != "count":
            metrics[f"{name}.self_s"] = self_s[name]
        if mode == "busy":
            metrics[f"{name}.busy_s"] = busy_s[name]
    for sub in SUBCOMMANDS:
        metrics[f"cli.main.{sub}.busy_s"] = main_by_sub[sub]

    ratios = {}
    for name, (factor, num, base) in RATIOS.items():
        top = factor * metrics[num]
        bottom = metrics[base]
        value = top / bottom if bottom else 0.0
        ratios[name] = {"numerator": top, "base": bottom, "base_name": base, "value": value}
        metrics[name] = value
    return metrics, ratios

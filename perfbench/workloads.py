"""The three workloads: their CLI command lists and their output checks.

Each command is one `freshkit` subcommand run as its own process. `{in}` is
the generated input directory and `{out}` a fresh directory per pass. The
files a command writes besides its report are listed as its outputs, so they
join the byte comparison between passes.

A check looks at the parsed reports of one pass and returns, for each command
index whose output is wrong, the reason; it also returns the workload's
quality figure.
"""
from __future__ import annotations

from dataclasses import dataclass
from statistics import fmean

import gen

SMOOTH_IOU_FLOOR = 0.95  # acceptance criterion 07's bar


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()  # paths under {out} this command writes

    def resolve(self, in_dir, out_dir) -> list[str]:
        return [a.replace("{in}", str(in_dir)).replace("{out}", str(out_dir))
                for a in self.argv]


def masks_commands(planted: dict) -> list[Command]:
    seed = str(planted["program_seed"])
    return [
        Command(("pseudomask", "--in", "{in}/trays", "--out", "{out}/masks", "--seed", seed),
                outputs=("masks",)),
        Command(("seg-eval", "--pred", "{out}/masks", "--gt", "{in}/truth",
                 "--classes", "{in}/classes.csv", "--seed", seed)),
    ]


def check_masks(planted: dict, reports: list[dict]) -> tuple[dict[int, str], float, str]:
    classes = planted["classes"]
    problems = {}
    for row in reports[0]["images"]:
        if row["degenerate"] != (classes[row["id"]] == "uniform"):
            problems.setdefault(0, f"tray {row['id']}: degenerate={row['degenerate']}")
    ious = {row["id"]: row["iou"] for row in reports[1]["per_image"]}
    for stem, iou in ious.items():
        if classes[stem] == "smooth" and iou < SMOOTH_IOU_FLOOR:
            problems.setdefault(0, f"smooth tray {stem}: IoU {iou:.4f} < {SMOOTH_IOU_FLOOR}")
    # the uniform tray has no object, so its box-interior mask scores 0 by design
    quality = fmean(iou for stem, iou in ious.items() if classes[stem] != "uniform")
    return problems, quality, "mask_iou"


def select_commands(planted: dict) -> list[Command]:
    seed = str(planted["program_seed"])
    return [
        # default grid shape (2x2x2 stage 1, 2x2x2 stage 2, 5x3 folds, mixup on);
        # head rates high enough that 20 epochs learn the blobs
        Command(("nested-cv", "--data", "{in}/features.csv", "--head-lrs", "0.05,0.1",
                 "--seed", seed)),
        Command(("demo", "--seed", seed)),
    ]


def check_select(planted: dict, reports: list[dict]) -> tuple[dict[int, str], float, str]:
    problems = {}
    if not reports[0]["audit_passed"]:
        problems[0] = "nested-cv fold audit failed"
    if not reports[1]["nested_cv"]["audit_passed"]:
        problems[1] = "demo fold audit failed"
    return problems, reports[0]["mean_accuracy"], "cv_accuracy"


def screen_commands(planted: dict) -> list[Command]:
    seed = str(planted["program_seed"])
    return [
        Command(("dedup", "--images", "{in}/images", "--max-dist", str(gen.MAX_DIST))),
        Command(("score", "--method", "odin", "--logits", "{in}/features.csv", "--prefix", "x",
                 "--model", "{in}/model.json", "--scores-out", "{out}/odin.csv"),
                outputs=("odin.csv",)),
        Command(("ood-eval", "--scores", "{out}/odin.csv")),
        Command(("sweep", "--scores", "{out}/odin.csv")),
        Command(("score", "--method", "msp", "--logits", "{in}/preds_a.csv",
                 "--scores-out", "{out}/msp.csv"), outputs=("msp.csv",)),
        Command(("cls-eval", "--logits", "{in}/preds_a.csv")),
        Command(("mcnemar", "--pred-a", "{in}/preds_a.csv", "--pred-b", "{in}/preds_b.csv")),
        Command(("bootstrap", "--values", "{in}/values.txt", "--stat", "median",
                 "--b", "4000", "--seed", seed)),
        Command(("split", "--labels", "{in}/labeled.csv", "--seed", seed)),
        Command(("folds", "--labels", "{in}/labeled.csv", "--seed", seed)),
    ]


def check_screen(planted: dict, reports: list[dict]) -> tuple[dict[int, str], float, str]:
    problems = {}
    if reports[0]["clusters"] != planted["clusters"]:
        problems[0] = "dedup clusters differ from the planted clusters"
    if reports[1]["mode"] != "grid":
        problems[1] = "odin scoring did not tune over the grid"
    split = reports[8]
    if sum(split["counts"].values()) != split["n"]:
        problems[8] = "split counts do not add up to n"
    if not reports[9]["audit_passed"]:
        problems[9] = "fold audit failed"
    return problems, reports[2]["auroc"], "odin_auroc"


WORKLOADS = {
    "masks": (masks_commands, check_masks),
    "select": (select_commands, check_select),
    "screen": (screen_commands, check_screen),
}

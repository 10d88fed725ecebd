"""Self-tests of the benchmark itself.

Run from the root of a freshkit checkout:

    python3 perfbench/selftest.py

They check that the input generator is deterministic, that self-time
arithmetic is right on a synthetic span nesting, and that a traced pass
leaves every report and mask byte-identical on the smallest inputs. The file
name keeps them out of the package's own pytest collection; pass the path to
pytest explicitly to run them there instead.
"""
from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {
    "masks": {"trays": (("smooth_32", gen.smooth_ellipse, 32, "smooth"),
                        ("textured_32", gen.textured_blobs, 32, "textured"),
                        ("uniform_32", gen.uniform_tray, 32, "uniform"))},
    "select": {"n_per_class": 15},
    "screen": {"n_images": 40, "n_id": 40, "n_ood": 12, "n_logits": 30, "n_values": 30},
}


def _scratch() -> tempfile.TemporaryDirectory:
    base = HERE / ".work"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload, sizes in SMALL.items():
            with self.subTest(workload=workload), _scratch() as tmp:
                tmp = Path(tmp)
                first = gen.generate(workload, tmp / "a", 7, **sizes)
                again = gen.generate(workload, tmp / "b", 7, **sizes)
                other = gen.generate(workload, tmp / "c", 8, **sizes)
                self.assertEqual(_tree_digest(tmp / "a"), _tree_digest(tmp / "b"))
                self.assertEqual(first, again)
                self.assertNotEqual(_tree_digest(tmp / "a"), _tree_digest(tmp / "c"))

    def test_planted_clusters_include_chain_and_threshold_pairs(self):
        rng = gen.np.random.default_rng(3)
        groups = gen._plant_clusters(rng, 50)
        chain = groups[0]
        self.assertEqual(bin(gen._hash_of(chain[0]) ^ gen._hash_of(chain[1])).count("1"), 8)
        self.assertEqual(bin(gen._hash_of(chain[1]) ^ gen._hash_of(chain[2])).count("1"), 8)
        self.assertEqual(bin(gen._hash_of(chain[0]) ^ gen._hash_of(chain[2])).count("1"), 16)
        pair = groups[1]
        self.assertEqual(bin(gen._hash_of(pair[0]) ^ gen._hash_of(pair[1])).count("1"),
                         gen.MAX_DIST)
        near_miss = bin(gen._hash_of(groups[2][0]) ^ gen._hash_of(groups[3][0])).count("1")
        self.assertEqual(near_miss, gen.MAX_DIST + 2)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_covered_child_intervals(self):
        # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7]
        nesting = [(0, -1, "A", 0.0, 10.0), (1, 0, "B", 1.0, 4.0),
                   (2, 0, "C", 5.0, 9.0), (3, 2, "D", 6.0, 7.0)]
        self.assertEqual(spans.self_times(nesting), {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0})

    def test_overlapping_children_count_once(self):
        nesting = [(0, -1, "A", 0.0, 10.0), (1, 0, "B", 2.0, 6.0), (2, 0, "C", 4.0, 8.0)]
        self.assertEqual(spans.self_times(nesting)[0], 4.0)

    def test_recorder_nests_spans_and_keeps_recursion_outermost(self):
        ticks = iter(range(100))
        rec = spans.Recorder(clock=lambda: float(next(ticks)))

        def leaf():
            return 1

        def render(depth):
            return depth if depth == 0 else render_w(depth - 1)

        leaf_w = rec.wrap(leaf, "leaf", "count")
        render_w = rec.wrap(render, "render", "outermost")
        outer_w = rec.wrap(lambda: leaf_w() + render_w(3), "outer", "busy")
        outer_w()
        names = {s[2]: s for s in rec.spans}
        self.assertEqual(sorted(names), ["outer", "render"])
        self.assertEqual(names["render"][1], names["outer"][0])
        self.assertEqual(rec.counts["leaf"], 1)
        selfs = spans.self_times(rec.spans)
        outer = names["outer"]
        render_span = names["render"]
        self.assertEqual(selfs[outer[0]], (outer[4] - outer[3]) - (render_span[4] - render_span[3]))


class TracedPassTest(unittest.TestCase):
    """Traced and untraced passes agree byte for byte on the smallest inputs."""

    def _passes(self, workload: str):
        schema = json.loads((ROOT / "docs" / "report.schema.json").read_text())
        validator = run.jsonschema_validator(schema)
        with _scratch() as tmp:
            tmp = Path(tmp)
            planted = gen.generate(workload, tmp / "in", 5, **SMALL[workload])
            commands = WORKLOADS[workload][0](planted)
            runner = run.Runner(ROOT, tmp, time.perf_counter() + 170.0, validator)
            plain = run.run_pass(runner, commands, tmp / "in", tmp / "plain", traced=False)
            traced = run.run_pass(runner, commands, tmp / "in", tmp / "traced", traced=True)
            processes = [spans.read_jsonl(tmp / "traced" / f"cmd{i}.jsonl")
                         for i in range(len(commands))]
            for i, child in enumerate(plain.children):
                self.assertIsNotNone(runner.report(child, tmp / "plain" / f"cmd{i}"),
                                     runner.failures)
        return plain, traced, spans.per_layer(processes)[0]

    def test_traced_outputs_identical_and_min_cut_only_on_masks(self):
        min_cut = [name for name in spans.per_layer([])[0]
                   if name.endswith(".calls") and name.split(".")[0] in ("maxflow", "pseudomask")]
        for workload in SMALL:
            with self.subTest(workload=workload):
                plain, traced, metrics = self._passes(workload)
                self.assertEqual([c.code for c in traced.children], [0] * len(traced.children))
                self.assertEqual(plain.digests, traced.digests)
                counts = [metrics[name] for name in min_cut]
                if workload == "masks":
                    self.assertTrue(all(counts), dict(zip(min_cut, counts)))
                else:
                    self.assertFalse(any(counts), dict(zip(min_cut, counts)))


if __name__ == "__main__":
    unittest.main()

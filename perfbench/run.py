"""freshkit benchmark: CLI workloads timed end to end, plus a traced pass.

Usage, from the root of a freshkit checkout:

    python3 perfbench/run.py --workload {masks,select,screen} --seed N \
        --seconds S --trace {0,1}

The run generates the workload's inputs from the seed, then repeats passes
over the workload's command list for S seconds (at least two passes). Every
command is a `freshkit` subprocess started like the console script, one at a
time in a closed loop with one client; each child's wall time comes from
perf_counter and its CPU time and max-RSS from os.wait4. Every output is
checked (exit code, report schema, byte equality between passes, planted
truth), and a wrong output counts as a failed invocation. Between passes the
run times the trivial `mcnemar` call (setup_s), each followed by a probe.

The probe is a child that starts the interpreter and imports numpy and the
standard modules freshkit uses, without importing freshkit, so no change to
the program can move it. On a 2-vCPU virtual machine (Intel Xeon) the speed
drifted by up to 1.7x over minutes, and every child's time drifted with it.
So the gated times are in reference seconds: the raw median times PROBE_REF_S
over the probe's median in the same run. The raw seconds are kept in the full
result.

With --trace 1 a further pass runs every command under the span recorder
(spans.py) and the run reports the per-layer metrics instead of the
end-to-end ones; the traced outputs must be byte-identical to the untraced.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. The full result, with the environment block, sample counts, ratio
bases and output digests, goes to perfbench/.work/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
import spans
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ENTRY = "import sys; from freshkit.cli import main; sys.exit(main())"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = "1"  # one child at a time, one thread each: no oversubscription
SETUP_FIRST = 3  # timed set-up calls before the first pass
SETUP_PER_PASS = 2  # and after each pass
MIN_PASSES = 2
RUN_DEADLINE_S = 160.0  # children still running then are killed and count as failed

UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s",
         "quality": "ratio"}

PROBE = "import argparse, csv, dataclasses, enum, json, math, pathlib, numpy"
PROBE_REF_S = 0.1  # the probe's time on the reference machine


@dataclass
class Child:
    argv: list[str]
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes


@dataclass
class Pass:
    children: list[Child]
    digests: list[str]

    @property
    def wall(self) -> float:
        return sum(c.wall for c in self.children)

    @property
    def cpu(self) -> float:
        return sum(c.cpu for c in self.children)

    @property
    def peak_rss_mb(self) -> float:
        return max(c.rss_mb for c in self.children)


@dataclass
class Runner:
    root: Path
    work: Path
    deadline: float
    validator: object
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def env(self) -> dict[str, str]:
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env.update({name: BLAS_THREADS for name in BLAS_VARS})
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = "0"
        env["TMPDIR"] = str(self.work)
        return env

    def spawn(self, argv: list[str], stem: Path, spans: Path | None = None) -> Child:
        """Run one freshkit call; stdout and stderr go to stem.stdout/.stderr."""
        if spans is None:
            cmd = [sys.executable, "-c", ENTRY, *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_child.py"), str(spans), stem.name, "--", *argv]
        self.attempted += 1
        return self.wait(cmd, argv, stem)

    def probe(self, stem: Path) -> Child:
        child = self.wait([sys.executable, "-c", PROBE], ["probe"], stem)
        if child.code != 0:
            raise RuntimeError(f"the probe exited with code {child.code}")
        return child

    def wait(self, cmd: list[str], argv: list[str], stem: Path) -> Child:
        with open(f"{stem}.stdout", "wb") as out, open(f"{stem}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    cwd=self.root, env=self.env())
            timer = threading.Timer(max(0.1, self.deadline - start), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
        return Child(argv, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode, Path(f"{stem}.stdout").read_bytes())

    def report(self, child: Child, stem: Path) -> dict | None:
        """The child's report if it exited 0 with a valid envelope, else None."""
        if child.code != 0:
            err = Path(f"{stem}.stderr").read_text(errors="replace").strip()[-300:]
            self.failures.append(f"{child.argv[0]}: exit {child.code}: {err}")
            return None
        try:
            envelope = json.loads(child.stdout)
        except ValueError as exc:
            self.failures.append(f"{child.argv[0]}: report is not JSON: {exc}")
            return None
        errors = sorted(self.validator.iter_errors(envelope), key=str)
        if errors:
            self.failures.append(f"{child.argv[0]}: schema: {errors[0].message[:200]}")
            return None
        if envelope["command"] != child.argv[0]:
            self.failures.append(f"{child.argv[0]}: envelope names {envelope['command']!r}")
            return None
        return envelope["report"]


def digest(stdout: bytes, paths: list[Path]) -> str:
    """sha256 over a report and the files a command wrote."""
    h = hashlib.sha256(stdout)
    for path in paths:
        files = sorted(path.iterdir()) if path.is_dir() else [path]
        for f in files:
            h.update(f.name.encode() + b"\0" + hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def run_pass(runner: Runner, commands, in_dir: Path, out_dir: Path, traced: bool) -> Pass:
    out_dir.mkdir()
    children, digests = [], []
    for i, command in enumerate(commands):
        stem = out_dir / f"cmd{i}"
        spans = out_dir / f"cmd{i}.jsonl" if traced else None
        child = runner.spawn(command.resolve(in_dir, out_dir), stem, spans)
        children.append(child)
    for command, child in zip(commands, children):
        digests.append(digest(child.stdout, [out_dir / o for o in command.outputs
                                             if (out_dir / o).exists()]))
    return Pass(children, digests)


def environment(root: Path) -> dict:
    import numpy
    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_env": {name: BLAS_THREADS for name in BLAS_VARS},
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def jsonschema_validator(schema: dict):
    import jsonschema
    return jsonschema.validators.validator_for(schema)(schema)


def setup_argv(seed: int) -> list[str]:
    import numpy as np
    n11, n10, n01 = np.random.default_rng([0, seed]).integers([600, 5, 5], [900, 60, 60])
    return ["mcnemar", "--n11", str(n11), "--n10", str(n10), "--n01", str(n01), "--n00", "40"]


def measure(root: Path, work: Path, workload: str, seed: int, seconds: float,
            spans_out: Path | None) -> dict:
    """One run; with spans_out set, also a traced pass whose spans go there."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    schema = json.loads((root / "docs" / "report.schema.json").read_text())
    runner = Runner(root, work, deadline, jsonschema_validator(schema))

    in_dir = work / "in"
    planted = gen.generate(workload, in_dir, seed)
    make_commands, check = WORKLOADS[workload]
    commands = make_commands(planted)

    calls_dir = work / "setup"
    calls_dir.mkdir()
    setup_walls: list[float] = []
    probes: list[Child] = []

    def setup_call(timed: bool = True) -> int:
        """One trivial call and one probe; returns 1 when the call failed."""
        stem = calls_dir / f"call{runner.attempted}"
        child = runner.spawn(setup_argv(seed), stem)
        probe = runner.probe(Path(f"{stem}-probe"))
        if runner.report(child, stem) is None:
            return 1
        if timed:
            setup_walls.append(child.wall)
            probes.append(probe)
        return 0

    # the warm-up call fills the file and bytecode caches and is not timed;
    # later set-up calls are spread between passes so they sample the whole run
    failed = setup_call(timed=False)
    passes: list[Pass] = []
    bad: set[int] = set()  # commands whose output is wrong
    quality, quality_name = 0.0, ""
    start = time.perf_counter()
    failed += sum(setup_call() for _ in range(SETUP_FIRST))
    laps = []
    while True:
        lap_start = time.perf_counter()
        out_dir = work / f"pass{len(passes)}"
        p = run_pass(runner, commands, in_dir, out_dir, traced=False)
        if not passes:
            reports = [runner.report(c, out_dir / f"cmd{i}") for i, c in enumerate(p.children)]
            bad = {i for i, r in enumerate(reports) if r is None}
            if not bad:
                problems, quality, quality_name = check(planted, reports)
                bad.update(problems)
                runner.failures.extend(problems.values())
        else:
            for i, (child, d) in enumerate(zip(p.children, p.digests)):
                if child.code != 0 or d != passes[0].digests[i]:
                    bad.add(i)
                    runner.failures.append(f"{child.argv[0]}: pass {len(passes)} differs from pass 0")
        failed += sum(1 for i, child in enumerate(p.children)
                      if child.code != 0 or i in bad)
        passes.append(p)
        shutil.rmtree(out_dir)
        failed += sum(setup_call() for _ in range(SETUP_PER_PASS))
        now = time.perf_counter()
        laps.append(now - lap_start)
        typical = statistics.median(laps)
        if len(passes) >= MIN_PASSES and (now - start + typical > seconds
                                         or now + typical > deadline):
            break

    walls = [p.wall for p in passes]
    cpus = [p.cpu for p in passes]
    raw = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup_walls) if setup_walls else 0.0,
        "probe_wall_s": statistics.median(c.wall for c in probes),
        "probe_cpu_s": statistics.median(c.cpu for c in probes),
    }
    to_ref = PROBE_REF_S / raw["probe_wall_s"]
    result = {
        "workload": workload,
        "seed": seed,
        "program_seed": planted["program_seed"],
        "seconds": seconds,
        "trace": int(spans_out is not None),
        "environment": environment(root),
        "passes": len(passes),
        "samples": {
            "wall_s": walls,
            "cpu_s": cpus,
            "peak_rss_mb": [p.peak_rss_mb for p in passes],
            "setup_s": setup_walls,
            "probe_wall_s": [c.wall for c in probes],
            "probe_cpu_s": [c.cpu for c in probes],
            "per_command_wall_s": {
                f"{i}:{c.argv[0]}": [p.children[i].wall for p in passes]
                for i, c in enumerate(passes[0].children)},
        },
        "raw": raw,
        "end_to_end": {
            "wall_s": raw["wall_s"] * to_ref,
            "cpu_s": raw["cpu_s"] * PROBE_REF_S / raw["probe_cpu_s"],
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
            "setup_s": raw["setup_s"] * to_ref,
            "quality": quality,
        },
        "quality_figure": quality_name,
        "outputs_sha256": {
            "workload": hashlib.sha256("".join(passes[0].digests).encode()).hexdigest(),
            "per_command": passes[0].digests,
        },
    }

    if spans_out is not None:
        out_dir = work / "traced"
        p = run_pass(runner, commands, in_dir, out_dir, traced=True)
        for i, (child, d) in enumerate(zip(p.children, p.digests)):
            if child.code != 0 or d != passes[0].digests[i]:
                failed += 1
                runner.failures.append(f"{child.argv[0]}: traced output differs from untraced")
        span_files = [out_dir / f"cmd{i}.jsonl" for i in range(len(commands))
                      if (out_dir / f"cmd{i}.jsonl").exists()]
        processes = [spans.read_jsonl(f) for f in span_files]
        with open(spans_out, "wb") as fh:
            for f in span_files:
                fh.write(f.read_bytes())
        per_layer, ratios = spans.per_layer(processes)
        per_layer["trace.overhead_s"] = p.wall - raw["wall_s"]
        result["per_layer"] = per_layer
        result["ratios"] = ratios
        result["traced_wall_s"] = p.wall
        result["traced_outputs_identical"] = p.digests == passes[0].digests

    result["attempted"] = runner.attempted
    result["failed"] = failed
    result["failed_frac"] = failed / runner.attempted
    result["failures"] = runner.failures[:50]
    return result


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "count" if name.endswith(".calls") else "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("masks", "select", "screen"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/freshkit/cli.py", "docs/report.schema.json")
               if not (root / p).is_file()]
    if missing:
        print(f"run from the root of a freshkit checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    base = HERE / ".work"
    results_dir = base / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = results_dir / f"{args.workload}-seed{args.seed}"
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        result = measure(root, work, args.workload, args.seed, args.seconds,
                         Path(f"{stem}-spans.jsonl") if args.trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_path = Path(f"{stem}-trace{args.trace}.json")
    out_path.write_text(json.dumps(result, indent=1) + "\n")

    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in result["end_to_end"].items()}
    print(f"workload={args.workload} seed={args.seed} passes={result['passes']} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"({result['quality_figure']} is the quality figure)")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"full result: {os.path.relpath(out_path, root)}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""cli executes a freshkit module only when a subcommand first reads from it.

Importing cli registers every module of the package in sys.modules, so the
benchmark's traced pass still finds and wraps them all, but executes only
errors and data_model; each check runs in a fresh child process. A module is
counted as executed when its type is plain ModuleType: a module still waiting
to execute is a LazyLoader subclass, and testing the type reads no attribute,
so the check itself executes nothing.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import freshkit
from freshkit.data_model import BinaryMask, RgbImage, write_pgm, write_ppm
from freshkit.tiny_model import init_model, save_model

ROOT = Path(__file__).resolve().parents[1]
CLI = ROOT / "src" / "freshkit" / "cli.py"
SPANS = ROOT / "perfbench" / "spans.py"

SUBCOMMANDS = ("score", "ood-eval", "sweep", "cls-eval", "seg-eval", "mcnemar", "bootstrap",
               "dedup", "split", "folds", "nested-cv", "pseudomask", "demo")

EXECUTED = """
import types, sys
def executed():
    return sorted(key.partition(".")[2] for key, m in sys.modules.items()
                  if key.startswith("freshkit.") and type(m) is types.ModuleType)
"""


def _child(code: str, *args: str) -> str:
    src = str(Path(freshkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path, "COLUMNS": "80"})
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def _layer_modules() -> set[str]:
    """Modules named in LAYERS of perfbench/spans.py, read without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS":
            return {layer[1] for layer in ast.literal_eval(node.value)}
    raise AssertionError(f"{SPANS} defines no LAYERS")


def test_importing_cli_registers_every_traced_module_and_executes_only_its_own():
    out = _child(EXECUTED + """
import json
import freshkit, freshkit.cli
names = sys.argv[1:]
print(json.dumps({
    "bound": [n for n in names
              if sys.modules.get(f"freshkit.{n}") is vars(freshkit).get(n) is not None],
    "executed": executed(),
}))
""", *sorted(_layer_modules()))
    seen = json.loads(out)
    assert sorted(seen["bound"]) == sorted(_layer_modules())
    assert set(seen["executed"]) == {"cli", "errors", "data_model"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    rng = np.random.default_rng(5)
    logits = ["id,split,label,logit_0,logit_1,logit_2"]
    scores = ["id,split,label,score_0"]
    labeled = ["id,split,label,x_0,x_1"]
    for i in range(24):
        row = rng.normal(0.0, 1.0, 3)
        row[i % 3] += 2.0
        row = row.tolist()
        split = "ood" if i % 4 == 3 else "test"
        logits.append(f"r{i:02d},{split},{i % 3}," + ",".join(map(repr, row)))
        scores.append(f"r{i:02d},{split},,{max(row)!r}")
        labeled.append(f"r{i:02d},test,{i % 2},{row[0]!r},{row[1] + 3 * (i % 2)!r}")
    for name, lines in (("logits.csv", logits), ("scores.csv", scores),
                        ("labeled.csv", labeled)):
        (d / name).write_text("\n".join(lines) + "\n")
    (d / "values.txt").write_text("\n".join(map(repr, rng.normal(size=12).tolist())) + "\n")
    save_model(d / "model.json", init_model(2, 3, 2, seed=1))
    for sub in ("images", "pred", "gt"):
        (d / sub).mkdir()
    for i in range(2):
        write_ppm(d / "images" / f"i{i}.ppm",
                  RgbImage(rng.integers(0, 256, (16, 16, 3)).astype(np.uint8)))
        mask = np.zeros((8, 8), dtype=bool)
        mask[2:6, 2:6 + i] = True
        write_pgm(d / "pred" / f"m{i}.pgm", BinaryMask(mask))
        write_pgm(d / "gt" / f"m{i}.pgm", BinaryMask(mask.T.copy()))
    return d


SCREEN_SKIPS = {"pseudomask", "maxflow", "seg_eval", "demo"}
NO_MODEL = {"hygiene", "tiny_model"}
NO_OOD = {"ood_eval"}  # only ood-eval, sweep, score's odin grid and demo run it
NO_SHARES = {"shares"}  # only pseudomask, dedup, nested-cv and demo run it


# argv, modules the command must run, modules it must not run
CASES = [
    (["dedup", "--images", "{d}/images"], {"hygiene", "shares"}, SCREEN_SKIPS | NO_OOD),
    (["score", "--method", "msp", "--logits", "{d}/logits.csv"], {"scoring"},
     SCREEN_SKIPS | NO_MODEL | NO_OOD | NO_SHARES),
    (["score", "--method", "odin", "--logits", "{d}/labeled.csv", "--prefix", "x",
      "--model", "{d}/model.json", "--temperature", "10", "--epsilon", "0.001"],
     {"scoring", "tiny_model"}, SCREEN_SKIPS | NO_SHARES),
    (["ood-eval", "--scores", "{d}/scores.csv"], {"ood_eval"},
     SCREEN_SKIPS | NO_MODEL | NO_SHARES),
    (["sweep", "--scores", "{d}/scores.csv"], {"ood_eval"}, SCREEN_SKIPS | NO_MODEL | NO_SHARES),
    (["cls-eval", "--logits", "{d}/logits.csv"], {"cls_eval"},
     SCREEN_SKIPS | NO_OOD | NO_SHARES),
    (["mcnemar", "--pred-a", "{d}/logits.csv", "--pred-b", "{d}/logits.csv"], {"stats"},
     SCREEN_SKIPS | NO_MODEL | NO_OOD | NO_SHARES),
    (["mcnemar", "--n11", "5", "--n10", "1", "--n01", "2", "--n00", "1"], {"stats"},
     SCREEN_SKIPS | NO_MODEL | NO_OOD | NO_SHARES),
    (["bootstrap", "--values", "{d}/values.txt", "--b", "50"], {"stats"},
     SCREEN_SKIPS | NO_MODEL | NO_OOD | NO_SHARES),
    (["split", "--labels", "{d}/labeled.csv"], {"hygiene"},
     SCREEN_SKIPS | NO_OOD | {"tiny_model"} | NO_SHARES),
    (["folds", "--labels", "{d}/labeled.csv", "--outer", "2", "--inner", "2"], {"hygiene"},
     SCREEN_SKIPS | NO_OOD | {"tiny_model"} | NO_SHARES),
    (["seg-eval", "--pred", "{d}/pred", "--gt", "{d}/gt", "--boot", "20"], {"seg_eval"},
     NO_MODEL | NO_OOD | NO_SHARES),
    (["nested-cv", "--data", "{d}/labeled.csv", "--outer", "2", "--inner", "2",
      "--epochs", "1"], {"hygiene", "shares"}, {"pseudomask", "maxflow"} | NO_OOD),
    (["demo"], {"demo", "hygiene", "shares"}, {"pseudomask", "maxflow", "seg_eval"}),
]


@pytest.mark.parametrize("argv, runs, skips", CASES,
                         ids=[" ".join(argv[:3]) for argv, _, _ in CASES])
def test_subcommand_executes_only_its_own_modules(inputs, tmp_path, argv, runs, skips):
    out = _child(EXECUTED + """
import json
from freshkit.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, executed()]))
""", *[a.format(d=inputs) for a in argv], "--out", str(tmp_path / "report.json"))
    code, executed = json.loads(out)
    assert code == 0
    assert runs <= set(executed), f"{argv[0]} did not execute {sorted(runs - set(executed))}"
    assert not skips & set(executed), f"{argv[0]} executed {sorted(skips & set(executed))}"


def test_pseudomask_executes_its_modules_and_not_numpy_ma(inputs, tmp_path):
    out = _child(EXECUTED + """
import json
from freshkit.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, executed(), "numpy.ma" in sys.modules]))
""", "pseudomask", "--in", f"{inputs}/images", "--out", str(tmp_path / "masks"),
                 "--iters", "1", "--k", "2", "--report", str(tmp_path / "report.json"))
    code, executed, numpy_ma = json.loads(out)
    assert code == 0
    assert {"pseudomask", "maxflow", "shares"} <= set(executed)
    assert not {"demo", "seg_eval", "hygiene", "ood_eval", "tiny_model", "scoring"} & set(executed)
    assert not numpy_ma


NUMPY_MA = """
import json, sys
import numpy
def numpy_ma():
    return sorted(key for key in sys.modules if key == "numpy.ma" or key.startswith("numpy.ma."))
before = numpy_ma()  # what import numpy loads, which may differ by numpy version
from freshkit.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(set(numpy_ma()) - set(before))]))
"""


@pytest.mark.parametrize("argv", [
    ["split", "--labels", "{d}/labeled.csv"],
    ["folds", "--labels", "{d}/labeled.csv", "--outer", "2", "--inner", "2"],
    ["nested-cv", "--data", "{d}/labeled.csv", "--outer", "2", "--inner", "2", "--epochs", "1"],
    ["demo"],
], ids=lambda argv: argv[0])
def test_hygiene_commands_do_not_import_numpy_ma(inputs, tmp_path, argv):
    # under numpy 2.4 a plain np.unique imports numpy.ma, at a cost to every such process
    out = _child(NUMPY_MA, *[a.format(d=inputs) for a in argv],
                 "--out", str(tmp_path / "report.json"))
    assert json.loads(out) == [0, []]


SPY = EXECUTED + """
import json, os
os.sched_getaffinity = lambda pid: {0, 1}
from freshkit import shares
from freshkit.cli import main
fork = shares.map_shares
seen = []

def spy(func, sizes):
    seen.append(executed())
    return fork(func, sizes)

shares.map_shares = spy  # hygiene binds it when it executes, after this
code = main(sys.argv[1:])
print(json.dumps([code, seen]))
"""

# argv, modules that must have executed before every fork
FORKS = [
    (["pseudomask", "--in", "{d}/images", "--out", "{tmp}/masks", "--iters", "1", "--k", "2",
      "--report", "{tmp}/report.json"], {"pseudomask", "maxflow"}),
    (["dedup", "--images", "{d}/images", "--out", "{tmp}/report.json"], {"hygiene"}),
    (["nested-cv", "--data", "{d}/labeled.csv", "--outer", "2", "--inner", "2", "--epochs", "1",
      "--out", "{tmp}/report.json"], {"hygiene", "tiny_model"}),
    (["demo", "--out", "{tmp}/report.json"], {"hygiene", "tiny_model"}),
]


@pytest.mark.parametrize("argv, modules", FORKS, ids=[argv[0] for argv, _ in FORKS])
def test_modules_execute_before_the_fork(inputs, tmp_path, argv, modules):
    # two usable CPUs, so every call shares its work with one forked helper
    out = _child(SPY, *[a.format(d=inputs, tmp=tmp_path) for a in argv])
    code, seen = json.loads(out)
    assert code == 0 and seen
    for executed in seen:
        missing = sorted(modules - set(executed))
        assert not missing, f"{argv[0]} forked before executing {missing}"


HELP = """
import contextlib, importlib, io, json, pkgutil, sys
import freshkit
if sys.argv[1] == "eager":  # cli last, so it finds every module executed
    for name in sorted((m.name for m in pkgutil.iter_modules(freshkit.__path__)),
                       key=lambda name: name == "cli"):
        importlib.import_module(f"freshkit.{name}")
from freshkit.cli import main
texts = []
for argv in [[]] + [[sub] for sub in sys.argv[2:]]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.suppress(SystemExit):
        main([*argv, "--help"])
    texts.append(out.getvalue())
print(json.dumps(texts))
"""


def test_help_is_the_same_whether_modules_load_lazily_or_eagerly():
    lazy = json.loads(_child(HELP, "lazy", *SUBCOMMANDS))
    eager = json.loads(_child(HELP, "eager", *SUBCOMMANDS))
    assert len(lazy) == len(SUBCOMMANDS) + 1
    assert all(text.startswith("usage: freshkit") for text in lazy)
    assert lazy == eager


# A numpy-free package, so the check runs on any interpreter; cli's _lazy is
# taken from its source and bound to the toy package.
TOY = """
import ast, importlib.util, sys, types
cli_path, root = sys.argv[1:]
sys.path.insert(0, root)
node = next(n for n in ast.parse(open(cli_path).read()).body
            if isinstance(n, ast.FunctionDef) and n.name == "_lazy")
scope = {"__package__": "toy", "sys": sys, "importlib": importlib}
exec(compile(ast.Module([node], []), cli_path, "exec"), scope)
_lazy = scope["_lazy"]
import toy

a = _lazy("a")
assert sys.modules["toy.a"] is a and toy.a is a and _lazy("a") is a
assert type(a) is not types.ModuleType and toy.log == []
assert vars(a)["VALUE"] == 1 and toy.log == ["a"]  # vars() executes a lazy module
assert type(a) is types.ModuleType and sys.modules["toy.a"] is a

b = _lazy("b")
from toy.b import TWICE  # a from-import executes it, and b's own from-import of a
assert TWICE == 2 and toy.log == ["a", "b"] and type(b) is types.ModuleType

import toy.c
assert _lazy("c") is toy.c and type(toy.c) is types.ModuleType and toy.log == ["a", "b", "c"]
print("ok")
"""


def test_lazy_helper_on_a_package_without_numpy(tmp_path):
    toy = tmp_path / "toy"
    toy.mkdir()
    (toy / "__init__.py").write_text("log = []\n")
    (toy / "a.py").write_text("from . import log\nlog.append('a')\nVALUE = 1\n")
    (toy / "b.py").write_text("from . import log\nfrom .a import VALUE\nlog.append('b')\n"
                              "TWICE = 2 * VALUE\n")
    (toy / "c.py").write_text("from . import log\nlog.append('c')\n")
    assert _child(TOY, str(CLI), str(tmp_path)) == "ok\n"

"""The benchmark's traced pass names package functions by module and attribute
path; a layer renamed or deleted in the package must fail here, not only when
perfbench/selftest.py runs."""
import ast
import importlib
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    """LAYERS of perfbench/spans.py, read as a literal without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} defines no LAYERS")


@pytest.mark.parametrize("name, module, path", [pytest.param(*layer[:3], id=layer[0])
                                                for layer in _layers()])
def test_every_traced_layer_resolves_on_the_package(name, module, path):
    owner = importlib.import_module(f"freshkit.{module}")
    for part in path.split("."):
        assert hasattr(owner, part), f"{name}: freshkit.{module} has no {path}"
        owner = getattr(owner, part)
    assert callable(owner)

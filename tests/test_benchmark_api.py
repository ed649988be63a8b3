"""The package names that the benchmark in ``perfbench/`` reaches still resolve.

The tier-1 suite does not run ``perfbench/tests``, so without this guard a
change could rename or delete a name the benchmark calls and no test here
would fail. Checked: every ``cloiseg.<attr path>`` written in
``perfbench/*.py``, and every name that ``perfbench/tracing.py`` wraps
(``TRACED``: a function of a module, or a method defined on a class).
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import cloiseg

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_REFERENCE = re.compile(r"\bcloiseg(?:\.[A-Za-z_]\w*)+")


def _resolve(dotted: str):
    """The object at ``dotted`` (``cloiseg.a.b``), importing submodules on the way."""
    obj, name = cloiseg, "cloiseg"
    for attr in dotted.split(".")[1:]:
        name += f".{attr}"
        if not hasattr(obj, attr):  # a submodule that is not imported yet
            importlib.import_module(name)
        obj = getattr(obj, attr)
    return obj


def _references() -> list[str]:
    return sorted({m[0] for f in PERFBENCH.glob("*.py") for m in _REFERENCE.finditer(f.read_text())})


def _traced() -> list[str]:
    """The names in ``TRACED``, read from the source without running it."""
    module = ast.parse((PERFBENCH / "tracing.py").read_text())
    traced, = (ast.literal_eval(node.value) for node in module.body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    return [f"cloiseg.{layer}.{name}" for layer, names in traced.items() for name in names]


def test_the_benchmark_names_some_package_attributes():
    assert len(_references()) > 20 and len(_traced()) > 10


@pytest.mark.parametrize("dotted", _references())
def test_benchmark_reference_resolves(dotted):
    _resolve(dotted)


@pytest.mark.parametrize("dotted", _traced())
def test_traced_name_resolves(dotted):
    owner, attr = dotted.rsplit(".", 1)
    owner = _resolve(owner)
    # the tracer wraps a method through the class's own namespace
    assert attr in vars(owner) if isinstance(owner, type) else callable(getattr(owner, attr))

"""The package names that the benchmark in ``perfbench/`` reaches still resolve and bind.

The tier-1 suite does not run ``perfbench/tests``, so without this guard a
change could rename or delete a name the benchmark calls, or a parameter it
passes, and no test here would fail. Checked: every ``cloiseg.<attr path>``
written in ``perfbench/*.py``; every call of one there, whose positional
count and keyword names must bind to the callable's signature; and every
name that ``perfbench/tracing.py`` wraps (``TRACED``: a function of a
module, or a method defined on a class). The benchmark unpacks no ``*`` or
``**`` arguments into these calls, so each call's arguments are read as
written.
"""

from __future__ import annotations

import ast
import importlib
import inspect
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


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of names and attributes, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute) and (owner := _dotted(node.value)):
        return f"{owner}.{node.attr}"
    return None


def _calls() -> list[tuple[str, int, tuple[str, ...]]]:
    """Each distinct call of a package name in ``perfbench/*.py``: name, positionals, keywords."""
    calls = set()
    for f in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(f.read_text())):
            name = _dotted(node.func) if isinstance(node, ast.Call) else None
            if name and name.startswith("cloiseg."):
                calls.add((name, len(node.args), tuple(k.arg for k in node.keywords)))
    return sorted(calls)


def _traced() -> list[str]:
    """The names in ``TRACED``, read from the source without running it."""
    module = ast.parse((PERFBENCH / "tracing.py").read_text())
    traced, = (ast.literal_eval(node.value) for node in module.body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["TRACED"])
    return [f"cloiseg.{layer}.{name}" for layer, names in traced.items() for name in names]


def test_the_benchmark_names_some_package_attributes():
    assert len(_references()) > 20 and len(_calls()) > 20 and len(_traced()) > 10


@pytest.mark.parametrize("dotted", _references())
def test_benchmark_reference_resolves(dotted):
    _resolve(dotted)


@pytest.mark.parametrize("dotted, positional, keywords", _calls(),
                         ids=[f"{d}({n}{''.join(f', {k}=' for k in kw)})" for d, n, kw in _calls()])
def test_benchmark_call_binds(dotted, positional, keywords):
    inspect.signature(_resolve(dotted)).bind(*[None] * positional, **dict.fromkeys(keywords))


@pytest.mark.parametrize("dotted", _traced())
def test_traced_name_resolves(dotted):
    owner, attr = dotted.rsplit(".", 1)
    owner = _resolve(owner)
    # the tracer wraps a method through the class's own namespace
    assert attr in vars(owner) if isinstance(owner, type) else callable(getattr(owner, attr))

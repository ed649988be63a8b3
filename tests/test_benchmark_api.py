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

Every reference is resolved by attribute reads alone, in a fresh
interpreter that has made only the import the benchmark makes for it
(``import cloiseg``, or ``import cloiseg.cli`` for the CLI's names). This
test process has imported every submodule, which would hide a package
that binds a submodule only when something imports it.
"""

from __future__ import annotations

import ast
import functools
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cloiseg
import cloiseg.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
_REFERENCE = re.compile(r"\bcloiseg(?:\.[A-Za-z_]\w*)+")

#: reads names from stdin and prints those that attribute reads do not resolve
_PROBE = """
import functools, json, sys
import cloiseg
failed = {}
for dotted in json.load(sys.stdin):
    try:
        functools.reduce(getattr, dotted.split(".")[1:], cloiseg)
    except AttributeError as exc:
        failed[dotted] = str(exc)
print(json.dumps(failed))
"""


def _resolve(dotted: str):
    """The object at ``dotted`` (``cloiseg.a.b``), by attribute reads alone."""
    return functools.reduce(getattr, dotted.split(".")[1:], cloiseg)


def _references() -> list[str]:
    return sorted({m[0] for f in PERFBENCH.glob("*.py") for m in _REFERENCE.finditer(f.read_text())})


def _imports() -> set[str]:
    """The package modules that ``perfbench/*.py`` imports by name."""
    names = set()
    for f in PERFBENCH.glob("*.py"):
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Import):
                names.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module)
    return {n for n in names if n.split(".")[0] == "cloiseg"}


@functools.cache
def _unresolved_when_fresh() -> dict[str, str]:
    """Each reference that a fresh interpreter cannot read after the benchmark's import for it.

    A reference is read after importing the longest module the benchmark
    imports that prefixes it, in one interpreter per such module.
    """
    imports = _imports()
    groups: dict[str, list[str]] = {}
    for dotted in _references():
        module = max((m for m in imports if f"{dotted}.".startswith(f"{m}.")), key=len)
        groups.setdefault(module, []).append(dotted)
    src = str(Path(cloiseg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    failed = {}
    for module, names in groups.items():
        out = subprocess.run([sys.executable, "-c", f"import {module}\n{_PROBE}"], env=env,
                             input=json.dumps(names), capture_output=True, text=True, check=True)
        failed.update(json.loads(out.stdout))
    return failed


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
    assert dotted not in _unresolved_when_fresh(), _unresolved_when_fresh()[dotted]


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

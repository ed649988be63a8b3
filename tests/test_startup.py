"""What a fresh interpreter loads and sets when it imports the package or runs the CLI.

Each check runs in a new interpreter, since this test process has long
since imported numpy and every submodule. None of them times anything.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cloiseg
from cloiseg.cli import main

SRC = str(Path(cloiseg.__file__).resolve().parents[1])


def _python(code: str, cwd=None, **env: str) -> str:
    """Stdout of ``python -c code`` with ``src`` on the path, ``env`` set and no
    OPENBLAS_NUM_THREADS unless ``env`` sets it."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**base, **env}, cwd=cwd,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "gapped.pts"
    assert main(["synth", "--profile", "gapped", "--seed", "3", "--out", str(path), "--quiet"]) == 0
    return path


def test_importing_the_package_loads_no_numpy_and_sets_nothing():
    probe = ("import os, sys, cloiseg\n"
             "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert _python(probe) == "False None"


def test_importing_the_cli_runs_blas_on_one_thread_unless_the_user_chose():
    probe = "import os, cloiseg.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _python(probe) == "1"
    assert _python(probe, OPENBLAS_NUM_THREADS="3") == "3"


def test_every_export_resolves_on_first_use():
    probe = ("import cloiseg\n"
             "for name in cloiseg.__all__:\n"
             "    getattr(cloiseg, name)\n"
             "print([n for n in cloiseg.__all__ if n not in dir(cloiseg)])\n"
             "try:\n"
             "    cloiseg.no_such_name\n"
             "except AttributeError as exc:\n"
             "    print(exc)")
    assert _python(probe) == "[]\nmodule 'cloiseg' has no attribute 'no_such_name'"


def test_exports_are_read_from_their_home_modules_every_time(monkeypatch):
    # a function replaced in its home module (as the benchmark's tracer does)
    # is what the package hands out, and the original once it is put back
    import cloiseg.segmentation
    original = cloiseg.segment
    monkeypatch.setattr(cloiseg.segmentation, "segment", len)
    assert cloiseg.segment is len
    monkeypatch.undo()
    assert cloiseg.segment is original
    assert "segment" not in vars(cloiseg)


def test_segment_loads_no_numpy_ma(scene, tmp_path):
    # numpy 2.4's plain np.unique imports numpy.ma on its first call
    probe = ("import sys, cloiseg.cli\n"
             f"assert cloiseg.cli.main(['segment', {str(scene)!r}, 'out.pts', '--quiet']) == 0\n"
             "assert cloiseg.cli.main(['sweep', '--mode', 'epsilon', "
             f"{str(scene)!r}, '--out', 'eps.csv', '--quiet']) == 0\n"
             "print('numpy.ma' in sys.modules)")
    assert _python(probe, cwd=tmp_path) == "False"


def test_segment_bytes_do_not_depend_on_openblas_threads(scene, tmp_path):
    outs = []
    for threads in (None, "2"):
        out = tmp_path / f"seg_{threads}.pts"
        probe = ("import cloiseg.cli\n"
                 f"raise SystemExit(cloiseg.cli.main(['segment', {str(scene)!r}, {str(out)!r}, "
                 "'--quiet']))")
        _python(probe, **({"OPENBLAS_NUM_THREADS": threads} if threads else {}))
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] != b""

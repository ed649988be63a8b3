"""Tests of the benchmark itself, on scaled-down scenes (``--smoke``).

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--seed", "0",
                           "--seconds", "1", "--smoke", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(entries) -> dict:
    return {m["name"]: m["unit"] for m in entries}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert _units(SPEC["end_to_end"]) == run.END_TO_END


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(workload):
    result = _bench("--workload", workload, "--trace", "0")
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_smoke_run_emits_every_per_layer_metric():
    result = _bench("--workload", "scan-1m", "--trace", "1")
    assert result["correct"] is True
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _units(SPEC["per_layer"])


def test_corrupted_prediction_column_counts_as_failed(monkeypatch, capsys):
    real = wl.run_subprocess

    def corrupting(call, scratch):
        result = real(call, scratch)
        if call.kind == "segment":
            path = Path(call.output)
            lines = path.read_text().splitlines(keepends=True)
            fields = lines[1].split()
            fields[-1] = str(int(fields[-1]) + 1)
            lines[1] = " ".join(fields) + "\n"
            path.write_text("".join(lines))
            result.output = path.read_bytes()
        return result

    monkeypatch.setattr(wl, "run_subprocess", corrupting)
    assert run.main(["--workload", "scan-1m", "--seed", "0", "--seconds", "0", "--smoke"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert any(line.startswith("FAILED segment") for line in out)


def test_missing_sources_exit_nonzero(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "scan-1m",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import cloiseg.cli
import cloiseg.model
from cloiseg import (
    InstanceLabeling,
    class_histogram,
    generate_scene,
    load_pts,
    make_benchmark_suite,
    save_pts,
    score,
    write_csv,
)
from cloiseg.cli import main
from cloiseg.sweep import rows_to_csv_text
from cloiseg.synth import PROFILE_NAMES


def _synth(tmp_path, profile="dense", seed=7, name="scene.pts"):
    out = tmp_path / name
    assert main(["synth", "--profile", profile, "--seed", str(seed), "--out", str(out)]) == 0
    return out


def test_help_for_every_subcommand(capsys):
    for cmd in ("synth", "boundary", "segment", "eval", "sweep", "stats"):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out


def test_unknown_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["segment", "--no-such-flag", "a", "b"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_invalid_parameter_value_exits_one(tmp_path, capsys):
    # parameters are validated before any file is touched
    assert main(["segment", "--epsilon", "-1", "missing.pts", "out.pts"]) == 1
    # an infinite radius would test every pair of points
    for command in (["segment", "--epsilon", "inf", "missing.pts", "out.pts"],
                    ["boundary", "--boundary-radius", "inf", "missing.pts", "out.pts"],
                    ["sweep", "--mode", "mu", "--epsilon", "inf", "missing.pts"]):
        assert main(command) == 1, command
    assert main(["sweep", "--mode", "mu", "--mus", "50,10", "missing.pts"]) == 1
    for command in (["segment", "missing.pts", "out.pts"], ["stats", "missing.pts"],
                    ["synth", "--profile", "dense", "--out", str(tmp_path / "out.pts")]):
        assert main([*command, "--threads", "0"]) == 1, command
    # NaN passes a bare comparison and inf would enumerate every pair
    for grid in (["--mode", "epsilon", "--epsilons", "nan"],
                 ["--mode", "radius", "--epsilons", "0.02,nan"],
                 ["--mode", "epsilon", "--epsilons", "inf"],
                 ["--mode", "epsilon", "--thresholds", "0.5,2"],
                 ["--mode", "radius", "--thresholds", "nan"]):
        assert main(["sweep", *grid, "missing.pts"]) == 1, grid
    assert main(["eval", "--thresholds", "0.5,2", "missing.pts", "missing.pts"]) == 1
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "out.pts").exists()


@pytest.mark.parametrize("argv", [["sweep", "--mode", "mu", "--mus", "", "missing.pts"],
                                  ["sweep", "--mode", "epsilon", "--epsilons", "", "missing.pts"],
                                  ["eval", "--thresholds", ",", "missing.pts", "missing.pts"]],
                         ids=["mus", "epsilons", "thresholds"])
def test_empty_grid_exits_one(argv, capsys):
    # an empty grid is rejected before any file is touched, not replaced by the default
    assert main(argv) == 1
    assert "grid must be non-empty" in capsys.readouterr().err


def test_quiet_flag_suppresses_status(tmp_path, capsys):
    out = tmp_path / "scene.pts"
    assert main(["synth", "--profile", "dense", "--seed", "1",
                 "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_data_error_exits_two(tmp_path, capsys):
    missing = tmp_path / "nope.pts"
    assert main(["stats", str(missing)]) == 2
    bad = tmp_path / "bad.pts"
    bad.write_text("cloi-pts v1 n=1\n0 0 nan 3 1\n")
    assert main(["stats", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_pipeline_synth_segment_eval(tmp_path, capsys):
    scene = _synth(tmp_path)
    seg = tmp_path / "seg.pts"
    assert main(["segment", "--epsilon", "0.04", "--mu", "20",
                 str(scene), str(seg)]) == 0
    out = load_pts(seg)
    assert out.has_predictions
    assert len(out.positions[0]) == 3
    capsys.readouterr()
    assert main(["eval", str(seg), str(scene)]) == 0
    csv_text = capsys.readouterr().out
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("class,")
    assert lines[-1].startswith("mean,")
    assert "1.0" in lines[-1]  # dense profile recovers perfectly


def test_eval_output_matches_library(tmp_path, capsys):
    scene = _synth(tmp_path)
    seg = tmp_path / "seg.pts"
    main(["segment", str(scene), str(seg)])
    capsys.readouterr()
    assert main(["eval", str(seg), str(scene)]) == 0
    cli_text = capsys.readouterr().out

    pred_cloud = load_pts(seg)
    gt_cloud = load_pts(scene)
    pred = InstanceLabeling.from_assignment(pred_cloud.pred_instance, pred_cloud.class_labels)
    gt = InstanceLabeling.from_assignment(gt_cloud.gt_instance, gt_cloud.class_labels)
    fields, rows = score(pred, gt).to_rows()
    assert cli_text == rows_to_csv_text(rows, fields)


def test_eval_mismatched_sizes_is_data_error(tmp_path, capsys):
    a = _synth(tmp_path, name="a.pts", seed=1)
    small = tmp_path / "small.pts"
    small.write_text("cloi-pts v1 n=1\n0 0 0 3 0 0\n")
    assert main(["eval", str(small), str(a)]) == 2


def test_eval_mismatched_positions_is_data_error(tmp_path, capsys):
    scene = _synth(tmp_path)
    seg = tmp_path / "seg.pts"
    assert main(["segment", str(scene), str(seg)]) == 0
    lines = seg.read_text().splitlines()
    fields = lines[1].split()
    fields[0] = repr(float(fields[0]) + 1e-3)
    lines[1] = " ".join(fields)
    moved = tmp_path / "moved.pts"
    moved.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["eval", str(moved), str(scene)]) == 2
    assert "positions differ" in capsys.readouterr().err


def test_eval_requires_prediction_column(tmp_path):
    scene = _synth(tmp_path)
    assert main(["eval", str(scene), str(scene)]) == 2


def _rows_without_flags(path) -> list[str]:
    lines = path.read_text().splitlines()
    return [lines[0]] + [line.rsplit(" ", 1)[0] for line in lines[1:]]


def test_boundary_appends_flag_column(tmp_path):
    scene = _synth(tmp_path, profile="cluttered")
    out = tmp_path / "flags.pts"
    assert main(["boundary", str(scene), str(out), "--boundary-radius", "0.04"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("cloi-pts v1")
    widths = {len(line.split()) for line in lines[1:]}
    assert widths == {6}
    flags = {line.split()[-1] for line in lines[1:]}
    assert flags == {"0", "1"}
    # every row minus its flag is exactly what save_pts writes
    plain = tmp_path / "plain.pts"
    save_pts(load_pts(scene), plain)
    assert _rows_without_flags(out) == plain.read_text().splitlines()
    assert main(["boundary", str(scene), str(out), "--gt"]) == 0
    assert _rows_without_flags(out) == plain.read_text().splitlines()

    # a prediction column is carried through ahead of the flag
    seg = tmp_path / "seg.pts"
    assert main(["segment", str(scene), str(seg)]) == 0
    assert main(["boundary", str(seg), str(out)]) == 0
    assert {len(line.split()) for line in out.read_text().splitlines()[1:]} == {7}
    save_pts(load_pts(seg), plain)
    assert _rows_without_flags(out) == plain.read_text().splitlines()


def test_stats_matches_histogram(tmp_path, capsys):
    scene = _synth(tmp_path)
    capsys.readouterr()
    assert main(["stats", str(scene)]) == 0
    text = capsys.readouterr().out
    hist = class_histogram(load_pts(scene))
    rows = {line.split(",")[0]: line.split(",") for line in text.strip().splitlines()[1:]}
    for label, (n_inst, n_pts) in hist.items():
        row = rows[label.name.lower()]
        assert int(row[1]) == n_inst
        assert int(row[2]) == n_pts
    assert int(rows["total"][2]) == len(load_pts(scene))


def test_synth_spec_json(tmp_path):
    (spec, _), = make_benchmark_suite("dense", seed=3)
    spec_path = tmp_path / "scene.json"
    spec.to_json(spec_path)
    out = tmp_path / "from_spec.pts"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out)]) == 0
    cloud = load_pts(out)
    assert np.allclose(cloud.positions, generate_scene(spec).positions)


def test_synth_spec_json_with_seed(tmp_path):
    # --seed replaces the spec's own seed and nothing else
    (spec, _), = make_benchmark_suite("dense", seed=3)
    spec_path = tmp_path / "scene.json"
    spec.to_json(spec_path)
    plain, seeded, expected = (tmp_path / f"{name}.pts" for name in ("plain", "seeded", "expected"))
    assert main(["synth", "--spec", str(spec_path), "--out", str(plain)]) == 0
    assert main(["synth", "--spec", str(spec_path), "--seed", "11", "--out", str(seeded)]) == 0
    save_pts(generate_scene(replace(spec, seed=11)), expected)
    assert seeded.read_bytes() == expected.read_bytes()
    assert seeded.read_bytes() != plain.read_bytes()


def test_synth_manifest_written(tmp_path):
    out = tmp_path / "scene.pts"
    man = tmp_path / "manifest.json"
    assert main(["synth", "--profile", "gapped", "--seed", "2",
                 "--out", str(out), "--manifest", str(man)]) == 0
    manifest = json.loads(man.read_text())
    assert manifest["expected_radius_selection"] == 0.04


def test_synth_manifest_without_profile_exits_one_before_writing(tmp_path, capsys):
    (spec, _), = make_benchmark_suite("dense", seed=3)
    spec_path = tmp_path / "s.json"
    spec.to_json(spec_path)
    out, man = tmp_path / "x.pts", tmp_path / "m.json"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out),
                 "--manifest", str(man)]) == 1
    assert "--manifest requires --profile" in capsys.readouterr().err
    assert not out.exists() and not man.exists()


class _WriteFailed(Exception):
    pass


def _fail_on_call(k, fn):
    """``fn`` that raises on its k-th call."""
    calls = iter(range(k - 1))

    def wrapped(*args, **kwargs):
        if next(calls, None) is None:
            raise _WriteFailed
        return fn(*args, **kwargs)
    return wrapped


class _Unprintable:
    def __str__(self):
        raise _WriteFailed


@pytest.mark.parametrize("writer", ["save_pts", "write_csv", "manifest"])
def test_failed_write_keeps_earlier_output(tmp_path, monkeypatch, writer):
    scene = _synth(tmp_path)
    out = tmp_path / "out"
    out.write_text("earlier output\n")
    if writer == "save_pts":
        # the second chunk fails: the header and the first 10 rows are already out
        monkeypatch.setattr(cloiseg.model, "_CHUNK_ROWS", 10)
        monkeypatch.setattr(cloiseg.model, "_pts_rows", _fail_on_call(2, cloiseg.model._pts_rows))
        with pytest.raises(_WriteFailed):
            save_pts(load_pts(scene), out)
    elif writer == "write_csv":
        with pytest.raises(_WriteFailed):
            write_csv([{"a": 1.5}, {"a": 2.5}, {"a": _Unprintable()}], out)
    else:
        def partial_dump(obj, f, **kwargs):
            f.write("{\"profile\": ")
            raise _WriteFailed
        monkeypatch.setattr(cloiseg.cli.json, "dump", partial_dump)
        with pytest.raises(_WriteFailed):
            main(["synth", "--profile", "gapped", "--out", str(tmp_path / "new.pts"),
                  "--manifest", str(out)])
    assert out.read_text() == "earlier output\n"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def test_written_files_get_the_usual_mode(tmp_path):
    scene = _synth(tmp_path)
    plain = tmp_path / "plain"
    plain.write_text("")
    out = tmp_path / "seg.pts"
    assert main(["segment", str(scene), str(out)]) == 0
    assert out.stat().st_mode == plain.stat().st_mode == scene.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain", "scene.pts", "seg.pts"]


def test_sweep_modes_write_csv(tmp_path):
    scene = _synth(tmp_path)
    for mode, extra in (
        ("mu", ["--mus", "10,20"]),
        ("epsilon", ["--epsilons", "0.03,0.04"]),
        ("radius", ["--epsilons", "0.03,0.04"]),
    ):
        out = tmp_path / f"{mode}.csv"
        assert main(["sweep", "--mode", mode, str(scene), "--out", str(out)] + extra) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 grid rows


def test_sweep_bias_mode(tmp_path, capsys):
    a = _synth(tmp_path, seed=1, name="a.pts")
    b = _synth(tmp_path, seed=2, name="b.pts")
    capsys.readouterr()
    assert main(["sweep", "--mode", "bias", str(a), str(b)]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[0] == "facility,m_prec,m_rec"
    assert any(line.startswith("std,") for line in text.splitlines())
    assert main(["sweep", "--mode", "bias", str(a)]) == 2


def test_ply_value_errors_name_the_line(tmp_path, capsys):
    header = ("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
              "property float y\nproperty float z\nproperty int class\n"
              "property int instance\nend_header\n")
    for body, line, message in (("0 0 0 3 0\n1 0 0 2.7 0\n", 11, "non-integer class code"),
                                ("0 0 0 3 0.5\n1 0 0 3 0\n", 10, "non-integer instance id"),
                                ("0 0 0 3 0\n1 0 0 9 1\n", 11, "class code outside")):
        ply = tmp_path / "bad.ply"
        ply.write_text(header + body)
        assert main(["stats", str(ply)]) == 2
        assert f"{ply}:{line}: {message}" in capsys.readouterr().err


_CONTROL_BYTES = (0x0b, 0x0c, 0x1c, 0x1d, 0x1e, 0x1f, 0x7f)


@pytest.mark.parametrize("name, text, line, message", [
    # '²' passes str.isdigit but not int()
    ("sup.ply", "ply\nformat ascii 1.0\nelement vertex ²\nproperty float x\n"
                "property float y\nproperty float z\nend_header\n1 2 3\n1 2 3\n",
     3, "bad element line 'element vertex ²'"),
    # int() reads an Arabic-Indic one as 1, and \d matches it
    ("arabic.ply", "ply\nformat ascii 1.0\nelement vertex ١\nproperty float x\n"
                   "property float y\nproperty float z\nend_header\n1 2 3\n",
     3, "bad element line 'element vertex ١'"),
    ("arabic.pts", "cloi-pts v1 n=١\n0 0 0 1 0\n", 1, "bad header 'cloi-pts v1 n=١'"),
    # a repeated property would read the row 1 2 3 4 as the point (2, 3, 4)
    ("twice.ply", "ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
                  "property float x\nproperty float y\nproperty float z\nend_header\n1 2 3 4\n",
     5, "repeated vertex property 'x'"),
    # a second vertex element would merge its properties into the first's
    ("two.ply", "ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
                "property float y\nproperty float z\nelement vertex 1\nproperty float class\n"
                "end_header\n1 2 3\n4\n", 7, "repeated element 'vertex'"),
    # under re.ASCII, \s matches 0x0b and 0x0c too
    *[(f"ctl-{byte:#04x}.pts", f"cloi-pts v1 n=1{chr(byte)}\n0 0 0 1 0\n", 1,
       f"unexpected byte {byte:#04x}") for byte in (0x0b, 0x0c)],
    # str.split() splits on 0x0b, 0x0c and 0x1c-0x1f, so the line would read as
    # "element vertex 1"; no header line holds a control byte
    *[(f"ctl-{byte:#04x}.ply", f"ply\nformat ascii 1.0\nelement{chr(byte)}vertex 1\n"
       "property float x\nproperty float y\nproperty float z\nend_header\n1 2 3\n",
       3, f"unexpected byte {byte:#04x}") for byte in _CONTROL_BYTES],
], ids=["superscript-count", "arabic-count", "arabic-pts-count", "repeated-property",
        "repeated-element", "pts-control-byte-0x0b", "pts-control-byte-0x0c",
        *[f"control-byte-{byte:#04x}" for byte in _CONTROL_BYTES]])
def test_header_digits_and_properties_are_read_strictly(tmp_path, capsys, name, text, line,
                                                        message):
    path, out = tmp_path / name, tmp_path / "out.pts"
    path.write_text(text, encoding="utf-8")
    assert main(["segment", str(path), str(out)]) == 2
    assert capsys.readouterr().err == f"cloiseg segment: error: {path}:{line}: {message}\n"
    assert not out.exists()


def test_benchmark_files_load_without_the_error_walk(tmp_path, monkeypatch):
    # the files the CLI writes take the block scan and one loadtxt: the line
    # walk, which only reports errors, is never called for them
    def walk(*args):
        raise AssertionError(f"the error walk was called for {args[0]}")

    monkeypatch.setattr(cloiseg.model, "_row_error", walk)
    scenes = [_synth(tmp_path, profile, name=f"{profile}.pts") for profile in PROFILE_NAMES]
    for scene in scenes:
        assert len(load_pts(scene)) > 0
    seg, flags = tmp_path / "seg.pts", tmp_path / "flags.pts"
    assert main(["segment", str(scenes[0]), str(seg), "--quiet"]) == 0
    assert load_pts(seg).has_predictions
    assert main(["boundary", str(scenes[1]), str(flags), "--quiet"]) == 0


def test_eval_prediction_errors_name_the_line(tmp_path, capsys):
    gt = tmp_path / "g.pts"
    gt.write_text("cloi-pts v1 n=2\n0 0 0 1 0\n1 0 0 3 1\n")
    pred = tmp_path / "p.pts"
    for rows, message in (("0 0 0 1 0 4\n1 0 0 3 1 4\n", "predicted instance mixes class labels"),
                          ("0 0 0 1 0 0\n1 0 0 3 1 -3\n", "predicted instance id below -1")):
        pred.write_text("cloi-pts v1 n=2\n" + rows)
        assert main(["eval", str(pred), str(gt)]) == 2
        assert f"{pred}:3: {message}" in capsys.readouterr().err


def test_threads_flag_does_not_change_output(tmp_path, capsys):
    # every command the benchmark passes --threads to accepts it and writes the
    # same bytes at any value
    scene = str(_synth(tmp_path, profile="cluttered"))
    other = str(_synth(tmp_path, profile="cluttered", seed=8, name="other.pts"))
    seg, out = str(tmp_path / "seg.pts"), tmp_path / "out"
    assert main(["segment", scene, seg]) == 0
    sweep = ["sweep", "--epsilons", "0.03,0.04", "--mus", "10,20", "--out", str(out)]
    commands = [["segment", scene, str(out)],
                ["segment", "--boundary-radius", "0.03", scene, str(out)],
                ["boundary", scene, str(out)],
                ["eval", seg, scene],
                *([*sweep, "--mode", mode, scene] for mode in ("mu", "epsilon", "radius")),
                [*sweep, "--mode", "bias", scene, other]]
    for command in commands:
        outs = []
        for threads in ("1", "4"):
            out.unlink(missing_ok=True)
            capsys.readouterr()
            assert main([*command, "--threads", threads]) == 0, command
            outs.append((out.read_bytes() if out.exists() else b"", capsys.readouterr().out))
        assert outs[0] == outs[1] != (b"", ""), command


def test_importing_the_cli_loads_no_scipy(tmp_path):
    # neighbour queries run on numpy cells: no command that queries them loads scipy
    src = str(Path(cloiseg.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, cloiseg.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
    scene, out_pts = str(_synth(tmp_path, profile="gapped")), str(tmp_path / "out.pts")
    commands = [["segment", scene, out_pts], ["boundary", scene, out_pts],
                ["sweep", "--mode", "radius", scene, "--out", str(tmp_path / "radius.csv")]]
    probe = ("import sys, cloiseg.cli\n"
             f"for command in {commands!r}:\n"
             "    assert cloiseg.cli.main([*command, '--quiet']) == 0, command\n"
             "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"

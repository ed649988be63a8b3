"""Seeded fuzz of the three readers (CLOI-PTS, ASCII PLY, spec JSON) through the CLI.

Each mutant of a small valid file either runs (exit 0) or is rejected with
exit 2, a single ``cloiseg <command>: error:`` line on stderr and no output
file. Every rejected mutant's error line names its file.
Mutations: byte flips, truncation, duplicated or deleted lines and tokens,
Unicode digits and Unicode whitespace; point rows that gained one of the
latter are always rejected. A spec mutant that raises a shape's density or
dims, the clutter count or the shape count is not run, so that no case
samples a huge scene.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from cloiseg import ClassLabel, ClutterSpec, SceneSpec, ShapeSpec, generate_scene, save_pts
from cloiseg.cli import main

MUTANTS = 200
#: Arabic-Indic, extended Arabic-Indic, Devanagari, Thai, fullwidth and superscript digits
UNICODE_DIGITS = "١٢۴५๖０９²³¹"
#: no-break, em, thin and ideographic spaces; line and paragraph separators;
#: next line, vertical tab, form feed and file separator
UNICODE_SPACES = "\u00a0\u2003\u2009\u3000\u2028\u2029\u0085\x0b\x0c\x1c"

SPEC = SceneSpec(
    (ShapeSpec(ClassLabel.CYLINDER, (0.0, 0.0, 0.0), {"radius": 0.02, "length": 0.05},
               sigma=0.001, gaps=((0.4, 0.5),)),
     ShapeSpec(ClassLabel.IBEAM, (0.2, 0.0, 0.0), {"depth": 0.03, "width": 0.02, "length": 0.04},
               axis=(1.0, 0.0, 0.0))),
    seed=3, clutter=ClutterSpec(10, (0.0, 0.0, 0.0), (0.1, 0.1, 0.1)))


def _ply_text(cloud) -> str:
    header = (f"ply\nformat ascii 1.0\ncomment fuzz seed\nelement vertex {len(cloud)}\n"
              "property float x\nproperty float y\nproperty float z\n"
              "property int class\nproperty int instance\nend_header\n")
    rows = (f"{x!r} {y!r} {z!r} {c} {i}\n" for (x, y, z), c, i in
            zip(cloud.positions.tolist(), cloud.class_labels.tolist(), cloud.gt_instance.tolist()))
    return header + "".join(rows)


def _grows(mutant: SceneSpec) -> bool:
    """Does ``mutant`` raise a density, a dim, the clutter count or the shape count of SPEC?"""
    if len(mutant.shapes) > len(SPEC.shapes):
        return True
    for shape, orig in zip(mutant.shapes, SPEC.shapes):
        if shape.density > orig.density or any(
                v > orig.dims.get(k, 0.0) for k, v in shape.dims.items()):
            return True
    return mutant.clutter is not None and mutant.clutter.count > SPEC.clutter.count


def _mutate(data: bytes, rng: np.random.Generator) -> tuple[bytes, set[int]]:
    """``data`` after one to three random mutations, and their kinds."""
    kinds = set()
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(7))
        kinds.add(kind)
        if kind == 0 and data:  # flip one bit
            at = int(rng.integers(len(data)))
            data = data[:at] + bytes([data[at] ^ (1 << int(rng.integers(8)))]) + data[at + 1:]
            continue
        if kind == 1:  # truncate
            data = data[:int(rng.integers(len(data) + 1))]
            continue
        text = data.decode("utf-8", errors="surrogateescape")
        if kind in (2, 3):  # duplicate or delete a line
            lines = text.splitlines(keepends=True)
            if lines:
                at = int(rng.integers(len(lines)))
                lines[at:at + 1] = [lines[at]] * (2 if kind == 2 else 0)
            text = "".join(lines)
        elif kind in (4, 5):  # duplicate or delete a token
            tokens = text.split(" ")
            at = int(rng.integers(len(tokens)))
            tokens[at:at + 1] = [tokens[at]] * (2 if kind == 4 else 0)
            text = " ".join(tokens)
        else:  # a Unicode digit for a digit, or Unicode whitespace for whitespace
            digit = rng.random() < 0.5
            spots = [k for k, ch in enumerate(text) if (ch.isdigit() if digit else ch in " \n")]
            if spots:
                at = spots[int(rng.integers(len(spots)))]
                pool = UNICODE_DIGITS if digit else UNICODE_SPACES
                text = text[:at] + pool[int(rng.integers(len(pool)))] + text[at + 1:]
        data = text.encode("utf-8", errors="surrogateescape")
    return data, kinds


def _unicode_rows(data: bytes, reader: str) -> bool:
    """Do the point rows of ``data`` hold a Unicode digit or Unicode whitespace?"""
    text = data.decode("utf-8", errors="surrogateescape")
    rows = text.split("\n", 1) if reader == "pts" else text.split("end_header\n", 1)
    return len(rows) == 2 and any(ch in rows[1] for ch in UNICODE_DIGITS + UNICODE_SPACES)


@pytest.mark.parametrize("reader", ["pts", "ply", "spec"])
def test_mutated_input_runs_or_exits_two_with_one_error_line(tmp_path, capsys, reader):
    rng = np.random.default_rng({"pts": 71, "ply": 72, "spec": 73}[reader])
    cloud = generate_scene(SPEC)
    if reader == "pts":
        save_pts(cloud, tmp_path / "seed.pts")
        source = (tmp_path / "seed.pts").read_bytes()
    elif reader == "ply":
        source = _ply_text(cloud).encode()
    else:
        source = json.dumps(SPEC.to_dict(), indent=1).encode()
    command = "synth" if reader == "spec" else "segment"
    outcomes = {0: 0, 2: 0}
    run = 0
    while run < MUTANTS:
        data, kinds = _mutate(source, rng)
        case = tmp_path / str(run)
        case.mkdir(exist_ok=True)
        path, out = case / f"in.{'json' if reader == 'spec' else reader}", case / "out.pts"
        path.write_bytes(data)
        if reader == "spec":
            try:
                if _grows(SceneSpec.from_json(path)):
                    continue
            except ValueError:
                pass
            argv = ["synth", "--spec", str(path), "--out", str(out), "--quiet"]
        else:
            argv = ["segment", str(path), str(out), "--quiet"]
        run += 1
        try:
            code = main(argv)
        except Exception as exc:
            pytest.fail(f"{reader} mutant {data!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 2), f"{reader} mutant {data!r} exited {code}: {err}"
        # only Unicode swaps, so the header still declares every row
        if reader != "spec" and kinds == {6} and _unicode_rows(data, reader):
            assert code == 2, data
        outcomes[code] += 1
        if code == 0:
            assert err == "" and out.exists(), data
        else:
            assert err.startswith(f"cloiseg {command}: error: ") and err.count("\n") == 1, \
                (data, err)
            assert f"error: {path}" in err, (data, err)
            assert sorted(p.name for p in case.iterdir()) == [path.name], data
    # the mutations reach both outcomes
    assert outcomes[0] and outcomes[2], outcomes

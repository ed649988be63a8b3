from __future__ import annotations

import functools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloiseg import (
    NOISE,
    ClassLabel,
    PtsParseError,
    canonical_instance_ids,
    class_histogram,
    load_ply,
    load_pts,
    save_pts,
)
import cloiseg.model
from cloiseg.model import CloudValueError
from conftest import clouds_equal, make_cloud
from oracles import pts_text


def test_cloud_rejects_non_finite_positions():
    with pytest.raises(ValueError, match="point 1"):
        make_cloud([[0, 0, 0], [0, np.nan, 0]])


def test_cloud_rejects_bad_class_codes():
    with pytest.raises(ValueError, match="class code"):
        make_cloud([[0, 0, 0]], classes=[8])


def test_cloud_rejects_mixed_class_instance():
    with pytest.raises(ValueError, match="ground-truth instance mixes class labels"):
        make_cloud([[0, 0, 0], [1, 0, 0]], classes=[1, 2], gt=[0, 0])


def test_cloud_checks_predictions_like_ground_truth():
    with pytest.raises(ValueError, match="predicted instance id below -1 at point 0"):
        make_cloud([[0, 0, 0], [1, 0, 0]], classes=[1, 1], pred=[-5, 0])
    with pytest.raises(ValueError, match="predicted instance mixes class labels at point 1"):
        make_cloud([[0, 0, 0], [1, 0, 0]], classes=[1, 2], pred=[3, 3])


def test_with_predictions_checks_only_the_new_column():
    cloud = make_cloud([[0, 0, 0], [1, 0, 0], [2, 0, 0]], classes=[1, 1, 2], gt=[4, 4, 7])
    out = cloud.with_predictions(np.array([9, 9, 3]))
    assert out.pred_instance.tolist() == [0, 0, 1]
    assert out.positions is cloud.positions and out.gt_instance is cloud.gt_instance
    assert cloud.pred_instance is None
    with pytest.raises(CloudValueError, match="predicted instance id below -1 at point 1"):
        cloud.with_predictions(np.array([0, -2, 1]))
    with pytest.raises(CloudValueError, match="predicted instance mixes class labels at point 2"):
        cloud.with_predictions(np.array([0, 0, 0]))


def test_gt_ids_canonicalized_on_construction():
    cloud = make_cloud(np.zeros((4, 3)) + np.arange(4)[:, None],
                       classes=[1, 2, 1, 2], gt=[9, 5, 9, 5])
    assert cloud.gt_instance.tolist() == [0, 1, 0, 1]


def test_canonical_instance_ids_idempotent_and_noise_preserving():
    ids = np.array([7, NOISE, 3, 7, 3, 12])
    out = canonical_instance_ids(ids)
    assert out.tolist() == [0, NOISE, 1, 0, 1, 2]
    assert np.array_equal(canonical_instance_ids(out), out)


# -- CLOI-PTS ---------------------------------------------------------------

def test_load_three_valid_lines_order_preserved(tmp_path):
    p = tmp_path / "a.pts"
    p.write_text("cloi-pts v1 n=3\n"
                 "0.5 0 0 3 0\n"
                 "0 1.25 0 3 0\n"
                 "0 0 -2.5 1 1\n")
    cloud = load_pts(p)
    assert len(cloud) == 3
    assert cloud.positions[1].tolist() == [0.0, 1.25, 0.0]
    assert cloud.class_labels.tolist() == [3, 3, 1]


def test_load_empty_file(tmp_path):
    p = tmp_path / "empty.pts"
    p.write_text("cloi-pts v1 n=0\n")
    assert len(load_pts(p)) == 0


def test_load_reports_nan_line(tmp_path):
    p = tmp_path / "bad.pts"
    p.write_text("cloi-pts v1 n=2\n0 0 0 3 1\n0 0 nan 3 1\n")
    with pytest.raises(PtsParseError, match=":3"):
        load_pts(p)


def test_load_reports_bad_class_line(tmp_path):
    p = tmp_path / "bad.pts"
    p.write_text("cloi-pts v1 n=2\n0 0 0 9 0\n1 0 0 3 1\n")
    with pytest.raises(PtsParseError, match=":2"):
        load_pts(p)


def test_load_reports_mixed_class_instance_line(tmp_path):
    p = tmp_path / "bad.pts"
    p.write_text("cloi-pts v1 n=3\n0 0 0 3 7\n1 0 0 3 8\n2 0 0 1 7\n")
    with pytest.raises(PtsParseError, match=":4"):
        load_pts(p)
    # the prediction column is held to the same rules
    p.write_text("cloi-pts v1 n=3\n0 0 0 3 0 5\n1 0 0 3 0 9\n2 0 0 1 1 5\n")
    with pytest.raises(PtsParseError, match=r"bad\.pts:4: predicted instance mixes class labels$"):
        load_pts(p)
    p.write_text("cloi-pts v1 n=2\n0 0 0 3 0 0\n1 0 0 3 0 -2\n")
    with pytest.raises(PtsParseError, match=r"bad\.pts:3: predicted instance id below -1$"):
        load_pts(p)


def test_load_reports_ragged_line(tmp_path):
    p = tmp_path / "bad.pts"
    p.write_text("cloi-pts v1 n=2\n0 0 0 3 0\n1 0 0 3\n")
    with pytest.raises(PtsParseError, match=":3"):
        load_pts(p)


def test_load_reports_non_numeric_token(tmp_path):
    p = tmp_path / "bad.pts"
    p.write_text("cloi-pts v1 n=1\n0 0 zero 3 0\n")
    with pytest.raises(PtsParseError, match=":2"):
        load_pts(p)


def test_load_rejects_fractional_ids(tmp_path):
    p = tmp_path / "bad.pts"
    p.write_text("cloi-pts v1 n=1\n0 0 0 3 1.5\n")
    with pytest.raises(PtsParseError, match="non-integer"):
        load_pts(p)
    p.write_text("cloi-pts v1 n=2\n0 0 0 3 1 1\n0 0 0 3 1 0.5\n")
    with pytest.raises(PtsParseError, match=r"bad\.pts:3: non-integer predicted instance id"):
        load_pts(p)


def test_load_rejects_header_mismatch(tmp_path):
    p = tmp_path / "bad.pts"
    p.write_text("cloi-pts v1 n=2\n0 0 0 3 0\n")
    with pytest.raises(PtsParseError, match="n=2"):
        load_pts(p)
    p.write_text("not a header\n")
    with pytest.raises(PtsParseError, match="header"):
        load_pts(p)


TWO = ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [3, 3], [0, 0], None)
ONE = ([[0.0, 0.0, 0.0]], [3], [0], None)

# each CLOI-PTS file maps to its arrays, or to the (line, message) of its
# error; line None is a path-only message
ROW_CASES = {
    "plain": (b"cloi-pts v1 n=3\n0.5 0 0 3 0\n0 1.25 0 3 0\n-1e-3 +.5 2E2 1 1\n",
              ([[0.5, 0.0, 0.0], [0.0, 1.25, 0.0], [-0.001, 0.5, 200.0]], [3, 3, 1], [0, 0, 1],
               None)),
    "predictions": (b"cloi-pts v1 n=2\n0 0 0 3 0 4\n1 0 0 3 0 4\n",
                    ([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [3, 3], [0, 0], [0, 0])),
    "tabs, trailing blanks": (b"cloi-pts v1 n=2\n0\t0 0 3 0 \n1 0 0 3 0\n  \n\t\n\n", TWO),
    "no final newline": (b"cloi-pts v1 n=2\n0 0 0 3 0\n1 0 0 3 0", TWO),
    "interior blank": (b"cloi-pts v1 n=3\n0 0 0 3 0\n\n1 0 0 3 0\n",
                       (3, "blank line in point data")),
    "interior spaces": (b"cloi-pts v1 n=3\n0 0 0 3 0\n   \n1 0 0 3 0\n",
                        (3, "blank line in point data")),
    "blank counted": (b"cloi-pts v1 n=2\n0 0 0 3 0\n\n1 0 0 3 0\n", (3, "blank line in point data")),
    "comment": (b"cloi-pts v1 n=3\n0 0 0 3 0\n# note\n1 0 0 3 0\n", (3, "unexpected byte 0x23")),
    "crlf": (b"cloi-pts v1 n=2\r\n0 0 0 3 0\r\n1 0 0 3 0\r\n", TWO),
    "cr": (b"cloi-pts v1 n=2\r0 0 0 3 0\r1 0 0 3 0\r", TWO),
    "crlf, trailing blanks": (b"cloi-pts v1 n=2\r\n0 0 0 3 0\r\n1 0 0 3 0\r\n \r\n\r\n", TWO),
    "cr, interior blank": (b"cloi-pts v1 n=2\r0 0 0 3 0\r\r1 0 0 3 0\r",
                           (3, "blank line in point data")),
    "cr header": (b"cloi-pts v1 n=1\r   \n1 2 3 4 5\n", (2, "blank line in point data")),
    "form feed": (b"cloi-pts v1 n=1\n0 0 0\x0c3 0\n", (2, "unexpected byte 0x0c")),
    "vertical tab": (b"cloi-pts v1 n=2\n0 0 0 3 0\n1 0\x0b0 3 0\n", (3, "unexpected byte 0x0b")),
    "line separator": ("cloi-pts v1 n=1\n0 0 0 3 0\n".encode(), (2, "unexpected byte 0xe2")),
    "nul": (b"cloi-pts v1 n=1\n0 0 0\x003 0\n", (2, "unexpected byte 0x00")),
    "unicode digit": ("cloi-pts v1 n=1\n0 ١ 0 1 0\n".encode(), (2, "unexpected byte 0xd9")),
    "em space": ("cloi-pts v1 n=1\n0.01 0 0 1 0\n".encode(), (2, "unexpected byte 0xe2")),
    "inline comment": (b"cloi-pts v1 n=1\n0 0 0 1 0 # x\n", (2, "unexpected byte 0x23")),
    "0xff in a row": (b"cloi-pts v1 n=1\n0 0 0 3 0\xff\n", (2, "unexpected byte 0xff")),
    "trailing 0xff": (b"cloi-pts v1 n=1\n0 0 0 3 0\n\xff", (3, "unexpected byte 0xff")),
    "nan": (b"cloi-pts v1 n=1\n0 0 nan 3 0\n", (2, "non-finite coordinate")),
    "bad number": (b"cloi-pts v1 n=2\n0 0 0 3 0\n1e 0 0 3 0\n",
                   (3, "unparseable number in ['1e', '0', '0', '3', '0']")),
    "ragged": (b"cloi-pts v1 n=2\n0 0 0 3 0\n1 0 0 3\n", (3, "expected 5 columns, got 4")),
    "seven columns": (b"cloi-pts v1 n=1\n0 0 0 3 0 0 0\n", (2, "expected 5 or 6 columns, got 7")),
    "too many lines": (b"cloi-pts v1 n=1\n0 0 0 3 0\n1 0 0 3 0\n",
                       (None, "header declares n=1 but file has 2 data lines")),
    "too few lines": (b"cloi-pts v1 n=3\n0 0 0 3 0\n1 0 0 3 0\n",
                      (None, "header declares n=3 but file has 2 data lines")),
    "bad value": (b"cloi-pts v1 n=2\n0 0 0 3 0\n1 0 0 9 0\n", (3, "class code outside [0,7]")),
}

# the rows of each case as PLY vertex rows: their outcome, where it is not the
# CLOI-PTS one; a PLY reads n rows and ignores what follows them
PLY_ROW_CASES = {
    "predictions": (2, "expected 5 columns, got 6"),
    "seven columns": (2, "expected 5 columns, got 7"),
    "trailing 0xff": ONE,
    "too many lines": ONE,
    "too few lines": (None, "header declares 3 vertices but file has 2 data lines"),
}


def _load_outcome(load, path):
    try:
        cloud = load(path)
    except (PtsParseError, ValueError) as exc:
        return str(exc)
    return (cloud.positions.tolist(), cloud.class_labels.tolist(), cloud.gt_instance.tolist(),
            None if cloud.pred_instance is None else cloud.pred_instance.tolist())


def _ply_rows(data: bytes, path):
    """The rows of a CLOI-PTS case under a PLY header, and that header's line count."""
    header, rows = re.split(rb"\r\n?|\n", data, maxsplit=1)
    n = int(header.split(b"=")[1])
    head = (f"ply\nformat ascii 1.0\nelement vertex {n}\nproperty float x\nproperty float y\n"
            "property float z\nproperty int class\nproperty int instance\nend_header\n")
    path.write_bytes(head.encode() + rows)
    return head.count("\n") - 1


def _expected(outcome, path, shift=0):
    if isinstance(outcome[1], str):
        line, message = outcome
        return f"{path}:{line + shift}: {message}" if line else f"{path}: {message}"
    return outcome


def _no_walk(*args):
    raise AssertionError("a well-formed file took the error walk")


def _check_case(case, tmp_path, monkeypatch):
    """Load a case as CLOI-PTS and as PLY rows; a file that loads never takes the error walk."""
    data, outcome = ROW_CASES[case]
    p, ply = tmp_path / "a.pts", tmp_path / "a.ply"
    p.write_bytes(data)
    shift = _ply_rows(data, ply)
    for load, path, want in ((load_pts, p, _expected(outcome, p)),
                             (load_ply, ply,
                              _expected(PLY_ROW_CASES.get(case, outcome), ply, shift))):
        with monkeypatch.context() as m:
            if not isinstance(want, str):
                m.setattr(cloiseg.model, "_row_error", _no_walk)
            assert _load_outcome(load, path) == want, (case, load.__name__)


# named as before so that its case ids stay stable: each case is held to its
# outcome in the table
@pytest.mark.parametrize("case", ROW_CASES)
def test_stream_parse_loads_as_the_line_list_parse(tmp_path, monkeypatch, case):
    _check_case(case, tmp_path, monkeypatch)


def test_stream_parse_counts_lines_across_blocks(tmp_path, monkeypatch):
    read_rows = cloiseg.model._read_rows
    three = b"0 0 0 3 0\r\n1 0 0 3 0\r\n2 0 0 3 1\r\n"
    for block_size in (1, 2, 3, 7, 10, 11):
        monkeypatch.setattr(cloiseg.model, "_read_rows",
                            functools.partial(read_rows, block_size=block_size))
        for case in ROW_CASES:
            _check_case(case, tmp_path, monkeypatch)
        # a block that ends in the CR of a CRLF (blocks of 10 bytes end inside
        # each row's) counts one line, and cuts a PLY's rows after the CRLF
        with monkeypatch.context() as m:
            m.setattr(cloiseg.model, "_row_error", _no_walk)
            p, ply = tmp_path / "a.pts", tmp_path / "a.ply"
            p.write_bytes(b"cloi-pts v1 n=3\r\n" + three)
            assert len(load_pts(p)) == 3
            _ply_rows(b"cloi-pts v1 n=2\r\n" + three, ply)
            assert _load_outcome(load_ply, ply) == TWO


def test_roundtrip_bit_exact(tmp_path, rng):
    pos = rng.standard_normal((60, 3)) * 12.345
    classes = rng.integers(0, 8, 60)
    gt = classes.copy()  # one instance per class keeps instances pure
    cloud = make_cloud(pos, classes, gt)
    p = tmp_path / "rt.pts"
    save_pts(cloud, p)
    back = load_pts(p)
    assert clouds_equal(cloud, back)
    assert np.array_equal(cloud.positions, back.positions)


def test_roundtrip_with_predictions_and_noise(tmp_path):
    cloud = make_cloud([[0, 0, 0], [1, 0, 0], [2, 0, 0]], classes=[3, 3, 3],
                       gt=[0, 0, 1], pred=[0, NOISE, 1])
    p = tmp_path / "pred.pts"
    save_pts(cloud, p)
    text = p.read_text().splitlines()
    assert text[0] == "cloi-pts v1 n=3"
    assert all(len(line.split()) == 6 for line in text[1:])
    assert text[2].split()[5] == "-1"  # NOISE serialized as -1
    back = load_pts(p)
    assert back.pred_instance is not None
    assert back.pred_instance.tolist() == [0, NOISE, 1]


def test_roundtrip_of_synthesized_scene(tmp_path):
    from cloiseg import ClassLabel, ClutterSpec, SceneSpec, ShapeSpec, generate_scene

    spec = SceneSpec(
        (ShapeSpec(ClassLabel.CYLINDER, (0, 0, 0), {"radius": 0.04, "length": 0.3},
                   sigma=0.001, density=5000.0),
         ShapeSpec(ClassLabel.VALVE, (1, 0, 0),
                   {"body_radius": 0.06, "stem_radius": 0.015, "stem_length": 0.1,
                    "wheel_radius": 0.05, "wheel_tube_radius": 0.01}, density=5000.0)),
        seed=31,
        clutter=ClutterSpec(200, (2, 0, 0), (3, 1, 1)),
    )
    cloud = generate_scene(spec)
    p = tmp_path / "scene.pts"
    save_pts(cloud, p)
    assert clouds_equal(cloud, load_pts(p))


def test_save_without_predictions_writes_five_columns(tmp_path):
    cloud = make_cloud([[0, 0, 0]], classes=[1], gt=[0])
    p = tmp_path / "five.pts"
    save_pts(cloud, p)
    assert len(p.read_text().splitlines()[1].split()) == 5


# -- PTS writer against the repr oracle -------------------------------------

def _mismatches(got: bytes, want: bytes) -> list:
    """The first differing (got, want) tokens of two PTS texts."""
    return [(a, b) for a, b in zip(got.split(), want.split()) if a != b][:5]


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_every_finite_double_is_written_as_repr(x):
    # hypothesis draws subnormals, +-0 and the extremes too
    cloud = make_cloud([[x, -x, x / 7]], classes=[2])
    row = cloiseg.model._pts_rows(cloud.positions, [cloud.class_labels, cloud.gt_instance])
    assert row.tobytes() == pts_text(cloud).split(b"\n", 1)[1]


def _neighbours(x: np.ndarray, ulps: int) -> np.ndarray:
    """``x`` with its neighbours up to ``ulps`` steps away on both sides."""
    out, up, down = [x], x, x
    for _ in range(ulps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return np.concatenate(out)


def test_a_million_coordinates_are_written_as_repr(tmp_path):
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, 500_000, dtype=np.uint64)
    # the bit patterns with binary exponents around [1e-4, 1e16), the range
    # whose digits are computed in numpy; outside it repr writes each value,
    # slowly for large exponents, so fewer of those are drawn
    exponents = rng.integers(1000, 1086, bits.size).astype(np.uint64) << np.uint64(52)
    near = (bits & np.uint64(0x800F_FFFF_FFFF_FFFF)) | exponents
    powers = np.array([10.0 ** k for k in range(-20, 23)] + [2.0 ** k for k in range(-40, 60)])
    x = np.concatenate([
        bits[:20_000].view(np.float64), near.view(np.float64),
        _neighbours(powers, 1), _neighbours(np.array([1e-4, 1e16]), 4),
        [round(v, d) for v, d in zip(rng.uniform(-100, 100, 30_000).tolist(),
                                     rng.integers(0, 12, 30_000).tolist())],
    ])
    x = x[np.isfinite(x)]
    x = np.concatenate([x, -x])
    cloud = make_cloud(x[: x.size // 3 * 3].reshape(-1, 3))
    p = tmp_path / "bulk.pts"
    save_pts(cloud, p)
    got, want = p.read_bytes(), pts_text(cloud)
    assert got == want, _mismatches(got, want)


@pytest.mark.parametrize("n", range(8))
def test_small_clouds_match_the_oracle_across_chunks(tmp_path, monkeypatch, n):
    monkeypatch.setattr(cloiseg.model, "_CHUNK_ROWS", 3)
    rng = np.random.default_rng(n)
    pos = np.reshape([round(v, d) for v, d in zip(rng.uniform(-5, 5, 3 * n).tolist(),
                                                  rng.integers(0, 17, 3 * n).tolist())], (n, 3))
    pos[::4, 1] = 0.0
    pos[1::5, 2] = 3e-7
    classes = rng.integers(0, 8, n)
    extra = rng.integers(-(2**63), 2**63 - 1, n, endpoint=True)
    extra[:1], extra[1:2] = np.iinfo(np.int64).min, np.iinfo(np.int64).max
    p = tmp_path / "small.pts"
    for cloud in (make_cloud(pos, classes, classes),
                  make_cloud(pos, classes, classes, pred=np.arange(n) - 1)):
        for extra_column in (None, extra):
            save_pts(cloud, p, extra_column=extra_column)
            assert p.read_bytes() == pts_text(cloud, extra_column)


def test_extra_column_of_the_wrong_length_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="one entry per point"):
        save_pts(make_cloud(np.zeros((3, 3))), tmp_path / "x.pts", extra_column=[1, 0])
    assert not (tmp_path / "x.pts").exists()


def test_writer_memory_does_not_grow_with_the_cloud(tmp_path):
    rng = np.random.default_rng(4)
    peaks = []
    for n in (150_000, 600_000):
        cloud = make_cloud(rng.uniform(-20, 20, (n, 3)), rng.integers(0, 8, n))
        tracemalloc.start()
        try:
            save_pts(cloud, tmp_path / "big.pts")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.3 * peaks[0], peaks


# -- PLY importer -----------------------------------------------------------

def test_load_ply_with_labels(tmp_path):
    p = tmp_path / "a.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property int class\nproperty int instance\nend_header\n"
        "0 0 0 3 4\n1 0 0 3 4\n"
    )
    cloud = load_ply(p)
    assert len(cloud) == 2
    assert cloud.class_labels.tolist() == [3, 3]
    assert cloud.gt_instance.tolist() == [0, 0]


def test_load_ply_defaults_without_labels(tmp_path):
    p = tmp_path / "b.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
        "1 2 3\n"
    )
    cloud = load_ply(p)
    assert cloud.class_labels.tolist() == [0]
    assert cloud.gt_instance.tolist() == [NOISE]


_PLY_HEADER = (
    "ply\nformat ascii 1.0\ncomment made by hand\nelement vertex 2\n"
    "property float x\nproperty float y\nproperty float z\n"
    "property float class\nproperty float instance\nend_header\n"
)


def test_load_ply_rejects_fractional_labels(tmp_path):
    p = tmp_path / "frac.ply"
    p.write_text(_PLY_HEADER + "0 0 0 3 0\n1 0 0 2.7 1\n")
    with pytest.raises(PtsParseError, match=r"frac\.ply:12: non-integer class code"):
        load_ply(p)
    p.write_text(_PLY_HEADER + "0 0 0 3 0.5\n1 0 0 3 0\n")
    with pytest.raises(PtsParseError, match=r"frac\.ply:11: non-integer instance id"):
        load_ply(p)


def test_load_ply_range_and_format_errors_carry_line(tmp_path):
    p = tmp_path / "bad.ply"
    for body, where in (("0 0 0 3 0\n1 0 0 8 1\n", ":12: class code outside"),
                        ("0 0 0 3 -2\n1 0 0 3 0\n", ":11: instance id below -1"),
                        ("0 0 0 3 0\n1 0 nan 3 0\n", ":12: non-finite"),
                        ("0 0 0 3 0\n1 0 0 4 0\n", ":12: ground-truth instance mixes"),
                        ("0 0 0 3 0\n1 0 0 3\n", ":12: expected 5 columns, got 4"),
                        ("0 0 0 3 0\n", "declares 2 vertices but file has 1")):
        p.write_text(_PLY_HEADER + body)
        with pytest.raises(PtsParseError, match=where):
            load_ply(p)


def test_load_ply_rejects_bad_element_line(tmp_path):
    p = tmp_path / "el.ply"
    for element in ("element vertex", "element vertex two"):
        p.write_text(f"ply\nformat ascii 1.0\n{element}\nproperty float x\nend_header\n")
        with pytest.raises(PtsParseError, match=r"el\.ply:3: bad element line"):
            load_ply(p)


def test_load_ply_ignores_other_properties_and_trailing_elements(tmp_path):
    p = tmp_path / "extra.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 2\nproperty float nx\n"
        "property float x\nproperty float y\nproperty float z\nproperty int instance\n"
        "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
        "9 0.5 0 0 7\n9 1.5 0 0 7\n3 0 1 1\n"
    )
    cloud = load_ply(p)
    assert cloud.positions[:, 0].tolist() == [0.5, 1.5]
    assert cloud.class_labels.tolist() == [0, 0]
    assert cloud.gt_instance.tolist() == [0, 0]


def test_load_ply_skips_the_rows_of_elements_before_vertex(tmp_path):
    p = tmp_path / "face-first.ply"
    head = ("ply\nformat ascii 1.0\nelement face {faces}\nproperty list uchar int vertex_indices\n"
            "element edge 1\nproperty int vertex1\nelement vertex 2\nproperty float x\n"
            "property float y\nproperty float z\nend_header\n")
    p.write_text(head.format(faces=1) + "2 0 1\n0 1\n1 2 3\n4 5 6\n")
    assert load_ply(p).positions.tolist() == [[1, 2, 3], [4, 5, 6]]
    # skipped rows are counted in bytes, whatever they hold, and shift every line number
    rows = "2 0 1 \u00e9\r\n3 0\r0 1\n1 2 3\n4 5 e\n"
    p.write_bytes((head.format(faces=2) + rows).encode())
    with pytest.raises(PtsParseError, match=r"face-first\.ply:16: unparseable number"):
        load_ply(p)
    p.write_text(head.format(faces=3) + "2 0 1\n0 1\n1 2 3\n4 5 6\n")
    with pytest.raises(PtsParseError, match="declares 2 vertices but file has 0 data lines"):
        load_ply(p)


def test_load_ply_rejects_binary(tmp_path):
    p = tmp_path / "c.ply"
    p.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
    with pytest.raises(PtsParseError, match="ASCII"):
        load_ply(p)


# -- class histogram ----------------------------------------------------------

def test_class_histogram_two_cylinders():
    pos = np.zeros((1000, 3))
    pos[:, 0] = np.arange(1000)
    gt = np.repeat([0, 1], 500)
    cloud = make_cloud(pos, classes=3, gt=gt)
    hist = class_histogram(cloud)
    assert hist[ClassLabel.CYLINDER] == (2, 1000)
    assert hist[ClassLabel.VALVE] == (0, 0)
    assert sum(h[1] for h in hist.values()) == len(cloud)
    assert sum(h[0] for h in hist.values()) == 2


def test_class_histogram_empty_cloud():
    cloud = make_cloud(np.empty((0, 3)))
    hist = class_histogram(cloud)
    assert all(h == (0, 0) for h in hist.values())


def test_class_histogram_requires_ground_truth():
    cloud = make_cloud([[0, 0, 0]])
    with pytest.raises(ValueError):
        class_histogram(cloud)


def test_class_histogram_warehouse_golden():
    import os

    path = os.environ.get("CLOI_WAREHOUSE_PTS")
    if not path:
        pytest.skip("CLOI_WAREHOUSE_PTS not set; warehouse statistics need the dataset")
    hist = class_histogram(load_pts(path))
    assert hist[ClassLabel.ANGLE] == (111, 157504)

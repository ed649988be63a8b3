"""Core data model and file I/O for class-labeled industrial point clouds.

A cloud is stored columnar (numpy arrays), one array per attribute. Instance
ids are kept in canonical form: instances are numbered 0..K-1 by ascending
smallest member point index, ``NOISE`` (-1) marks unassigned/absent.

A CLOI-PTS or PLY point row holds only ASCII digits, ``+-.eE``, the letters of
nan/inf/infinity, spaces and tabs; lines end in ``\n``, ``\r\n`` or ``\r``.
Every reader error names its ``path:line``; a wrong row count names the path.
"""

from __future__ import annotations

import copy
import functools
import os
import re
import secrets
from contextlib import contextmanager
from enum import IntEnum
from itertools import islice
from pathlib import Path
from typing import Mapping, NoReturn

import numpy as np

from .spatial import _distinct

NOISE = -1

_HEADER_RE = re.compile(r"^cloi-pts v1 n=(\d+)\s*$", re.ASCII)


class ClassLabel(IntEnum):
    """The seven CLOI object classes plus the other/clutter class."""

    OTHER = 0
    ANGLE = 1
    CHANNEL = 2
    CYLINDER = 3
    ELBOW = 4
    IBEAM = 5
    FLANGE = 6
    VALVE = 7


#: The seven CLOI classes; OTHER is excluded from mean metrics.
CLOI_CLASSES = tuple(c for c in ClassLabel if c is not ClassLabel.OTHER)


class PtsParseError(ValueError):
    """Malformed CLOI-PTS (or PLY) content; carries the offending line."""

    def __init__(self, path, line_no: int | None, message: str):
        self.path = str(path)
        self.line_no = line_no
        where = f"{self.path}:{line_no}" if line_no is not None else self.path
        super().__init__(f"{where}: {message}")


class CloudValueError(ValueError):
    """A value breaks a :class:`LabeledPointCloud` rule; ``index`` is its point."""

    def __init__(self, index: int, reason: str):
        self.index, self.reason = index, reason
        super().__init__(f"{reason} at point {index}")


def _require(ok: np.ndarray, reason: str) -> None:
    """Raise :class:`CloudValueError` at the first point (row of ``ok``) with a False."""
    if not ok.all():
        raise CloudValueError(int(np.argmin(ok.reshape(len(ok), -1).all(axis=1))), reason)


def _group_instances(ids, class_labels=None, reason="instance mixes class labels"):
    """``(canonical ids, smallest member of each instance)`` from one ``np.unique`` pass.

    Ids < 0 become NOISE. With ``class_labels``, the first point whose class
    differs from its instance's smallest member raises :class:`CloudValueError`.
    """
    ids = np.asarray(ids, dtype=np.int64)
    uniq, first = np.unique(ids, return_index=True)
    kept = uniq >= 0
    uniq, first = uniq[kept], first[kept]
    if uniq.size == 0:
        return np.full(ids.shape, NOISE, dtype=np.int64), first
    # ids map to instances through the sorted distinct ids, not a per-point
    # inverse, which keeps the temporaries at a few columns of the cloud
    canonical = np.argsort(np.argsort(first))[np.searchsorted(uniq, ids).clip(max=uniq.size - 1)]
    canonical[ids < 0] = NOISE
    first = np.sort(first)
    if class_labels is not None:
        bad = np.flatnonzero(class_labels != class_labels[first][canonical])
        bad = bad[ids[bad] >= 0]
        if bad.size:
            raise CloudValueError(int(bad[0]), reason)
    return canonical, first


def canonical_instance_ids(ids: np.ndarray) -> np.ndarray:
    """Relabel non-negative ids to 0..K-1 by ascending smallest member index.

    NOISE entries are preserved. Idempotent.
    """
    return _group_instances(ids)[0]


class LabeledPointCloud:
    """Ordered set of labeled 3D points.

    Attributes are plain numpy arrays, immutable after construction; deriving
    operations return new clouds. The constructor is the one home of the value
    rules, for ground truth and predictions alike: finite coordinates, class
    codes in [0,7], instance ids >= -1, class-pure instances. It raises
    :class:`CloudValueError` on a violation and canonicalizes instance ids.
    """

    def __init__(
        self,
        positions: np.ndarray,
        class_labels: np.ndarray,
        gt_instance: np.ndarray | None = None,
        pred_instance: np.ndarray | None = None,
    ):
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {positions.shape}")
        n = positions.shape[0]
        _require(np.isfinite(positions), "non-finite coordinate")

        class_labels = np.asarray(class_labels, dtype=np.int64)
        if class_labels.shape != (n,):
            raise ValueError("class_labels must have one entry per point")
        _require((class_labels >= 0) & (class_labels <= 7), "class code outside [0,7]")

        self.positions = positions
        self.class_labels = class_labels
        self.gt_instance = self._instance_ids(
            np.full(n, NOISE) if gt_instance is None else gt_instance, "gt_instance",
            "instance id below -1", "ground-truth instance mixes class labels")
        self.pred_instance = None if pred_instance is None else self._predictions(pred_instance)

    def _instance_ids(self, ids, name: str, below: str, mixed: str) -> np.ndarray:
        """One instance column, checked against the rules and canonicalized."""
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != self.class_labels.shape:
            raise ValueError(f"{name} must have one entry per point")
        _require(ids >= NOISE, below)
        return _group_instances(ids, self.class_labels, mixed)[0]

    def _predictions(self, ids) -> np.ndarray:
        return self._instance_ids(ids, "pred_instance", "predicted instance id below -1",
                                  "predicted instance mixes class labels")

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def has_ground_truth(self) -> bool:
        """True when every point carries a ground-truth instance id."""
        return len(self) > 0 and bool((self.gt_instance >= 0).all())

    @property
    def has_predictions(self) -> bool:
        return self.pred_instance is not None

    def with_predictions(self, assignment: np.ndarray) -> "LabeledPointCloud":
        """This cloud with a new prediction column; only that column is checked."""
        cloud = copy.copy(self)
        cloud.pred_instance = self._predictions(assignment)
        return cloud


# ---------------------------------------------------------------------------
# CLOI-PTS text format
# ---------------------------------------------------------------------------

def _table_columns(path, table: np.ndarray, first_data_line: int):
    """``(positions, label columns)`` of a parsed (N, 5|6) float table, as new arrays.

    Text adds one rule to the cloud's own: label columns hold integers. A
    caller that drops the table then holds only the cloud's arrays.
    """
    labels = []
    for k, name in zip(range(3, table.shape[1]),
                       ("class code", "instance id", "predicted instance id")):
        col = table[:, k]
        ok = np.isfinite(col) & (col == np.floor(col)) & (np.abs(col) < 2**53)
        if not ok.all():
            raise PtsParseError(path, first_data_line + int(np.argmin(ok)), f"non-integer {name}")
        labels.append(col.astype(np.int64))
    return np.ascontiguousarray(table[:, :3]), labels


def _cloud_from_columns(path, columns, first_data_line: int) -> LabeledPointCloud:
    """The cloud of ``_table_columns``; a rule it breaks is reported at the line of its point."""
    positions, labels = columns
    try:
        return LabeledPointCloud(positions, *labels)
    except CloudValueError as exc:
        raise PtsParseError(path, first_data_line + exc.index, exc.reason) from None


#: A row's bytes: a number's, the letters of nan/inf/infinity, blanks, line ends.
#: With no other byte no line is a comment, and numpy reads numbers as float does.
_ROW_BYTES = b"0123456789+-.eEnNaAiIfFtTyY \t\r\n"
_LINE_END = re.compile(rb"\r\n?|\n")
#: A header line's bytes: printable ASCII, tab and the line ends. str.split()
#: would also split on the other control bytes, such as 0x1c-0x1f.
_HEADER_BYTES = bytes(range(0x20, 0x7f)) + b"\t\r\n"


def _line_ends(data: bytes) -> int:
    return data.count(b"\n") + (data.count(b"\r") - data.count(b"\r\n") if b"\r" in data else 0)


def _read_rows(path: Path, f, start: int, first_line: int, n: int, widths, declared: str,
               limit: int | None = None, block_size: int = 1 << 20) -> np.ndarray:
    """The (n, width) float table of the rows from byte ``start``, line
    ``first_line``, of ``path`` (the rest of the file, which blank lines may end,
    or the next ``limit`` lines), read by a scan of their bytes in blocks, then
    one ``np.loadtxt`` over the text ``f`` at ``start``. Holding no list of lines,
    the load peaks at about twice the table. Other rows go to :func:`_row_error`."""
    lines = ends = 0
    with path.open("rb") as raw:
        raw.seek(start)
        while ends != limit and (block := raw.read(block_size)):
            if block.endswith(b"\r"):
                block += raw.read(1)  # no CRLF is split between blocks
            k = _line_ends(block)
            if limit is not None and ends + k >= limit:  # cut after the limit-th line
                cut = next(islice(_LINE_END.finditer(block), limit - ends - 1, None))
                block, k = block[:cut.end()], limit - ends
            if block.translate(None, _ROW_BYTES):
                lines = None
                break
            if text := block.rstrip(b" \t\r\n"):
                lines = ends + _line_ends(text) + 1
            ends += k
    if lines == n:
        try:
            rows = f if limit is None else islice(f, n)
            table = np.loadtxt(rows, dtype=np.float64, ndmin=2) if n else np.empty((0, widths[0]))
            if table.shape[0] == n and table.shape[1] in widths:
                return table
        except ValueError:
            pass
    _row_error(path, first_line, limit, widths, declared)


def _row_error(path: Path, first_line: int, limit: int | None, widths,
               declared: str) -> NoReturn:
    """Raise the first fault of the rows of :func:`_read_rows`, walking them line by
    line: a byte not in ``_ROW_BYTES``, an interior blank line, a row of the wrong
    width or an unparseable number, at its line; else the header's wrong count."""
    rows, blank, ncol = 0, None, None
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as f:
        stop = None if limit is None else first_line - 1 + limit
        for line_no, line in islice(enumerate(f, 1), first_line - 1, stop):
            if not line.strip(" \t\r\n"):
                blank = blank or line_no
                if limit is None:  # blank lines may end a file
                    continue
            if blank:
                raise PtsParseError(path, blank, "blank line in point data")
            _check_bytes(path, line_no, line, _ROW_BYTES)
            tokens = line.split()
            ncol = ncol or (len(tokens) if len(tokens) in widths else None)
            if len(tokens) != ncol:
                expected = ncol or " or ".join(map(str, widths))
                raise PtsParseError(path, line_no,
                                    f"expected {expected} columns, got {len(tokens)}")
            try:
                [float(t) for t in tokens]
            except ValueError:
                raise PtsParseError(path, line_no, f"unparseable number in {tokens!r}") from None
            rows = line_no - first_line + 1
    raise PtsParseError(path, None, f"header declares {declared} but file has {rows} data lines")


def _check_bytes(path: Path, line_no: int, line: str, allowed: bytes) -> None:
    """Raise at ``line_no`` if the bytes of ``line`` hold one not in ``allowed``."""
    bad = line.encode("utf-8", "surrogateescape").translate(None, allowed)
    if bad:
        raise PtsParseError(path, line_no, f"unexpected byte 0x{bad[0]:02x}")


def load_pts(path) -> LabeledPointCloud:
    """Load a CLOI-PTS file (header ``cloi-pts v1 n=<N>`` + one line per point)."""
    path = Path(path)
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as f:
        header = f.readline()
        m = _HEADER_RE.match(header)
        if not m:
            raise PtsParseError(path, 1, f"bad header {header.rstrip()!r}")
        _check_bytes(path, 1, header, _HEADER_BYTES)  # \s also matches 0x0b and 0x0c
        table = _read_rows(path, f, len(header), 2, int(m[1]), (5, 6), f"n={m[1]}")
    columns = _table_columns(path, table, first_data_line=2)
    del table  # freed before the cloud checks, which peak over the columns
    return _cloud_from_columns(path, columns, first_data_line=2)


@contextmanager
def atomic_open(path, *, binary: bool = False, **open_kwargs):
    """Open a file for writing that appears at ``path`` only when complete.

    The file is a text file unless ``binary``. Writes go to a temporary file
    beside ``path``, which replaces ``path`` when the block exits normally; on
    an exception the temporary file is removed and any earlier file at
    ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with tmp.open("xb" if binary else "x", **open_kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# CLOI-PTS writer
#
# A coordinate is written as the text of Python's ``repr``: the shortest
# digits that read back as the same double, positional while the decimal
# point lies within (-4, 16] digits of the first one. The digits come from
# Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020), which
# picks the same ones as ``repr``, run here on whole numpy arrays. Each number
# becomes a row of byte slots, 0 marking an empty one, and the text of a chunk
# of rows is its slot matrix's nonzero bytes in order. Values outside that
# range (below 1e-4, from 1e16, subnormal) take ``repr`` itself, and integers
# beyond +-10**17 take ``str``.
# ---------------------------------------------------------------------------

#: Rows formatted and written at a time.
_CHUNK_ROWS = 16384

_U, _I = np.uint64, np.int64
_POW10 = np.array([10 ** j for j in range(20)], dtype=_U)
#: "0000" to "9999" in ASCII, four bytes each
_QUADS = np.stack(np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4,
                              indexing="ij"), axis=-1).view(np.uint32).ravel()
#: _QUAD_MASKS[p - 1][n]: 0xff on the last n digits of a field of p four-digit
#: pieces, 0 on the others (a field holds at most 6 pieces)
_LAST_DIGITS = np.where(np.arange(23, -1, -1) < np.arange(25)[:, None], 0xFF, 0).astype(np.uint8)
_QUAD_MASKS = [np.ascontiguousarray(_LAST_DIGITS[:, 24 - 4 * p:]).view(np.uint32)
               for p in range(1, 7)]
#: magnitudes written through Schubfach, and the biased exponents they span
_FAST_LO, _FAST_HI = 1e-4, 1e16
_BQ_LO, _BQ_HI = (int(np.float64(v).view(_U) >> _U(52)) for v in (_FAST_LO, _FAST_HI))
_M32, _M52, _M63 = _U(2 ** 32 - 1), _U(2 ** 52 - 1), _U(2 ** 63 - 1)
#: by the last three bits of vb = 4s + (vb & 3): is t = s + 1 nearer than s, ties to even?
_ROUNDS_UP = np.array([False, False, False, True, False, False, True, True])


@functools.cache
def _schubfach_table() -> list[np.ndarray]:
    """Per biased exponent of the fast range, for regular then irregular
    spacing: ``k``, the shift of ``c`` to ``cb << h``, the offsets of the
    interval's ends at that shift, and the 32-bit halves of ``g1`` and ``g0``.

    ``10**-k`` is ``beta * 2**r`` with ``2**125 <= beta < 2**126`` and
    ``g = floor(beta) + 1 = g1 * 2**63 + g0`` (Giulietti, section 9.8).
    """
    rows = []
    for irregular in (False, True):
        for bq in range(_BQ_LO, _BQ_HI + 1):
            q = bq - 1075
            k = (q * 661971961083 - (274743187321 if irregular else 0)) >> 41
            log2_pow10 = (-k * 913124641741) >> 38  # floor(log2(10**-k)); k <= 0 here
            h = q + log2_pow10 + 2
            g = 10 ** -k * 2 ** (125 - log2_pow10) + 1
            g1, g0 = g >> 63, g & (2 ** 63 - 1)
            rows.append((k, h + 2, (1 if irregular else 2) << h, 2 << h,
                         g1 >> 32, g1 & (2 ** 32 - 1), g0 >> 32, g0 & (2 ** 32 - 1)))
    k, *rest = zip(*rows)
    return [np.array(k, dtype=_I)] + [np.array(c, dtype=_U) for c in rest]


def _mulhi(ah, al, bh, bl):
    """The high 64 bits of ``a * b``, from the 32-bit halves of each."""
    hl, lh = ah * bl, al * bh
    carry = ((hl & _M32) + (lh & _M32) + ((al * bl) >> _U(32))) >> _U(32)
    return ah * bh + (hl >> _U(32)) + (lh >> _U(32)) + carry


def _rop(g1h, g1l, g0h, g0l, cp):
    """Round to odd of ``g * cp / 2**127`` (Giulietti, section 9.9 and figure 8)."""
    ch, cl = cp >> _U(32), cp & _M32
    x1 = _mulhi(g0h, g0l, ch, cl)
    y1 = _mulhi(g1h, g1l, ch, cl)
    z = (((g1h << _U(32)) | g1l) * cp >> _U(1)) + x1
    return (y1 + (z >> _U(63))) | (((z & _M63) + _M63) >> _U(63))


def _shortest(mag: np.ndarray):
    """``(f, e)`` with ``mag == f * 10**e`` to the shortest digits that read back
    as ``mag``, the nearest of them, ``f`` without trailing zeros.

    ``mag`` holds positive doubles of the fast range. This is Giulietti's
    figure 7, whose ``s >= 100`` test always holds for normal values.
    """
    bits = mag.view(_U)
    t = bits & _M52
    row = (bits >> _U(52)).astype(np.intp) - _BQ_LO
    row[t == _U(0)] += _BQ_HI - _BQ_LO + 1
    k, shift, lower, upper, *g = (np.take(col, row) for col in _schubfach_table())
    c = t | _U(2 ** 52)
    odd = c & _U(1)
    cp = c << shift
    vb = _rop(*g, cp)
    vbl = _rop(*g, cp - lower) + odd
    vbr = _rop(*g, cp + upper) - odd
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    shorter = upin != ((sp10 + _U(10)) << _U(2) <= vbr)
    uin, win = vbl <= s << _U(2), (s << _U(2)) + _U(4) <= vbr
    f = s + np.where(uin != win, win, np.take(_ROUNDS_UP, (vb & _U(7)).view(_I))).astype(_U)
    f = np.where(shorter, sp10 + np.where(upin, _U(0), _U(10)), f)
    e = k
    zero = f % _U(10) == _U(0)  # strip trailing zeros, 16 + 8 + 4 + 2 + 1 at most
    if zero.any():
        fz, ez = f[zero], e[zero]
        for p in (16, 8, 4, 2, 1):
            cut = fz % _POW10[p] == _U(0)
            fz = np.where(cut, fz // _POW10[p], fz)
            ez += cut * _I(p)
        f[zero], e[zero] = fz, ez
    return f, e


def _ndigits(n: np.ndarray) -> np.ndarray:
    """Decimal digits of each of ``n`` (uint64), 1 for 0."""
    return np.maximum(np.searchsorted(_POW10, n, side="right"), 1)


def _ascii(n: np.ndarray, width: int, count: np.ndarray) -> np.ndarray:
    """The last ``width`` digits of each of ``n`` in ASCII, those from the
    ``count``-th on the right zeroed: shape ``n.shape + (width,)``."""
    pieces = -(-width // 4)
    quads = np.empty((pieces,) + n.shape, np.uint32)
    n = n.view(_I)  # below 10**17, and int64 indices take on every numpy
    for piece in quads[::-1]:
        n, low = np.divmod(n, _I(10000))
        np.take(_QUADS, low, out=piece, mode="clip")
    quads = np.moveaxis(quads, 0, -1).copy()
    quads &= np.take(_QUAD_MASKS[pieces - 1], count, axis=0, mode="clip")
    return quads.view(np.uint8)[..., 4 * pieces - width:]


def _slots(neg, whole, frac=None, nfrac=None, *, other, text) -> np.ndarray:
    """Byte slots ``sign | whole digits | '.' | fraction digits | separator``.

    ``whole`` (uint64) is written without leading zeros; ``frac`` (uint64),
    if given, to its last ``nfrac`` digits after a '.'. Where ``other``, the
    slots hold instead the next of ``text``. The separator slot is left 0.
    """
    nwhole = _ndigits(whole)
    widths = [int(nwhole.max(initial=1))]
    if frac is not None:
        widths.append(int(nfrac.max(initial=1)))
    tokens = np.array(text, dtype="S") if text else np.zeros(0, "S1")
    widths[-1] += max(tokens.itemsize - sum(widths) - len(widths), 0)
    out = np.zeros(neg.shape + (sum(widths) + len(widths) + 1,), np.uint8)
    out[..., 0] = neg * np.uint8(ord("-"))
    out[..., 1:1 + widths[0]] = _ascii(whole, widths[0], nwhole)
    if frac is not None:
        out[..., 1 + widths[0]] = ord(".")
        out[..., 2 + widths[0]:-1] = _ascii(frac, widths[1], nfrac)
    if text:
        out[other] = 0
        out[other, :tokens.itemsize] = tokens.view(np.uint8).reshape(len(tokens), -1)
    return out


def _float_slots(x: np.ndarray) -> np.ndarray:
    """Slots of each float of ``x``, written as ``repr`` writes it."""
    mag = np.abs(x)
    fast = (mag >= _FAST_LO) & (mag < _FAST_HI)
    other = ~fast & (x != 0)
    f, e = _shortest(np.where(fast, mag, 1.0))
    f[~fast], e[~fast] = 0, 0
    nfrac = np.maximum(-e, 1)
    digits = f * np.take(_POW10, e + nfrac)  # f * 10**e with nfrac fraction digits
    whole = digits // np.take(_POW10, np.minimum(nfrac, 19))
    return _slots(np.signbit(x), whole, digits, nfrac, other=other,
                  text=[repr(v) for v in x[other].tolist()])


def _int_slots(v: np.ndarray) -> np.ndarray:
    """Slots of each int64 of ``v``, written as ``str`` writes it."""
    other = (v <= _I(-10 ** 17)) | (v >= _I(10 ** 17))
    mag = np.abs(np.where(other, _I(0), v)).astype(_U)
    return _slots(v < 0, mag, other=other, text=[str(i) for i in v[other].tolist()])


def _pts_rows(positions: np.ndarray, ints: list[np.ndarray]) -> np.ndarray:
    """The CLOI-PTS text of some rows as uint8: ``positions`` (rows, 3), then
    the integer columns ``ints``."""
    blocks = [_float_slots(positions), _int_slots(np.stack(ints, axis=1))]
    for block in blocks:
        block[..., -1] = ord(" ")
    blocks[-1][:, -1, -1] = ord("\n")
    m = np.concatenate([b.reshape(len(b), -1) for b in blocks], axis=1)
    return m[m != 0]


def save_pts(cloud: LabeledPointCloud, path, *, extra_column=None) -> None:
    """Write a cloud as CLOI-PTS. Coordinates round-trip bit-exactly via repr's text.

    The prediction column is written exactly when the cloud has one.
    ``extra_column`` (one integer per point) is appended to every row; such
    files are analysis output, not re-loadable CLOI-PTS. The text is formatted
    and written one chunk of rows at a time.
    """
    ints = [cloud.class_labels, cloud.gt_instance]
    if cloud.has_predictions:
        ints.append(cloud.pred_instance)
    if extra_column is not None:
        extra = np.asarray(extra_column, dtype=np.int64)
        if extra.shape != (len(cloud),):
            raise ValueError("extra_column must have one entry per point")
        ints.append(extra)
    with atomic_open(path, binary=True) as f:
        f.write(b"cloi-pts v1 n=%d\n" % len(cloud))
        for start in range(0, len(cloud), _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            f.write(_pts_rows(cloud.positions[rows], [c[rows] for c in ints]))


# ---------------------------------------------------------------------------
# ASCII PLY convenience importer
# ---------------------------------------------------------------------------

def load_ply(path) -> LabeledPointCloud:
    """Import an ASCII PLY vertex cloud (properties x, y, z[, class][, instance]).

    Values pass the same checks as CLOI-PTS; a missing class is 0 (other) and
    a missing instance is NOISE.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as f:
        header = [f.readline(), f.readline()]
        if header[0].strip() != "ply":
            raise PtsParseError(path, 1, "not a PLY file")
        if header[1].strip() != "format ascii 1.0":
            raise PtsParseError(path, 2, f"only ASCII PLY is supported, got {header[1].strip()!r}")
        n_vertex, properties, elements, in_vertex, skip = None, [], set(), False, 0
        for line in f:
            header.append(line)
            tokens = line.split()
            if not tokens or tokens[0] == "comment":
                continue
            if tokens[0] == "element":
                if len(tokens) != 3 or not (tokens[2].isascii() and tokens[2].isdigit()):
                    raise PtsParseError(path, len(header), f"bad element line {line.strip()!r}")
                if tokens[1] in elements:
                    raise PtsParseError(path, len(header), f"repeated element {tokens[1]!r}")
                elements.add(tokens[1])
                in_vertex = tokens[1] == "vertex"
                if in_vertex:
                    n_vertex = int(tokens[2])
                elif n_vertex is None:  # the rows of elements before vertex come first
                    skip += int(tokens[2])
            elif tokens[0] == "property" and in_vertex:
                if tokens[-1] in properties:
                    raise PtsParseError(path, len(header),
                                        f"repeated vertex property {tokens[-1]!r}")
                properties.append(tokens[-1])
            elif tokens[0] == "end_header":
                break
        else:
            raise PtsParseError(path, len(header), "missing end_header")
        for line_no, line in enumerate(header, 1):
            _check_bytes(path, line_no, line, _HEADER_BYTES)
        if n_vertex is None:
            raise PtsParseError(path, len(header), "missing vertex element")
        for req in ("x", "y", "z"):
            if req not in properties:
                raise PtsParseError(path, len(header), f"missing vertex property {req!r}")
        start = sum(map(len, header)) + sum(
            len(line.encode("utf-8", "surrogateescape")) for line in islice(f, skip))
        first_data_line = len(header) + skip + 1
        data = _read_rows(path, f, start, first_data_line, n_vertex,
                          (len(properties),), f"{n_vertex} vertices", n_vertex)
    col = dict(zip(properties, data.T))
    table = np.column_stack([col["x"], col["y"], col["z"],
                             col.get("class", np.zeros(n_vertex)),
                             col.get("instance", np.full(n_vertex, float(NOISE)))])
    return _cloud_from_columns(path, _table_columns(path, table, first_data_line), first_data_line)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def class_histogram(cloud: LabeledPointCloud) -> Mapping[ClassLabel, tuple[int, int]]:
    """Per-class (instance count, point count); requires ground truth."""
    if len(cloud) and not cloud.has_ground_truth:
        raise ValueError("class_histogram requires ground-truth instance ids on every point")
    out: dict[ClassLabel, tuple[int, int]] = {}
    for label in ClassLabel:
        mask = cloud.class_labels == int(label)
        out[label] = (_distinct(cloud.gt_instance[mask]).size, int(mask.sum()))
    return out

"""Exact fixed-radius neighbour queries over 3D point positions, on a grid of cells.

Queries use the closed ball (d <= r, Euclidean, squares summed as
``dx*dx + dy*dy + dz*dz``); results are exact, equal to the brute-force
neighbour set. An index holds only its points, so it answers the same after
construction and is safe to share across threads.

Every query sorts its points into cubic cells a little wider than its radius
(grid DBSCAN: de Berg, Gunawan & Mehr, ISAAC 2017). Every point within that
radius of a point lies in its block: the 3x3x3 cells around its own (and
each in the other's). Pair and nearest queries test each point of a block
exactly; ``block_reduce`` reduces a per-point value over each point's block,
so that where a block's values show that no neighbour can matter, a
neighbour query may skip the point. ``mixed_pairs`` uses it to skip every
point whose block holds a single id, then streams, a chunk at a time, the
pairs of two ids: of class or ground-truth ids for boundary flags, of
component labels for links and the radius sweep. Rounding cannot break the
rule: a cell is wider than the radius by a relative ``CELL_MARGIN``, which
covers the rounding of the distance rule, plus ``CELL_ULPS`` units in the
last place of the cloud's largest extent, which cover the rounding of
``x - min`` and of the division by the side. A relative hair alone is not
enough: at UTM-size coordinates ``x - min`` rounds by ~1e-9 m.

Cell keys cannot overflow, however far apart the points lie. Along each
axis, occupied cells more than one cell apart are brought to two apart,
which keeps every pair of neighbouring cells neighbours and no other, so an
axis spans fewer than 2N + 3 cells. A cell's key is the rank of its (x, y)
column times the z extent plus its z cell, and a block is 9 runs of 3
consecutive keys, one run per column.

``clique_cells`` sorts points into clique cells instead (Gan & Tao, SIGMOD
2015): cubes narrower than the radius over sqrt(3) by the same margin, so
that every two points of one cell lie within the radius. Compression keeps
neighbouring clique cells neighbours too.
"""

from __future__ import annotations

import numpy as np

#: Cells are wider than their radius by this fraction of it ...
CELL_MARGIN = 1e-6
#: ... plus this many units in the last place of the cloud's largest extent.
CELL_ULPS = 16
# points are sorted on one int64 key (column, z) when the grid has fewer
# cells than this, and by column, then z, otherwise
_KEY_LIMIT = 2**63
#: pair and nearest queries test their candidate points in chunks of about this many
CANDIDATE_BUDGET = 1 << 17
#: ``nearest_within`` queries within these fractions of its cap in turn; a
#: row whose nearest point lies within one is final, the rest go on
NEAREST_TIERS = (1 / 3, 1.0)

# the 9 columns (dx, dy) of a block, and the 4 of them that follow the
# block's own column in key order
_BLOCK = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))
_FORWARD = ((0, 1), (1, -1), (1, 0), (1, 1))


def _squared_gaps(a: np.ndarray, i: np.ndarray, b: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Squared distances from points ``a[:, i]`` to ``b[:, j]``, as ``dx*dx + dy*dy + dz*dz``.

    ``a`` and ``b`` hold x, y and z as rows. In place, which is about twice
    as fast as fresh arrays at a chunk's size.
    """
    sq = None
    for u, v in zip(a, b):
        d = u[i]
        d -= v[j]
        d *= d
        if sq is None:
            sq = d
        else:
            sq += d
    return sq


def _side(radius: float, span: float, clique: bool = False) -> float:
    """The side of a cell for ``radius`` in a cloud of largest extent ``span``.

    Wide cells are at least ``radius`` across, clique cells at most
    ``radius / sqrt(3)``: the margin widens the one and narrows the other.
    """
    ulps = CELL_ULPS * np.spacing(span)
    if clique:
        return radius / np.sqrt(3.0) * (1.0 - CELL_MARGIN) - ulps
    return radius * (1.0 + CELL_MARGIN) + ulps


def _cells(radius: float, *clouds: np.ndarray, clique: bool = False):
    """Per cloud, each point's cell as its (x, y) column and z; and the x, y and z extents.

    The clouds share one grid: cubes of side ``_side``, compressed along
    each axis as the module docstring says. Coordinates start at 1, leaving
    a spare cell at each end of each axis, so that no neighbouring column or
    cell wraps; a column is ``x * y_extent + y``.
    """
    n = sum(c.shape[0] for c in clouds)
    # per coordinate, which is faster than reducing the rows of an (N, 3) array
    axes = list(zip(*(c.T for c in clouds)))
    lo = [min(x.min() for x in axis if x.size) for axis in axes]
    span = max(max(x.max() for x in axis if x.size) - x0 for axis, x0 in zip(axes, lo))
    side = _side(radius, span, clique)
    cells, extents = [], []
    for axis, x0 in zip(axes, lo):
        parts = []
        for x in axis:
            # x - x0 >= 0, so truncation is the floor; a side of at least
            # CELL_ULPS ulps keeps the quotient below 2**49, where every cell
            # is an exact integer
            q = x - x0
            q /= side
            parts.append(q.astype(np.int64))
            del q
        top = max(int(c.max()) for c in parts if c.size)
        if top > 2 * n:
            occupied = _distinct(np.concatenate(parts))
            steps = np.cumsum(np.minimum(np.diff(occupied, prepend=occupied[0]), 2))
            parts = [steps[np.searchsorted(occupied, c)] for c in parts]
            top = int(steps[-1])
        for c in parts:
            c += 1
        cells.append(parts)
        extents.append(top + 3)
    for x, y in zip(cells[0], cells[1]):
        x *= extents[1]
        x += y
    return cells[0], cells[2], extents


class _Grid:
    """Points sorted by cell key, for cells of side >= ``radius``, or clique cells.

    ``order`` lists the points by key; the occupied cells' keys ascend in
    ``keys``, and cell k holds the sorted positions ``starts[k]`` to
    ``starts[k + 1]``. ``probes`` (say, query points) share the cells, and
    their own cells are in ``probe_column`` and ``probe_z``.
    """

    def __init__(self, points: np.ndarray, radius: float, probes: np.ndarray | None = None,
                 clique: bool = False):
        n = points.shape[0]
        clouds = (points,) if probes is None else (points, probes)
        columns, zs, (ex, ey, ez) = _cells(radius, *clouds, clique=clique)
        column, z = columns[0], zs[0]
        if probes is not None:
            self.probe_column, self.probe_z = columns[1], zs[1]
        del columns, zs
        if ex * ey * ez < _KEY_LIMIT:
            order = np.argsort(column * ez + z)
        else:
            order = np.lexsort((z, column))
        column, z = column[order], z[order]
        first = np.flatnonzero(np.concatenate([[True], (column[1:] != column[:-1])
                                               | (z[1:] != z[:-1])]))
        self.cell_column, self.cell_z = column[first], z[first]
        del column, z
        new = np.concatenate([[True], self.cell_column[1:] != self.cell_column[:-1]])
        self.columns = self.cell_column[new]
        self.keys = (np.cumsum(new) - 1) * ez + self.cell_z
        self.starts = np.append(first, n)
        self.order = order
        self.y_extent, self.z_extent = ey, ez

    def key_at(self, column: np.ndarray, z: np.ndarray, offsets) -> np.ndarray:
        """Keys of the cells ``z`` of column ``offsets[k]`` from each given one, in row k.

        The key is -2, below every key, where that column is unoccupied.
        """
        target = np.array([dx * self.y_extent + dy for dx, dy in offsets])[:, None] + column
        rank = np.searchsorted(self.columns, target)
        hit = self.columns[np.minimum(rank, self.columns.size - 1)] == target
        return np.where(hit, rank * self.z_extent + z, -2)

    def runs(self, column: np.ndarray, z: np.ndarray, offsets) -> tuple[np.ndarray, np.ndarray]:
        """Cell ranges ``[first, last)`` of the runs around cells ``(column, z)``.

        Row k covers the cells ``z - 1 .. z + 1`` of column ``offsets[k]``
        from each given one; an unoccupied column is an empty range.
        """
        key = self.key_at(column, z, offsets)
        return np.searchsorted(self.keys, key - 1), np.searchsorted(self.keys, key + 2)


def _coordinate_rows(points: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """x, y and z of ``points[ids]`` as three contiguous rows."""
    rows = np.empty((3, ids.size))
    for x, out in zip(points.T, rows):
        np.take(x, ids, out=out)
    return rows


def _chunks(cost: np.ndarray):
    """``[a, b)`` ranges of consecutive items costing about ``CANDIDATE_BUDGET`` each.

    An item that costs more on its own gets a range with at most a budget's
    worth of others.
    """
    cum = np.cumsum(cost)
    total = cum[-1] if cum.size else 0
    cuts = np.searchsorted(cum, np.arange(CANDIDATE_BUDGET, total, CANDIDATE_BUDGET),
                           side="right")
    bounds = _distinct(np.concatenate([[0], cuts, [cost.size]]))
    return zip(bounds[:-1].tolist(), bounds[1:].tolist())


def _distinct(values: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, ascending and in its dtype: ``np.unique`` by one sort.

    numpy 2.4's plain ``np.unique`` imports ``numpy.ma`` on its first call
    (about 16 ms of every CLI ``segment``), and on int64 its hash table is
    slower than a sort.
    """
    values = np.sort(values)
    keep = np.empty(values.size, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _check_radius(value: float, name: str = "radius") -> float:
    """``value`` if it is a finite length > 0, else a ValueError that names ``name``."""
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def _checked_positions(positions) -> np.ndarray:
    """``positions`` as a contiguous float64 array of shape (N, 3), all finite, or ValueError."""
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    if positions.size == 0:
        positions = positions.reshape(0, 3)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError(f"positions must have shape (N, 3), got {positions.shape}")
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")
    return positions


def _expand(owner: np.ndarray, first: np.ndarray, count: np.ndarray):
    """Each ``owner`` repeated ``count`` times, beside ``first .. first + count - 1``."""
    offset = np.cumsum(count) - count
    at = np.arange(offset[-1] + count[-1]) + np.repeat(first - offset, count)
    return np.repeat(owner, count), at


def _pair_chunks(positions: np.ndarray, r: float, ids: np.ndarray):
    """Yield the pairs (i, j), i < j, with d(P_i, P_j) <= r and two ``ids``, a chunk at a time.

    Each point is tested against the later points of its own cell and
    column, up to the cell above, and the 4 columns after its own: the
    forward half of its block, which holds each pair of the block once.
    A chunk takes about ``CANDIDATE_BUDGET`` candidate pairs, drops those of
    one id before the distance test, and yields an (M, 2) array, of int32
    where the indexes fit.
    """
    n = positions.shape[0]
    if n < 2:
        return
    grid = _Grid(positions, r)
    starts = grid.starts
    first, last = grid.runs(grid.cell_column, grid.cell_z, _FORWARD)
    first, last = starts[first], starts[last]
    # the cell's own column runs to the end of the cell above it, if any
    own_end = starts[np.searchsorted(grid.keys, grid.keys + 2)]
    cell = np.repeat(np.arange(grid.keys.size), np.diff(starts))
    point = np.arange(n)
    cost = own_end[cell] - point - 1 + (last - first).sum(axis=0)[cell]
    if not cost.any():
        return
    coords = _coordinate_rows(positions, grid.order)
    own = ids[grid.order]
    rr = r * r
    order = grid.order.astype(np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    for a, b in _chunks(cost):
        p, k = point[a:b], cell[a:b]
        lo = np.vstack([p + 1, first[:, k]]).ravel()
        i, j = _expand(np.tile(p, 5), lo, np.vstack([own_end[k], last[:, k]]).ravel() - lo)
        two = np.flatnonzero(own[i] != own[j])
        i, j = i[two], j[two]
        near = np.flatnonzero(_squared_gaps(coords, i, coords, j) <= rr)
        i, j = order[i[near]], order[j[near]]
        pairs = np.empty((near.size, 2), dtype=order.dtype)
        np.minimum(i, j, out=pairs[:, 0])
        np.maximum(i, j, out=pairs[:, 1])
        yield pairs


class RadiusIndex:
    """Exact fixed-radius queries over a set of points, answered on a cell grid.

    Each query sorts the points into the cells of its own radius (see the
    module docstring); the order of enumerated pairs depends on that sort,
    never the pair set or any query result.
    """

    def __init__(self, positions: np.ndarray):
        self.positions = _checked_positions(positions)

    def __len__(self) -> int:
        return self.positions.shape[0]

    def pairs_within(self, r: float) -> np.ndarray:
        """All index pairs (i, j), i < j, with d(P_i, P_j) <= r; shape (M, 2)."""
        _check_radius(r)
        return np.concatenate([np.empty((0, 2), dtype=np.int64),
                               *_pair_chunks(self.positions, r, np.arange(len(self)))],
                              dtype=np.int64)

    def nearest_within(self, points: np.ndarray, cap: float) -> tuple[np.ndarray, np.ndarray]:
        """Every exactly nearest indexed point to each query point, up to distance cap.

        Returns ``(rows, nearest)``: query row ``rows[k]`` has indexed point
        ``nearest[k]`` at its minimal squared distance, which is <= cap**2.
        Equidistant nearest points are all listed, so ties are left to the
        caller. Rows with nothing within cap are absent; output is sorted by
        row, then point.

        Rows are answered in tiers (``NEAREST_TIERS``): a row whose nearest
        point in its block lies within the tier's radius is final, since
        the block holds every point within that radius; the others are
        queried again at the next radius, the last being ``cap``.
        """
        _check_radius(cap, "cap")
        points = _checked_positions(points)
        rows, nearest = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
        todo = np.arange(points.shape[0]) if len(self) else np.empty(0, dtype=np.int64)
        for fraction in NEAREST_TIERS:
            if todo.size == 0:
                break
            radius = cap * fraction
            grid = _Grid(self.positions, radius, points[todo])
            first, last = grid.runs(grid.probe_column, grid.probe_z, _BLOCK)
            first, last = grid.starts[first].T, grid.starts[last].T
            count = last - first
            cost = count.sum(axis=1)
            coords = _coordinate_rows(self.positions, grid.order)
            queries = _coordinate_rows(points, todo)
            left = [np.flatnonzero(cost == 0)]
            for a, b in _chunks(cost):
                q = np.flatnonzero(cost[a:b]) + a
                if q.size == 0:
                    continue
                row, j = _expand(np.repeat(q, 9), first[q].ravel(), count[q].ravel())
                sq = _squared_gaps(coords, j, queries, row)
                best = np.minimum.reduceat(sq, np.cumsum(cost[q]) - cost[q])
                done = best <= radius * radius
                left.append(q[~done])
                keep = sq == np.repeat(np.where(done, best, -1.0), cost[q])
                rows.append(todo[row[keep]])
                nearest.append(grid.order[j[keep]])
            todo = todo[np.concatenate(left)]
        rows, nearest = np.concatenate(rows), np.concatenate(nearest)
        by_row = np.lexsort((nearest, rows))
        return rows[by_row], nearest[by_row]


def block_reduce(positions: np.ndarray, radius: float, values: np.ndarray, ufunc) -> np.ndarray:
    """Per point, ``ufunc`` reduced over the ``values`` of every point in its block.

    A block is the 3x3x3 cells around the point's own (see the module
    docstring), so any point within ``radius`` by the closed-ball rule of
    this module lies in the block (and, blocks being symmetric, each lies in
    the other's). ``values`` has one row per point; ``ufunc`` is an
    idempotent binary ufunc, such as ``np.bitwise_or`` or ``np.minimum``.
    """
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    values = np.asarray(values)
    if positions.shape[0] == 0:
        return values.copy()
    grid = _Grid(positions, radius)
    own = ufunc.reduceat(values[grid.order], grid.starts[:-1], axis=0)
    # cells are unique and sorted, so each run's occupied cells are the first
    # 3 from where it starts. A miss reads the cell itself, which an
    # idempotent ufunc ignores
    first, last = grid.runs(grid.cell_column, grid.cell_z, _BLOCK)
    itself = np.arange(own.shape[0])
    block = own
    for step in range(3):
        at = first + step
        at = np.where(at < last, at, itself)
        block = ufunc(block, ufunc.reduce(own[at], axis=0))
    cell_of = np.empty(positions.shape[0], dtype=np.int64)
    cell_of[grid.order] = np.repeat(itself, np.diff(grid.starts))
    return block[cell_of]


def mixed_pairs(positions: np.ndarray, ids: np.ndarray, radius: float):
    """Yield the pairs within ``radius`` whose two ``ids`` differ, a chunk at a time; (M, 2) each.

    Only a point whose block holds two ids (``block_reduce`` of ``[id, -id]``
    with ``np.minimum``) can have a neighbour of another id, and that
    neighbour's block holds two ids too; so pairs are enumerated among those
    points only, and where there are none no pair is tested. ``ids`` are
    integers >= 0; they are reduced in the smallest signed type that holds
    ``-max(ids) - 1``.
    """
    ids = np.asarray(ids)
    if ids.size == 0:
        return
    narrow = ids.astype(np.min_scalar_type(-int(ids.max()) - 1))
    bounds = block_reduce(positions, radius, np.stack([narrow, -narrow], axis=1), np.minimum)
    mixed = np.flatnonzero(bounds[:, 0] != -bounds[:, 1])
    del narrow, bounds
    if mixed.size == 0:
        return
    for pairs in _pair_chunks(positions[mixed], radius, ids[mixed]):
        yield mixed[pairs]


def clique_cells(positions: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the smallest point of its clique cell; and the cell pairs that link across a face.

    Every two points of a clique cell lie within ``radius`` (see the module
    docstring). Each cell is tested against 3 face neighbours: the cell
    above it in its column, and the cells at its z in columns (0, 1) and
    (1, 0). Each pair of cells with two points within ``radius`` (tested
    exactly, in chunks of about ``CANDIDATE_BUDGET`` point pairs) is one row
    of ``edges``, as the labels of the two cells. A radius too small for
    cells of ``CELL_ULPS`` ulps of the cloud's extent gives one label per
    point and no edges.
    """
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = positions.shape[0]
    labels, edges = np.arange(n), [np.empty((0, 2), dtype=np.int64)]
    span = (positions.max(axis=0) - positions.min(axis=0)).max() if n else 0.0
    if n < 2 or not _side(radius, span, clique=True) >= CELL_ULPS * np.spacing(span):
        return labels, edges[0]
    grid = _Grid(positions, radius, clique=True)
    starts, count = grid.starts, np.diff(grid.starts)
    cell_label = np.minimum.reduceat(grid.order, starts[:-1])
    coords = _coordinate_rows(positions, grid.order)
    # the cells one step forward (dx, dy, dz) that share a face with each cell
    for dx, dy, dz in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        faces = grid.key_at(grid.cell_column, grid.cell_z + dz, [(dx, dy)])[0]
        at = np.searchsorted(grid.keys, faces)
        near = np.flatnonzero(grid.keys[np.minimum(at, grid.keys.size - 1)] == faces)
        far = at[near]
        del faces, at
        cost = count[near] * count[far]
        linked = np.zeros(cost.size, dtype=bool)
        for a, b in _chunks(cost):
            face, i = _expand(np.arange(a, b), starts[near[a:b]], count[near[a:b]])
            row, j = _expand(np.arange(face.size), starts[far[face]], count[far[face]])
            linked[face[row[_squared_gaps(coords, i[row], coords, j) <= radius * radius]]] = True
        linked = np.flatnonzero(linked)
        edges.append(np.stack([cell_label[near[linked]], cell_label[far[linked]]], axis=1))
    del coords
    labels[grid.order] = np.repeat(cell_label, count)
    return labels, np.concatenate(edges)

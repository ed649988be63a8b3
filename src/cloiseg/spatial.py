"""Fixed-radius neighbor index over 3D point positions, and cell blocks that prune it.

Queries use the closed ball (d <= r, Euclidean); results are exact, equal to
the brute-force neighbor set. An index answers the same after construction
(its tree is built by the first query) and is safe to share across threads.

``block_reduce`` reduces a per-point value over each point's block: the 3x3x3
cells around its own, with cubic cells a little wider than a radius. Every
point within that radius of a point lies in its block (and each in the
other's), so where a block's values show that no neighbour can matter, a
neighbour query may skip the point. Boundary flags, links and the radius
sweep use it so (see ``boundary`` and ``segmentation``). Rounding cannot
break the rule: a cell is wider than the radius by a relative
``CELL_MARGIN``, which covers the rounding of the distance rule, plus
``CELL_ULPS`` units in the last place of the cloud's largest extent, which
cover the rounding of ``x - min`` and of the division by the side. A relative hair alone is not enough: at UTM-size
coordinates ``x - min`` rounds by ~1e-9 m. When the int64 cell key could
overflow (say, with one point 1e9 m from the rest), every point's block is
the whole cloud, so nothing is skipped.

``slabs`` cuts a large cloud along its widest axis into overlapping slabs
that hold every pair within a radius, with the same margin, so that pairs
can be enumerated one slab at a time.
"""

from __future__ import annotations

import functools

import numpy as np

#: Cells are wider than their radius by this fraction of it ...
CELL_MARGIN = 1e-6
#: ... plus this many units in the last place of the cloud's largest extent.
CELL_ULPS = 16
# cell keys stay below this; a larger grid falls back to one block
_KEY_LIMIT = 2.0**62
#: ``slabs`` cuts clouds larger than this many points
SLAB_POINTS = 1 << 17


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise squared distances, summed as ``dx*dx + dy*dy + dz*dz``."""
    dx, dy, dz = (a - b).T
    return dx * dx + dy * dy + dz * dz


class RadiusIndex:
    """k-d tree supporting exact fixed-radius queries.

    The tree splits at sliding midpoints (``balanced_tree=False``) and keeps
    loose node boxes (``compact_nodes=False``): both build and query faster on
    scan-like clouds than median splits, and only the order of enumerated
    pairs depends on them, never the pair set or any query result. It is
    built by the first query, so an index whose points are only read (say,
    a class enumerated slab by slab) costs no tree until it is queried.
    """

    def __init__(self, positions: np.ndarray):
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        if positions.size == 0:
            positions = positions.reshape(0, 3)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {positions.shape}")
        if not np.isfinite(positions).all():
            raise ValueError("positions must be finite")
        self.positions = positions

    @functools.cached_property
    def _tree(self):
        # imported here, so that commands which build no index never load scipy
        from scipy.spatial import cKDTree

        return cKDTree(self.positions, balanced_tree=False, compact_nodes=False)

    def __len__(self) -> int:
        return self.positions.shape[0]

    def radius_query(self, i: int, r: float) -> np.ndarray:
        """Indices j != i with d(P_i, P_j) <= r, sorted ascending."""
        if not 0 <= i < len(self):
            raise ValueError(f"point index {i} out of range for index of size {len(self)}")
        if not r > 0:
            raise ValueError(f"radius must be positive, got {r}")
        found = self._tree.query_ball_point(self.positions[i], r)
        out = np.asarray([j for j in found if j != i], dtype=np.int64)
        out.sort()
        return out

    def pairs_within(self, r: float) -> np.ndarray:
        """All index pairs (i, j), i < j, with d(P_i, P_j) <= r; shape (M, 2)."""
        if not r > 0:
            raise ValueError(f"radius must be positive, got {r}")
        if len(self) == 0:
            return np.empty((0, 2), dtype=np.int64)
        return self._tree.query_pairs(r, output_type="ndarray").astype(np.int64, copy=False)

    def nearest_within(
        self, points: np.ndarray, cap: float, workers: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every exactly nearest indexed point to each query point, up to distance cap.

        Returns ``(rows, nearest)``: query row ``rows[k]`` has indexed point
        ``nearest[k]`` at its minimal squared distance, which is <= cap**2.
        Equidistant nearest points are all listed, so ties are left to the
        caller and do not depend on tree internals or worker count. Rows with
        nothing within cap are absent; output is sorted by row, then point.
        """
        if not cap > 0:
            raise ValueError(f"cap must be positive, got {cap}")
        points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        # the tree only shortlists: query a hair wider than cap and than each
        # nearest tree distance, then decide minima and the cap exactly here
        dist, _ = self._tree.query(points, k=1, distance_upper_bound=cap * (1.0 + 1e-9),
                                   workers=workers)
        hit = np.nonzero(np.isfinite(dist))[0]
        found = self._tree.query_ball_point(points[hit], dist[hit] * (1.0 + 1e-9),
                                            workers=workers, return_sorted=True)
        # every ball holds at least the point the first query found
        counts = np.fromiter(map(len, found), dtype=np.int64, count=hit.size)
        rows = np.repeat(hit, counts)
        cands = np.fromiter((j for js in found for j in js), dtype=np.int64, count=rows.size)
        sq = _squared_distances(self.positions[cands], points[rows])
        best = np.repeat(np.minimum.reduceat(sq, np.cumsum(counts) - counts), counts)
        keep = (sq == best) & (best <= cap * cap)
        return rows[keep], cands[keep]


def block_reduce(positions: np.ndarray, radius: float, values: np.ndarray, ufunc) -> np.ndarray:
    """Per point, ``ufunc`` reduced over the ``values`` of every point in its block.

    A block is the 3x3x3 cells around the point's own; cells are cubes of side
    ``radius * (1 + CELL_MARGIN)`` plus ``CELL_ULPS`` ulps of the extent, so any
    point within ``radius`` by the closed-ball rule of this module lies in the
    block (and, blocks being symmetric, each lies in the other's). ``values``
    has one row per point; ``ufunc`` is an idempotent binary ufunc, such as
    ``np.bitwise_or`` or ``np.minimum``. If the cell keys could overflow int64,
    every point's block is the whole cloud.
    """
    positions = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    values = np.asarray(values)
    if positions.shape[0] == 0:
        return values.copy()
    # per coordinate, which is faster than reducing the rows of an (N, 3) array
    coords = positions.T
    lo = np.array([x.min() for x in coords])
    span = np.array([x.max() for x in coords]) - lo
    side = radius * (1.0 + CELL_MARGIN) + CELL_ULPS * np.spacing(span.max())
    # a spare cell at each end of each axis, so that no offset wraps a row
    dims = np.floor(span / side) + 3
    if np.prod(dims) >= _KEY_LIMIT:
        return np.broadcast_to(ufunc.reduce(values, axis=0), values.shape).copy()
    strides = np.cumprod(dims[::-1].astype(np.int64))[::-1]
    key = np.zeros(positions.shape[0], dtype=np.int64)
    for x, x0, stride in zip(coords, lo, (*strides[1:], 1)):
        # x - x0 >= 0, so truncation is the floor
        cell = ((x - x0) / side).astype(np.int64)
        cell += 1
        cell *= stride
        key += cell
    del cell
    order = np.argsort(key)
    key = key[order]
    starts = np.r_[True, key[1:] != key[:-1]]
    first = np.flatnonzero(starts)
    cells = key[first]
    del key
    cell_of = np.empty(order.size, dtype=np.int64)
    cell_of[order] = np.cumsum(starts) - 1
    del starts
    own = ufunc.reduceat(values[order], first, axis=0)
    del order
    # a block is 9 runs of 3 consecutive keys; cells are unique and sorted,
    # so each run's occupied cells are among the 3 from where it would start.
    # A miss reads the cell itself, which an idempotent ufunc ignores
    sx, sy = strides[1:]
    low = np.array([[dx + dy - 1] for dx in (-sx, 0, sx) for dy in (-sy, 0, sy)]) + cells
    start = np.searchsorted(cells, low)
    itself = np.arange(cells.size)
    block = own
    for step in range(3):
        at = np.minimum(start + step, cells.size - 1)
        found = cells[at]
        at = np.where((found >= low) & (found <= low + 2), at, itself)
        block = ufunc(block, ufunc.reduce(own[at], axis=0))
    return block[cell_of]


def slabs(positions: np.ndarray, radius: float):
    """Overlapping slabs of point ids, along the widest axis, that hold every pair within ``radius``.

    Yields id arrays. With size = ``SLAB_POINTS``, slab k holds the points
    ranked k*size .. (k+1)*size-1 by that coordinate, plus every later point
    whose coordinate exceeds the slab's last by at most ``radius`` and a
    margin (``CELL_MARGIN`` of the radius plus ``CELL_ULPS`` ulps of the
    largest coordinate). A pair within ``radius`` differs by at most that in
    every coordinate, so it lies in the slab of its lower-ranked point, and a
    neighbour query over each slab finds every pair. A cloud of at most
    ``size`` points, or one whose slabs would hold more than twice its
    points, is one slab.
    """
    n, size = positions.shape[0], SLAB_POINTS
    if n > size:
        x = max(positions.T, key=lambda x: x.max() - x.min())
        order = np.argsort(x)
        xs = x[order]
        pad = radius * (1.0 + CELL_MARGIN) + CELL_ULPS * np.spacing(max(-xs[0], xs[-1]))
        starts = np.arange(0, n, size)
        ends = np.searchsorted(xs, xs[np.minimum(starts + size, n) - 1] + pad, side="right")
        del xs
        if (ends - starts).sum() <= 2 * n:
            for start, end in zip(starts, ends):
                yield order[start:end]
            return
    yield np.arange(n)

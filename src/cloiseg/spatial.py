"""Fixed-radius neighbor index over 3D point positions.

Queries use the closed ball (d <= r, Euclidean); results are exact, equal to
the brute-force neighbor set. The index never mutates after construction and
is safe to share across threads.
"""

from __future__ import annotations

import numpy as np


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise squared distances, summed as ``dx*dx + dy*dy + dz*dz``."""
    dx, dy, dz = (a - b).T
    return dx * dx + dy * dy + dz * dz


class RadiusIndex:
    """k-d tree supporting exact fixed-radius queries.

    The tree splits at sliding midpoints (``balanced_tree=False``) and keeps
    loose node boxes (``compact_nodes=False``): both build and query faster on
    scan-like clouds than median splits, and only the order of enumerated
    pairs depends on them, never the pair set or any query result.
    """

    def __init__(self, positions: np.ndarray):
        positions = np.ascontiguousarray(positions, dtype=np.float64)
        if positions.size == 0:
            positions = positions.reshape(0, 3)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must have shape (N, 3), got {positions.shape}")
        if not np.isfinite(positions).all():
            raise ValueError("positions must be finite")
        # imported here, so that commands which build no index never load scipy
        from scipy.spatial import cKDTree

        self.positions = positions
        self._tree = cKDTree(positions, balanced_tree=False, compact_nodes=False)

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

    def pairs_within(self, r: float, squared_distances: bool = False):
        """All index pairs (i, j), i < j, with d(P_i, P_j) <= r; shape (M, 2).

        With ``squared_distances`` the result is ``(pairs, sq)``: ``sq[k]`` is
        ``dx*dx + dy*dy + dz*dz`` over the coordinates of ``pairs[k]``, and a
        pair is within the closed ball exactly when ``sq <= r*r``.
        """
        if not r > 0:
            raise ValueError(f"radius must be positive, got {r}")
        if len(self) == 0:
            pairs = np.empty((0, 2), dtype=np.int64)
            return (pairs, np.empty(0, dtype=np.float64)) if squared_distances else pairs
        if not squared_distances:
            return self._tree.query_pairs(r, output_type="ndarray").astype(np.int64, copy=False)
        # the tree only shortlists, a hair wider than r; the rule is applied here
        pairs = self._tree.query_pairs(r * (1.0 + 1e-9), output_type="ndarray")
        sq = _squared_distances(self.positions[pairs[:, 0]], self.positions[pairs[:, 1]])
        keep = sq <= r * r
        return pairs[keep].astype(np.int64, copy=False), sq[keep]

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

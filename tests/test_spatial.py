from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cloiseg.spatial
from cloiseg import RadiusIndex, connected_components, segment_single_object
from conftest import grid_blob
from oracles import brute_cell_neighbours, brute_nearest_within, brute_radius_neighbors


def test_empty_index():
    index = RadiusIndex(np.empty((0, 3)))
    assert len(index) == 0
    assert index.pairs_within(1.0).shape == (0, 2)


def _neighbours(pairs: np.ndarray, i: int) -> np.ndarray:
    """The points paired with ``i``, sorted ascending."""
    return np.sort(np.concatenate([pairs[pairs[:, 0] == i, 1], pairs[pairs[:, 1] == i, 0]]))


def test_single_point_excludes_self():
    # a point is never its own pair; a copy of it is
    point = np.array([[1.0, 2.0, 3.0]])
    assert RadiusIndex(point).pairs_within(10.0).shape == (0, 2)
    assert RadiusIndex(np.vstack([point, point])).pairs_within(10.0).tolist() == [[0, 1]]


def test_two_points_three_cm_apart():
    index = RadiusIndex(np.array([[0, 0, 0], [0.03, 0, 0]]))
    assert index.pairs_within(0.04).tolist() == [[0, 1]]
    rows, nearest = RadiusIndex(index.positions[1:]).nearest_within(index.positions[:1], 0.04)
    assert (rows.tolist(), nearest.tolist()) == ([0], [0])


def test_two_points_five_cm_apart():
    index = RadiusIndex(np.array([[0, 0, 0], [0.05, 0, 0]]))
    assert index.pairs_within(0.04).shape == (0, 2)
    rows, _ = RadiusIndex(index.positions[1:]).nearest_within(index.positions[:1], 0.04)
    assert rows.size == 0


def test_boundary_distance_is_included():
    index = RadiusIndex(np.array([[0, 0, 0], [0.04, 0, 0]]))
    assert index.pairs_within(0.04).tolist() == [[0, 1]]
    rows, _ = RadiusIndex(index.positions[1:]).nearest_within(index.positions[:1], 0.04)
    assert rows.tolist() == [0]


def test_argument_errors():
    index = RadiusIndex(np.array([[0, 0, 0]]))
    # an infinite radius would test every pair of points
    for r in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            index.pairs_within(r)
        with pytest.raises(ValueError, match="cap must be finite and positive"):
            index.nearest_within(np.zeros((1, 3)), r)
    for subset in ([1], [-1]):
        with pytest.raises(ValueError, match="subset index out of range"):
            connected_components(index, 0.1, subset=subset)
    with pytest.raises(ValueError):
        RadiusIndex(np.array([[0, 0, np.inf]]))


@pytest.mark.parametrize("points, message", [
    (np.zeros((6, 2)), r"must have shape \(N, 3\), got \(6, 2\)"),
    (np.array([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]]), "must be finite"),
    (np.array([[0.0, 0.0, 0.0], [-np.inf, 0.0, 0.0]]), "must be finite"),
], ids=["shape", "nan", "inf"])
@pytest.mark.parametrize("query", ["nearest_within", "segment_single_object"])
def test_wrong_shaped_or_non_finite_points_are_rejected(points, message, query):
    # a (6, 2) array must not be read as four points, nor NaN reach the cell cast
    with pytest.raises(ValueError, match=message):
        if query == "nearest_within":
            RadiusIndex(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])).nearest_within(points, 0.5)
        else:
            segment_single_object(points, 0.04)


def test_queries_match_brute_force_on_random_probes(rng):
    # each probe point's pairs are its brute-force neighbours; and the rest of
    # the cloud's nearest points to it are the oracle's
    positions = rng.random((1000, 3))
    index = RadiusIndex(positions)
    for _ in range(50):
        i = int(rng.integers(1000))
        r = float(rng.uniform(0.01, 0.3))
        got = _neighbours(index.pairs_within(r), i)
        assert np.array_equal(got, brute_radius_neighbors(positions, i, r))
        rest = np.delete(positions, i, axis=0)
        rows, nearest = RadiusIndex(rest).nearest_within(positions[i:i + 1], r)
        want = brute_nearest_within(rest, positions[i:i + 1], r)
        assert list(zip(rows.tolist(), nearest.tolist())) == want


def test_query_results_sorted(rng):
    # pairs are listed smaller point first, each once; nearest points by row, then point
    positions = rng.random((300, 3))
    pairs = RadiusIndex(positions).pairs_within(0.5)
    assert (pairs[:, 0] < pairs[:, 1]).all()
    assert np.unique(pairs, axis=0).shape == pairs.shape
    lattice = np.round(positions * 4) / 4  # many exact ties
    rows, nearest = RadiusIndex(lattice).nearest_within(lattice[::7] + 0.125, 0.5)
    assert rows.size > np.unique(rows).size
    assert np.array_equal(np.lexsort((nearest, rows)), np.arange(rows.size))


def test_symmetry(rng):
    # the pair set does not depend on the order of the points
    positions = rng.random((400, 3))
    perm = rng.permutation(400)
    for r in rng.uniform(0.02, 0.2, 5):
        pairs = RadiusIndex(positions).pairs_within(r)
        moved = perm[RadiusIndex(positions[perm]).pairs_within(r)]
        assert len(pairs) == len(moved)
        assert {frozenset(p) for p in pairs.tolist()} == {frozenset(p) for p in moved.tolist()}


def test_pairs_within_matches_brute_force(rng):
    positions = rng.random((250, 3))
    index = RadiusIndex(positions)
    r = 0.15
    got = {tuple(p) for p in index.pairs_within(r)}
    expect = set()
    for i in range(250):
        for j in brute_radius_neighbors(positions, i, r):
            if i < j:
                expect.add((i, int(j)))
    assert got == expect


@st.composite
def _lattices_with_duplicates(draw):
    """Lattice blobs whose spacing is the query radius or a fraction of it, plus copies."""
    r = draw(st.sampled_from((0.01, 0.02, 0.03, 0.04)))
    blocks = [grid_blob((draw(st.integers(0, 8)) * r, draw(st.integers(0, 3)) * 0.013, 0.0),
                        draw(st.integers(1, 30)), spacing=r / draw(st.sampled_from((1, 2, 3))))
              for _ in range(draw(st.integers(1, 3)))]
    positions = np.vstack(blocks)
    copies = draw(st.lists(st.integers(0, positions.shape[0] - 1), max_size=5))
    return np.vstack([positions, positions[copies]]), r


@settings(max_examples=60, deadline=None)
@given(_lattices_with_duplicates())
def test_pairs_within_matches_oracles_on_duplicate_lattices(case):
    positions, r = case
    pairs = RadiusIndex(positions).pairs_within(r)
    expect = {(i, int(j)) for i in range(positions.shape[0])
              for j in brute_radius_neighbors(positions, i, r) if i < j}
    assert len(pairs) == len(expect) and {tuple(p) for p in pairs.tolist()} == expect
    assert pairs.dtype == np.int64


def _nearest(index, queries, cap):
    rows, nearest = index.nearest_within(queries, cap)
    return list(zip(rows.tolist(), nearest.tolist()))


def test_nearest_within_matches_brute_force(rng):
    for _ in range(10):
        positions = rng.random((int(rng.integers(1, 300)), 3))
        queries = rng.random((60, 3)) * 1.2 - 0.1
        cap = float(rng.uniform(0.01, 0.3))
        index = RadiusIndex(positions)
        expect = brute_nearest_within(positions, queries, cap)
        assert _nearest(index, queries, cap) == expect


def test_nearest_within_lists_every_exact_tie():
    # a 3x3x3 lattice of spacing 0.25 is exact in binary: the queries sit on an
    # edge midpoint, a face centre and a cell centre, equidistant to 2, 4 and 8 points
    lattice = grid_blob((0, 0, 0), 27, spacing=0.25)
    index = RadiusIndex(lattice)
    queries = np.array([[0.125, 0, 0], [0.125, 0.125, 0], [0.125, 0.125, 0.125]])
    got = _nearest(index, queries, 1.0)
    assert got == brute_nearest_within(lattice, queries, 1.0)
    assert [sum(1 for r, _ in got if r == row) for row in range(3)] == [2, 4, 8]


def test_nearest_within_on_random_lattice_queries(rng):
    lattice = grid_blob((0.5, 0.5, 0.5), 64, spacing=0.01)
    index = RadiusIndex(lattice)
    # half-spacing offsets from lattice points give ties wherever the offsets line up
    queries = lattice[rng.integers(0, 64, 100)] + rng.integers(-1, 2, (100, 3)) * 0.005
    for cap in (0.004, 0.005, 0.00866, 0.02):
        assert _nearest(index, queries, cap) == brute_nearest_within(lattice, queries, cap)


def test_nearest_within_cap_is_closed():
    index = RadiusIndex(np.array([[0.25, 0, 0], [2.0, 0, 0]]))
    query = np.array([[1.0, 0, 0]])  # exactly 0.75 from the first point
    assert _nearest(index, query, 0.75) == [(0, 0)]
    assert _nearest(index, query, np.nextafter(0.75, 0)) == []


def test_nearest_within_sums_squares_in_xyz_order():
    # summed as dx*dx + dy*dy + dz*dz this distance squared is exactly cap**2;
    # summed in another order it is one ulp above, and the point is lost
    point = np.array([[0.08401534358238483, 0.8326441476533978, 0.7870983074886834]])
    query = np.array([[0.23936944299295215, 0.8764842308107038, 0.05856803480519435]])
    cap = 0.746199174022048
    assert brute_nearest_within(point, query, cap) == [(0, 0)]
    assert _nearest(RadiusIndex(point), query, cap) == [(0, 0)]


def test_nearest_within_empty_inputs():
    empty = RadiusIndex(np.empty((0, 3)))
    assert _nearest(empty, np.zeros((4, 3)), 1.0) == []
    index = RadiusIndex(np.zeros((2, 3)))
    assert _nearest(index, np.empty((0, 3)), 1.0) == []
    assert _nearest(index, np.zeros((1, 3)), 1.0) == [(0, 0), (0, 1)]  # duplicates tie
    with pytest.raises(ValueError):
        index.nearest_within(np.zeros((1, 3)), 0.0)


def _far_tie_lattice(r):
    """A 4x4x4 lattice spaced exactly r, with points 1e9 m out along and across all three axes.

    Plain cell coordinates of side r span 2e9 / r cells per axis, so a key
    built from them would overflow int64.
    """
    lattice = grid_blob((0, 0, 0), 64, spacing=r)
    far = np.vstack([np.eye(3), -np.eye(3), [[1, 1, 1], [-1, -1, -1], [1, -1, 1]]]) * 1e9
    return np.vstack([lattice, far])


def _brute_pairs(positions, r):
    return {(i, int(j)) for i in range(positions.shape[0])
            for j in brute_radius_neighbors(positions, i, r) if i < j}


@pytest.mark.parametrize("r", [0.01, 0.04, 0.25])
@pytest.mark.parametrize("one_key", [True, False])
def test_far_tie_lattice_matches_oracles(r, one_key, monkeypatch):
    if not one_key:
        # the points are sorted by column, then z, as on a grid too large for one int64 key
        monkeypatch.setattr(cloiseg.spatial, "_KEY_LIMIT", 0)
    positions = _far_tie_lattice(r)
    index = RadiusIndex(positions)
    pairs = index.pairs_within(r)
    assert len(pairs) == len(_brute_pairs(positions, r)) > 0
    assert {tuple(p) for p in pairs.tolist()} == _brute_pairs(positions, r)
    # half-spacing offsets from lattice points tie between 2, 4 and 8 of them
    queries = np.vstack([positions[:64] + (r / 2, 0, 0), positions[:64] + r / 2,
                         positions[64:] + (0, r, 0)])
    for cap in (r / 2, r, 3 * r):
        assert _nearest(index, queries, cap) == brute_nearest_within(positions, queries, cap)


def test_nearest_ties_at_exactly_a_tier_radius_and_at_the_cap():
    cap = 0.75
    tier = cap * cloiseg.spatial.NEAREST_TIERS[0]
    # query 0 has two nearest points at exactly the first tier's radius, and
    # query 1 two at exactly the cap; query 2's nearest lies a hair beyond the
    # tier, and query 3's a hair beyond the cap
    positions = np.array([[tier, 0, 0], [-tier, 0, 0],
                          [cap, 10, 0], [-cap, 10, 0],
                          [np.nextafter(tier, 1), 20, 0], [-cap, 20, 0],
                          [np.nextafter(cap, 1), 30, 0]])
    queries = np.array([[0.0, 0, 0], [0, 10, 0], [0, 20, 0], [0, 30, 0]])
    index = RadiusIndex(positions)
    got = _nearest(index, queries, cap)
    assert got == brute_nearest_within(positions, queries, cap)
    assert got == [(0, 0), (0, 1), (1, 2), (1, 3), (2, 4)]


def test_empty_and_one_point_inputs():
    empty, one = RadiusIndex(np.empty((0, 3))), RadiusIndex(np.array([[0.5, 0.5, 0.5]]))
    for index in (empty, one):
        assert index.pairs_within(0.1).shape == (0, 2)
        assert index.pairs_within(0.1).dtype == np.int64
        for queries in (np.empty((0, 3)), np.array([[0.5, 0.5, 0.6]])):
            rows, nearest = index.nearest_within(queries, 0.1)
            assert rows.dtype == nearest.dtype == np.int64
            want = brute_nearest_within(index.positions, queries, 0.1)
            assert list(zip(rows.tolist(), nearest.tolist())) == want
    assert _nearest(one, np.array([[0.5, 0.5, 0.6]]), 0.1) == [(0, 0)]


def test_far_points_evaluate_no_candidates(monkeypatch):
    # pairs are tested only between points of neighbouring cells: every such
    # pair once, found by brute force over the plain cell coordinates, and
    # none with a point 1e9 m out; a far query evaluates no point at all
    r = 0.04
    positions = _far_tie_lattice(r)
    candidates = []
    expand = cloiseg.spatial._expand

    def counting(owner, first, count):
        candidates.append(int(count.sum()))
        return expand(owner, first, count)

    monkeypatch.setattr(cloiseg.spatial, "_expand", counting)
    index = RadiusIndex(positions)
    index.pairs_within(r)
    span = (positions.max(axis=0) - positions.min(axis=0)).max()
    side = r * (1.0 + cloiseg.spatial.CELL_MARGIN) + cloiseg.spatial.CELL_ULPS * np.spacing(span)
    near = brute_cell_neighbours(positions, side)
    assert near[64:].sum(axis=1).tolist() == [1] * 9
    assert sum(candidates) == np.triu(near, k=1).sum()
    candidates.clear()
    assert _nearest(index, positions[64:] + 0.5, 3 * r) == []
    assert sum(candidates) == 0

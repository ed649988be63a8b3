"""Cell blocks against the O(N^2) oracles, on geometry chosen to break them.

The flag and link steps skip every point whose block (``block_reduce``: the
3x3x3 cells around its own, cells a little wider than the radius) shows that
nothing can change there. These clouds put neighbours where such a rule is
most likely to lose one: ties at exactly the radius far from the origin,
where ``x - min`` rounds; points on multiples of epsilon and of the core
radius; an outlier that would overflow a plain int64 cell key; and
same-class chains that link at epsilon but not within the core radius. The
same clouds, cut into slabs of a few points (``slabs``), check the
slab-by-slab core pairs.
"""

from __future__ import annotations

import numpy as np
import pytest

import cloiseg.segmentation
import cloiseg.spatial
from cloiseg import (
    BoundaryParams,
    RadiusIndex,
    SegmentationParams,
    connected_components,
    detect_class_boundaries,
    detect_gt_instance_boundaries,
    segment,
)
from cloiseg.segmentation import CORE_FRACTION
from cloiseg.spatial import CELL_MARGIN, CELL_ULPS, block_reduce, slabs
from conftest import grid_blob, make_cloud
from oracles import (
    brute_cell_neighbours,
    brute_class_boundaries,
    brute_components,
    brute_segment,
    distance_matrix_sq,
)

EPS = 0.04
CORE = CORE_FRACTION * EPS


def _assert_matches_oracles(pos, classes, eps=EPS, r_b=None, mu=1):
    """Flags, segment and same-class components all equal the brute-force ones."""
    pos, classes = np.asarray(pos, dtype=np.float64), np.asarray(classes)
    cloud = make_cloud(pos, classes)
    index = RadiusIndex(cloud.positions)
    r = eps if r_b is None else r_b
    flags = detect_class_boundaries(cloud, index, BoundaryParams(r))
    assert flags.tolist() == brute_class_boundaries(pos, classes, r).tolist()
    want = brute_segment(pos, classes, eps, mu, r_b)
    params = SegmentationParams(epsilon=eps, mu=mu, boundary_radius=r_b)
    for workers in (1, 2):
        assert segment(cloud, params, workers=workers).assignment.tolist() == want.tolist()
    got = connected_components(index, eps, predicate=lambda i, j: classes[i] == classes[j])
    linked = (distance_matrix_sq(pos) <= eps * eps) & (classes[:, None] == classes[None, :])
    iu, ju = np.nonzero(np.triu(linked, k=1))
    expect = sorted((sorted(c) for c in brute_components(len(pos), zip(iu.tolist(), ju.tolist()))),
                    key=lambda c: c[0])
    assert [c.tolist() for c in got] == expect
    return want


def _tie_lattice():
    """A 5x5x3 lattice spaced exactly epsilon, in class slabs two layers thick."""
    pos = grid_blob((0, 0, 0), 75, spacing=EPS)
    pos = pos[np.lexsort(pos.T[::-1])]
    classes = (np.round((pos[:, 0] - pos[:, 0].min()) / EPS).astype(int) // 2) % 2
    return pos, classes


@pytest.mark.parametrize("shift", [5e6, -5e6])
@pytest.mark.parametrize("anchored", [False, True])
def test_tie_lattice_far_from_the_origin(shift, anchored):
    # with the anchor, the cloud's minimum lies 5e6 m below the lattice, so
    # every lattice point's x - min rounds by up to half a ulp of 5e6 (~5e-10 m)
    pos, classes = _tie_lattice()
    pos = pos + shift
    if anchored:
        pos = np.vstack([pos, np.full((1, 3), shift - 5e6 - 0.3)])
        classes = np.append(classes, 7)
    for r_b in (None, CORE, 2 * EPS):
        _assert_matches_oracles(pos, classes, r_b=r_b)


def test_tie_lattice_a_billion_metres_along_one_axis():
    # one axis spans 1e9 m, so ``x - min`` rounds by up to 6e-8 m, more than a
    # relative margin of the radius covers; the key still fits in int64
    pos, classes = _tie_lattice()
    pos = pos + (1e9, 0.0, 0.0)
    pos = np.vstack([pos, [[-0.3, 0.0, 0.0]]])
    classes = np.append(classes, 7)
    for r_b in (None, CORE):
        _assert_matches_oracles(pos, classes, r_b=r_b)


def _pairs_across_cell_edges(depth, radius):
    """Point pairs at exactly ``radius``, each starting within a few ulps of a cell edge.

    The pairs lie within 15 m of the origin and an anchor ``depth`` metres
    below sets the cloud's minimum, so each point's ``x - min`` rounds to the
    ulp of ``depth`` on its own. Pairs sit 4 radii apart from each other.
    """
    lo = -depth
    span = 16.0 + depth
    side = radius * (1.0 + CELL_MARGIN) + CELL_ULPS * np.spacing(span)
    near = 0.1 + np.arange(60) * 0.25
    edges = lo + np.ceil((near - lo) / side) * side
    starts = np.concatenate([edges + k * np.spacing(span) / 4 for k in range(-12, 13)])
    ends = starts + radius
    while ((ends - starts) ** 2 > radius * radius).any():
        too_far = (ends - starts) ** 2 > radius * radius
        ends[too_far] = np.nextafter(ends[too_far], -np.inf)
    rows = np.arange(starts.size) * 4 * radius
    zeros = np.zeros_like(rows)
    return np.vstack([np.stack([starts, rows, zeros], axis=1), np.stack([ends, rows, zeros], axis=1),
                      [[lo, 0.0, 0.0]]])


@pytest.mark.parametrize("depth, radius", [(5e6 + 0.3, 0.01), (1e9 + 0.3, EPS)])
def test_pairs_at_exactly_the_radius_on_cell_edges(depth, radius):
    # x - min rounds by up to half a ulp of the depth (~5e-10 m at 5e6 m, 6e-8 m
    # at 1e9 m), more than a relative hair of 1e-9 (or of 1e-6 at 1e9 m) widens
    # the cells by: without the ulp term of the margin, pairs here are lost
    pos = _pairs_across_cell_edges(depth, radius)
    m = (len(pos) - 1) // 2
    two_class = make_cloud(pos, np.r_[np.zeros(m, int), np.ones(m, int), 7])
    flags = detect_class_boundaries(two_class, RadiusIndex(two_class.positions),
                                    BoundaryParams(radius))
    assert flags.tolist() == [True] * (2 * m) + [False]
    one_class = make_cloud(pos, np.r_[np.zeros(2 * m, int), 7])
    comps = connected_components(RadiusIndex(one_class.positions), radius)
    assert [c.tolist() for c in comps] == [[i, i + m] for i in range(m)] + [[2 * m]]
    labeling = segment(one_class, SegmentationParams(epsilon=radius, mu=1))
    assert labeling.assignment.tolist() == [*range(m), *range(m), m]


def test_points_on_multiples_of_epsilon_and_of_the_core_radius():
    # same-class rows on multiples of epsilon and of the core radius, measured
    # from the cloud's minimum, with an other-class row at exactly epsilon
    k = np.arange(24)
    rows = [
        np.stack([k * EPS, np.zeros(24), np.zeros(24)], axis=1),
        np.stack([k * CORE, np.full(24, EPS), np.zeros(24)], axis=1),
        np.stack([np.zeros(24), 3 * EPS + k * CORE, k * EPS], axis=1),
        np.stack([k * EPS, np.full(24, 2 * EPS), np.full(24, EPS)], axis=1),
    ]
    pos = np.vstack(rows)
    classes = np.repeat([0, 0, 1, 2], 24)
    for r_b in (None, CORE, EPS / 2):
        _assert_matches_oracles(pos, classes, r_b=r_b)
    _assert_matches_oracles(pos, classes, eps=CORE)


def test_outlier_a_billion_metres_away_keeps_every_block():
    pos, classes = _tie_lattice()
    pos = np.vstack([pos, [[1e9, 1e9, 1e9]]])
    classes = np.append(classes, 0)
    # a key of plain cell coordinates would overflow int64; the compressed
    # key keeps each block the cells around the point's own, here found by
    # brute force over the plain coordinates
    bits = np.left_shift(1, classes)
    span = (pos.max(axis=0) - pos.min(axis=0)).max()
    near = brute_cell_neighbours(pos, EPS * (1.0 + CELL_MARGIN) + CELL_ULPS * np.spacing(span))
    want = np.bitwise_or.reduce(np.where(near, bits[None, :], 0), axis=1)
    got = block_reduce(pos, EPS, bits, np.bitwise_or)
    assert got.tolist() == want.tolist()
    assert got[-1] == 1 and (got[:-1] & 2).any()
    for r_b in (None, CORE):
        _assert_matches_oracles(pos, classes, r_b=r_b)


@pytest.mark.parametrize("spacing", [0.03, EPS, 0.9 * EPS])
def test_chain_linked_at_epsilon_but_not_in_the_core(spacing):
    # every link of the chain is longer than the core radius, so each point
    # is its own core component and only the mixed-point pairs join them; an
    # other-class point splits the chain by flagging its middle
    n = 40
    chain = np.zeros((n, 3))
    chain[:, 0] = np.arange(n) * spacing
    intruder = [[20 * spacing, 0.5 * EPS, 0.0]]
    pos = np.vstack([chain, intruder, chain + (0.0, 0.0, 2 * EPS)])
    classes = np.concatenate([np.full(n, 2), [5], np.full(n, 3)])
    want = _assert_matches_oracles(pos, classes, mu=1)
    if spacing < EPS:
        # (at exactly epsilon some rounded gaps exceed it and split the chain)
        assert np.unique(want[want >= 0]).size == 3
    _assert_matches_oracles(pos, classes, r_b=0.01)


def test_block_reduce_covers_every_ball(rng):
    for shift in (0.0, 5e6, -5e6):
        for _ in range(5):
            pos = rng.random((300, 3)) * rng.choice([0.05, 0.3, 1.0]) + shift
            values = rng.integers(0, 1000, 300)
            r = float(rng.uniform(0.01, 0.2))
            near = distance_matrix_sq(pos) <= r * r
            block = block_reduce(pos, r, values, np.minimum)
            assert (block <= np.where(near, values[None, :], 1000).min(axis=1)).all()
    # an empty cloud reduces to nothing; a 2-column value reduces column-wise
    assert block_reduce(np.empty((0, 3)), 0.1, np.empty((0, 2)), np.minimum).shape == (0, 2)
    pos = np.array([[0.0, 0, 0], [0.05, 0, 0], [1.0, 0, 0]])
    labels = np.array([4, 7, 9])
    got = block_reduce(pos, 0.1, np.stack([labels, -labels], axis=1), np.minimum)
    assert got.tolist() == [[4, -7], [4, -7], [9, -9]]


@pytest.mark.parametrize("shift", [0.0, 5e6, -5e6])
def test_gt_boundaries_at_exactly_the_radius(shift):
    # ground-truth instances in slabs of the tie lattice touch at exactly
    # epsilon (before the shift rounds them); flags equal the oracle's over ids
    pos, classes = _tie_lattice()
    pos = pos + shift
    gt = np.round((pos[:, 0] - pos[:, 0].min()) / EPS).astype(int) // 2
    cloud = make_cloud(pos, classes, gt)
    for r in (EPS, CORE, 2 * EPS):
        flags = detect_gt_instance_boundaries(cloud, RadiusIndex(cloud.positions),
                                              BoundaryParams(r))
        assert flags.tolist() == brute_class_boundaries(pos, gt, r).tolist()
        # the instances' slabs lie one lattice step apart, which the shift
        # rounds to either side of epsilon
        if not (shift and r == EPS):
            assert flags.any() == (r > CORE)


@pytest.fixture
def small_slabs(monkeypatch):
    """Core pairs enumerated in slabs of 8 points, so that small clouds take the slab path."""
    monkeypatch.setattr(cloiseg.spatial, "SLAB_POINTS", 8)


def _slab_clouds(rng):
    pos, _ = _tie_lattice()
    yield pos
    yield pos + 5e6
    yield pos - 5e6
    yield _pairs_across_cell_edges(5e6 + 0.3, 0.01)
    yield rng.random((200, 3)) * (1.0, 0.2, 0.2)
    chain = np.zeros((40, 3))
    chain[:, 0] = np.arange(40) * 0.03
    yield chain


def test_slabs_hold_every_pair(rng, monkeypatch):
    for pos in _slab_clouds(rng):
        n = len(pos)
        for r in (0.01, CORE, EPS):
            near = np.triu(distance_matrix_sq(pos) <= r * r, k=1)
            for size in (1, 3, 8, 50, n):
                monkeypatch.setattr(cloiseg.spatial, "SLAB_POINTS", size)
                held = np.zeros((n, n), dtype=bool)
                seen = np.zeros(n, dtype=bool)
                for ids in slabs(pos, r):
                    held[np.ix_(ids, ids)] = True
                    seen[ids] = True
                assert seen.all()
                assert not (near & ~held).any()


@pytest.mark.usefixtures("small_slabs")
def test_slabs_of_one_crowded_coordinate_are_one_slab():
    # 40 points share x = 0 and one lies 1 m away: each slab would hold every
    # later point at x = 0, so the cloud is not cut
    pos = np.zeros((41, 3))
    pos[:40, 1] = np.arange(40) * 1e-3
    pos[40, 0] = 1.0
    assert [ids.tolist() for ids in slabs(pos, EPS)] == [list(range(41))]


@pytest.mark.usefixtures("small_slabs")
def test_slab_core_components_are_the_core_radius_components(rng):
    # lost core pairs would only make more points mixed, which the epsilon
    # step repairs; so the core labels themselves are checked here
    for pos in _slab_clouds(rng):
        for r in (0.01, CORE):
            near = np.triu(distance_matrix_sq(pos) <= r * r, k=1)
            iu, ju = np.nonzero(near)
            want = np.arange(len(pos))
            for comp in brute_components(len(pos), zip(iu.tolist(), ju.tolist())):
                want[sorted(comp)] = min(comp)
            got = cloiseg.segmentation._core_labels(RadiusIndex(pos), r, lambda ids, pairs: pairs)
            assert got.tolist() == want.tolist()


@pytest.mark.usefixtures("small_slabs")
def test_slab_core_labels_match_the_oracles():
    pos, classes = _tie_lattice()
    for shift in (5e6, -5e6):
        for r_b in (None, CORE):
            _assert_matches_oracles(pos + shift, classes, r_b=r_b)
    k = np.arange(24)
    rows = np.vstack([np.stack([k * EPS, np.zeros(24), np.zeros(24)], axis=1),
                      np.stack([k * CORE, np.full(24, EPS), np.zeros(24)], axis=1)])
    _assert_matches_oracles(rows, np.zeros(48, int))
    _assert_matches_oracles(rows, np.zeros(48, int), eps=CORE)
    for spacing in (0.03, 0.9 * EPS):
        chain = np.zeros((40, 3))
        chain[:, 0] = np.arange(40) * spacing
        pos = np.vstack([chain, [[20 * spacing, 0.5 * EPS, 0.0]], chain + (0.0, 0.0, 2 * EPS)])
        _assert_matches_oracles(pos, np.concatenate([np.full(40, 2), [5], np.full(40, 3)]))

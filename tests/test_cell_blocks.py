"""Cell blocks and clique cells against the O(N^2) oracles, on geometry chosen to break them.

The flag and link steps skip every point whose block (``block_reduce``: the
3x3x3 cells around its own, cells a little wider than the radius) shows that
nothing can change there, and links start from clique cells
(``clique_cells``: cells a little narrower than the radius over sqrt(3)),
joined across their faces. These clouds put neighbours where such rules are
most likely to lose one or to join too many: ties at exactly the radius far
from the origin, where ``x - min`` rounds; points on multiples of epsilon
and of the clique side; pairs at exactly epsilon across clique cell faces;
an outlier that would overflow a plain int64 cell key; a radius too small
for clique cells; same-class chains whose links are longer than a clique
cell; a scanned surface with a share of its class labels redrawn; and a cube
in which every pair of points lies within the radius.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from cloiseg import (
    BoundaryParams,
    RadiusIndex,
    SegmentationParams,
    connected_components,
    detect_class_boundaries,
    detect_gt_instance_boundaries,
    generate_scene,
    make_benchmark_suite,
    segment,
)
from cloiseg.segmentation import _component_labels, _epsilon_labels, _fragmentation_by_radius
from cloiseg.spatial import CELL_MARGIN, CELL_ULPS, _side, block_reduce, clique_cells
from conftest import grid_blob, make_cloud
from oracles import (
    brute_cell_neighbours,
    brute_class_boundaries,
    brute_components,
    brute_segment,
    distance_matrix_sq,
)

EPS = 0.04
#: the side of a clique cell at epsilon, before its margin
CLIQUE = EPS / np.sqrt(3.0)


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
    for r_b in (None, CLIQUE, 2 * EPS):
        _assert_matches_oracles(pos, classes, r_b=r_b)


def test_tie_lattice_a_billion_metres_along_one_axis():
    # one axis spans 1e9 m, so ``x - min`` rounds by up to 6e-8 m, more than a
    # relative margin of the radius covers; the key still fits in int64
    pos, classes = _tie_lattice()
    pos = pos + (1e9, 0.0, 0.0)
    pos = np.vstack([pos, [[-0.3, 0.0, 0.0]]])
    classes = np.append(classes, 7)
    for r_b in (None, CLIQUE):
        _assert_matches_oracles(pos, classes, r_b=r_b)


def _pairs_across_cell_edges(depth, radius, clique=False, center=0.0):
    """Point pairs at exactly ``radius`` along x, each starting within a few ulps of a cell edge.

    The pairs lie within 15 m of ``center`` and an anchor ``depth`` metres
    below it sets the cloud's minimum, so each point's ``x - min`` rounds to
    the ulp of ``depth`` on its own. The cells are those of ``radius``, or
    clique cells. Pairs sit 4 radii apart from each other.
    """
    lo = center - depth
    rows = np.arange(60 * 25) * 4 * radius
    span = max(16.0 + depth, rows[-1])
    side = _side(radius, span, clique)
    near = center + 0.1 + np.arange(60) * 0.25
    edges = lo + np.ceil((near - lo) / side) * side
    starts = np.concatenate([edges + k * np.spacing(span) / 4 for k in range(-12, 13)])
    ends = starts + radius
    while ((ends - starts) ** 2 > radius * radius).any():
        too_far = (ends - starts) ** 2 > radius * radius
        ends[too_far] = np.nextafter(ends[too_far], -np.inf)
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


def test_points_on_multiples_of_epsilon_and_of_the_clique_side():
    # same-class rows on multiples of epsilon and of epsilon / sqrt(3), the
    # side of a clique cell before its margin, measured from the cloud's
    # minimum, with an other-class row at exactly epsilon
    k = np.arange(24)
    rows = [
        np.stack([k * EPS, np.zeros(24), np.zeros(24)], axis=1),
        np.stack([k * CLIQUE, np.full(24, EPS), np.zeros(24)], axis=1),
        np.stack([np.zeros(24), 3 * EPS + k * CLIQUE, k * EPS], axis=1),
        np.stack([k * EPS, np.full(24, 2 * EPS), np.full(24, EPS)], axis=1),
    ]
    pos = np.vstack(rows)
    classes = np.repeat([0, 0, 1, 2], 24)
    for r_b in (None, CLIQUE, EPS / 2):
        _assert_matches_oracles(pos, classes, r_b=r_b)
    _assert_matches_oracles(pos, classes, eps=CLIQUE)


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
    for r_b in (None, CLIQUE):
        _assert_matches_oracles(pos, classes, r_b=r_b)


@pytest.mark.parametrize("spacing", [0.03, EPS, 0.9 * EPS])
def test_chain_linked_at_epsilon_but_not_in_the_core(spacing):
    # every link of the chain is longer than a clique cell, so each point is
    # its own cell, and only face links and the mixed-point pairs join them;
    # an other-class point splits the chain by flagging its middle
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
    for r in (EPS, CLIQUE, 2 * EPS):
        flags = detect_gt_instance_boundaries(cloud, BoundaryParams(r))
        assert flags.tolist() == brute_class_boundaries(pos, gt, r).tolist()
        # the instances' slabs lie one lattice step apart, which the shift
        # rounds to either side of epsilon
        if not (shift and r == EPS):
            assert flags.any() == (r > CLIQUE)


def _profile_crop(profile="cluttered", size=2000):
    """The ``size`` points of a profile scene nearest a seeded one, in scene order."""
    (spec, _), = make_benchmark_suite(profile, seed=3)
    cloud = generate_scene(spec)
    center = cloud.positions[np.random.default_rng(7).integers(len(cloud))]
    near = np.sort(np.argsort(((cloud.positions - center) ** 2).sum(axis=1), kind="stable")[:size])
    return cloud.positions[near], cloud.class_labels[near], cloud.gt_instance[near]


@pytest.mark.parametrize("share", [0.01, 0.05, 0.25])
def test_label_flipped_profile_crop_matches_the_oracles(share):
    # a classifier's labels are wrong on a share of the points: redraw that
    # share uniformly over the 8 classes, on a scanned surface and clutter
    pos, classes, gt = _profile_crop()
    assert np.unique(classes).size > 1
    rng = np.random.default_rng(7)
    redrawn = rng.choice(len(pos), round(share * len(pos)), replace=False)
    classes = classes.copy()
    classes[redrawn] = rng.integers(0, 8, redrawn.size)
    # the redrawn classes split the instances, which keeps each class-pure
    _, gt = np.unique(np.stack([classes, gt]), axis=1, return_inverse=True)
    cloud = make_cloud(pos, classes, gt)
    for r_b in (0.03, EPS):
        flags = detect_class_boundaries(cloud, RadiusIndex(cloud.positions), BoundaryParams(r_b))
        assert flags.tolist() == brute_class_boundaries(pos, classes, r_b).tolist()
        flags = detect_gt_instance_boundaries(cloud, BoundaryParams(r_b))
        assert flags.tolist() == brute_class_boundaries(pos, gt, r_b).tolist()
        params = SegmentationParams(epsilon=EPS, mu=1, boundary_radius=r_b)
        want = brute_segment(pos, classes, EPS, 1, r_b)
        assert segment(cloud, params).assignment.tolist() == want.tolist()


def test_flags_of_a_crowded_cube_hold_no_pair_list():
    # two ids interleaved in a 2cm cube: all 12.5M pairs of its 5k points lie
    # within epsilon, about 400 MB as one list, and every point is flagged
    pos = np.random.default_rng(0).uniform(0.0, 0.02, (5000, 3))
    ids = np.arange(5000) % 2
    cloud = make_cloud(pos, ids, ids)
    params = BoundaryParams(EPS)
    for flags_of in (lambda: detect_gt_instance_boundaries(cloud, params),
                     lambda: detect_class_boundaries(cloud, RadiusIndex(pos), params)):
        tracemalloc.start()
        try:
            flags = flags_of()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert flags.all()
        assert peak < 50 * 2**20


def _brute_labels(pos, r):
    """Per point, the smallest point of its component of the pairs within ``r``."""
    iu, ju = np.nonzero(np.triu(distance_matrix_sq(pos) <= r * r, k=1))
    labels = np.arange(len(pos))
    for comp in brute_components(len(pos), zip(iu.tolist(), ju.tolist())):
        labels[sorted(comp)] = min(comp)
    return labels


def _assert_clique_cells_match_the_oracles(pos, r):
    """Every clique cell within ``r``, every face link a pair within ``r``, and exact components."""
    labels, edges = clique_cells(pos, r)
    near = distance_matrix_sq(pos) <= r * r
    assert near[labels[:, None] == labels[None, :]].all()
    # each label is the smallest point of its cell
    assert (labels <= np.arange(len(pos))).all() and (labels[labels] == labels).all()
    for a, b in edges.tolist():
        assert a != b and near[np.ix_(labels == a, labels == b)].any()
    assert len({tuple(sorted(e)) for e in edges.tolist()}) == len(edges)
    assert _epsilon_labels(pos, r).tolist() == _brute_labels(pos, r).tolist()
    return labels, edges


def _clique_clouds(rng):
    pos, _ = _tie_lattice()
    yield pos
    yield pos + 5e6
    yield pos - 5e6
    yield _pairs_across_cell_edges(5e6 + 0.3, 0.01)
    yield rng.random((200, 3)) * (1.0, 0.2, 0.2)
    # a few points to a clique cell at epsilon
    dense = rng.random((300, 3)) * 0.1
    yield dense
    yield dense + 5e6
    chain = np.zeros((40, 3))
    chain[:, 0] = np.arange(40) * 0.03
    yield chain
    k = np.arange(12)
    yield np.stack(np.meshgrid(k, k, k, indexing="ij"), axis=-1).reshape(-1, 3) * CLIQUE


def test_clique_cells_are_cliques_joined_by_exact_links(rng):
    linked = 0
    for pos in _clique_clouds(rng):
        for r in (0.01, CLIQUE, EPS):
            _, edges = _assert_clique_cells_match_the_oracles(pos, r)
            linked += len(edges)
    assert linked > 0


def _cell_extremes(lo, side, x):
    """The least and greatest floats in the cell of positive ``x`` on an axis starting at ``lo``.

    Cells are counted as the grid counts them: ``(x - lo) / side``, truncated.
    """
    cell = lambda v: np.floor((v - lo) / side)

    def last(keep, a, b):
        # the largest float in [a, b] that ``keep`` holds for; positive floats
        # ascend with their bit patterns
        a, b = (int(np.float64(v).view(np.int64)) for v in (a, b))
        while b - a > 1:
            m = (a + b) // 2
            a, b = (m, b) if keep(np.int64(m).view(np.float64)) else (a, m)
        return np.int64(a).view(np.float64)

    k = cell(x)
    return (np.nextafter(last(lambda v: cell(v) < k, x - 2 * side, x), np.inf),
            last(lambda v: cell(v) <= k, x, x + 2 * side))


@pytest.mark.parametrize("top", [16.0, 2.0 ** 30])
def test_far_corners_of_clique_cells_lie_within_epsilon(top):
    # two points on the diagonal of each of 13 clique cells, at the cell's
    # extreme floats. Just below 2**30, ``x - min`` crosses a power of two and
    # rounds unevenly, so cells narrowed by a relative margin alone would hold
    # pairs farther apart than epsilon
    lo = -0.3
    side = _side(EPS, (top + 1.0) - lo, clique=True)
    pos = [[lo] * 3, [top + 1.0] * 3]
    for k in range(13):
        pos += [[v] * 3 for v in _cell_extremes(lo, side, top - 0.3 + (k + 0.5) * side)]
    labels, _ = _assert_clique_cells_match_the_oracles(np.array(pos), EPS)
    assert (labels[2::2] == labels[3::2]).all()


def test_clique_cells_of_one_crowded_coordinate():
    # 40 points share x = 0, 1mm apart in y, and one lies 1 m away: two cells
    # of 20 points or so, linked across their face
    pos = np.zeros((41, 3))
    pos[:40, 1] = np.arange(40) * 1e-3
    pos[40, 0] = 1.0
    labels, edges = _assert_clique_cells_match_the_oracles(pos, EPS)
    assert np.unique(labels).size == 3 and len(edges) == 1
    assert _epsilon_labels(pos, EPS).tolist() == [0] * 40 + [40]


@pytest.mark.parametrize("center", [0.0, 5e6, -5e6])
def test_pairs_at_exactly_epsilon_across_clique_cell_faces(center):
    # each pair starts within a few ulps of a clique cell's lower face and
    # ends epsilon further on, in the next cell or the one after it
    pos = _pairs_across_cell_edges(0.3, EPS, clique=True, center=center)
    _, edges = _assert_clique_cells_match_the_oracles(pos, EPS)
    m = (len(pos) - 1) // 2
    if center == 0.0:
        # near the origin the pairs keep their exact gaps, and many cross one face
        assert len(edges) > 0
        assert _epsilon_labels(pos, EPS).tolist() == [*range(m), *range(m), 2 * m]
    one_class = np.r_[np.zeros(2 * m, int), 7]
    _assert_matches_oracles(pos, one_class, r_b=0.01)


def test_clique_labels_are_the_epsilon_components(rng):
    # the labels after the face round only refine the components; the join
    # step makes them exact, here at radii that put points on cell faces
    for pos in _clique_clouds(rng):
        for r in (0.01, CLIQUE, EPS, np.sqrt(2.0) * CLIQUE):
            labels, edges = clique_cells(pos, r)
            want = _brute_labels(pos, r)
            joined = _component_labels(len(pos), edges)[labels]
            assert (want[joined] == want).all()
            assert _epsilon_labels(pos, r).tolist() == want.tolist()


def test_epsilon_below_the_ulps_of_the_extent_starts_every_point_alone():
    # at 1e9 m a ulp is 1.2e-7 m, so clique cells for epsilon 1e-6 would be
    # narrower than CELL_ULPS ulps of the extent: every point is its own label
    pos = np.array([[0.0, 0, 0], [5e-7, 0, 0], [3e-6, 0, 0], [1e9, 0, 0],
                    [np.nextafter(np.nextafter(1e9, 2e9), 2e9), 0, 0], [1e9, 0, 2e-6]])
    labels, edges = clique_cells(pos, 1e-6)
    assert labels.tolist() == list(range(6)) and edges.shape == (0, 2)
    assert _epsilon_labels(pos, 1e-6).tolist() == [0, 0, 2, 3, 3, 5]
    _assert_matches_oracles(pos, np.zeros(6, int), eps=1e-6)
    for clouds in ((pos[:1], 1e-6), (np.empty((0, 3)), EPS)):
        labels, edges = clique_cells(*clouds)
        assert labels.tolist() == list(range(len(clouds[0]))) and edges.shape == (0, 2)


def test_radius_sweep_from_clique_cells(rng):
    # the first radius labels from clique cells, each later one joins at mixed
    # points; every row equals the oracle's components, on clique cell faces too
    grids = ((0.01, CLIQUE, EPS), (CLIQUE, CLIQUE, 2 * CLIQUE), (EPS,))
    for pos in _clique_clouds(rng):
        for epsilons in grids:
            got = _fragmentation_by_radius(pos, epsilons)
            for res, eps in zip(got, epsilons):
                sizes = np.bincount(_brute_labels(pos, eps))
                assert (res.component_count, res.largest_fraction) == (
                    np.count_nonzero(sizes), sizes.max() / len(pos))

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cloiseg import (
    NOISE,
    BoundaryParams,
    InstanceLabeling,
    RadiusIndex,
    SegmentationParams,
    connected_components,
    detect_class_boundaries,
    generate_scene,
    make_benchmark_suite,
    segment,
    segment_single_object,
    segment_with_details,
)
import cloiseg.boundary
import cloiseg.segmentation
import cloiseg.spatial
from cloiseg.segmentation import _component_labels
from conftest import grid_blob, make_cloud
from oracles import (
    brute_class_boundaries,
    brute_components,
    brute_segment,
    canonicalize,
    distance_matrix_sq,
)


def test_params_validation():
    with pytest.raises(ValueError):
        SegmentationParams(epsilon=0.0)
    for mu in (1860.5, float("nan")):
        with pytest.raises(ValueError, match="mu must be an integer"):
            SegmentationParams(mu=mu)
    assert SegmentationParams(mu=20.0).mu == 20
    with pytest.raises(ValueError):
        SegmentationParams(mu=0)
    with pytest.raises(ValueError):
        SegmentationParams(boundary_radius=-0.1)
    for value in (float("inf"), float("nan")):
        for name in ("epsilon", "boundary_radius"):
            with pytest.raises(ValueError, match="finite and positive"):
                SegmentationParams(**{name: value})
    assert SegmentationParams().resolved_boundary_radius == 0.04
    assert SegmentationParams(epsilon=0.02).resolved_boundary_radius == 0.02
    assert SegmentationParams(boundary_radius=0.03).resolved_boundary_radius == 0.03


def test_empty_cloud():
    cloud = make_cloud(np.empty((0, 3)))
    labeling = segment(cloud)
    assert labeling.n_instances == 0
    assert labeling.assignment.size == 0


def test_two_blobs_ten_cm_apart_stay_separate():
    pos = np.vstack([grid_blob((0, 0, 0), 40), grid_blob((0.2, 0, 0), 40)])
    cloud = make_cloud(pos, classes=3)
    labeling = segment(cloud, SegmentationParams(mu=1))
    assert labeling.n_instances == 2


def test_chain_is_one_instance():
    pos = np.zeros((100, 3))
    pos[:, 0] = np.arange(100) * 0.01
    cloud = make_cloud(pos, classes=3)
    labeling = segment(cloud, SegmentationParams(mu=1))
    assert labeling.n_instances == 1
    assert (labeling.assignment == 0).all()


def test_close_same_class_blobs_merge():
    a = grid_blob((0, 0, 0), 64)
    b = grid_blob((0, 0, 0), 64)
    b[:, 0] += (a[:, 0].max() - b[:, 0].min()) + 0.02
    cloud = make_cloud(np.vstack([a, b]), classes=3)
    labeling = segment(cloud, SegmentationParams(mu=1))
    assert labeling.n_instances == 1


def test_internal_six_cm_gap_splits():
    pos = np.zeros((100, 3))
    pos[:50, 0] = np.arange(50) * 0.01
    pos[50:, 0] = 0.49 + 0.06 + np.arange(50) * 0.01
    cloud = make_cloud(pos, classes=3, gt=np.zeros(100, dtype=int))
    labeling = segment(cloud, SegmentationParams(mu=1))
    assert labeling.n_instances == 2


def test_small_blob_filtered_to_noise():
    cloud = make_cloud(grid_blob((0, 0, 0), 15), classes=3)
    labeling = segment(cloud, SegmentationParams(mu=20))
    assert labeling.n_instances == 0
    assert (labeling.assignment == NOISE).all()


def test_different_classes_never_connect():
    pos = np.zeros((20, 3))
    pos[:, 0] = np.arange(20) * 0.01
    classes = np.repeat([3, 5], 10)
    cloud = make_cloud(pos, classes)
    labeling = segment(cloud, SegmentationParams(mu=1))
    for members in labeling.instances:
        assert np.unique(cloud.class_labels[members]).size == 1


def test_boundary_points_rescue_small_core():
    # 12 interior cylinder points + a touching wall of another class makes
    # boundary points; reattachment runs before the size filter, so the
    # instance survives mu=20 only thanks to its reattached skirt
    line = np.zeros((30, 3))
    line[:, 0] = np.arange(30) * 0.01
    wall = grid_blob((0.0, 0.0, 0.2), 150, spacing=0.01)
    wall[:, 2] = 0.02  # 2cm above the start of the line
    wall[:, 0] -= wall[:, 0].min()  # covers x in [0, ~0.05]
    pos = np.vstack([line, wall])
    classes = np.array([3] * 30 + [5] * 150)
    cloud = make_cloud(pos, classes)
    labeling, details = segment_with_details(cloud, SegmentationParams(epsilon=0.04, mu=20))
    assert details.boundary_flags[:30].any()
    cyl_instances = {int(labeling.assignment[i]) for i in range(30)} - {NOISE}
    assert len(cyl_instances) == 1


def test_boundary_only_region_becomes_noise():
    # two different-class points close together: both are boundary, there is
    # no interior instance of either class to join
    cloud = make_cloud([[0, 0, 0], [0.01, 0, 0]], classes=[3, 5])
    labeling = segment(cloud, SegmentationParams(epsilon=0.04, mu=1))
    assert labeling.n_instances == 0
    assert (labeling.assignment == NOISE).all()


def test_reattach_cap_limits_long_joins():
    # a lone cylinder boundary point 13cm from the cylinder body exceeds 3*eps
    body = grid_blob((0, 0, 0), 64)
    intruder = np.array([[0.2, 0.0, 0.0]])      # other-class point making b a boundary
    b = np.array([[0.2 - 0.01, 0.0, 0.0]])      # cylinder point near the intruder
    pos = np.vstack([body, b, intruder])
    classes = np.array([3] * 64 + [3, 5])
    cloud = make_cloud(pos, classes)
    cap = 3 * 0.04
    d_to_body = np.linalg.norm(body - b, axis=1).min()
    assert d_to_body > cap
    labeling = segment(cloud, SegmentationParams(epsilon=0.04, mu=1))
    assert labeling.assignment[64] == NOISE


def test_reattach_tie_prefers_lower_instance_id():
    # boundary point exactly between two same-class instances
    left = np.array([[0.0, 0.0, 0.0]])
    right = np.array([[0.2, 0.0, 0.0]])
    middle = np.array([[0.1, 0.0, 0.0]])        # cylinder, will be boundary
    intruder = np.array([[0.1, 0.012, 0.0]])    # other class within r_b
    pos = np.vstack([left, right, middle, intruder])
    classes = np.array([3, 3, 3, 5])
    cloud = make_cloud(pos, classes)
    labeling = segment(cloud, SegmentationParams(epsilon=0.11, mu=1))
    # left/right are interior singletons 0 and 1; the middle ties at 0.1m
    assert labeling.assignment[2] == labeling.assignment[0]


# -- connected_components ------------------------------------------------------

def test_components_no_edges():
    pos = np.arange(5)[:, None] * [1.0, 0, 0]
    comps = connected_components(RadiusIndex(pos), epsilon=0.5)
    assert len(comps) == 5


def test_components_full_chain():
    pos = np.arange(5)[:, None] * [0.01, 0, 0]
    comps = connected_components(RadiusIndex(pos), epsilon=0.02)
    assert len(comps) == 1
    assert comps[0].tolist() == [0, 1, 2, 3, 4]


def test_components_subset_and_predicate(rng):
    pos = rng.random((60, 3)) * 0.2
    classes = rng.integers(0, 2, 60)
    index = RadiusIndex(pos)
    comps = connected_components(
        index, 0.05, subset=np.arange(30),
        predicate=lambda i, j: classes[i] == classes[j],
    )
    covered = np.concatenate(comps)
    assert np.array_equal(np.sort(covered), np.arange(30))
    for c in comps:
        assert np.unique(classes[c]).size == 1 or c.size == 1


def test_components_match_brute_force(rng):
    for n in (30, 200, 600):
        pos = rng.random((n, 3)) * 0.5
        index = RadiusIndex(pos)
        eps = float(rng.uniform(0.03, 0.12))
        got = connected_components(index, eps)
        edges = [(i, j) for i, j in index.pairs_within(eps)]
        expect = sorted(
            (sorted(c) for c in brute_components(n, edges)), key=lambda c: c[0]
        )
        assert [c.tolist() for c in got] == expect


def test_components_out_of_range_subset(rng):
    index = RadiusIndex(rng.random((5, 3)))
    with pytest.raises(ValueError):
        connected_components(index, 0.1, subset=[7])


# -- component labelling -------------------------------------------------------

def _smallest_member_labels(n, edges):
    want = np.arange(n)
    for comp in brute_components(n, edges):
        want[sorted(comp)] = min(comp)
    return want


@st.composite
def edge_lists(draw):
    """Edges in either order, with repeats, self loops and isolated vertices."""
    n = draw(st.integers(1, 40))
    ends = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(ends, ends), max_size=3 * n))
    edges += draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    dtype = draw(st.sampled_from((np.int32, np.int64)))
    return n, np.array(edges, dtype=dtype).reshape(-1, 2)


@settings(max_examples=300, deadline=None)
@given(edge_lists())
def test_component_labels_match_brute_force(case):
    n, pairs = case
    labels = _component_labels(n, pairs)
    assert labels.tolist() == _smallest_member_labels(n, pairs.tolist()).tolist()


def _path(order):
    return np.stack([order[:-1], order[1:]], axis=1)


ADVERSARIAL_N = 100_000


def _zigzag(n):
    order = np.empty(n, dtype=np.int64)
    order[0::2] = np.arange((n + 1) // 2)
    order[1::2] = np.arange(n - 1, (n + 1) // 2 - 1, -1)
    return order


@pytest.mark.parametrize("graph", ["increasing", "decreasing", "random", "zigzag", "star"])
def test_component_labels_adversarial_id_orders(graph):
    n = ADVERSARIAL_N
    if graph == "star":
        # centred on the largest id, so every leaf is smaller than the hub
        leaves = np.random.default_rng(5).permutation(n - 1)
        pairs = np.stack([leaves, np.full(n - 1, n - 1)], axis=1)
    else:
        order = {"increasing": np.arange(n), "decreasing": np.arange(n)[::-1],
                 "random": np.random.default_rng(5).permutation(n), "zigzag": _zigzag(n)}[graph]
        # two paths and an isolated vertex: cut the order in three
        pairs = np.vstack([_path(order[: n // 2]), _path(order[n // 2: -1])])
    labels = _component_labels(n, pairs)
    assert labels.tolist() == _smallest_member_labels(n, pairs.tolist()).tolist()
    assert np.unique(labels).size == (1 if graph == "star" else 3)


def test_component_labels_without_edges():
    assert _component_labels(4, np.empty((0, 2), dtype=np.int64)).tolist() == [0, 1, 2, 3]
    assert _component_labels(0, np.empty((0, 2), dtype=np.int64)).size == 0


# -- segment_single_object ------------------------------------------------------

def test_single_object_dense_line():
    pos = np.zeros((50, 3))
    pos[:, 0] = np.arange(50) * 0.01
    res = segment_single_object(pos, epsilon=0.02)
    assert res.component_count == 1
    assert res.largest_fraction == 1.0


def test_single_object_with_gap():
    pos = np.zeros((40, 3))
    pos[:20, 0] = np.arange(20) * 0.01
    pos[20:, 0] = 0.19 + 0.05 + np.arange(20) * 0.01
    res = segment_single_object(pos, epsilon=0.04)
    assert res.component_count == 2
    assert res.largest_fraction == 0.5


def test_single_object_count_non_increasing_in_epsilon(rng):
    theta = rng.uniform(0, 2 * np.pi, 300)
    z = rng.uniform(0, 0.5, 300)
    pos = np.stack([0.05 * np.cos(theta), 0.05 * np.sin(theta), z], axis=1)
    counts = [segment_single_object(pos, e).component_count
              for e in (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07)]
    assert all(b <= a for a, b in zip(counts, counts[1:]))
    fracs = [segment_single_object(pos, e).largest_fraction
             for e in (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07)]
    assert all(b >= a for a, b in zip(fracs, fracs[1:]))


def test_single_object_argument_errors():
    with pytest.raises(ValueError):
        segment_single_object(np.empty((0, 3)), 0.04)
    with pytest.raises(ValueError):
        segment_single_object(np.zeros((3, 3)), 0.0)
    with pytest.raises(ValueError, match="finite and positive"):
        segment_single_object(np.zeros((3, 3)), float("inf"))


# -- invariants ----------------------------------------------------------------

def _random_scene(rng, n):
    pos = rng.random((n, 3)) * 0.5
    classes = rng.integers(0, 8, n)
    return make_cloud(pos, classes)


def test_matches_brute_force_oracle(rng):
    for _ in range(8):
        n = int(rng.integers(30, 300))
        cloud = _random_scene(rng, n)
        eps = float(rng.uniform(0.03, 0.1))
        r_b = float(rng.uniform(0.02, 0.12))
        mu = int(rng.choice([1, 3, 10]))
        params = SegmentationParams(epsilon=eps, mu=mu, boundary_radius=r_b)
        got = segment(cloud, params)
        expect = brute_segment(cloud.positions, cloud.class_labels, eps, mu, r_b)
        assert np.array_equal(got.assignment, expect)


def test_reattachment_cap_is_closed():
    # the boundary point at x=0 (class-1 neighbour at 0.25) has its nearest
    # class-0 instance member exactly 3 * epsilon away, so it joins that instance
    pos = np.array([[x, 0.0, 0.0] for x in (-1.5, -1.25, -1.0, -0.75, 0.0, 0.25)])
    classes = np.array([0, 0, 0, 0, 0, 1])
    labeling, details = segment_with_details(make_cloud(pos, classes),
                                             SegmentationParams(epsilon=0.25, mu=1))
    assert labeling.assignment.tolist() == [0, 0, 0, 0, 0, NOISE]
    assert labeling.assignment.tolist() == brute_segment(pos, classes, 0.25, 1).tolist()
    assert (details.reattached_count, details.boundary_noise_count) == (1, 1)


def _radius_at_exactly(sq):
    """A radius r with r * r == sq, or None where no double squares to sq."""
    r = float(np.sqrt(sq))
    for candidate in (r, np.nextafter(r, 0.0), np.nextafter(r, 1.0)):
        if candidate * candidate == sq:
            return float(candidate)
    return None


def test_epsilon_at_a_pairs_own_distance_matches_oracle(rng):
    # epsilon is a point's distance to its nearest neighbour, exactly: that
    # pair links (or flags) only if both sides sum the squares alike. r_b is
    # likewise a point's distance to its nearest other-class point, or one
    # ulp either side of it
    cloud = make_cloud(rng.random((150, 3)) * 0.5, rng.integers(0, 2, 150))
    pos, classes = cloud.positions, cloud.class_labels
    index = RadiusIndex(pos)
    sq = distance_matrix_sq(pos)
    np.fill_diagonal(sq, np.inf)
    other_sq = np.where(classes[:, None] != classes[None, :], sq, np.inf)
    tested = tested_r_b = 0
    for i in range(150):
        eps = _radius_at_exactly(sq[i].min())
        if eps is not None:
            tested += 1
            for r_b in (None, eps / 2):
                got = segment(cloud, SegmentationParams(epsilon=eps, mu=1, boundary_radius=r_b))
                want = brute_segment(pos, classes, eps, 1, r_b)
                assert got.assignment.tolist() == want.tolist()
        r = _radius_at_exactly(other_sq[i].min())
        if r is None or tested_r_b == 50:
            continue
        tested_r_b += 1
        for r_b in (r, float(np.nextafter(r, 0.0)), float(np.nextafter(r, np.inf))):
            flags = detect_class_boundaries(cloud, index, BoundaryParams(r_b))
            assert flags.tolist() == brute_class_boundaries(pos, classes, r_b).tolist()
            params = SegmentationParams(epsilon=0.05, mu=1, boundary_radius=r_b)
            want = brute_segment(pos, classes, 0.05, 1, r_b)
            assert segment(cloud, params, workers=1).assignment.tolist() == want.tolist()
    assert tested > 50 and tested_r_b == 50


TIE_GRID = (0.01, 0.02, 0.03, 0.04)


@st.composite
def tie_scenes(draw):
    """Lattices spaced at exactly epsilon, other-class points at exactly r_b.

    Also single-class clouds and all-boundary clouds (every point has an
    other-class copy at distance 0); r_b is epsilon or another grid value.
    """
    eps = draw(st.sampled_from(TIE_GRID))
    r_b = draw(st.one_of(st.none(), st.sampled_from(TIE_GRID)))
    blocks, classes = [], []
    for k in range(draw(st.integers(1, 3))):
        count = draw(st.sampled_from((1, 2, 8, 27)))
        center = (draw(st.integers(0, 6)) * eps, k * draw(st.sampled_from((0, 1, 3))) * eps, 0.0)
        blocks.append(grid_blob(center, count, spacing=eps))
        classes.append(np.full(count, draw(st.integers(0, 2))))
    pos, classes = np.vstack(blocks), np.concatenate(classes)
    kind = draw(st.sampled_from(("intruders", "single-class", "all-boundary")))
    if kind == "single-class":
        classes[:] = classes[0]
    elif kind == "all-boundary":
        pos, classes = np.vstack([pos, pos]), np.concatenate([classes, classes + 1])
    else:
        hosts = draw(st.lists(st.integers(0, pos.shape[0] - 1), max_size=4))
        axis = np.eye(3)[draw(st.integers(0, 2))]
        pos = np.vstack([pos, pos[hosts] + (eps if r_b is None else r_b) * axis])
        classes = np.concatenate([classes, classes[hosts] + 3])
    return make_cloud(pos, classes), eps, r_b, kind


@settings(max_examples=150, deadline=None)
@given(tie_scenes(), st.sampled_from((1, 2, 5)))
def test_segment_matches_oracle_on_tie_geometry(scene, mu):
    cloud, eps, r_b, kind = scene
    params = SegmentationParams(epsilon=eps, mu=mu, boundary_radius=r_b)
    want = brute_segment(cloud.positions, cloud.class_labels, eps, mu, r_b)
    for workers in (1, 2, 3):
        assert segment(cloud, params, workers=workers).assignment.tolist() == want.tolist()
    if kind == "all-boundary":
        assert (want == NOISE).all()


def test_class_purity(rng):
    cloud = _random_scene(rng, 400)
    labeling = segment(cloud, SegmentationParams(epsilon=0.06, mu=1))
    for members, cls in zip(labeling.instances, labeling.instance_classes):
        assert (cloud.class_labels[members] == cls).all()


def test_determinism_across_workers(rng):
    cloud = _random_scene(rng, 500)
    params = SegmentationParams(epsilon=0.05, mu=3)
    a = segment(cloud, params, workers=1)
    b = segment(cloud, params, workers=4)
    c = segment(cloud, params)
    assert np.array_equal(a.assignment, b.assignment)
    assert np.array_equal(a.assignment, c.assignment)


def test_permutation_equivariance(rng):
    cloud = _random_scene(rng, 300)
    params = SegmentationParams(epsilon=0.05, mu=2)
    base = segment(cloud, params)
    perm = rng.permutation(300)
    shuffled = make_cloud(cloud.positions[perm], cloud.class_labels[perm])
    other = segment(shuffled, params)
    orig_sets = {frozenset(m.tolist()) for m in base.instances}
    back_sets = {frozenset(perm[m].tolist()) for m in other.instances}
    assert orig_sets == back_sets


def test_partition_refinement_in_epsilon(rng):
    # fixed boundary flags: components at a smaller radius refine those at a larger
    pos = rng.random((400, 3)) * 0.4
    classes = rng.integers(0, 3, 400)
    cloud = make_cloud(pos, classes)
    index = RadiusIndex(pos)
    pred = lambda i, j: classes[i] == classes[j]
    prev = None
    for eps in (0.02, 0.03, 0.05, 0.08):
        comps = connected_components(index, eps, predicate=pred)
        if prev is not None:
            coarse = {}
            for k, c in enumerate(comps):
                for v in c:
                    coarse[int(v)] = k
            for c in prev:
                assert len({coarse[int(v)] for v in c}) == 1
        prev = comps


def test_canonical_ids_by_smallest_member(rng):
    cloud = _random_scene(rng, 200)
    labeling = segment(cloud, SegmentationParams(epsilon=0.07, mu=1))
    firsts = [int(m[0]) for m in labeling.instances]
    assert firsts == sorted(firsts)


def test_instance_labeling_from_assignment_validation():
    with pytest.raises(ValueError, match="mixes"):
        InstanceLabeling.from_assignment(np.array([0, 0]), np.array([1, 2]))
    lab = InstanceLabeling.from_assignment(np.array([5, NOISE, 5, 2]), np.array([1, 0, 1, 4]))
    assert lab.assignment.tolist() == [0, NOISE, 0, 1]
    assert lab.n_instances == 2
    assert lab.sizes().tolist() == [2, 1]
    with pytest.raises(ValueError):
        InstanceLabeling.from_assignment(np.array([0]), np.array([1, 1]))


_ID = st.one_of(st.just(NOISE), st.integers(-4, 6), st.integers(-2**63, 2**63 - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_ID, st.integers(0, 7)), max_size=40))
@example([])
@example([(NOISE, 3), (-9, 0), (-2**63, 7)])
def test_from_assignment_groups_like_the_oracle(points):
    ids = np.array([i for i, _ in points], dtype=np.int64)
    # an assigned point takes its class from its id, so every instance is pure
    classes = np.array([i % 8 if i >= 0 else c for i, c in points], dtype=np.int64)
    lab = InstanceLabeling.from_assignment(ids, classes)
    expect = canonicalize(ids)
    assert lab.assignment.tolist() == expect.tolist()
    k = int(expect.max()) + 1 if (expect >= 0).any() else 0
    assert lab.n_instances == k
    for g, members in enumerate(lab.instances):
        assert members.dtype == np.int64
        assert members.tolist() == np.flatnonzero(expect == g).tolist()
        assert lab.instance_classes[g] == classes[members[0]]
    firsts = [int(m[0]) for m in lab.instances]
    assert firsts == sorted(firsts)
    assert lab.instance_classes.shape == (k,)


# -- where the points go -------------------------------------------------------

def _assert_conservation(cloud, params):
    labeling, details = segment_with_details(cloud, params)
    boundary = int(details.boundary_flags.sum())
    noise = int((labeling.assignment == NOISE).sum())
    assert details.reattached_count + details.boundary_noise_count == boundary
    assert sum(m.size for m in labeling.instances) + noise == len(cloud)
    assert details.provisional_count - details.dropped_instances == labeling.n_instances
    # NOISE is the unjoined boundary points plus the members of dropped instances
    assert details.boundary_noise_count + details.dropped_points == noise
    # counted independently: with mu = 1 nothing is dropped, so its instances
    # are the provisional ones after reattachment
    sizes = segment(cloud, replace(params, mu=1)).sizes()
    assert sizes.size == details.provisional_count
    assert details.dropped_instances == int((sizes < params.mu).sum())
    assert details.dropped_points == int(sizes[sizes < params.mu].sum())
    return details


@pytest.mark.parametrize("profile", ["sparse", "dense", "cluttered", "refinery-like", "gapped"])
def test_conservation_identities_on_profiles(profile):
    (spec, _), = make_benchmark_suite(profile, seed=101)
    cloud = generate_scene(spec)
    details = _assert_conservation(cloud, SegmentationParams())
    assert details.provisional_count > 0


def test_conservation_identities_on_random_clouds(rng):
    dropped = reattached = 0
    for n in (1, 40, 300):
        for params in (SegmentationParams(epsilon=0.06, mu=3),
                       SegmentationParams(epsilon=0.08, mu=5, boundary_radius=0.03),
                       SegmentationParams(epsilon=0.05, mu=10_000)):
            cloud = _random_scene(rng, n)
            details = _assert_conservation(cloud, params)
            dropped += details.dropped_instances
            # reattached: the oracle's boundary points that join an instance before the size filter
            pos, classes = cloud.positions, cloud.class_labels
            flags = brute_class_boundaries(pos, classes, params.resolved_boundary_radius)
            joined = brute_segment(pos, classes, params.epsilon, 1, params.boundary_radius) >= 0
            assert details.reattached_count == int(np.count_nonzero(flags & joined))
            reattached += details.reattached_count
    assert dropped > 0 and reattached > 0


def test_mu_drops_reported_for_a_small_blob():
    pos = np.vstack([grid_blob((0, 0, 0), 30), grid_blob((0.5, 0, 0), 4)])
    labeling, details = segment_with_details(make_cloud(pos, 3), SegmentationParams(mu=5))
    counts = (details.provisional_count, details.dropped_instances, details.dropped_points)
    assert counts == (2, 1, 4)
    assert labeling.n_instances == 1
    _, details = segment_with_details(make_cloud(np.empty((0, 3))))
    assert (details.dropped_instances, details.dropped_points) == (0, 0)


def test_one_interior_tree_per_class_serves_links_and_reattachment(monkeypatch):
    # the indexes, in build order: per class one over its interior, for links
    # and reattachment. The pair streams, in call order: one for the flags,
    # over the points whose block holds two classes, and per class one over
    # its mixed interior points, only when some block holds two components
    # of the face-linked clique cells
    built, streams = [], []
    pair_chunks = cloiseg.spatial._pair_chunks

    class CountingIndex(RadiusIndex):
        def __init__(self, positions):
            built.append(len(positions))
            super().__init__(positions)

    def counting_chunks(positions, r, ids):
        streams.append((len(positions), r))
        yield from pair_chunks(positions, r, ids)

    for module in (cloiseg.segmentation, cloiseg.boundary, cloiseg.spatial):
        monkeypatch.setattr(module, "RadiusIndex", CountingIndex)
    monkeypatch.setattr(cloiseg.spatial, "_pair_chunks", counting_chunks)
    pos = np.vstack([grid_blob((0, 0, 0), 64), grid_blob((0.05, 0, 0), 64),
                     grid_blob((0.5, 0, 0), 64)])
    classes = np.repeat([1, 2, 3], 64)
    _, details = segment_with_details(make_cloud(pos, classes))
    assert details.reattached_count > 0
    # class 3 is out of every other class's reach: no pair of it is enumerated
    assert built == [32, 16, 64]
    assert streams == [(128, 0.04)]
    built.clear()
    streams.clear()
    segment(make_cloud(pos, 3))
    assert (built, streams) == ([len(pos)], [])

    # a chain spaced 3cm, wider than a clique cell (2.31cm at 4cm), falls
    # into runs of 3 or 4 points in cells linked across their faces, split
    # where it skips a cell; its points whose block holds two runs are mixed
    # (26 of 30), the blob's are not
    built.clear()
    streams.clear()
    chain = np.zeros((30, 3))
    chain[:, 0] = 1.0 + np.arange(30) * 0.03
    labeling = segment(make_cloud(np.vstack([grid_blob((0, 0, 0), 64), chain]), 3))
    assert (built, streams) == ([94], [(26, 0.04)])
    assert labeling.assignment.tolist() == [0] * 64 + [1] * 30

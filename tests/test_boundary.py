from __future__ import annotations

import numpy as np
import pytest

from cloiseg import (
    BoundaryParams,
    RadiusIndex,
    boundary_stats,
    detect_class_boundaries,
    detect_gt_instance_boundaries,
)
from conftest import grid_blob, make_cloud
from oracles import brute_class_boundaries


def _indexed(cloud):
    return cloud, RadiusIndex(cloud.positions)


def test_params_validation():
    with pytest.raises(ValueError):
        BoundaryParams(0.0)
    with pytest.raises(ValueError):
        BoundaryParams(-0.01)
    for radius in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="finite and positive"):
            BoundaryParams(radius)


def test_single_class_cloud_has_no_boundaries(rng):
    cloud, index = _indexed(make_cloud(rng.random((200, 3)) * 0.2, classes=3))
    flags = detect_class_boundaries(cloud, index, BoundaryParams(0.04))
    assert not flags.any()


def test_two_touching_half_clouds(rng):
    left = grid_blob((0.0, 0.0, 0.0), 125, spacing=0.01)
    right = grid_blob((0.6, 0.0, 0.0), 125, spacing=0.01)
    # shift so the facing surfaces sit 1cm apart
    gap = right[:, 0].min() - left[:, 0].max()
    right[:, 0] -= gap - 0.01
    pos = np.vstack([left, right])
    classes = np.repeat([3, 5], 125)
    cloud, index = _indexed(make_cloud(pos, classes))
    flags = detect_class_boundaries(cloud, index, BoundaryParams(0.04))
    expect = brute_class_boundaries(pos, classes, 0.04)
    assert np.array_equal(flags, expect)
    stats = boundary_stats(flags)
    assert 0.0 < stats.ratio < 1.0


def test_isolated_point_is_interior():
    pos = np.array([[0, 0, 0], [5, 5, 5]])
    cloud, index = _indexed(make_cloud(pos, classes=[3, 5]))
    flags = detect_class_boundaries(cloud, index, BoundaryParams(0.04))
    assert not flags.any()


def test_gt_boundaries_single_instance(rng):
    pos = rng.random((100, 3)) * 0.1
    cloud = make_cloud(pos, classes=3, gt=np.zeros(100, dtype=int))
    flags = detect_gt_instance_boundaries(cloud, BoundaryParams(0.04))
    assert not flags.any()


def test_gt_boundaries_two_close_instances():
    a = grid_blob((0.0, 0.0, 0.0), 64, spacing=0.01)
    b = grid_blob((0.0, 0.0, 0.0), 64, spacing=0.01)
    b[:, 0] += (a[:, 0].max() - b[:, 0].min()) + 0.02
    pos = np.vstack([a, b])
    gt = np.repeat([0, 1], 64)
    cloud = make_cloud(pos, classes=3, gt=gt)
    flags = detect_gt_instance_boundaries(cloud, BoundaryParams(0.04))
    brute = brute_class_boundaries(pos, gt, 0.04)  # same definition over gt ids
    assert np.array_equal(flags, brute)
    assert flags[:64].any() and flags[64:].any()
    # interface points only: far ends stay interior
    far_left = pos[:, 0] < pos[:64, 0].max() - 0.05
    assert not flags[:64][far_left[:64]].any()


def test_gt_boundaries_far_instances():
    a = grid_blob((0, 0, 0), 27, spacing=0.01)
    b = grid_blob((0.5, 0, 0), 27, spacing=0.01)
    cloud = make_cloud(np.vstack([a, b]), classes=3, gt=np.repeat([0, 1], 27))
    flags = detect_gt_instance_boundaries(cloud, BoundaryParams(0.04))
    assert not flags.any()


def test_gt_boundaries_require_ground_truth():
    with pytest.raises(ValueError):
        detect_gt_instance_boundaries(make_cloud([[0, 0, 0]]), BoundaryParams(0.04))


def test_boundary_stats_all_interior():
    stats = boundary_stats(np.zeros(10, dtype=bool))
    assert stats == (0, 10, 0.0)
    assert boundary_stats(np.zeros(0, dtype=bool)).ratio == 0.0


def test_boundary_stats_checkerboard_ratio_one():
    # alternating classes at 1cm spacing: every point sees the other class
    pos = np.zeros((100, 3))
    pos[:, 0] = np.arange(100) * 0.01
    classes = np.tile([3, 5], 50)
    cloud, index = _indexed(make_cloud(pos, classes))
    flags = detect_class_boundaries(cloud, index, BoundaryParams(0.04))
    stats = boundary_stats(flags)
    assert stats.ratio == 1.0
    assert stats.boundary + stats.interior == 100


def test_flags_monotone_in_radius(rng):
    pos = rng.random((300, 3)) * 0.3
    classes = rng.integers(0, 4, 300)
    cloud, index = _indexed(make_cloud(pos, classes))
    prev = np.zeros(300, dtype=bool)
    for r in (0.01, 0.02, 0.04, 0.08, 0.16):
        flags = detect_class_boundaries(cloud, index, BoundaryParams(r))
        assert (flags | prev == flags).all()  # prev implies flags
        prev = flags


def test_class_boundaries_ignore_instance_ids(rng):
    pos = rng.random((200, 3)) * 0.2
    classes = rng.integers(0, 3, 200)
    cloud_a, index = _indexed(make_cloud(pos, classes, gt=classes.copy()))
    cloud_b = make_cloud(pos, classes, gt=classes * 2)  # relabeled instance ids
    cloud_c = make_cloud(pos, classes)                  # no instance ids at all
    params = BoundaryParams(0.05)
    flags = detect_class_boundaries(cloud_a, index, params)
    assert np.array_equal(flags, detect_class_boundaries(cloud_b, index, params))
    assert np.array_equal(flags, detect_class_boundaries(cloud_c, index, params))


def test_matches_brute_force_on_random_clouds(rng):
    for n in (50, 200, 400):
        pos = rng.random((n, 3)) * 0.4
        classes = rng.integers(0, 8, n)
        cloud, index = _indexed(make_cloud(pos, classes))
        r = float(rng.uniform(0.02, 0.1))
        got = detect_class_boundaries(cloud, index, BoundaryParams(r))
        assert np.array_equal(got, brute_class_boundaries(pos, classes, r))


def test_index_cloud_mismatch_rejected(rng):
    cloud = make_cloud(rng.random((10, 3)))
    index = RadiusIndex(rng.random((11, 3)))
    with pytest.raises(ValueError):
        detect_class_boundaries(cloud, index, BoundaryParams(0.04))

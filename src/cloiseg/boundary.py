"""Geometric boundary labeling of points.

A point is a class boundary when some neighbor within the boundary radius
carries a different class label, that is, when its nearest point of another
class lies within the radius; ground-truth instance boundaries are the
analogous notion over instance ids. Both are pure functions of the cloud and
independent of evaluation order. Ground-truth flags come from the pairs of
``spatial.mixed_pairs``, which holds their cut.

Class flags skip what cannot be a boundary. ``block_reduce`` ORs the class
bits over each point's block of cells (side >= the radius), which holds every
point within the radius. A point whose block holds no other class has no
other-class neighbour, so it is not queried; and a point's other-class
neighbours all have its class in their blocks, so each class is queried
against an index over only such points of the other classes. Both cuts drop
only points no query could return, so the flags are exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import LabeledPointCloud
from .spatial import RadiusIndex, block_reduce, mixed_pairs


@dataclass(frozen=True)
class BoundaryParams:
    """Neighborhood radius (meters) for boundary detection."""

    radius: float = 0.04

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"boundary radius must be positive, got {self.radius}")


class BoundaryStats(NamedTuple):
    boundary: int
    interior: int
    ratio: float


def _class_boundary_flags(positions: np.ndarray, classes: np.ndarray, radius: float) -> np.ndarray:
    """Per point: does its nearest other-class point lie within ``radius`` (inclusive)?

    For each class, ``nearest_within`` queries the points of the class whose
    block holds another class against an index over the points of the other
    classes whose block holds this one (see the module docstring); the rows
    it returns are exactly the boundary points.
    """
    flags = np.zeros(classes.shape, dtype=bool)
    bits = np.left_shift(1, classes).astype(np.uint8)
    near = block_reduce(positions, radius, bits, np.bitwise_or)
    for c in np.unique(classes):
        bit = np.uint8(1 << c)
        members = np.flatnonzero((bits == bit) & (near != bit))
        if members.size == 0:
            continue
        others = np.flatnonzero((bits != bit) & (near & bit != 0))
        rows, _ = RadiusIndex(positions[others]).nearest_within(positions[members], radius)
        flags[members[rows]] = True
    return flags


def detect_class_boundaries(
    cloud: LabeledPointCloud, index: RadiusIndex, params: BoundaryParams
) -> np.ndarray:
    """Boolean flag per point: has a different-class neighbor within the radius.

    ``index`` must be built over ``cloud``; the flags come from per-class indexes.
    """
    if len(index) != len(cloud):
        raise ValueError("index was not built over this cloud")
    return _class_boundary_flags(cloud.positions, cloud.class_labels, params.radius)


def detect_gt_instance_boundaries(cloud: LabeledPointCloud, params: BoundaryParams) -> np.ndarray:
    """Boolean flag per point: has a neighbor of a different ground-truth instance.

    Each such pair of points is among the ``mixed_pairs`` of the ids.
    """
    if len(cloud) and not cloud.has_ground_truth:
        raise ValueError("ground-truth instance ids are required on every point")
    gt = cloud.gt_instance
    pairs = mixed_pairs(cloud.positions, gt, params.radius)
    flags = np.zeros(len(cloud), dtype=bool)
    flags[pairs[gt[pairs[:, 0]] != gt[pairs[:, 1]]].ravel()] = True
    return flags


def boundary_stats(flags: np.ndarray) -> BoundaryStats:
    """(boundary count, interior count, boundary fraction); counts sum to N."""
    flags = np.asarray(flags, dtype=bool)
    n = flags.size
    b = int(flags.sum())
    return BoundaryStats(b, n - b, b / n if n else 0.0)

"""Geometric boundary labeling of points.

A point is a class boundary when some neighbor within the boundary radius
carries a different class label; ground-truth instance boundaries are the
same rule over instance ids. Both are pure functions of the cloud and
independent of evaluation order. One function decides the rule for any ids:
it flags both points of every pair of ``spatial.mixed_pairs``, which holds
its cut.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import LabeledPointCloud
from .spatial import RadiusIndex, _check_radius, mixed_pairs


@dataclass(frozen=True)
class BoundaryParams:
    """Neighborhood radius (meters) for boundary detection."""

    radius: float = 0.04

    def __post_init__(self):
        _check_radius(self.radius, "boundary radius")


class BoundaryStats(NamedTuple):
    boundary: int
    interior: int
    ratio: float


def _boundary_flags(positions: np.ndarray, ids: np.ndarray, radius: float) -> np.ndarray:
    """Per point: does a point of another id lie within ``radius`` (inclusive)?"""
    flags = np.zeros(len(ids), dtype=bool)
    for pairs in mixed_pairs(positions, ids, radius):
        flags[pairs.ravel()] = True
    return flags


def detect_class_boundaries(
    cloud: LabeledPointCloud, index: RadiusIndex, params: BoundaryParams
) -> np.ndarray:
    """Boolean flag per point: has a different-class neighbor within the radius.

    ``index`` must be built over ``cloud``; only its length is read.
    """
    if len(index) != len(cloud):
        raise ValueError("index was not built over this cloud")
    return _boundary_flags(cloud.positions, cloud.class_labels, params.radius)


def detect_gt_instance_boundaries(cloud: LabeledPointCloud, params: BoundaryParams) -> np.ndarray:
    """Boolean flag per point: has a neighbor of a different ground-truth instance."""
    if len(cloud) and not cloud.has_ground_truth:
        raise ValueError("ground-truth instance ids are required on every point")
    return _boundary_flags(cloud.positions, cloud.gt_instance, params.radius)


def boundary_stats(flags: np.ndarray) -> BoundaryStats:
    """(boundary count, interior count, boundary fraction); counts sum to N."""
    flags = np.asarray(flags, dtype=bool)
    n = flags.size
    b = int(flags.sum())
    return BoundaryStats(b, n - b, b / n if n else 0.0)

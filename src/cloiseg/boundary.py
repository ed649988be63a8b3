"""Geometric boundary labeling of points.

A point is a class boundary when some neighbor within the boundary radius
carries a different class label; ground-truth instance boundaries are the
analogous notion over instance ids. Both are pure functions of the cloud and
independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import LabeledPointCloud
from .spatial import RadiusIndex


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


def flags_from_pairs(n: int, pairs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Flag both ends of every neighbor pair whose labels differ."""
    flags = np.zeros(n, dtype=bool)
    if pairs.size:
        differ = labels[pairs[:, 0]] != labels[pairs[:, 1]]
        flags[pairs[differ].ravel()] = True
    return flags


def detect_class_boundaries(
    cloud: LabeledPointCloud, index: RadiusIndex, params: BoundaryParams
) -> np.ndarray:
    """Boolean flag per point: has a different-class neighbor within the radius."""
    if len(index) != len(cloud):
        raise ValueError("index was not built over this cloud")
    pairs = index.pairs_within(params.radius)
    return flags_from_pairs(len(cloud), pairs, cloud.class_labels)


def detect_gt_instance_boundaries(
    cloud: LabeledPointCloud, index: RadiusIndex, params: BoundaryParams
) -> np.ndarray:
    """Boolean flag per point: has a neighbor of a different ground-truth instance."""
    if len(index) != len(cloud):
        raise ValueError("index was not built over this cloud")
    if len(cloud) and not cloud.has_ground_truth:
        raise ValueError("ground-truth instance ids are required on every point")
    pairs = index.pairs_within(params.radius)
    return flags_from_pairs(len(cloud), pairs, cloud.gt_instance)


def boundary_stats(flags: np.ndarray) -> BoundaryStats:
    """(boundary count, interior count, boundary fraction); counts sum to N."""
    flags = np.asarray(flags, dtype=bool)
    n = flags.size
    b = int(flags.sum())
    return BoundaryStats(b, n - b, b / n if n else 0.0)

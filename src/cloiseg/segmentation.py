"""Instance segmentation by graph connectivity over same-class interior points.

Pipeline: detect class boundaries, connect interior points of equal class
within the link radius, take connected components as provisional instances,
reattach each boundary point to its nearest same-class instance (capped at
3x the link radius), drop instances smaller than the minimum size to NOISE,
then renumber canonically. Deterministic for a given input; every step runs
in one thread, and the ``workers`` arguments are accepted but have no effect.

A point is a boundary point when a point of another class lies within the
boundary radius (``boundary._boundary_flags``). The other steps are per
class, and one index over a class's interior points serves both: links are
enumerated among its points, so pairs across classes or with a boundary
point never arise, and the class's boundary points then query it for their
nearest instance. A numpy union-find labels each interior point with the
smallest member of its component, a boundary point takes the label of the
instance it joins, and ranking those labels once gives the canonical order.

Links are labelled in two rounds (``_epsilon_labels``). Clique cells come
first: cells of side below epsilon / sqrt(3), in which every two points
are epsilon-pairs, each labelled with its smallest point and joined to its
face neighbours after an exact test (``clique_cells``). Then one join step
(``_join_mixed``): a point whose block of cells (side >= epsilon) holds a
single label has all its epsilon-neighbours in its own component, so its
epsilon-pairs cannot join two components. The epsilon-pairs of two labels
among the other, mixed, points (``spatial.mixed_pairs``) join the labels.
The labels stay smallest members, so the result equals one labelling of
every epsilon-pair.

The per-object radius study (``_fragmentation_by_radius``) labels its
first, smallest, radius the same way. The components at a smaller radius
are parts of those at a larger one (single linkage), so each later radius
starts from the labels of the radius before and runs only the join step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .boundary import _boundary_flags
from .model import NOISE, LabeledPointCloud, _group_instances
from .spatial import RadiusIndex, _checked_positions, _distinct, clique_cells, mixed_pairs

#: Boundary points farther than this multiple of epsilon from every
#: same-class instance become NOISE instead of joining one.
REATTACH_CAP_FACTOR = 3.0


@dataclass(frozen=True)
class SegmentationParams:
    """Link radius epsilon (m), minimum instance size mu (whole points), boundary radius (m).

    ``boundary_radius=None`` tracks epsilon. Defaults are the tuned optimum
    for industrial scans: epsilon 4cm, mu 20 points.
    """

    epsilon: float = 0.04
    mu: int = 20
    boundary_radius: float | None = None

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.mu < 1 or not float(self.mu).is_integer():
            raise ValueError(f"mu must be an integer >= 1, got {self.mu}")
        if self.boundary_radius is not None and not 0 < self.boundary_radius < math.inf:
            raise ValueError("boundary radius must be finite and positive, "
                             f"got {self.boundary_radius}")

    @property
    def resolved_boundary_radius(self) -> float:
        return self.epsilon if self.boundary_radius is None else self.boundary_radius


@dataclass(frozen=True)
class InstanceLabeling:
    """A partition of point indices into class-pure instances plus a NOISE pool.

    ``assignment[i]`` is the instance id of point i or NOISE. Instances are
    numbered canonically (ascending smallest member index) and stored as
    sorted index arrays with their class label. Treat as immutable.
    """

    assignment: np.ndarray
    instances: tuple[np.ndarray, ...]
    instance_classes: np.ndarray

    @classmethod
    def from_assignment(cls, assignment: np.ndarray, class_labels: np.ndarray) -> "InstanceLabeling":
        class_labels = np.asarray(class_labels, dtype=np.int64)
        if np.shape(assignment) != class_labels.shape:
            raise ValueError("assignment and class labels must have equal length")
        assignment, first = _group_instances(assignment, class_labels)
        # a stable sort by instance keeps each instance's members ascending
        members = np.argsort(assignment, kind="stable")[np.count_nonzero(assignment < 0):]
        bounds = np.cumsum(np.bincount(assignment[members], minlength=first.size))
        return cls(assignment, tuple(np.split(members, bounds)[:-1]), class_labels[first])

    @property
    def n_instances(self) -> int:
        return len(self.instances)

    def sizes(self) -> np.ndarray:
        return np.array([m.size for m in self.instances], dtype=np.int64)


@dataclass(frozen=True)
class SegmentationDetails:
    """Diagnostics from one segmentation run.

    Counts conserve points: reattached + boundary noise = boundary points,
    boundary noise + dropped points = NOISE points, and provisional -
    dropped instances = final instances.
    """

    boundary_flags: np.ndarray
    provisional_count: int
    reattached_count: int
    boundary_noise_count: int
    dropped_instances: int = 0
    dropped_points: int = 0


@dataclass(frozen=True)
class SingleObjectResult:
    """Fragmentation of one object's points at a given link radius."""

    component_count: int
    largest_fraction: float


def connected_components(
    index: RadiusIndex,
    epsilon: float,
    subset: np.ndarray | None = None,
    predicate=None,
) -> list[np.ndarray]:
    """Components of the graph with edges d <= epsilon, optionally restricted.

    ``subset`` limits the vertex set; ``predicate(i, j)`` is a vectorized
    symmetric edge filter over index arrays. The resulting partition equals
    the transitive closure of the edge relation; components are sorted by
    smallest member and returned as sorted index arrays.
    """
    if subset is None:
        vertices = np.arange(len(index), dtype=np.int64)
    else:
        vertices = np.unique(np.asarray(subset, dtype=np.int64))
        if vertices.size and (vertices[0] < 0 or vertices[-1] >= len(index)):
            raise ValueError("subset index out of range")
        index = RadiusIndex(index.positions[vertices])
    if vertices.size == 0:
        return []
    pairs = index.pairs_within(epsilon)
    if predicate is not None:
        ends = vertices[pairs]
        pairs = pairs[np.asarray(predicate(ends[:, 0], ends[:, 1]), dtype=bool)]
    # smallest-member labels: a stable sort of the sorted vertices by label
    # yields the components in canonical order, each with sorted members
    labels = _component_labels(vertices.size, pairs)
    order = np.argsort(labels, kind="stable")
    _, starts = np.unique(labels[order], return_index=True)
    return np.split(vertices[order], starts[1:])


def _epsilon_labels(positions: np.ndarray, epsilon: float) -> np.ndarray:
    """Per point, the smallest point of its epsilon-component.

    Clique cells and their face links (``clique_cells``) give components
    that refine the epsilon-components; the join step makes them exact.
    """
    labels, edges = clique_cells(positions, epsilon)
    labels = _component_labels(labels.size, edges)[labels]
    return _join_mixed(positions, labels, epsilon)


def _join_mixed(positions: np.ndarray, labels: np.ndarray, radius: float) -> np.ndarray:
    """Smallest-member ``labels`` after joining every two components with a pair within ``radius``.

    ``labels`` are smallest members, ids into ``positions``, of components
    that lie each within one component of the pairs within ``radius``, so
    only the pairs of two labels, which ``mixed_pairs`` streams, join them.
    """
    pairs = np.concatenate([np.empty((0, 2), dtype=np.int64),
                            *mixed_pairs(positions, labels, radius)])
    if pairs.size:
        labels = _component_labels(labels.size, labels[pairs])[labels]
    return labels


def _component_labels(n: int, pairs: np.ndarray) -> np.ndarray:
    """Per vertex of an n-vertex graph, the smallest vertex of its component.

    ``pairs`` is an (M, 2) edge list in any order; repeated edges and self
    loops are harmless. Hook and compress (Shiloach & Vishkin 1982): while an
    edge joins two trees, hook each root under the smallest root it is linked
    to, pointer-jump every vertex to its root and drop the edges inside one
    tree. A parent is never larger than its vertex, so each root is the
    smallest member of its tree and the labels do not depend on edge order.
    """
    parent = np.arange(n, dtype=np.int32 if n <= np.iinfo(np.int32).max else np.int64)
    lo = pairs[:, 0].astype(parent.dtype, copy=False)
    hi = pairs[:, 1].astype(parent.dtype, copy=False)
    del pairs  # a caller that passed the only reference frees a wider edge list here
    while lo.size:
        # an edge given larger end first hooks nothing until it is ordered below
        np.minimum.at(parent, hi, lo)
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        lo, hi = parent[lo], parent[hi]
        live = lo != hi
        lo, hi = lo[live], hi[live]
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
    return parent


def segment(
    cloud: LabeledPointCloud, params: SegmentationParams | None = None, workers: int | None = None
) -> InstanceLabeling:
    """Segment a class-labeled cloud into instances; see module docstring."""
    labeling, _ = segment_with_details(cloud, params, workers)
    return labeling


def segment_with_details(
    cloud: LabeledPointCloud, params: SegmentationParams | None = None, workers: int | None = None
) -> tuple[InstanceLabeling, SegmentationDetails]:
    params = params or SegmentationParams()
    assignment, details = _segment_before_mu(cloud, params)
    assignment, dropped_instances, dropped_points = _mu_filter(assignment, params.mu)
    labeling = InstanceLabeling.from_assignment(assignment, cloud.class_labels)
    return labeling, replace(details, dropped_instances=dropped_instances,
                             dropped_points=dropped_points)


def _segment_before_mu(
    cloud: LabeledPointCloud, params: SegmentationParams
) -> tuple[np.ndarray, SegmentationDetails]:
    """Every stage but the size filter: the assignment after reattachment.

    ``params.mu`` is not read, so one result serves every minimum size.
    """
    n = len(cloud)
    if n == 0:
        return np.empty(0, dtype=np.int64), SegmentationDetails(np.zeros(0, dtype=bool), 0, 0, 0)
    eps = params.epsilon
    positions, classes = cloud.positions, cloud.class_labels
    flags = _boundary_flags(positions, classes, params.resolved_boundary_radius)

    # labels are smallest members of provisional instances, or NOISE
    labels = np.full(n, NOISE, dtype=np.int64)
    for c in _distinct(classes[~flags]):
        _label_class(positions, np.flatnonzero(classes == c), flags, labels, eps)

    # a label is its instance's smallest member, an interior point, so
    # ranking the roots numbers the instances canonically
    roots = labels == np.arange(n)
    assigned = labels >= 0
    assignment = np.where(assigned, np.cumsum(roots)[labels] - 1, NOISE)
    reattached = int(np.count_nonzero(flags & assigned))
    return assignment, SegmentationDetails(flags, int(np.count_nonzero(roots)), reattached,
                                           int(np.count_nonzero(flags)) - reattached)


def _label_class(
    positions: np.ndarray, members: np.ndarray, flags: np.ndarray, labels: np.ndarray,
    epsilon: float,
) -> None:
    """Label the points ``members`` of one class in place, from one index over its interior.

    Interior points take the smallest member of their epsilon-component. Each
    boundary point then joins its nearest interior point within the closed
    reattachment cap; exact ties go to the lowest label, which is the lowest
    instance id. Boundary points never bridge instances.
    """
    interior, boundary = members[~flags[members]], members[flags[members]]
    index = RadiusIndex(positions[interior])
    labels[interior] = interior[_epsilon_labels(index.positions, epsilon)]
    rows, nearest = index.nearest_within(positions[boundary], REATTACH_CAP_FACTOR * epsilon)
    hit_rows, starts = np.unique(rows, return_index=True)
    labels[boundary[hit_rows]] = np.minimum.reduceat(labels[interior[nearest]], starts)


def _mu_filter(assignment: np.ndarray, mu: int) -> tuple[np.ndarray, int, int]:
    """Instances with fewer than mu points become NOISE; the input is not modified.

    Runs after reattachment, so boundary points count toward the size.
    Returns the filtered assignment and the dropped instance and point counts.
    """
    assignment = assignment.copy()
    member = assignment >= 0
    if not member.any():
        return assignment, 0, 0
    sizes = np.bincount(assignment[member])
    small = sizes < mu
    victims = np.nonzero(member)[0][small[assignment[member]]]
    assignment[victims] = NOISE
    return assignment, int(small.sum()), int(victims.size)


def segment_single_object(positions: np.ndarray, epsilon: float) -> SingleObjectResult:
    """Fragmentation of one object: plain distance components, no class or boundary rules."""
    positions = _checked_positions(positions)
    if positions.size == 0:
        raise ValueError("object has no points")
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    return _fragmentation_by_radius(positions, (epsilon,))[0]


def _fragmentation_by_radius(
    positions: np.ndarray, epsilons: Sequence[float]
) -> list[SingleObjectResult]:
    """``segment_single_object`` at every radius of a valid ascending grid.

    The first radius is labelled as a class's interior is (``_epsilon_labels``);
    each later radius starts from the labels of the radius before and runs
    only the join step (see the module docstring).
    An object in one piece has no mixed point, so every later radius gives
    the same result, and a radius equal to the one before repeats its result.
    """
    n = positions.shape[0]
    results = []
    for k, eps in enumerate(epsilons):
        if k and eps == epsilons[k - 1]:
            results.append(results[-1])
            continue
        labels = _join_mixed(positions, labels, eps) if k else _epsilon_labels(positions, eps)
        # labels stay smallest members, so the components are the nonzero counts
        sizes = np.bincount(labels)
        results.append(SingleObjectResult(int(np.count_nonzero(sizes)), float(sizes.max() / n)))
        if results[-1].component_count == 1:
            return results + results[-1:] * (len(epsilons) - k - 1)
    return results

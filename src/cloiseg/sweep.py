"""Parameter-search harness: link-radius and minimum-size studies as tidy rows.

Every sweep row equals the result of a direct call with the same parameters:
``segment`` plus ``score`` for the mu and epsilon sweeps, and
``segment_single_object`` per ground-truth object for the radius sweep.
Sweeps may share work between rows where that keeps them equal: the mu
sweep segments once and applies each minimum size to that result, and the
radius sweep starts each radius after the first from the components of the
radius before and joins them only at mixed points (see
``_fragmentation_by_radius``).
Rows are plain dicts meant for CSV emission; plotting is out of scope.
The radius sweep flags no boundaries, so it takes no boundary radius.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .evaluation import _THRESHOLD, THRESHOLDS, _check_threshold, rec_ins, score
from .model import ClassLabel, LabeledPointCloud, atomic_open
from .segmentation import (
    InstanceLabeling,
    SegmentationParams,
    _check_mu,
    _fragmentation_by_radius,
    _mu_filter,
    _segment_before_mu,
    segment,
    segment_with_details,
)
from .spatial import _check_radius

DEFAULT_EPSILONS = (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07)
DEFAULT_MUS = (10, 20, 50, 100, 150, 200)
RADIUS_SELECTION_TARGET = 0.9
RADIUS_SELECTION_THRESHOLD = 0.5


_RULES = {"epsilon": lambda v: _check_radius(v, "epsilon"), "mu": _check_mu,
          "threshold": _check_threshold}


def _check_grid(values: Sequence[float], name: str) -> tuple:
    """``values`` as a non-empty ascending tuple, each value checked by ``_RULES[name]``."""
    values = tuple(_RULES[name](v) for v in values)
    if not values:
        raise ValueError(f"{name} grid must be non-empty")
    if list(values) != sorted(values):
        raise ValueError(f"{name} grid must be sorted ascending")
    return values


class SweepSpec:
    """Validated parameter grids for a sweep run."""

    def __init__(
        self,
        epsilons: Sequence[float] = DEFAULT_EPSILONS,
        mus: Sequence[int] = DEFAULT_MUS,
        thresholds: Sequence[float] = THRESHOLDS,
    ):
        self.epsilons = _check_grid(epsilons, "epsilon")
        self.mus = _check_grid(mus, "mu")
        self.thresholds = _check_grid(thresholds, "threshold")


def _gt_labeling(cloud: LabeledPointCloud) -> InstanceLabeling:
    if not cloud.has_ground_truth:
        raise ValueError("sweeps require ground-truth instance ids")
    return InstanceLabeling.from_assignment(cloud.gt_instance, cloud.class_labels)


def sweep_mu(
    cloud: LabeledPointCloud,
    epsilon: float,
    mus: Sequence[int] = DEFAULT_MUS,
    threshold: float = _THRESHOLD,
    boundary_radius: float | None = None,
    workers: int | None = None,
) -> list[dict]:
    """Scores per minimum instance size at a fixed link radius.

    Each row equals ``segment`` with that mu plus ``score``. The size filter
    is the last stage, so the stages before it run once for the whole grid.
    """
    mus = _check_grid(mus, "mu")
    _check_threshold(threshold)
    params = SegmentationParams(epsilon=epsilon, mu=mus[0], boundary_radius=boundary_radius)
    gt = _gt_labeling(cloud)
    unfiltered, _ = _segment_before_mu(cloud, params)
    rows = []
    for mu in mus:
        assignment, _, _ = _mu_filter(unfiltered, mu)
        pred = InstanceLabeling.from_assignment(assignment, cloud.class_labels)
        report = score(pred, gt, thresholds=(threshold,))
        tm = report.by_threshold[threshold]
        row: dict = {"mu": mu}
        for c in ClassLabel:
            row[f"prec_{c.name.lower()}"] = tm.per_class[c].precision
            row[f"rec_{c.name.lower()}"] = tm.per_class[c].recall
        row["m_prec"] = tm.mean_precision
        row["m_rec"] = tm.mean_recall
        rows.append(row)
    return rows


def sweep_epsilon(
    cloud: LabeledPointCloud,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    mu: int = SegmentationParams.mu,
    thresholds: Sequence[float] = THRESHOLDS,
    boundary_radius: float | None = None,
    workers: int | None = None,
) -> list[dict]:
    """One segmentation+score per link radius; reports pre-filter component counts."""
    epsilons, thresholds = _check_grid(epsilons, "epsilon"), _check_grid(thresholds, "threshold")
    gt = _gt_labeling(cloud)
    rows = []
    for eps in epsilons:
        params = SegmentationParams(epsilon=eps, mu=mu, boundary_radius=boundary_radius)
        pred, details = segment_with_details(cloud, params, workers=workers)
        report = score(pred, gt, thresholds=thresholds)
        row: dict = {"epsilon": eps}
        for t in thresholds:
            tm = report.by_threshold[t]
            row[f"m_prec@{t:g}"] = tm.mean_precision
            row[f"m_rec@{t:g}"] = tm.mean_recall
        row["instances_prefilter"] = details.provisional_count
        row["instances"] = pred.n_instances
        rows.append(row)
    return rows


def sweep_radius_per_object(
    cloud: LabeledPointCloud,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    thresholds: Sequence[float] = THRESHOLDS,
) -> tuple[list[dict], float | None]:
    """Per-object fragmentation study over the radius grid.

    Each ground-truth instance is clustered in isolation at every radius, as
    ``segment_single_object`` does. Each radius after the first starts from
    the labels of the radius before and joins them only at the points whose
    cell block holds two labels.
    Returns the rows plus the smallest radius whose mRec_ins at IoU 0.5
    reaches 90%, or None if no grid value qualifies.
    """
    epsilons, thresholds = _check_grid(epsilons, "epsilon"), _check_grid(thresholds, "threshold")
    gt = _gt_labeling(cloud)
    if gt.n_instances == 0:
        raise ValueError("cloud has no ground-truth instances")
    per_object = [_fragmentation_by_radius(cloud.positions[m], epsilons) for m in gt.instances]
    rows = []
    selected = None
    for k, eps in enumerate(epsilons):
        results = [by_radius[k] for by_radius in per_object]
        row: dict = {"epsilon": eps}
        for t in thresholds:
            row[f"m_rec_ins@{t:g}"] = rec_ins(results, t)
        for c in ClassLabel:
            of_class = [r for r, k in zip(results, gt.instance_classes) if k == int(c)]
            row[f"rec_ins_{c.name.lower()}@{RADIUS_SELECTION_THRESHOLD:g}"] = (
                rec_ins(of_class, RADIUS_SELECTION_THRESHOLD) if of_class else math.nan
            )
        rows.append(row)
        if selected is None and (rec_ins(results, RADIUS_SELECTION_THRESHOLD)
                                 >= RADIUS_SELECTION_TARGET):
            selected = eps
    return rows, selected


def facility_bias_report(
    facilities: Sequence[tuple[str, LabeledPointCloud]],
    params: SegmentationParams | None = None,
    threshold: float = _THRESHOLD,
) -> tuple[list[dict], dict]:
    """Per-facility mean precision/recall plus spread statistics (descriptive only)."""
    if len(facilities) < 2:
        raise ValueError("facility bias report needs at least 2 clouds")
    _check_threshold(threshold)
    params = params or SegmentationParams()
    rows = []
    for name, cloud in facilities:
        gt = _gt_labeling(cloud)
        pred = segment(cloud, params)
        tm = score(pred, gt, thresholds=(threshold,)).by_threshold[threshold]
        rows.append({"facility": name, "m_prec": tm.mean_precision, "m_rec": tm.mean_recall})
    precs = np.array([r["m_prec"] for r in rows], dtype=np.float64)
    recs = np.array([r["m_rec"] for r in rows], dtype=np.float64)
    summary = {
        "m_prec_mean": float(precs.mean()),
        "m_prec_std": float(precs.std()),
        "m_rec_mean": float(recs.mean()),
        "m_rec_std": float(recs.std()),
    }
    return rows, summary


def write_csv(rows: Sequence[dict], target, fieldnames: Sequence[str] | None = None) -> None:
    """Write rows as UTF-8 CSV; floats keep full round-trip precision."""
    if not rows:
        raise ValueError("no rows to write")
    fieldnames = list(fieldnames or rows[0].keys())

    def fmt(v):
        if isinstance(v, float):
            return repr(v)
        return v

    def emit(f):
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: fmt(row.get(k)) for k in fieldnames})

    if isinstance(target, (str, Path)):
        with atomic_open(target, encoding="utf-8", newline="") as f:
            emit(f)
    else:
        emit(target)


def rows_to_csv_text(rows: Sequence[dict], fieldnames: Sequence[str] | None = None) -> str:
    buf = io.StringIO()
    write_csv(rows, buf, fieldnames)
    return buf.getvalue()

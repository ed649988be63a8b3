"""Instance-level scoring: IoU, threshold matching, precision/recall reports.

Matching is greedy one-to-one by descending IoU (ties: lower pred id, then
lower gt id) over class-consistent pairs with IoU >= t. Precision and recall
with an empty denominator are reported as NaN and excluded from means; mean
metrics cover the seven CLOI classes only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import CLOI_CLASSES, NOISE, ClassLabel
from .segmentation import InstanceLabeling, SingleObjectResult

THRESHOLDS = (0.25, 0.50, 0.75)


def iou(pred_set, gt_set) -> float:
    """Intersection over union of two non-empty point-index sets."""
    a = np.unique(np.asarray(list(pred_set) if isinstance(pred_set, (set, frozenset)) else pred_set,
                             dtype=np.int64))
    b = np.unique(np.asarray(list(gt_set) if isinstance(gt_set, (set, frozenset)) else gt_set,
                             dtype=np.int64))
    if a.size == 0 or b.size == 0:
        raise ValueError("iou requires non-empty sets")
    inter = np.intersect1d(a, b, assume_unique=True).size
    return inter / (a.size + b.size - inter)


@dataclass(frozen=True)
class MatchedPair:
    pred_id: int
    gt_id: int
    iou: float


@dataclass(frozen=True)
class MatchResult:
    pairs: tuple[MatchedPair, ...]
    unmatched_preds: tuple[int, ...]
    unmatched_gts: tuple[int, ...]
    threshold: float


def _ranked_pairs(pred: InstanceLabeling, gt: InstanceLabeling) -> list[tuple[int, int, float]]:
    """(pred id, gt id, IoU) of every class-consistent pair that shares a point,
    by descending IoU, then lower pred id, then lower gt id."""
    if pred.assignment.shape != gt.assignment.shape:
        raise ValueError("labelings cover clouds of different sizes")
    pa, ga = pred.assignment, gt.assignment
    both = (pa != NOISE) & (ga != NOISE)
    codes, inter = np.unique(pa[both] * gt.n_instances + ga[both], return_counts=True)
    p, g = np.divmod(codes, gt.n_instances)
    same = pred.instance_classes[p] == gt.instance_classes[g]
    p, g, inter = p[same], g[same], inter[same]
    v = inter / (pred.sizes()[p] + gt.sizes()[g] - inter)
    order = np.lexsort((g, p, -v))
    return list(zip(p[order].tolist(), g[order].tolist(), v[order].tolist()))


def _greedy(ranked: list[tuple[int, int, float]], threshold: float) -> list[MatchedPair]:
    """The one-to-one pairs taken in ranked order while IoU >= threshold."""
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    pred_taken, gt_taken, pairs = set(), set(), []
    for p, g, v in ranked:
        if v < threshold:
            break
        if p not in pred_taken and g not in gt_taken:
            pred_taken.add(p)
            gt_taken.add(g)
            pairs.append(MatchedPair(p, g, v))
    return pairs


def match_instances(pred: InstanceLabeling, gt: InstanceLabeling, threshold: float) -> MatchResult:
    """Greedy one-to-one matching of predicted to ground-truth instances."""
    pairs = _greedy(_ranked_pairs(pred, gt), threshold)
    pred_taken, gt_taken = {m.pred_id for m in pairs}, {m.gt_id for m in pairs}
    unmatched_p = tuple(p for p in range(pred.n_instances) if p not in pred_taken)
    unmatched_g = tuple(g for g in range(gt.n_instances) if g not in gt_taken)
    return MatchResult(tuple(pairs), unmatched_p, unmatched_g, threshold)


@dataclass(frozen=True)
class ClassMetrics:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else math.nan

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else math.nan


@dataclass(frozen=True)
class ThresholdMetrics:
    threshold: float
    per_class: dict[ClassLabel, ClassMetrics]

    def _mean(self, attr: str) -> float:
        values = [getattr(self.per_class[c], attr) for c in CLOI_CLASSES]
        defined = [v for v in values if not math.isnan(v)]
        return sum(defined) / len(defined) if defined else math.nan

    @property
    def mean_precision(self) -> float:
        return self._mean("precision")

    @property
    def mean_recall(self) -> float:
        return self._mean("recall")


@dataclass(frozen=True)
class EvalReport:
    """Per-class and mean precision/recall at each IoU threshold."""

    thresholds: tuple[float, ...]
    by_threshold: dict[float, ThresholdMetrics]

    def to_rows(self) -> tuple[list[str], list[dict]]:
        """Tidy CSV projection: one row per class plus a mean row."""
        fields = ["class"]
        for t in self.thresholds:
            fields += [f"prec@{t:g}", f"rec@{t:g}"]
        for t in self.thresholds:
            fields += [f"tp@{t:g}", f"fp@{t:g}", f"fn@{t:g}"]
        rows = []
        for c in ClassLabel:
            row: dict = {"class": c.name.lower()}
            for t in self.thresholds:
                m = self.by_threshold[t].per_class[c]
                row[f"prec@{t:g}"] = m.precision
                row[f"rec@{t:g}"] = m.recall
                row[f"tp@{t:g}"] = m.tp
                row[f"fp@{t:g}"] = m.fp
                row[f"fn@{t:g}"] = m.fn
            rows.append(row)
        mean_row: dict = {"class": "mean"}
        for t in self.thresholds:
            tm = self.by_threshold[t]
            mean_row[f"prec@{t:g}"] = tm.mean_precision
            mean_row[f"rec@{t:g}"] = tm.mean_recall
            for name in ("tp", "fp", "fn"):
                mean_row[f"{name}@{t:g}"] = sum(
                    getattr(tm.per_class[c], name) for c in CLOI_CLASSES
                )
        rows.append(mean_row)
        return fields, rows


def score(
    pred: InstanceLabeling,
    gt: InstanceLabeling,
    thresholds: Sequence[float] = THRESHOLDS,
) -> EvalReport:
    """Score a prediction against ground truth at each IoU threshold."""
    thresholds = tuple(thresholds)
    ranked = _ranked_pairs(pred, gt)
    k = len(ClassLabel)
    n_pred = np.bincount(pred.instance_classes, minlength=k)
    n_gt = np.bincount(gt.instance_classes, minlength=k)
    by_threshold = {}
    for t in thresholds:
        # a pair joins two instances of one class, so tp counts matched gts too
        matched = [m.pred_id for m in _greedy(ranked, t)]
        tp = np.bincount(pred.instance_classes[matched], minlength=k)
        by_threshold[t] = ThresholdMetrics(t, {c: ClassMetrics(
            int(tp[c]), int(n_pred[c] - tp[c]), int(n_gt[c] - tp[c])) for c in ClassLabel})
    return EvalReport(thresholds, by_threshold)


def rec_ins(results: Sequence[SingleObjectResult], threshold: float) -> float:
    """Fraction of objects whose largest single-object component reaches the IoU threshold."""
    if not results:
        raise ValueError("rec_ins requires at least one ground-truth instance")
    if not 0 < threshold <= 1:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    hits = sum(1 for r in results if r.largest_fraction >= threshold)
    return hits / len(results)

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

import cloiseg.evaluation
from cloiseg import (
    NOISE,
    ClassLabel,
    InstanceLabeling,
    SingleObjectResult,
    iou,
    match_instances,
    rec_ins,
    score,
)
from oracles import brute_greedy_match, brute_iou, instances_from_assignment


def _labeling(assignment, classes):
    return InstanceLabeling.from_assignment(
        np.asarray(assignment, dtype=np.int64), np.asarray(classes, dtype=np.int64)
    )


def test_iou_basic_cases():
    assert iou({1, 2, 3}, {1, 2, 3}) == 1.0
    assert iou({1, 2, 3}, {2, 3, 4}) == 0.5
    assert iou({1, 2}, {3, 4}) == 0.0
    assert iou([5, 5, 6], [6, 7]) == pytest.approx(1 / 3)


def test_iou_rejects_empty():
    with pytest.raises(ValueError):
        iou(set(), {1})
    with pytest.raises(ValueError):
        iou({1}, [])


def test_iou_symmetry(rng):
    for _ in range(20):
        a = set(rng.integers(0, 50, rng.integers(1, 30)).tolist())
        b = set(rng.integers(0, 50, rng.integers(1, 30)).tolist())
        assert iou(a, b) == iou(b, a)


def test_match_identical_labelings():
    classes = [3] * 6 + [5] * 4
    gt = _labeling([0, 0, 0, 1, 1, 1, 2, 2, 2, 2], classes)
    res = match_instances(gt, gt, 0.5)
    assert len(res.pairs) == 3
    assert res.unmatched_preds == ()
    assert res.unmatched_gts == ()
    assert all(p.iou == 1.0 for p in res.pairs)


def test_match_pred_split_evenly_across_two_gts():
    # one 100-pt prediction covering 50 points of each of two 100-pt gts
    classes = [3] * 200
    gt = _labeling([0] * 100 + [1] * 100, classes)
    pred_assign = np.full(200, NOISE)
    pred_assign[50:150] = 0
    pred = _labeling(pred_assign, classes)
    res = match_instances(pred, gt, 0.5)
    assert res.pairs == ()  # IoU = 50/150 each, below 0.5
    assert res.unmatched_preds == (0,)
    assert set(res.unmatched_gts) == {0, 1}


def test_match_sixty_of_hundred():
    classes = [3] * 100
    gt = _labeling([0] * 100, classes)
    pred_assign = np.full(100, NOISE)
    pred_assign[:60] = 0
    pred = _labeling(pred_assign, classes)
    res = match_instances(pred, gt, 0.5)
    assert len(res.pairs) == 1
    assert res.pairs[0].iou == pytest.approx(0.6)


def test_match_requires_same_cloud_and_valid_threshold():
    a = _labeling([0], [3])
    b = _labeling([0, 0], [3, 3])
    with pytest.raises(ValueError):
        match_instances(a, b, 0.5)
    with pytest.raises(ValueError):
        match_instances(a, a, 0.0)
    with pytest.raises(ValueError):
        match_instances(a, a, 1.5)


def test_match_is_class_consistent():
    # same point sets, different classes: no match possible
    gt = _labeling([0, 0], [3, 3])
    pred = _labeling([0, 0], [5, 5])
    res = match_instances(pred, gt, 0.25)
    assert res.pairs == ()


def test_match_tie_breaks_prefer_lower_ids():
    # two preds with identical IoU against one gt: lower pred id wins
    classes = [3] * 8
    gt = _labeling([0] * 8, classes)
    pred_assign = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    pred = _labeling(pred_assign, classes)
    res = match_instances(pred, gt, 0.25)
    assert len(res.pairs) == 1
    assert res.pairs[0].pred_id == 0


def test_match_one_to_one(rng):
    for _ in range(15):
        pred, gt, _ = _random_labelings(rng, 120)
        res = match_instances(pred, gt, 0.25)
        assert len({p.pred_id for p in res.pairs}) == len(res.pairs)
        assert len({p.gt_id for p in res.pairs}) == len(res.pairs)


def _random_labelings(rng, n):
    classes = rng.integers(0, 4, n)
    gt_raw = np.full(n, NOISE)
    pred_raw = np.full(n, NOISE)
    # class-pure random instance ids via per-class blocks
    for c in range(4):
        idx = np.nonzero(classes == c)[0]
        if idx.size == 0:
            continue
        gt_raw[idx] = c * 10 + rng.integers(0, 3, idx.size)
        pred_sel = rng.random(idx.size) > 0.15
        pred_raw[idx[pred_sel]] = c * 10 + rng.integers(0, 4, int(pred_sel.sum()))
    return _labeling(pred_raw, classes), _labeling(gt_raw, classes), classes


def test_greedy_matches_independent_oracle(rng):
    for _ in range(20):
        pred, gt, classes = _random_labelings(rng, 150)
        for t in (0.25, 0.5, 0.75):
            res = match_instances(pred, gt, t)
            expect = brute_greedy_match(pred.assignment, gt.assignment, classes, t)
            assert [(p.pred_id, p.gt_id) for p in res.pairs] == [(p, g) for p, g, _ in expect]
            for pair, (_, _, v) in zip(res.pairs, expect):
                assert pair.iou == pytest.approx(v, abs=1e-12)


def test_tp_count_non_increasing_in_threshold(rng):
    for _ in range(20):
        pred, gt, _ = _random_labelings(rng, 200)
        tps = [len(match_instances(pred, gt, t).pairs) for t in (0.25, 0.5, 0.75)]
        assert tps[0] >= tps[1] >= tps[2]


def test_score_perfect_prediction():
    classes = np.array([3] * 30 + [5] * 30 + [0] * 10)
    gt = _labeling([0] * 30 + [1] * 30 + [2] * 10, classes)
    report = score(gt, gt)
    for t in report.thresholds:
        tm = report.by_threshold[t]
        assert tm.mean_precision == 1.0
        assert tm.mean_recall == 1.0
        assert tm.per_class[ClassLabel.CYLINDER].tp == 1


def test_score_no_predictions():
    classes = np.array([3] * 30)
    gt = _labeling([0] * 30, classes)
    pred = _labeling(np.full(30, NOISE), classes)
    report = score(pred, gt, thresholds=(0.5,))
    m = report.by_threshold[0.5].per_class[ClassLabel.CYLINDER]
    assert m.recall == 0.0
    assert math.isnan(m.precision)
    assert report.by_threshold[0.5].mean_recall == 0.0
    assert math.isnan(report.by_threshold[0.5].mean_precision)


def test_score_means_exclude_other_class():
    # perfect on "other", empty elsewhere: means are undefined, not 1.0
    classes = np.array([0] * 20)
    gt = _labeling([0] * 20, classes)
    report = score(gt, gt, thresholds=(0.5,))
    tm = report.by_threshold[0.5]
    assert tm.per_class[ClassLabel.OTHER].recall == 1.0
    assert math.isnan(tm.mean_precision)
    assert math.isnan(tm.mean_recall)


def test_score_counts():
    classes = np.array([3] * 60)
    gt = _labeling([0] * 30 + [1] * 30, classes)
    pred_assign = np.full(60, NOISE)
    pred_assign[:30] = 0       # matches gt 0
    pred_assign[58:] = 1       # 2-point FP
    pred = _labeling(pred_assign, classes)
    m = score(pred, gt, thresholds=(0.5,)).by_threshold[0.5].per_class[ClassLabel.CYLINDER]
    assert (m.tp, m.fp, m.fn) == (1, 1, 1)
    assert m.precision == 0.5
    assert m.recall == 0.5


def _block_labelings(rng, blocks=24, size=3):
    """Labelings of equal-size blocks of points: IoUs are ratios of block counts, so many tie."""
    block_classes = rng.integers(0, 4, blocks)
    gt = block_classes * 10 + rng.integers(0, 3, blocks)
    pred = np.where(rng.random(blocks) < 0.2, NOISE, block_classes * 10 + rng.integers(0, 4, blocks))
    classes = np.repeat(block_classes, size)
    return np.repeat(pred, size), np.repeat(gt, size), classes


def _oracle_tallies(pairs, pred, gt, classes):
    """{class: (tp, fp, fn)} from the greedy oracle's pairs."""
    preds, gts = instances_from_assignment(pred), instances_from_assignment(gt)
    matched_p, matched_g = {p for p, _, _ in pairs}, {g for _, g, _ in pairs}

    def cls(members):
        return ClassLabel(int(classes[min(members)]))

    tp = Counter(cls(preds[p]) for p in matched_p)
    fp = Counter(cls(m) for p, m in preds.items() if p not in matched_p)
    fn = Counter(cls(m) for g, m in gts.items() if g not in matched_g)
    return {c: (tp[c], fp[c], fn[c]) for c in ClassLabel}


def _pair_ious(pred, gt, classes):
    preds, gts = instances_from_assignment(pred), instances_from_assignment(gt)
    return [brute_iou(pm, gm) for pm in preds.values() for gm in gts.values()
            if pm & gm and classes[min(pm)] == classes[min(gm)]]


def test_score_matches_the_oracle_at_every_threshold(rng, monkeypatch):
    built = []
    ranked_pairs = cloiseg.evaluation._ranked_pairs
    monkeypatch.setattr(cloiseg.evaluation, "_ranked_pairs",
                        lambda *a: built.append(a) or ranked_pairs(*a))
    cases = [_block_labelings(rng) for _ in range(40)]
    gt_only = _block_labelings(rng)[1:]
    pred_only = _block_labelings(rng)
    cases += [(np.full(gt_only[0].size, NOISE), *gt_only),  # an empty prediction
              (pred_only[0], np.full(pred_only[0].size, NOISE), pred_only[2]),  # no gt instance
              (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, np.int64))]
    ties = 0
    for pred_raw, gt_raw, classes in cases:
        pred, gt = _labeling(pred_raw, classes), _labeling(gt_raw, classes)
        ious = _pair_ious(pred.assignment, gt.assignment, classes)
        ties += len(ious) > len(set(ious))
        # one threshold equal to a pair's IoU: a pair at exactly t matches
        thresholds = (1 / 3, 0.5, 2 / 3, 1.0) + ((float(rng.choice(ious)),) if ious else ())
        built.clear()
        report = score(pred, gt, thresholds=thresholds)
        assert len(built) == 1
        for t in thresholds:
            pairs = brute_greedy_match(pred.assignment, gt.assignment, classes, t)
            want = _oracle_tallies(pairs, pred.assignment, gt.assignment, classes)
            per_class = report.by_threshold[t].per_class
            assert {c: (m.tp, m.fp, m.fn) for c, m in per_class.items()} == want, t
            # the tallies come from the pairs that match_instances returns
            match = match_instances(pred, gt, t)
            assert [(m.pred_id, m.gt_id, m.iou) for m in match.pairs] == pairs, t
    assert ties > 20  # the blocks force IoU ties in most cases


def test_report_rows_and_mean_consistency():
    classes = np.array([3] * 30 + [1] * 30)
    gt = _labeling([0] * 30 + [1] * 30, classes)
    pred_assign = np.array([0] * 30 + [NOISE] * 30)
    pred = _labeling(pred_assign, classes)
    report = score(pred, gt)
    fields, rows = report.to_rows()
    assert rows[-1]["class"] == "mean"
    by_class = {r["class"]: r for r in rows}
    for t in report.thresholds:
        vals = [by_class[c.name.lower()][f"rec@{t:g}"] for c in ClassLabel
                if c is not ClassLabel.OTHER]
        defined = [v for v in vals if not math.isnan(v)]
        assert by_class["mean"][f"rec@{t:g}"] == pytest.approx(
            sum(defined) / len(defined), abs=1e-9)


def test_rec_ins_cases():
    whole = SingleObjectResult(1, 1.0)
    half = SingleObjectResult(2, 0.5)
    third = SingleObjectResult(3, 1 / 3)
    assert rec_ins([whole, whole], 0.5) == 1.0
    assert rec_ins([whole, half], 0.5) == 1.0  # 0.5 passes the >= rule
    assert rec_ins([whole, third], 0.5) == 0.5
    assert rec_ins([third, third, third], 0.5) == 0.0
    with pytest.raises(ValueError):
        rec_ins([], 0.5)
    with pytest.raises(ValueError):
        rec_ins([whole], 0.0)

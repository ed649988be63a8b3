from __future__ import annotations

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cloiseg.segmentation
import cloiseg.spatial
from cloiseg import (
    ClassLabel,
    InstanceLabeling,
    SegmentationParams,
    ShapeSpec,
    SceneSpec,
    SweepSpec,
    facility_bias_report,
    generate_scene,
    make_benchmark_suite,
    rec_ins,
    score,
    segment,
    segment_single_object,
    sweep_epsilon,
    sweep_mu,
    sweep_radius_per_object,
    write_csv,
)
from cloiseg.sweep import DEFAULT_EPSILONS, RADIUS_SELECTION_TARGET, rows_to_csv_text
from conftest import grid_blob, make_cloud
from oracles import brute_components, brute_radius_neighbors, distance_matrix_sq


@pytest.fixture(scope="module")
def dense_cloud():
    (spec, _), = make_benchmark_suite("dense", seed=7)
    return generate_scene(spec)


def _gt(cloud):
    return InstanceLabeling.from_assignment(cloud.gt_instance, cloud.class_labels)


def test_sweep_spec_validation():
    # one value per grid is test_parameters.py's table; these are the grid rules
    with pytest.raises(ValueError, match="epsilon grid must be non-empty"):
        SweepSpec(epsilons=())
    with pytest.raises(ValueError, match="epsilon grid must be sorted ascending"):
        SweepSpec(epsilons=(0.02, 0.01))
    # every value is checked, not only the first
    for grids in ({"epsilons": (0.02, float("nan"))}, {"mus": (10, 20.5)},
                  {"thresholds": (0.5, 2.0)}):
        with pytest.raises(ValueError, match="must be"):
            SweepSpec(**grids)
    assert SweepSpec(mus=(10.0, 20)).mus == (10, 20)
    spec = SweepSpec()
    assert spec.epsilons[0] == 0.01 and spec.mus[-1] == 200


def test_sweep_mu_flat_on_clean_scene(dense_cloud):
    rows = sweep_mu(dense_cloud, epsilon=0.04, mus=(10, 20, 50, 100, 150, 200), threshold=0.5)
    first = rows[0]
    for row in rows[1:]:
        for key, val in first.items():
            if key == "mu":
                continue
            same = (math.isnan(val) and math.isnan(row[key])) or row[key] == val
            assert same, f"{key} changed across mu"


def test_sweep_mu_single_point_grid_matches_direct_run(dense_cloud):
    (row,) = sweep_mu(dense_cloud, epsilon=0.04, mus=(20,), threshold=0.5)
    pred = segment(dense_cloud, SegmentationParams(epsilon=0.04, mu=20))
    tm = score(pred, _gt(dense_cloud), thresholds=(0.5,)).by_threshold[0.5]
    assert row["m_prec"] == tm.mean_precision
    assert row["m_rec"] == tm.mean_recall


def _fragment_scene():
    """Cylinders whose far tail splits off as a ~30-40 point false instance."""
    shapes = []
    for i in range(3):
        shapes.append(ShapeSpec(
            ClassLabel.CYLINDER, (i * 1.0, 0.0, 0.0),
            {"radius": 0.04, "length": 0.5},
            density=6000.0, gaps=((0.85, 0.97),),
        ))
    return generate_scene(SceneSpec(tuple(shapes), seed=13))


def test_sweep_mu_trends_on_noisy_scene():
    cloud = _fragment_scene()
    rows = sweep_mu(cloud, epsilon=0.04, mus=(10, 20, 30, 50), threshold=0.5)
    precs = [r["m_prec"] for r in rows]
    recs = [r["m_rec"] for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(precs, precs[1:]))
    assert all(b <= a + 1e-12 for a, b in zip(recs, recs[1:]))
    assert precs[-1] > precs[0]  # the 30-point tails are filtered by mu=50


def test_sweep_mu_rejects_a_non_integer_mu(dense_cloud):
    # a fractional mu must not run, and be reported, as its truncation
    with pytest.raises(ValueError, match="mu must be an integer"):
        sweep_mu(dense_cloud, 0.04, mus=(1860.5,))


def test_sweep_mu_recall_non_increasing_with_unsorted_grid_rejected(dense_cloud):
    with pytest.raises(ValueError):
        sweep_mu(dense_cloud, 0.04, mus=(50, 10))


def test_sweep_epsilon_well_separated_scene_plateaus(dense_cloud):
    rows = sweep_epsilon(dense_cloud, epsilons=(0.01, 0.02, 0.03, 0.04), mu=20)
    rec = [r["m_rec@0.5"] for r in rows]
    assert rec[-1] == 1.0
    counts = [r["instances_prefilter"] for r in rows]
    assert counts[0] >= counts[-1]
    assert rows[-1]["instances"] == int(dense_cloud.gt_instance.max()) + 1


def test_sweep_epsilon_merging_degrades_recall():
    # two same-class cylinders with a 2.8cm surface gap merge once the
    # radius reaches ~3cm, halving recall at the 0.5 threshold
    shapes = (
        ShapeSpec(ClassLabel.CYLINDER, (0.0, 0.0, 0.0), {"radius": 0.04, "length": 0.5},
                  density=30000.0),
        ShapeSpec(ClassLabel.CYLINDER, (0.108, 0.0, 0.0), {"radius": 0.04, "length": 0.5},
                  density=30000.0),
    )
    cloud = generate_scene(SceneSpec(shapes, seed=21))
    rows = sweep_epsilon(cloud, epsilons=(0.02, 0.03, 0.04, 0.05), mu=20, thresholds=(0.5,))
    rec = {r["epsilon"]: r["m_rec@0.5"] for r in rows}
    assert rec[0.02] == 1.0
    assert rec[0.04] < 1.0
    assert rec[0.05] < 1.0


def test_sweep_epsilon_rows_reproducible(dense_cloud, rng):
    rows = sweep_epsilon(dense_cloud, epsilons=(0.02, 0.04, 0.06), mu=20)
    for row in [rows[i] for i in rng.choice(len(rows), 3, replace=False)]:
        params = SegmentationParams(epsilon=row["epsilon"], mu=20)
        pred = segment(dense_cloud, params)
        tm = score(pred, _gt(dense_cloud), thresholds=(0.5,)).by_threshold[0.5]
        assert row["m_rec@0.5"] == tm.mean_recall
        assert row["m_prec@0.5"] == tm.mean_precision


def test_sweep_radius_dense_scene_perfect_from_one_cm(dense_cloud):
    rows, selected = sweep_radius_per_object(dense_cloud, epsilons=(0.01, 0.02, 0.04))
    assert all(r["m_rec_ins@0.5"] == 1.0 for r in rows)
    assert selected == 0.01
    assert all(b["m_rec_ins@0.5"] >= a["m_rec_ins@0.5"] for a, b in zip(rows, rows[1:]))


def test_sweep_radius_gapped_profile_selects_four_cm():
    (spec, manifest), = make_benchmark_suite("gapped", seed=5)
    cloud = generate_scene(spec)
    rows, selected = sweep_radius_per_object(cloud)
    assert selected == manifest["expected_radius_selection"]
    below = [r for r in rows if r["epsilon"] < 0.04]
    assert all(r["m_rec_ins@0.5"] < 0.9 for r in below)
    vals = [r["m_rec_ins@0.5"] for r in rows]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_sweep_radius_reports_per_class_rec_ins(dense_cloud):
    rows, _ = sweep_radius_per_object(dense_cloud, epsilons=(0.04,))
    row = rows[0]
    assert row["rec_ins_cylinder@0.5"] == 1.0
    assert math.isnan(row["rec_ins_other@0.5"])  # no clutter in the dense scene


def test_facility_bias_identical_clouds(dense_cloud):
    rows, summary = facility_bias_report(
        [("a", dense_cloud), ("b", dense_cloud)], SegmentationParams(), 0.5)
    assert summary["m_prec_std"] == 0.0
    assert summary["m_rec_std"] == 0.0
    assert rows[0]["m_prec"] == rows[1]["m_prec"]


def test_facility_bias_requires_two_clouds(dense_cloud):
    with pytest.raises(ValueError):
        facility_bias_report([("a", dense_cloud)], SegmentationParams(), 0.5)


def test_facility_bias_across_four_synthetic_facilities():
    named = []
    for profile in ("dense", "sparse", "cluttered", "refinery-like"):
        (spec, _), = make_benchmark_suite(profile, seed=3)
        named.append((profile, generate_scene(spec)))
    rows, summary = facility_bias_report(named, SegmentationParams(), 0.5)
    assert len(rows) == 4
    recs = [r["m_rec"] for r in rows]
    assert summary["m_rec_mean"] == pytest.approx(sum(recs) / 4, abs=1e-12)
    assert summary["m_rec_std"] >= 0.0  # descriptive spread, no pass/fail level


def test_write_csv_roundtrip_and_mean_consistency(tmp_path, dense_cloud):
    rows = sweep_mu(dense_cloud, 0.04, mus=(10, 20), threshold=0.5)
    path = tmp_path / "out.csv"
    write_csv(rows, path)
    with open(path, newline="") as f:
        back = list(csv.DictReader(f))
    assert len(back) == 2
    for raw, row in zip(back, rows):
        class_cols = [c for c in raw if c.startswith("prec_") and c != "prec_other"]
        emitted = float(raw["m_prec"])
        vals = [float(raw[c]) for c in class_cols]
        defined = [v for v in vals if not math.isnan(v)]
        assert abs(emitted - sum(defined) / len(defined)) < 1e-9
        assert float(raw["m_prec"]) == row["m_prec"]  # full-precision floats


def test_rows_to_csv_text_header_order(dense_cloud):
    rows = sweep_epsilon(dense_cloud, epsilons=(0.04,), mu=20, thresholds=(0.5,))
    text = rows_to_csv_text(rows)
    header = text.splitlines()[0].split(",")
    assert header[0] == "epsilon"
    assert "instances_prefilter" in header


def test_write_csv_rejects_empty():
    buf = io.StringIO()
    with pytest.raises(ValueError):
        write_csv([], buf)


# -- shared-work sweeps equal direct calls ------------------------------------

GRID = (0.01, 0.02, 0.03, 0.04)


@st.composite
def lattice_scenes(draw):
    """Touching or separate lattice objects, spaced at a grid radius, with duplicates.

    Each object is one ground-truth instance of one class; one-point objects
    and exact copies of points (distance 0) are common.
    """
    blocks, classes, gt = [], [], []
    for k in range(draw(st.integers(1, 4))):
        count = draw(st.sampled_from((1, 1, 2, 8, 27, 40)))
        center = (draw(st.integers(0, 12)) * 0.01, k * draw(st.sampled_from((0.0, 0.03, 0.2))), 0.0)
        blocks.append(grid_blob(center, count, spacing=draw(st.sampled_from(GRID))))
        classes.append(np.full(count, draw(st.integers(0, 7))))
        gt.append(np.full(count, k))
    positions, classes, gt = np.vstack(blocks), np.concatenate(classes), np.concatenate(gt)
    copies = draw(st.lists(st.integers(0, positions.shape[0] - 1), max_size=6))
    return make_cloud(np.vstack([positions, positions[copies]]),
                      np.concatenate([classes, classes[copies]]),
                      np.concatenate([gt, gt[copies]]))


def _sorted_grid(values, max_size):
    return st.lists(values, min_size=1, max_size=max_size, unique=True).map(sorted)


def _direct_mu_rows(cloud, epsilon, mus, threshold, boundary_radius):
    rows = []
    for mu in mus:
        params = SegmentationParams(epsilon=epsilon, mu=mu, boundary_radius=boundary_radius)
        report = score(segment(cloud, params), _gt(cloud), thresholds=(threshold,))
        tm = report.by_threshold[threshold]
        row: dict = {"mu": mu}
        for c in ClassLabel:
            row[f"prec_{c.name.lower()}"] = tm.per_class[c].precision
            row[f"rec_{c.name.lower()}"] = tm.per_class[c].recall
        row["m_prec"] = tm.mean_precision
        row["m_rec"] = tm.mean_recall
        rows.append(row)
    return rows


@settings(max_examples=60, deadline=None)
@given(lattice_scenes(), st.sampled_from(GRID),
       _sorted_grid(st.integers(1, 60), 4), st.sampled_from((0.25, 0.5, 1.0)),
       st.one_of(st.none(), st.sampled_from(GRID)))
def test_sweep_mu_rows_equal_direct_runs(cloud, epsilon, mus, threshold, boundary_radius):
    # mu up to 60 is often above every instance's size
    got = sweep_mu(cloud, epsilon, mus, threshold, boundary_radius=boundary_radius)
    want = _direct_mu_rows(cloud, epsilon, mus, threshold, boundary_radius)
    assert rows_to_csv_text(got) == rows_to_csv_text(want)


def test_sweep_mu_above_every_instance_drops_all(dense_cloud):
    (row,) = sweep_mu(dense_cloud, 0.04, mus=(10 ** 9,))
    assert row["m_rec"] == 0.0 and math.isnan(row["m_prec"])
    assert rows_to_csv_text([row]) == rows_to_csv_text(
        _direct_mu_rows(dense_cloud, 0.04, (10 ** 9,), 0.5, None))


def _direct_radius_rows(cloud, epsilons, thresholds):
    gt = _gt(cloud)
    rows, selected = [], None
    for eps in epsilons:
        results = [segment_single_object(cloud.positions[m], eps) for m in gt.instances]
        row: dict = {"epsilon": eps}
        for t in thresholds:
            row[f"m_rec_ins@{t:g}"] = rec_ins(results, t)
        for c in ClassLabel:
            of_class = [r for r, k in zip(results, gt.instance_classes) if k == int(c)]
            row[f"rec_ins_{c.name.lower()}@0.5"] = rec_ins(of_class, 0.5) if of_class else math.nan
        rows.append(row)
        if selected is None and rec_ins(results, 0.5) >= RADIUS_SELECTION_TARGET:
            selected = eps
    return rows, selected


def _brute_fragmentation(positions, eps):
    n = positions.shape[0]
    edges = [(i, int(j)) for i in range(n) for j in brute_radius_neighbors(positions, i, eps)]
    sizes = [len(c) for c in brute_components(n, edges)]
    return len(sizes), max(sizes) / n


@settings(max_examples=60, deadline=None)
@given(lattice_scenes(), _sorted_grid(st.sampled_from((0.005, 0.01, 0.015) + GRID), 5),
       _sorted_grid(st.sampled_from((0.25, 0.5, 0.75, 1.0)), 3))
def test_sweep_radius_rows_equal_direct_runs(cloud, epsilons, thresholds):
    got = sweep_radius_per_object(cloud, epsilons, thresholds)
    want = _direct_radius_rows(cloud, epsilons, thresholds)
    assert rows_to_csv_text(got[0]) == rows_to_csv_text(want[0])
    assert got[1] == want[1]
    # and the direct calls agree with the brute-force components
    for members in _gt(cloud).instances:
        for eps in epsilons:
            res = segment_single_object(cloud.positions[members], eps)
            count, largest = _brute_fragmentation(cloud.positions[members], eps)
            assert (res.component_count, res.largest_fraction) == (count, largest)


def test_sweep_radius_selects_without_the_half_threshold_column(dense_cloud):
    rows, selected = sweep_radius_per_object(dense_cloud, (0.01, 0.04), thresholds=(0.25,))
    assert list(rows[0]) == ["epsilon", "m_rec_ins@0.25"] + [
        f"rec_ins_{c.name.lower()}@0.5" for c in ClassLabel]
    assert selected == 0.01


def test_sweep_radius_on_profiles_equals_direct_runs():
    for profile in ("sparse", "gapped"):
        (spec, _), = make_benchmark_suite(profile, seed=101)
        cloud = generate_scene(spec)
        for epsilons in ((0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07), (0.045,)):
            got = sweep_radius_per_object(cloud, epsilons)
            want = _direct_radius_rows(cloud, epsilons, (0.25, 0.5, 0.75))
            assert rows_to_csv_text(got[0]) == rows_to_csv_text(want[0])
            assert got[1] == want[1]


# -- the radius sweep against brute-force components, on adversarial objects --

def _brute_object(positions, eps):
    """(component count, largest fraction) of one object by the oracles' distance rule."""
    n = positions.shape[0]
    iu, ju = np.nonzero(np.triu(distance_matrix_sq(positions) <= eps * eps, k=1))
    sizes = [len(c) for c in brute_components(n, zip(iu.tolist(), ju.tolist()))]
    return len(sizes), max(sizes) / n


def _brute_radius_rows(cloud, epsilons, thresholds):
    """The radius sweep's rows and selection, written out from the oracle components."""
    ids = cloud.gt_instance
    objects = [np.flatnonzero(ids == g) for g in sorted(set(ids.tolist()),
                                                        key=lambda g: np.argmax(ids == g))]
    classes = [int(cloud.class_labels[m[0]]) for m in objects]
    rows, selected = [], None
    for eps in epsilons:
        largest = [_brute_object(cloud.positions[m], eps)[1] for m in objects]
        row: dict = {"epsilon": eps}
        for t in thresholds:
            row[f"m_rec_ins@{t:g}"] = sum(f >= t for f in largest) / len(largest)
        for c in ClassLabel:
            mine = [f for f, k in zip(largest, classes) if k == int(c)]
            row[f"rec_ins_{c.name.lower()}@0.5"] = (
                sum(f >= 0.5 for f in mine) / len(mine) if mine else math.nan)
        rows.append(row)
        if selected is None and sum(f >= 0.5 for f in largest) / len(largest) >= 0.9:
            selected = eps
    return rows, selected


def _assert_radius_rows_match_oracles(cloud, epsilons, thresholds=(0.25, 0.5, 1.0)):
    got = sweep_radius_per_object(cloud, epsilons, thresholds)
    want = _brute_radius_rows(cloud, epsilons, thresholds)
    assert rows_to_csv_text(got[0]) == rows_to_csv_text(want[0])
    assert got[1] == want[1]
    # the per-object counts, which the rows only summarise
    gt = _gt(cloud)
    for eps in epsilons:
        for members in gt.instances:
            res = segment_single_object(cloud.positions[members], eps)
            assert (res.component_count, res.largest_fraction) == _brute_object(
                cloud.positions[members], eps)


def _chain(start, count, spacing):
    chain = np.zeros((count, 3))
    chain[:, 0] = np.arange(count) * spacing
    return chain + np.asarray(start, dtype=np.float64)


def _adversarial_objects():
    """Objects laid out to break the radius sweep, as (positions, classes, ground truth).

    A chain spaced 2.5cm links only at the third grid value 0.03; a lattice
    spaced 1cm is one component from the first; a 1-point and a 2-point
    object; and two objects of one class touching 5mm apart, closer than
    every grid radius, which must stay two objects.
    """
    parts = [
        (_chain((0.0, 0.0, 0.0), 12, 0.025), 2),
        (grid_blob((0.15, 0.1, 0.0), 27, spacing=0.01), 1),
        (np.array([[0.3, 0.0, 0.0]]), 3),
        (np.array([[0.3, 0.1, 0.0], [0.3, 0.1, 0.015]]), 3),
        (_chain((0.0, 0.3, 0.0), 8, 0.015), 4),
        (_chain((0.0, 0.305, 0.0), 8, 0.015), 4),
    ]
    positions = np.vstack([p for p, _ in parts])
    classes = np.concatenate([np.full(len(p), c) for p, c in parts])
    gt = np.repeat(np.arange(len(parts)), [len(p) for p, _ in parts])
    return positions, classes, gt


RADIUS_GRIDS = ((0.01, 0.02, 0.03, 0.04), (0.02, 0.02, 0.05), (0.03,), (0.045,),
                (0.005, 0.01, 0.015, 0.025, 0.07))


@pytest.mark.parametrize("shift", [0.0, 5e6, -5e6])
def test_radius_sweep_matches_oracles_on_adversarial_objects(shift):
    positions, classes, gt = _adversarial_objects()
    cloud = make_cloud(positions + shift, classes, gt)
    for epsilons in RADIUS_GRIDS:
        _assert_radius_rows_match_oracles(cloud, epsilons)
    # the chain is one component only from the third grid value on
    chain = cloud.positions[gt == 0]
    assert [_brute_object(chain, e)[0] for e in (0.01, 0.02, 0.03)] == [12, 12, 1]


def test_radius_sweep_key_fallback():
    # a 1e-12 grid value, and a point 1e9 m out along every axis, would
    # overflow plain cell keys: the keys are compressed instead, and a radius
    # below the ulps of the far cloud's extent starts every point alone
    positions, classes, gt = _adversarial_objects()
    _assert_radius_rows_match_oracles(make_cloud(positions, classes, gt), (1e-12, 0.02, 0.03))
    far = np.vstack([positions, [[1e9, 1e9, 1e9]]])
    cloud = make_cloud(far, np.append(classes, 2), np.append(gt, 0))
    for epsilons in ((0.01, 0.02, 0.03), (1e-12, 0.03)):
        _assert_radius_rows_match_oracles(cloud, epsilons)


def _record_queries(monkeypatch):
    """Every clique-cell round and pair stream, as (kind, points, radius, links or pairs)."""
    calls = []
    clique_cells, pair_chunks = cloiseg.segmentation.clique_cells, cloiseg.spatial._pair_chunks

    def cliques(positions, r):
        labels, edges = clique_cells(positions, r)
        calls.append(("cliques", len(positions), r, len(edges)))
        return labels, edges

    def pairs(positions, r, ids):
        found = list(pair_chunks(positions, r, ids))
        calls.append(("pairs", len(positions), r, sum(map(len, found))))
        yield from found

    monkeypatch.setattr(cloiseg.segmentation, "clique_cells", cliques)
    monkeypatch.setattr(cloiseg.spatial, "_pair_chunks", pairs)
    return calls


# a lattice spaced 1cm is one component at the first radius, and a chain
# spaced 2.5cm beside it at the third. At 1cm each lattice point is its own
# clique cell (side 5.8mm), and the cells skip one every other step, so the
# face round links 27 cell pairs and leaves every point mixed; the 27 of its
# 54 pairs that join two labels make it one piece. The chain's points lie in
# separate blocks at 1cm, so nothing is mixed. At 2cm only the chain's points
# whose block holds another chain point are mixed (5 of 6), with no pair; at
# 3cm its 5 links
ONE_PIECE_QUERIES = [("cliques", 27, 0.01, 27), ("pairs", 27, 0.01, 27),
                     ("cliques", 6, 0.01, 0), ("pairs", 5, 0.02, 0), ("pairs", 6, 0.03, 5)]


def test_radius_sweep_enumerates_no_pairs_for_an_object_in_one_piece(monkeypatch):
    # once an object is in one piece, no later radius queries anything of it
    calls = _record_queries(monkeypatch)
    blob = grid_blob((0.0, 0.0, 0.0), 27, spacing=0.01)
    chain = _chain((0.02, 0.0, 0.0), 6, 0.025)
    cloud = make_cloud(np.vstack([blob, chain]), 2, np.repeat([0, 1], [27, 6]))
    rows, _ = sweep_radius_per_object(cloud, DEFAULT_EPSILONS, thresholds=(1.0,))
    assert [r["m_rec_ins@1"] for r in rows] == [0.5, 0.5, 1.0, 1.0, 1.0, 1.0, 1.0]
    assert calls == ONE_PIECE_QUERIES


def test_radius_sweep_repeats_a_repeated_radius(monkeypatch):
    # a grid value equal to the one before repeats its row without a query:
    # the calls are those of the grid without the repeat
    blob = grid_blob((0.0, 0.0, 0.0), 27, spacing=0.01)
    chain = _chain((0.02, 0.0, 0.0), 6, 0.025)
    cloud = make_cloud(np.vstack([blob, chain]), 2, np.repeat([0, 1], [27, 6]))
    want, _ = sweep_radius_per_object(cloud, (0.01, 0.02, 0.03), thresholds=(0.5, 1.0))
    calls = _record_queries(monkeypatch)
    rows, _ = sweep_radius_per_object(cloud, (0.01, 0.02, 0.02, 0.03), thresholds=(0.5, 1.0))
    assert calls == ONE_PIECE_QUERIES
    assert rows_to_csv_text(rows) == rows_to_csv_text(want[:2] + want[1:])
    _assert_radius_rows_match_oracles(cloud, (0.01, 0.02, 0.02, 0.03))

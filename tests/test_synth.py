from __future__ import annotations

import json
import re

import numpy as np
import pytest

from cloiseg import (
    ClassLabel,
    ClutterSpec,
    SceneSpec,
    ShapeSpec,
    generate_scene,
    make_benchmark_suite,
    sample_shape,
)
from cloiseg.cli import main
from cloiseg.synth import PROFILE_NAMES


def _cyl(position=(0, 0, 0), radius=0.05, length=0.5, **kw):
    return ShapeSpec(ClassLabel.CYLINDER, position, {"radius": radius, "length": length}, **kw)


def test_generation_is_deterministic():
    spec = SceneSpec((_cyl(), _cyl(position=(1, 0, 0))), seed=42,
                     clutter=ClutterSpec(100, (2, 0, 0), (3, 1, 1)))
    a = generate_scene(spec)
    b = generate_scene(spec)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.gt_instance, b.gt_instance)
    c = generate_scene(SceneSpec(spec.shapes, seed=43, clutter=spec.clutter))
    assert not np.array_equal(a.positions, c.positions)


def test_golden_philox_stream():
    # pins the documented PRNG semantics; a failure means the platform or
    # numpy no longer reproduces recorded scenes
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20240601)))
    assert rng.random(4).tolist() == [
        0.3353239823962013, 0.7073205595256937, 0.15701871049311122, 0.0796811782975878,
    ]
    spawned = np.random.Generator(np.random.Philox(np.random.SeedSequence(7, spawn_key=(3,))))
    assert spawned.random(2).tolist() == [0.133101331585614, 0.0867319979588278]


def test_cylinder_points_on_surface():
    pts = sample_shape(_cyl(radius=0.07, length=0.4), seed=1)
    rho = np.linalg.norm(pts[:, :2], axis=1)
    assert np.abs(rho - 0.07).max() < 1e-9
    assert pts[:, 2].min() >= 0.0 and pts[:, 2].max() <= 0.4


def test_cylinder_noise_stays_within_three_sigma():
    pts = sample_shape(_cyl(radius=0.05, length=0.5, sigma=0.002), seed=2)
    rho = np.linalg.norm(pts[:, :2], axis=1)
    assert np.abs(rho - 0.05).max() <= 3 * 0.002 + 1e-12


def test_declared_separation_holds():
    sigma = 0.001
    spec = SceneSpec(
        (_cyl(position=(0, 0, 0), radius=0.04, sigma=sigma),
         _cyl(position=(0.18, 0, 0), radius=0.04, sigma=sigma)),  # 10cm surface gap
        seed=5,
    )
    cloud = generate_scene(spec)
    a = cloud.positions[cloud.gt_instance == 0]
    b = cloud.positions[cloud.gt_instance == 1]
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1).min()
    assert d >= 0.10 - 6 * sigma


def test_ibeam_point_count_tracks_area():
    depth, width, length, density = 0.2, 0.1, 0.5, 18000.0
    shape = ShapeSpec(ClassLabel.IBEAM, (0, 0, 0),
                      {"depth": depth, "width": width, "length": length}, density=density)
    pts = sample_shape(shape, seed=3)
    expected = density * (2 * width + depth) * length
    assert abs(len(pts) - expected) <= 0.05 * expected


def test_elbow_points_at_tube_radius():
    shape = ShapeSpec(ClassLabel.ELBOW, (0, 0, 0),
                      {"bend_radius": 0.12, "tube_radius": 0.03, "sweep_deg": 90.0})
    pts = sample_shape(shape, seed=4)
    rho = np.linalg.norm(pts[:, :2], axis=1)  # bend plane is xy for axis z
    d_centerline = np.sqrt((rho - 0.12) ** 2 + pts[:, 2] ** 2)
    assert np.abs(d_centerline - 0.03).max() < 1e-9


def test_flange_keeps_bore_clear():
    shape = ShapeSpec(ClassLabel.FLANGE, (0, 0, 0),
                      {"outer_radius": 0.08, "bore_radius": 0.03,
                       "collar_radius": 0.04, "collar_length": 0.06})
    pts = sample_shape(shape, seed=6)
    rho = np.linalg.norm(pts[:, :2], axis=1)
    assert rho.min() >= 0.03 - 1e-9
    assert rho.max() <= 0.08 + 1e-9


def test_valve_composite_extent():
    shape = ShapeSpec(ClassLabel.VALVE, (0, 0, 0),
                      {"body_radius": 0.06, "stem_radius": 0.015, "stem_length": 0.1,
                       "wheel_radius": 0.05, "wheel_tube_radius": 0.01})
    pts = sample_shape(shape, seed=7)
    assert pts[:, 2].min() >= -0.06 - 1e-9
    assert pts[:, 2].max() <= 0.06 + 0.1 + 0.01 + 1e-9
    assert len(pts) > 100


def test_gap_deletion_is_exact_and_edges_align():
    gap = (0.4, 0.5)  # 5cm on a 0.5m cylinder
    shape = _cyl(radius=0.05, length=0.5, gaps=(gap,))
    pts = sample_shape(shape, seed=8)
    z = pts[:, 2]
    lo, hi = gap[0] * 0.5, gap[1] * 0.5
    assert not np.any((z > lo + 1e-12) & (z < hi - 1e-12))
    below = pts[z <= lo + 1e-12]
    above = pts[z >= hi - 1e-12]
    d = np.linalg.norm(below[:, None, :] - above[None, :, :], axis=-1).min()
    assert d == pytest.approx(hi - lo, abs=1e-12)


def test_clutter_points_inside_box_as_one_other_instance():
    spec = SceneSpec((_cyl(),), seed=9, clutter=ClutterSpec(500, (2, 1, 0), (3, 2, 1)))
    cloud = generate_scene(spec)
    sel = cloud.gt_instance == 1
    assert int(sel.sum()) == 500
    assert (cloud.class_labels[sel] == int(ClassLabel.OTHER)).all()
    pts = cloud.positions[sel]
    assert pts.min(axis=0).tolist() >= [2, 1, 0]
    assert pts.max(axis=0).tolist() <= [3, 2, 1]


def test_shape_spec_validation():
    with pytest.raises(ValueError, match="positive"):
        _cyl(radius=-0.1)
    with pytest.raises(ValueError, match="missing"):
        ShapeSpec(ClassLabel.CYLINDER, (0, 0, 0), {"radius": 0.1})
    with pytest.raises(ValueError, match="density"):
        _cyl(density=0)
    with pytest.raises(ValueError, match="sigma"):
        _cyl(sigma=-1)
    with pytest.raises(ValueError, match="gap"):
        _cyl(gaps=((0.5, 0.4),))
    with pytest.raises(ValueError, match="non-overlapping"):
        _cyl(gaps=((0.1, 0.5), (0.4, 0.6)))
    with pytest.raises(ValueError, match="sweep_deg"):
        sample_shape(ShapeSpec(ClassLabel.ELBOW, (0, 0, 0),
                               {"bend_radius": 0.1, "tube_radius": 0.03, "sweep_deg": 45.0}))
    with pytest.raises(ValueError, match="bore"):
        sample_shape(ShapeSpec(ClassLabel.FLANGE, (0, 0, 0),
                               {"outer_radius": 0.03, "bore_radius": 0.08,
                                "collar_radius": 0.04, "collar_length": 0.06}))
    with pytest.raises(ValueError, match="axis"):
        sample_shape(_cyl(axis=(0, 0, 0)))


# shapes that break a rule their sampler relies on: (class, dims, axis, message)
BAD_SHAPES = {
    "elbow-45-degrees": (ClassLabel.ELBOW,
                         {"bend_radius": 0.1, "tube_radius": 0.03, "sweep_deg": 45.0},
                         (0, 0, 1), "sweep_deg"),
    "flange-bore-at-outer-radius": (ClassLabel.FLANGE,
                                    {"outer_radius": 0.05, "bore_radius": 0.05,
                                     "collar_radius": 0.04, "collar_length": 0.06},
                                    (0, 0, 1), "bore_radius must be smaller"),
    "valve-wheel-tube-at-wheel-radius": (ClassLabel.VALVE,
                                         {"body_radius": 0.06, "stem_radius": 0.015,
                                          "stem_length": 0.1, "wheel_radius": 0.02,
                                          "wheel_tube_radius": 0.02},
                                         (0, 0, 1), "wheel_tube_radius must be smaller"),
    "cylinder-zero-axis": (ClassLabel.CYLINDER, {"radius": 0.05, "length": 0.5},
                           (0, 0, 0), "axis"),
    "cylinder-two-coordinate-axis": (ClassLabel.CYLINDER, {"radius": 0.05, "length": 0.5},
                                     (0, 1), "3 coordinates"),
}


@pytest.mark.parametrize("name", BAD_SHAPES)
def test_shape_rules_are_checked_when_a_spec_is_built_or_read(name, tmp_path):
    cls, dims, axis, message = BAD_SHAPES[name]
    with pytest.raises(ValueError, match=message):
        ShapeSpec(cls, (0, 0, 0), dims, axis=axis)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"seed": 1, "shapes": [
        {"class": cls.name.lower(), "position": [0, 0, 0], "axis": list(axis), "dims": dims},
    ]}))
    with pytest.raises(ValueError, match=message):
        SceneSpec.from_json(spec)
    out = tmp_path / "scene.pts"
    assert main(["synth", "--spec", str(spec), "--out", str(out), "--quiet"]) == 2
    assert not out.exists()


_CYLINDER = {"class": "cylinder", "position": [0, 0, 0], "dims": {"radius": 0.05, "length": 0.5}}
_CLUTTER = {"count": 10, "box_min": [1, 0, 0], "box_max": [2, 1, 1]}

#: spec JSON that breaks a type rule -> the start of its error message
MALFORMED_SPECS = {
    "unknown class": ({"shapes": [{**_CYLINDER, "class": "BANANA"}]}, r"shapes\[0\]\.class "),
    "list-valued class": ({"shapes": [{**_CYLINDER, "class": ["cylinder"]}]},
                          r"shapes\[0\]\.class "),
    "list-valued dim": ({"shapes": [{**_CYLINDER, "dims": {"radius": [0.05], "length": 0.5}}]},
                        r"shapes\[0\]\.dims\.radius must be a number"),
    "boolean dims": ({"shapes": [{**_CYLINDER, "dims": True}]},
                     r"shapes\[0\]\.dims must be an object"),
    "list-valued seed": ({"seed": [1], "shapes": [_CYLINDER]}, "seed must be an integer"),
    "negative seed": ({"seed": -1, "shapes": [_CYLINDER]}, "seed must be non-negative"),
    "dims of 1e308": ({"shapes": [{**_CYLINDER, "dims": {"radius": 1e308, "length": 1e308}}]},
                      r"shapes\[0\]: cylinder dims and density give a point count that is "
                      "not finite"),
    "shapes an object": ({"shapes": {"0": _CYLINDER}}, "shapes must be a list"),
    "missing position": ({"shapes": [{"class": "cylinder", "dims": _CYLINDER["dims"]}]},
                         r"shapes\[0\]\.position is missing"),
    "two-coordinate position": ({"shapes": [{**_CYLINDER, "position": [0, 0]}]},
                                r"shapes\[0\]: position and axis must have 3 coordinates"),
    "string gap": ({"shapes": [{**_CYLINDER, "gaps": [[0.1, "0.2"]]}]},
                   r"shapes\[0\]\.gaps\[0\]\[1\] must be a number"),
    "two-coordinate clutter box": ({"shapes": [_CYLINDER],
                                    "clutter": {**_CLUTTER, "box_max": [2, 1]}},
                                   r"clutter\.box_max must hold 3 numbers"),
    "fractional clutter count": ({"shapes": [_CYLINDER], "clutter": {**_CLUTTER, "count": 2.5}},
                                 r"clutter\.count must be an integer"),
    "a list, not a spec": ([_CYLINDER], "spec must be an object"),
}


@pytest.mark.parametrize("name", MALFORMED_SPECS)
def test_malformed_spec_json_exits_two_naming_its_path(name, tmp_path, capsys):
    spec, message = MALFORMED_SPECS[name]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "scene.pts"
    assert main(["synth", "--spec", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"^cloiseg synth: error: {re.escape(str(path))}: " + message, err,
                     re.MULTILINE), err
    assert not out.exists()


def test_spec_that_is_not_utf8_json_names_its_file(tmp_path, capsys):
    path, out = tmp_path / "bad.json", tmp_path / "scene.pts"
    for data, message in ((b'{"seed": 1, "shapes": [,]}',
                           ": Expecting value: line 1 column 24 (char 23)"),
                          (b'{"seed": 1,\n "shapes": [\xff]}',
                           ": 'utf-8' codec can't decode byte 0xff in position 24: invalid start byte")):
        path.write_bytes(data)
        assert main(["synth", "--spec", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"cloiseg synth: error: {path}{message}\n"
        assert not out.exists()


def test_well_formed_spec_json_still_loads(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"seed": 4, "shapes": [{**_CYLINDER, "gaps": [[0.1, 0.2]]}],
                                "clutter": _CLUTTER}))
    assert SceneSpec.from_json(path) == SceneSpec(
        (_cyl(gaps=((0.1, 0.2),)),), seed=4, clutter=ClutterSpec(10, (1, 0, 0), (2, 1, 1)))


def test_profile_shapes_never_share_a_dims_dict():
    shapes = [s for p in PROFILE_NAMES for spec, _ in make_benchmark_suite(p) for s in spec.shapes]
    assert len({id(s.dims) for s in shapes}) == len(shapes)
    (spec, _), = make_benchmark_suite("refinery-like")
    beam_a, beam_b = (s for s in spec.shapes if s.class_label is ClassLabel.IBEAM)
    assert beam_a.dims == beam_b.dims


def test_spec_json_with_min_declared_gap_still_loads(tmp_path):
    spec = SceneSpec((_cyl(),), seed=3)
    p = tmp_path / "old.json"
    p.write_text(json.dumps({**spec.to_dict(), "min_declared_gap": 0.4}))
    assert SceneSpec.from_json(p) == spec


def test_scene_spec_json_roundtrip(tmp_path):
    spec = SceneSpec(
        (_cyl(sigma=0.001, gaps=((0.2, 0.3),)),
         ShapeSpec(ClassLabel.ANGLE, (1, 0, 0),
                   {"leg_a": 0.08, "leg_b": 0.06, "length": 0.4}, axis=(0, 1, 0))),
        seed=17,
        clutter=ClutterSpec(50, (5, 0, 0), (6, 1, 1)),
    )
    p = tmp_path / "scene.json"
    spec.to_json(p)
    back = SceneSpec.from_json(p)
    assert back == spec
    assert np.array_equal(generate_scene(back).positions, generate_scene(spec).positions)


def test_benchmark_suite_profiles():
    with pytest.raises(ValueError, match="unknown profile"):
        make_benchmark_suite("nope")
    for profile in ("sparse", "dense", "cluttered", "refinery-like", "gapped"):
        suite = make_benchmark_suite(profile, seed=1)
        assert suite
        for spec, manifest in suite:
            assert manifest["profile"] == profile
            cloud = generate_scene(spec)
            assert len(cloud) > 0
            assert cloud.has_ground_truth


def test_benchmark_suite_seed_changes_cloud_not_manifest():
    (spec1, man1), = make_benchmark_suite("dense", seed=1)
    (spec2, man2), = make_benchmark_suite("dense", seed=2)
    assert man1 == man2
    assert not np.array_equal(generate_scene(spec1).positions,
                              generate_scene(spec2).positions)


def test_profile_manifests_hold_under_segmentation():
    from cloiseg import segment

    (spec, man), = make_benchmark_suite("sparse", seed=11)
    cloud = generate_scene(spec)
    lab = segment(cloud)
    for i in man["gapped_instances"]:
        parts = np.unique(lab.assignment[cloud.gt_instance == i])
        assert (parts >= 0).sum() >= 2, f"gt {i} should over-segment"

    (spec, man), = make_benchmark_suite("cluttered", seed=11)
    cloud = generate_scene(spec)
    lab = segment(cloud)
    pair = np.isin(cloud.gt_instance, man["merged_instances"])
    ids = np.unique(lab.assignment[pair])
    assert len(ids[ids >= 0]) == 1, "2cm pair should merge into one instance"

    (spec, man), = make_benchmark_suite("refinery-like", seed=11)
    cloud = generate_scene(spec)
    lab = segment(cloud)
    for group in man["merged_groups"]:
        sel = np.isin(cloud.gt_instance, group)
        ids = np.unique(lab.assignment[sel])
        assert len(ids[ids >= 0]) == 1, f"group {group} should merge"


def test_dense_profile_separations_exceed_declared():
    (spec, manifest), = make_benchmark_suite("dense", seed=3)
    cloud = generate_scene(spec)
    k = int(cloud.gt_instance.max()) + 1
    clouds = [cloud.positions[cloud.gt_instance == i] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            d = np.linalg.norm(clouds[i][:, None, :] - clouds[j][None, :, :], axis=-1).min()
            assert d > manifest["min_separation"] - 6 * 0.0005

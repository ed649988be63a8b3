"""Instance segmentation of class-labeled industrial laser-scan point clouds.

The package's exports load on first use (PEP 562): ``import cloiseg``
imports no submodule and so no numpy, and ``cloiseg.segment`` imports
``cloiseg.segmentation`` when it is first read. Each read looks the name up
in its home module again, so a function replaced there is seen at once.
Importing the package sets nothing in the environment; only the CLI
(``cloiseg.cli``) pins OpenBLAS to the calling thread.
"""

import importlib

__version__ = "0.1.0"

#: home module of each exported name
_HOMES = {
    "boundary": ("BoundaryParams", "BoundaryStats", "boundary_stats",
                 "detect_class_boundaries", "detect_gt_instance_boundaries"),
    "evaluation": ("THRESHOLDS", "ClassMetrics", "EvalReport", "MatchedPair", "MatchResult",
                   "ThresholdMetrics", "iou", "match_instances", "rec_ins", "score"),
    "model": ("CLOI_CLASSES", "NOISE", "ClassLabel", "LabeledPointCloud", "PtsParseError",
              "canonical_instance_ids", "class_histogram", "load_ply", "load_pts", "save_pts"),
    "segmentation": ("InstanceLabeling", "SegmentationDetails", "SegmentationParams",
                     "SingleObjectResult", "connected_components", "segment",
                     "segment_single_object", "segment_with_details"),
    "spatial": ("RadiusIndex",),
    "sweep": ("DEFAULT_EPSILONS", "DEFAULT_MUS", "SweepSpec", "facility_bias_report",
              "sweep_epsilon", "sweep_mu", "sweep_radius_per_object", "write_csv"),
    "synth": ("PROFILE_NAMES", "ClutterSpec", "SceneSpec", "ShapeSpec",
              "generate_scene", "make_benchmark_suite", "sample_shape"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME_OF, "__version__"]


def __getattr__(name: str):
    if name in _HOME_OF:
        return getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    if name in _HOMES:
        # importing a submodule also binds it on the package
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_HOMES})

"""Instance segmentation of class-labeled industrial laser-scan point clouds."""

from .boundary import (
    BoundaryParams,
    BoundaryStats,
    boundary_stats,
    detect_class_boundaries,
    detect_gt_instance_boundaries,
)
from .evaluation import (
    THRESHOLDS,
    ClassMetrics,
    EvalReport,
    MatchedPair,
    MatchResult,
    ThresholdMetrics,
    iou,
    match_instances,
    rec_ins,
    score,
)
from .model import (
    CLOI_CLASSES,
    NOISE,
    ClassLabel,
    LabeledPointCloud,
    PtsParseError,
    canonical_instance_ids,
    class_histogram,
    load_ply,
    load_pts,
    save_pts,
)
from .segmentation import (
    InstanceLabeling,
    SegmentationDetails,
    SegmentationParams,
    SingleObjectResult,
    connected_components,
    segment,
    segment_single_object,
    segment_with_details,
)
from .spatial import RadiusIndex
from .sweep import (
    DEFAULT_EPSILONS,
    DEFAULT_MUS,
    SweepSpec,
    facility_bias_report,
    sweep_epsilon,
    sweep_mu,
    sweep_radius_per_object,
    write_csv,
)
from .synth import (
    PROFILE_NAMES,
    ClutterSpec,
    SceneSpec,
    ShapeSpec,
    generate_scene,
    make_benchmark_suite,
    sample_shape,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryParams", "BoundaryStats", "boundary_stats",
    "detect_class_boundaries", "detect_gt_instance_boundaries",
    "THRESHOLDS", "ClassMetrics", "EvalReport", "MatchedPair", "MatchResult",
    "ThresholdMetrics", "iou", "match_instances", "rec_ins", "score",
    "CLOI_CLASSES", "NOISE", "ClassLabel", "LabeledPointCloud",
    "PtsParseError", "canonical_instance_ids", "class_histogram",
    "load_ply", "load_pts", "save_pts",
    "InstanceLabeling", "SegmentationDetails", "SegmentationParams",
    "SingleObjectResult", "connected_components", "segment",
    "segment_single_object", "segment_with_details",
    "RadiusIndex",
    "DEFAULT_EPSILONS", "DEFAULT_MUS", "SweepSpec", "facility_bias_report",
    "sweep_epsilon", "sweep_mu", "sweep_radius_per_object", "write_csv",
    "PROFILE_NAMES", "ClutterSpec", "SceneSpec", "ShapeSpec",
    "generate_scene", "make_benchmark_suite", "sample_shape",
    "__version__",
]

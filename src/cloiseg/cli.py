"""Command-line front end for the segmentation pipeline.

Every subcommand is a thin wrapper over the library, so CLI output is
byte-identical to direct library calls. Machine-readable results go to
stdout, logs to stderr. All lengths are meters. Exit codes: 0 success,
1 usage error (including invalid parameter values), 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import __version__
from .boundary import BoundaryParams, _class_boundary_flags, detect_gt_instance_boundaries
from .evaluation import THRESHOLDS, score
from .model import (
    ClassLabel,
    LabeledPointCloud,
    PtsParseError,
    atomic_open,
    class_histogram,
    load_ply,
    load_pts,
    save_pts,
)
from .segmentation import InstanceLabeling, SegmentationParams, segment
from .spatial import RadiusIndex
from .sweep import (
    DEFAULT_EPSILONS,
    DEFAULT_MUS,
    SweepSpec,
    facility_bias_report,
    rows_to_csv_text,
    sweep_epsilon,
    sweep_mu,
    sweep_radius_per_object,
    write_csv,
)
from .synth import PROFILE_NAMES, SceneSpec, generate_scene, make_benchmark_suite

THREADS_ENV_VAR = "CLOI_SEG_THREADS"


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip()]


@dataclass(frozen=True)
class RunConfig:
    """One validated CLI invocation; construction precedes all file I/O."""

    command: str
    inputs: tuple[str, ...]
    output: str | None
    params: SegmentationParams
    thresholds: tuple[float, ...]
    threshold: float
    epsilons: tuple[float, ...]
    mus: tuple[int, ...]
    mode: str | None
    profile: str | None
    spec_path: str | None
    manifest_path: str | None
    seed: int | None
    index: int
    gt_boundaries: bool
    threads: int
    quiet: bool

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        get = lambda name, default=None: getattr(args, name, default)
        params = SegmentationParams(epsilon=get("epsilon", 0.04), mu=get("mu", 20),
                                    boundary_radius=get("boundary_radius"))
        threshold = float(get("threshold", 0.5))
        grids = SweepSpec(epsilons=get("epsilons", DEFAULT_EPSILONS),
                          mus=get("mus", DEFAULT_MUS),
                          thresholds=get("thresholds", THRESHOLDS))
        if not 0 < threshold <= 1:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        threads = get("threads")
        if threads is None:
            env = os.environ.get(THREADS_ENV_VAR)
            try:
                threads = int(env) if env else (os.cpu_count() or 1)
            except ValueError:
                raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from None
        if threads < 1:
            raise ValueError(f"--threads must be >= 1, got {threads}")
        if get("manifest") and not get("profile"):
            raise ValueError("--manifest requires --profile")
        inputs = get("inputs")
        if inputs is None:
            inputs = [p for p in (get("input"), get("pred"), get("gt")) if p is not None]
        return cls(
            command=args.command,
            inputs=tuple(inputs),
            output=get("output"),
            params=params,
            thresholds=grids.thresholds,
            threshold=threshold,
            epsilons=grids.epsilons,
            mus=grids.mus,
            mode=get("mode"),
            profile=get("profile"),
            spec_path=get("spec"),
            manifest_path=get("manifest"),
            seed=get("seed"),
            index=int(get("index", 0)),
            gt_boundaries=bool(get("gt_flag", False)),
            threads=int(threads),
            quiet=bool(get("quiet", False)),
        )

    def log(self, message: str) -> None:
        if not self.quiet:
            print(message, file=sys.stderr)


def build_parser() -> _Parser:
    parser = _Parser(prog="cloiseg",
                     description="Instance segmentation of class-labeled point clouds")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--threads", type=int, default=None,
                       help=f"accepted and validated, no effect: every command runs in one "
                            f"thread (default: all cores, or ${THREADS_ENV_VAR})")
        p.add_argument("--quiet", action="store_true", help="suppress stderr status lines")

    p = sub.add_parser("synth", help="generate a synthetic labeled scene")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--profile", choices=list(PROFILE_NAMES))
    g.add_argument("--spec", help="explicit SceneSpec JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--index", type=int, default=0, help="scene index within the profile suite")
    p.add_argument("--manifest", help="write the profile's expectation manifest JSON here")
    p.add_argument("--out", required=True, dest="output")
    common(p)

    p = sub.add_parser("boundary", help="flag boundary points, append flag column")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--boundary-radius", type=float, default=0.04)
    p.add_argument("--gt", action="store_true", dest="gt_flag",
                   help="flag ground-truth instance boundaries instead of class boundaries")
    common(p)

    p = sub.add_parser("segment", help="segment a cloud into instances")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--epsilon", type=float, default=0.04)
    p.add_argument("--mu", type=int, default=20)
    p.add_argument("--boundary-radius", type=float, default=None)
    common(p)

    p = sub.add_parser("eval", help="score predictions against ground truth (CSV to stdout)")
    p.add_argument("pred", help="cloud with a prediction column")
    p.add_argument("gt", help="cloud with ground-truth instance ids")
    p.add_argument("--thresholds", type=_floats, default=list(THRESHOLDS))
    common(p)

    p = sub.add_parser("sweep", help="parameter sweeps (CSV)")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--mode", choices=["mu", "epsilon", "radius", "bias"], required=True)
    p.add_argument("--epsilon", type=float, default=0.04)
    p.add_argument("--mu", type=int, default=20)
    p.add_argument("--epsilons", type=_floats, default=list(DEFAULT_EPSILONS))
    p.add_argument("--mus", type=_ints, default=list(DEFAULT_MUS))
    p.add_argument("--threshold", type=float, default=0.5)
    p.add_argument("--thresholds", type=_floats, default=list(THRESHOLDS))
    p.add_argument("--boundary-radius", type=float, default=None)
    p.add_argument("--out", default=None, dest="output", help="CSV path (default: stdout)")
    common(p)

    p = sub.add_parser("stats", help="per-class instance/point counts (CSV to stdout)")
    p.add_argument("input")
    common(p)

    return parser


def _load(path) -> LabeledPointCloud:
    if str(path).endswith(".ply"):
        return load_ply(path)
    return load_pts(path)


def _cmd_synth(cfg: RunConfig) -> int:
    if cfg.spec_path:
        spec = SceneSpec.from_json(cfg.spec_path)
        if cfg.seed is not None:
            spec = SceneSpec(spec.shapes, cfg.seed, spec.clutter, spec.min_declared_gap)
    else:
        suite = make_benchmark_suite(cfg.profile, seed=cfg.seed or 0)
        if not 0 <= cfg.index < len(suite):
            raise ValueError(f"profile {cfg.profile!r} has {len(suite)} scene(s); "
                             f"index {cfg.index} is out of range")
        spec, manifest = suite[cfg.index]
    cloud = generate_scene(spec)
    save_pts(cloud, cfg.output)
    if cfg.manifest_path:
        with atomic_open(cfg.manifest_path, encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)
            f.write("\n")
    cfg.log(f"wrote {len(cloud)} points to {cfg.output}")
    return 0


def _cmd_boundary(cfg: RunConfig) -> int:
    cloud = _load(cfg.inputs[0])
    radius = cfg.params.resolved_boundary_radius
    if cfg.gt_boundaries:
        flags = detect_gt_instance_boundaries(cloud, RadiusIndex(cloud.positions),
                                              BoundaryParams(radius))
    else:
        flags = _class_boundary_flags(cloud.positions, cloud.class_labels, radius)
    save_pts(cloud, cfg.output, include_predictions=cloud.has_predictions, extra_column=flags)
    cfg.log(f"flagged {int(flags.sum())} of {len(cloud)} points")
    return 0


def _cmd_segment(cfg: RunConfig) -> int:
    cloud = _load(cfg.inputs[0])
    labeling = segment(cloud, cfg.params, workers=cfg.threads)
    save_pts(cloud.with_predictions(labeling.assignment), cfg.output,
             include_predictions=True)
    cfg.log(f"{labeling.n_instances} instances "
            f"({int((labeling.assignment < 0).sum())} noise points)")
    return 0


def _cmd_eval(cfg: RunConfig) -> int:
    pred_path, gt_path = cfg.inputs
    pred_cloud = _load(pred_path)
    gt_cloud = _load(gt_path)
    if len(pred_cloud) != len(gt_cloud):
        raise ValueError(f"cloud sizes differ: {len(pred_cloud)} vs {len(gt_cloud)}")
    if not (pred_cloud.positions == gt_cloud.positions).all():
        raise ValueError("point positions differ between prediction and ground-truth files")
    if not (pred_cloud.class_labels == gt_cloud.class_labels).all():
        raise ValueError("class labels differ between prediction and ground-truth files")
    if not pred_cloud.has_predictions:
        raise ValueError(f"{pred_path} has no prediction column")
    if not gt_cloud.has_ground_truth:
        raise ValueError(f"{gt_path} has no ground-truth instance ids on every point")
    pred = InstanceLabeling.from_assignment(pred_cloud.pred_instance, pred_cloud.class_labels)
    gt = InstanceLabeling.from_assignment(gt_cloud.gt_instance, gt_cloud.class_labels)
    report = score(pred, gt, thresholds=cfg.thresholds)
    fields, rows = report.to_rows()
    sys.stdout.write(rows_to_csv_text(rows, fields))
    return 0


def _cmd_sweep(cfg: RunConfig) -> int:
    selected = None
    if cfg.mode == "bias":
        if len(cfg.inputs) < 2:
            raise ValueError("bias mode needs at least 2 input clouds")
        named = [(p, _load(p)) for p in cfg.inputs]
        rows, summary = facility_bias_report(named, cfg.params, cfg.threshold,
                                             workers=cfg.threads)
        rows = rows + [{"facility": "mean", "m_prec": summary["m_prec_mean"],
                        "m_rec": summary["m_rec_mean"]},
                       {"facility": "std", "m_prec": summary["m_prec_std"],
                        "m_rec": summary["m_rec_std"]}]
    else:
        if len(cfg.inputs) != 1:
            raise ValueError(f"{cfg.mode} mode takes exactly one input cloud")
        cloud = _load(cfg.inputs[0])
        if cfg.mode == "mu":
            rows = sweep_mu(cloud, cfg.params.epsilon, cfg.mus, cfg.threshold,
                            boundary_radius=cfg.params.boundary_radius, workers=cfg.threads)
        elif cfg.mode == "epsilon":
            rows = sweep_epsilon(cloud, cfg.epsilons, cfg.params.mu, cfg.thresholds,
                                 boundary_radius=cfg.params.boundary_radius,
                                 workers=cfg.threads)
        else:
            rows, selected = sweep_radius_per_object(cloud, cfg.epsilons, cfg.thresholds)
    if cfg.output:
        write_csv(rows, cfg.output)
        cfg.log(f"wrote {len(rows)} rows to {cfg.output}")
    else:
        sys.stdout.write(rows_to_csv_text(rows))
    if cfg.mode == "radius":
        cfg.log(f"selected epsilon: {selected}")
    return 0


def _cmd_stats(cfg: RunConfig) -> int:
    cloud = _load(cfg.inputs[0])
    hist = class_histogram(cloud)
    rows = [{"class": c.name.lower(), "instances": hist[c][0], "points": hist[c][1]}
            for c in ClassLabel]
    rows.append({"class": "total",
                 "instances": sum(h[0] for h in hist.values()),
                 "points": sum(h[1] for h in hist.values())})
    sys.stdout.write(rows_to_csv_text(rows))
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "boundary": _cmd_boundary,
    "segment": _cmd_segment,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_args(args)
    except ValueError as exc:
        print(f"cloiseg: error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[cfg.command](cfg)
    except (PtsParseError, ValueError, OSError) as exc:
        print(f"cloiseg: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

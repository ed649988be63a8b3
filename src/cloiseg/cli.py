"""Command-line front end for the segmentation pipeline.

Every subcommand is a thin wrapper over the library, so CLI output is
byte-identical to direct library calls. Machine-readable results go to
stdout, logs to stderr. All lengths are meters. Exit codes: 0 success,
1 usage error (including invalid parameter values), 2 data error.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless the
environment already sets it, before any submodule loads numpy. OpenBLAS
otherwise starts a worker thread per extra core, which spins for about
0.15 s of CPU in every call, and no command makes a BLAS call that
threads would speed up. Output bytes are the same either way.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

# before the submodules below load numpy (module docstring)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .boundary import BoundaryParams, _boundary_flags, detect_gt_instance_boundaries
from .evaluation import _THRESHOLD, THRESHOLDS, _check_threshold, score
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


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The options among ``names`` that the subcommand has, by name."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _check(args: argparse.Namespace) -> None:
    """Validate every parameter on ``args`` before any file is touched, or raise ValueError.

    The library objects check every value but ``--threads`` and ``--manifest``.
    Adds ``args.params`` and replaces the grids with their validated tuples.
    """
    args.params = SegmentationParams(**_given(args, "epsilon", "mu", "boundary_radius"))
    grids = SweepSpec(**_given(args, "epsilons", "mus", "thresholds"))
    args.epsilons, args.mus, args.thresholds = grids.epsilons, grids.mus, grids.thresholds
    _check_threshold(getattr(args, "threshold", _THRESHOLD))
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    if getattr(args, "manifest", None) and not args.profile:
        raise ValueError("--manifest requires --profile")


def _log(args: argparse.Namespace, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def build_parser() -> _Parser:
    parser = _Parser(prog="cloiseg",
                     description="Instance segmentation of class-labeled point clouds")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--threads", type=int, default=1,
                       help="must be >= 1; kept so that scripts passing it run unchanged, "
                            "but every command runs in one thread and writes the same bytes")
        p.add_argument("--quiet", action="store_true", help="suppress stderr status lines")

    p = sub.add_parser("synth", help="generate a synthetic labeled scene")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--profile", choices=list(PROFILE_NAMES))
    g.add_argument("--spec", help="explicit SceneSpec JSON file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--manifest", help="write the profile's expectation manifest JSON here")
    p.add_argument("--out", required=True, dest="output")
    common(p)

    p = sub.add_parser("boundary", help="flag boundary points, append flag column")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--boundary-radius", type=float, default=BoundaryParams.radius)
    p.add_argument("--gt", action="store_true", dest="gt_flag",
                   help="flag ground-truth instance boundaries instead of class boundaries")
    common(p)

    p = sub.add_parser("segment", help="segment a cloud into instances")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--epsilon", type=float, default=SegmentationParams.epsilon)
    p.add_argument("--mu", type=float, default=SegmentationParams.mu)
    p.add_argument("--boundary-radius", type=float, default=SegmentationParams.boundary_radius)
    common(p)

    p = sub.add_parser("eval", help="score predictions against ground truth (CSV to stdout)")
    p.add_argument("pred", help="cloud with a prediction column")
    p.add_argument("gt", help="cloud with ground-truth instance ids")
    p.add_argument("--thresholds", type=_floats, default=list(THRESHOLDS))
    common(p)

    p = sub.add_parser("sweep", help="parameter sweeps (CSV)")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--mode", choices=["mu", "epsilon", "radius", "bias"], required=True)
    p.add_argument("--epsilon", type=float, default=SegmentationParams.epsilon)
    p.add_argument("--mu", type=float, default=SegmentationParams.mu)
    p.add_argument("--epsilons", type=_floats, default=list(DEFAULT_EPSILONS))
    p.add_argument("--mus", type=_floats, default=list(DEFAULT_MUS))
    p.add_argument("--threshold", type=float, default=_THRESHOLD)
    p.add_argument("--thresholds", type=_floats, default=list(THRESHOLDS))
    p.add_argument("--boundary-radius", type=float, default=SegmentationParams.boundary_radius)
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


def _cmd_synth(args: argparse.Namespace) -> int:
    if args.spec:
        spec = SceneSpec.from_json(args.spec)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
    else:
        (spec, manifest), = make_benchmark_suite(args.profile, seed=args.seed or 0)
    cloud = generate_scene(spec)
    save_pts(cloud, args.output)
    if args.manifest:
        with atomic_open(args.manifest, encoding="utf-8") as f:
            json.dump(manifest, f, indent=2)
            f.write("\n")
    _log(args, f"wrote {len(cloud)} points to {args.output}")
    return 0


def _cmd_boundary(args: argparse.Namespace) -> int:
    cloud = _load(args.input)
    if args.gt_flag:
        flags = detect_gt_instance_boundaries(cloud, BoundaryParams(args.boundary_radius))
    else:
        flags = _boundary_flags(cloud.positions, cloud.class_labels, args.boundary_radius)
    save_pts(cloud, args.output, extra_column=flags)
    _log(args, f"flagged {int(flags.sum())} of {len(cloud)} points")
    return 0


def _cmd_segment(args: argparse.Namespace) -> int:
    cloud = _load(args.input)
    labeling = segment(cloud, args.params)
    save_pts(cloud.with_predictions(labeling.assignment), args.output)
    _log(args, f"{labeling.n_instances} instances "
               f"({int((labeling.assignment < 0).sum())} noise points)")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    pred_cloud = _load(args.pred)
    gt_cloud = _load(args.gt)
    if len(pred_cloud) != len(gt_cloud):
        raise ValueError(f"cloud sizes differ: {len(pred_cloud)} vs {len(gt_cloud)}")
    if not (pred_cloud.positions == gt_cloud.positions).all():
        raise ValueError("point positions differ between prediction and ground-truth files")
    if not (pred_cloud.class_labels == gt_cloud.class_labels).all():
        raise ValueError("class labels differ between prediction and ground-truth files")
    if not pred_cloud.has_predictions:
        raise ValueError(f"{args.pred} has no prediction column")
    if not gt_cloud.has_ground_truth:
        raise ValueError(f"{args.gt} has no ground-truth instance ids on every point")
    pred = InstanceLabeling.from_assignment(pred_cloud.pred_instance, pred_cloud.class_labels)
    gt = InstanceLabeling.from_assignment(gt_cloud.gt_instance, gt_cloud.class_labels)
    report = score(pred, gt, thresholds=args.thresholds)
    fields, rows = report.to_rows()
    sys.stdout.write(rows_to_csv_text(rows, fields))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    params, selected = args.params, None
    if args.mode == "bias":
        if len(args.inputs) < 2:
            raise ValueError("bias mode needs at least 2 input clouds")
        named = [(p, _load(p)) for p in args.inputs]
        rows, summary = facility_bias_report(named, params, args.threshold)
        rows = rows + [{"facility": "mean", "m_prec": summary["m_prec_mean"],
                        "m_rec": summary["m_rec_mean"]},
                       {"facility": "std", "m_prec": summary["m_prec_std"],
                        "m_rec": summary["m_rec_std"]}]
    else:
        if len(args.inputs) != 1:
            raise ValueError(f"{args.mode} mode takes exactly one input cloud")
        cloud = _load(args.inputs[0])
        if args.mode == "mu":
            rows = sweep_mu(cloud, params.epsilon, args.mus, args.threshold,
                            boundary_radius=params.boundary_radius)
        elif args.mode == "epsilon":
            rows = sweep_epsilon(cloud, args.epsilons, params.mu, args.thresholds,
                                 boundary_radius=params.boundary_radius)
        else:
            rows, selected = sweep_radius_per_object(cloud, args.epsilons, args.thresholds)
    if args.output:
        write_csv(rows, args.output)
        _log(args, f"wrote {len(rows)} rows to {args.output}")
    else:
        sys.stdout.write(rows_to_csv_text(rows))
    if args.mode == "radius":
        _log(args, f"selected epsilon: {selected}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    cloud = _load(args.input)
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
        _check(args)
    except ValueError as exc:
        print(f"cloiseg {args.command}: error: {exc}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (PtsParseError, ValueError, OSError) as exc:
        print(f"cloiseg {args.command}: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

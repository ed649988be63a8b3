"""The traced run: per-layer metrics from spans around cloiseg's public functions.

Steps, all on the workload's own scenes and seed:

1. set-up once, traced (``synth.generate_s``);
2. ``cli.import_s``: a fresh interpreter importing ``cloiseg.cli`` (median of 3);
3. the workload's CLI calls once untraced, in subprocesses, as the end-to-end
   run makes them;
4. the same calls in this process through ``cloiseg.cli.main`` with the tracer
   installed; their outputs must equal step 3's byte for byte;
5. a layer probe per primary scene: index build, epsilon-pairs, boundary
   flags, ``connected_components`` over same-class interior points, a
   single-threaded ``segment_with_details``, ``score``, per-object
   ``segment_single_object``, and one-row sweeps for the sweep modes the
   workload's calls do not reach (so every layer has work on every workload).

Each layer's self time is its spans' durations minus their child spans.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import workloads as wl
from tracing import Tracer, layer_of

LAYERS = ("model", "spatial", "boundary", "segmentation", "evaluation", "sweep", "cli", "synth")

#: per-layer metrics: name -> unit
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "synth"},
    "model.load_pts_s": "s",
    "model.save_pts_s": "s",
    "model.pts_mb": "MB",
    "model.load_mb_per_s": "MB/s",
    "model.save_mb_per_s": "MB/s",
    "spatial.index_build_s": "s",
    "spatial.pairs_within_s": "s",
    "spatial.pairs": "count",
    "spatial.pairs_per_point": "count",
    "spatial.pairs_mb": "MB",
    "boundary.detect_s": "s",
    "boundary.points": "count",
    "boundary.fraction": "frac",
    "segmentation.segment_s": "s",
    "segmentation.segment_t1_s": "s",
    "segmentation.components_s": "s",
    "segmentation.other_s": "s",
    "segmentation.single_object_s": "s",
    "segmentation.provisional": "count",
    "segmentation.reattached": "count",
    "segmentation.boundary_noise": "count",
    "segmentation.instances": "count",
    "segmentation.noise_points": "count",
    "segmentation.mu_dropped_instances": "count",
    "segmentation.mu_dropped_points": "count",
    "segmentation.reattach_ratio": "frac",
    "evaluation.score_s": "s",
    "evaluation.matched": "count",
    "evaluation.pred_instances": "count",
    "evaluation.gt_instances": "count",
    "sweep.mu_s": "s",
    "sweep.epsilon_s": "s",
    "sweep.radius_s": "s",
    "sweep.rows": "count",
    "sweep.mu_cost_per_row": "ratio",
    "sweep.epsilon_cost_per_row": "ratio",
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "synth.generate_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def span_cost(calls: int = 20000) -> float:
    """Seconds a traced call costs over a plain one (median of 3 timings)."""
    def noop():
        return None
    traced = Tracer("calibration")._wrap("calibration.noop", noop)
    costs = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - plain) / calls)
    return float(np.median(costs))


class Probe:
    """Direct calls into every layer on one scene, recorded as spans."""

    def __init__(self, tracer: Tracer, scene: wl.Scene, sweeps: tuple[str, ...], threads: int):
        import cloiseg
        cloud = scene.cloud
        with tracer.span("bench.probe", scene=scene.name):
            index = cloiseg.RadiusIndex(cloud.positions)
            self.pairs = len(index.pairs_within(wl.EPSILON))
            self.flags = cloiseg.detect_class_boundaries(cloud, index,
                                                         cloiseg.BoundaryParams(wl.EPSILON))
            interior = np.nonzero(~self.flags)[0]
            classes = cloud.class_labels
            self.components = len(cloiseg.connected_components(
                index, wl.EPSILON, subset=interior,
                predicate=lambda i, j: classes[i] == classes[j]))
            del index
            with tracer.span("bench.segment_t1"):
                self.labeling, self.details = cloiseg.segment_with_details(
                    cloud, cloiseg.SegmentationParams(), workers=1)
            self.gt = cloiseg.InstanceLabeling.from_assignment(cloud.gt_instance, cloud.class_labels)
            self.report = cloiseg.score(self.labeling, self.gt, thresholds=(0.5,))
            with tracer.span("bench.single_object"):
                for members in self.gt.instances:
                    cloiseg.segment_single_object(cloud.positions[members], wl.EPSILON)
            for mode in sweeps:
                with tracer.span("bench.sweep", scene=scene.name):
                    if mode == "mu":
                        cloiseg.sweep_mu(cloud, wl.EPSILON, (wl.MU,), workers=threads)
                    elif mode == "epsilon":
                        cloiseg.sweep_epsilon(cloud, (wl.EPSILON,), wl.MU, workers=threads)
                    else:
                        cloiseg.sweep_radius_per_object(cloud, (wl.EPSILON,))


def traced_run(workload, threads: int, out_dir: Path, work_dir: Path, seed: int):
    wl.compile_sources()
    tracer = Tracer(f"{workload.name}-seed{seed}-{time.time_ns()}")
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            scenes = workload.setup(wl.reset_dir(work_dir / workload.name / "setup"))
    finally:
        tracer.uninstall()
    import_s = wl.import_seconds(3)

    sub_out = wl.reset_dir(work_dir / workload.name / "subprocess")
    sub_calls = workload.calls(scenes, sub_out, threads)
    sub_results = [wl.run_subprocess(c, sub_out) for c in sub_calls]

    in_out = wl.reset_dir(work_dir / workload.name / "traced")
    in_results, probes = [], {}
    tracer.install()
    try:
        for call in workload.calls(scenes, in_out, threads):
            with tracer.span("bench.call", kind=call.kind, scene=call.scene):
                in_results.append(wl.run_inprocess(call))
        for name in workload.primary:
            probes[name] = Probe(tracer, scenes[name], workload.probe_sweeps, threads)
    finally:
        tracer.uninstall()

    checker = wl.Checker(scenes, threads)
    for name, probe in probes.items():
        checker.expected[name] = wl.expected_for(scenes[name], threads, probe.labeling,
                                                 probe.details)
    run_errors = []
    for r in sub_results:
        r.errors = checker.check(r)
    for sub, inproc in zip(sub_results, in_results):
        if inproc.returncode == 0 and inproc.digest != sub.digest:
            inproc.errors.append("traced in-process output differs from the CLI subprocess")
    for name, probe in probes.items():
        if probe.components != probe.details.provisional_count:
            run_errors.append(f"{name}: connected_components found {probe.components} "
                              f"components, segment {probe.details.provisional_count}")

    metrics, breakdown = layer_metrics(tracer, scenes, probes, checker, sub_results, import_s)
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{workload.name}-seed{seed}.json"
    self_times = tracer.self_times()
    with open(trace_path, "w", encoding="utf-8") as f:
        json.dump({"run": tracer.run_id, "metrics": metrics, "calls": breakdown,
                   "spans": [dict(s, self=self_times[s["id"]]) for s in tracer.to_json()]}, f)
    print(f"trace written to {trace_path.relative_to(wl.ROOT)}")
    return scenes, sub_results + in_results, run_errors, metrics, {"trace": str(trace_path)}


def layer_metrics(tracer: Tracer, scenes, probes, checker, sub_results, import_s):
    spans = tracer.spans
    self_t = tracer.self_times()
    by_id = {s.id: s for s in spans}

    def under(root_name):
        ids = set()
        for root in (s for s in spans if s.name == root_name):
            ids.update(d.id for d in tracer.descendants(root))
        return [by_id[i] for i in sorted(ids)]

    def bench_attr(span, key):
        while span is not None:
            if span.name.startswith("bench.") and key in span.attrs:
                return span.attrs[key]
            span = by_id.get(span.parent)
        return None

    ops, probe, setup = under("bench.call"), under("bench.probe"), under("bench.setup")
    work = ops + probe

    def total(group, name):
        return sum(s.duration for s in group if s.name == name)

    def attr_sum(group, name, key):
        return sum(s.attrs.get(key, 0) for s in group if s.name == name)

    m = {f"{layer}.self_s": sum(self_t[s.id] for s in work if layer_of(s.name) == layer)
         for layer in LAYERS if layer != "synth"}
    load_s, save_s = total(ops, "model.load_pts"), total(ops, "model.save_pts")
    n_points = sum(scenes[name].n for name in probes)
    pairs = sum(p.pairs for p in probes.values())
    boundary = sum(int(p.flags.sum()) for p in probes.values())
    m.update({
        "model.load_pts_s": load_s,
        "model.save_pts_s": save_s,
        "model.pts_mb": sum(scenes[name].path.stat().st_size for name in probes) / 1e6,
        "model.load_mb_per_s": attr_sum(ops, "model.load_pts", "bytes") / 1e6 / load_s,
        "model.save_mb_per_s": attr_sum(ops, "model.save_pts", "bytes") / 1e6 / save_s,
        "spatial.index_build_s": total(ops, "spatial.RadiusIndex.__init__"),
        "spatial.pairs_within_s": total(ops, "spatial.RadiusIndex.pairs_within"),
        "spatial.pairs": pairs,
        "spatial.pairs_per_point": 2 * pairs / n_points,
        "spatial.pairs_mb": pairs * 16 / 1e6,
        "boundary.detect_s": sum(s.duration for s in probe
                                 if s.name == "boundary.detect_class_boundaries"
                                 and by_id[s.parent].name == "bench.probe"),
        "boundary.points": boundary,
        "boundary.fraction": boundary / n_points,
    })

    t1 = [s for s in probe if s.name == "segmentation.segment_with_details"
          and by_id[s.parent].name == "bench.segment_t1"]
    components = [s for s in probe if s.name == "segmentation.connected_components"
                  and by_id[s.parent].name == "bench.probe"]
    details = [p.details for p in probes.values()]
    labelings = [p.labeling for p in probes.values()]
    reattached = sum(d.reattached_count for d in details)
    noise = sum(int((lab.assignment < 0).sum()) for lab in labelings)
    boundary_noise = sum(d.boundary_noise_count for d in details)
    m.update({
        "segmentation.segment_s": total(ops, "segmentation.segment_with_details"),
        "segmentation.segment_t1_s": sum(s.duration for s in t1),
        "segmentation.components_s": sum(s.duration for s in components),
        "segmentation.other_s": (sum(self_t[s.id] for s in t1)
                                 - sum(self_t[s.id] for s in components)),
        "segmentation.single_object_s": total(work, "segmentation.segment_single_object"),
        "segmentation.provisional": sum(d.provisional_count for d in details),
        "segmentation.reattached": reattached,
        "segmentation.boundary_noise": boundary_noise,
        "segmentation.instances": sum(lab.n_instances for lab in labelings),
        "segmentation.noise_points": noise,
        "segmentation.mu_dropped_instances": sum(checker.expected[n].mu_dropped_instances
                                                 for n in probes),
        "segmentation.mu_dropped_points": noise - boundary_noise,
        "segmentation.reattach_ratio": reattached / boundary if boundary else 0.0,
        "evaluation.score_s": total(work, "evaluation.score"),
        "evaluation.matched": sum(sum(c.tp for c in p.report.by_threshold[0.5].per_class.values())
                                  for p in probes.values()),
        "evaluation.pred_instances": sum(lab.n_instances for lab in labelings),
        "evaluation.gt_instances": sum(p.gt.n_instances for p in probes.values()),
    })

    # reference cost of one sweep row on a scene: the CLI segment calls' mean
    # segment_with_details plus the probe's score
    segments: dict[str, list[float]] = {}
    ref: dict[str, float] = {}
    for s in work:
        scene = bench_attr(s, "scene")
        if s.name == "segmentation.segment_with_details" and bench_attr(s, "kind") == "segment":
            segments.setdefault(scene, []).append(s.duration)
        elif s.name == "evaluation.score" and by_id[s.parent].name == "bench.probe":
            ref[scene] = s.duration
    for scene, durations in segments.items():
        ref[scene] = ref.get(scene, 0.0) + sum(durations) / len(durations)
    sweep_names = ("sweep.sweep_mu", "sweep.sweep_epsilon", "sweep.sweep_radius_per_object",
                   "sweep.facility_bias_report")
    m["sweep.rows"] = sum(s.attrs.get("rows", 0) for s in work if s.name in sweep_names)
    for mode in ("mu", "epsilon", "radius"):
        name = "sweep.sweep_radius_per_object" if mode == "radius" else f"sweep.sweep_{mode}"
        sweeps = [s for s in work if s.name == name]
        m[f"sweep.{mode}_s"] = sum(s.duration for s in sweeps)
        if mode != "radius":
            base = sum(s.attrs["rows"] * ref[bench_attr(s, "scene")] for s in sweeps)
            m[f"sweep.{mode}_cost_per_row"] = m[f"sweep.{mode}_s"] / base

    breakdown = []
    mains = [s for s in ops if s.name == "cli.main"]
    for r, main in zip(sub_results, mains):
        layers: dict[str, float] = {}
        for d in tracer.descendants(main):
            layers[layer_of(d.name)] = layers.get(layer_of(d.name), 0.0) + self_t[d.id]
        breakdown.append({"kind": r.call.kind, "scene": r.call.scene,
                          "untraced_wall_s": r.wall_s, "import_s": import_s,
                          "traced_main_s": main.duration, "self_s": layers,
                          "overhead_s": r.wall_s - import_s - main.duration})
    m.update({
        "cli.import_s": import_s,
        "cli.overhead_s": sum(b["overhead_s"] for b in breakdown if b["kind"] == "segment"),
        "synth.generate_s": total(setup, "synth.generate_scene"),
        "trace.spans": len(work),
    })
    m["trace.overhead_s"] = len(ops) * span_cost()
    return m, breakdown

"""cloiseg benchmark: one closed-loop caller running CLI workloads end to end.

Usage (from the repository root):

    python3 perfbench/run.py --workload scan-1m --seed 0 --seconds 10 --trace 0

One pass runs every CLI call of the workload once, one at a time, each in a
fresh interpreter with ``--threads`` equal to the usable cores. Passes repeat until ``--seconds``
have been measured (at least one pass); each metric is the median over
passes. The bounded times are CPU seconds (user + system) of the timed
children; their wall times are printed beside them. Generating the scenes
and writing their input files is set-up: it is repeated
(``Workload.setup_repeats``), reported as ``setup_s`` (the median of its CPU
times) and never timed as an operation. Every output is checked outside the timed
region; a failed check counts the call as failed.

``--trace 1`` makes the separate traced run instead: the same calls are run
once untraced in subprocesses and once in this process with every public
cloiseg function wrapped in a span, followed by a layer probe; it reports the
per-layer metrics and writes the spans to ``.bench_out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--seed 0`` reproduces criterion 10's scene
(scene seed 1000) and the acceptance fixture's profiles (scene seed 101).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

OUT_DIR = wl.ROOT / ".bench_out"
WORK_DIR = wl.ROOT / ".bench_work"

#: end-to-end metrics, reported by every workload: name -> unit. Times are
#: CPU seconds (user + system, every thread): on a shared host the wall time
#: of the same call also counts the time the host runs other work on our
#: cores, and spread past the bound (see README, "Steadiness")
END_TO_END = {
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "segment_cpu_s": "s",
    "points_per_cpu_s": "1/s",
    "mprec_0.5": "frac",
    "mrec_0.5": "frac",
}

#: per-command wall-time sums printed with the report where the workload runs them
COMMAND_METRICS = {"eval_s": "eval", "sweep_mu_s": "sweep_mu", "sweep_epsilon_s": "sweep_epsilon",
                   "sweep_radius_s": "sweep_radius", "boundary_s": "boundary",
                   "bias_s": "sweep_bias"}


def environment(args, threads: int, scenes) -> dict:
    import numpy
    import scipy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((wl.SRC / "cloiseg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(wl.os.sched_getaffinity(0)),
        "threads": threads,
        "seed": args.seed,
        "workload": args.workload,
        "scenes": {s.name: {"n": s.n, "epsilon_pairs": wl.epsilon_pairs(s.cloud)}
                   for s in scenes.values()},
    }


def run_setup(workload, repeats: int) -> tuple[dict, list[float], list[float]]:
    """Set up ``repeats`` times; the scenes and each set-up's wall and CPU seconds."""
    times, cpu_times, scenes = [], [], None
    for k in range(repeats):
        work = wl.reset_dir(WORK_DIR / workload.name / f"setup-{k}")
        start, start_cpu = time.perf_counter(), time.process_time()
        scenes = workload.setup(work)
        times.append(time.perf_counter() - start)
        cpu_times.append(time.process_time() - start_cpu)
        wl.flush_to_disk(p for p in work.iterdir())
        if k:
            wl.shutil.rmtree(WORK_DIR / workload.name / f"setup-{k - 1}")
    return scenes, times, cpu_times


def pass_metrics(workload, calls, results) -> dict:
    by_kind: dict[str, float] = {}
    for r in results:
        by_kind[r.call.kind] = by_kind.get(r.call.kind, 0.0) + r.wall_s
    segment_s = by_kind["segment"]
    segment_cpu_s = sum(r.cpu_s for r in results if r.call.kind == "segment")
    points = sum(c.points for c in calls)
    quality = [r.quality for r in results
               if r.call.kind == workload.quality_from and r.quality is not None]
    m = {
        "cpu_s": sum(r.cpu_s for r in results),
        "segment_cpu_s": segment_cpu_s,
        "points_per_cpu_s": points / segment_cpu_s,
        "wall_s": sum(by_kind.values()),
        "segment_s": segment_s,
        "points_per_s": points / segment_s,
        # a mean over the calls of one kind (one per scene)
        "mprec_0.5": statistics.fmean(p for p, _ in quality) if quality else math.nan,
        "mrec_0.5": statistics.fmean(r for _, r in quality) if quality else math.nan,
    }
    for name, kind in COMMAND_METRICS.items():
        if kind in by_kind:
            m[name] = by_kind[kind]
    return m


def run_pass(calls, checker, scratch: Path):
    results = []
    for call in calls:
        results.append(wl.run_subprocess(call, scratch))
        if call.output:
            wl.flush_to_disk([call.output])
    for r in results:  # checks run after every call of the pass is timed
        r.errors = checker.check(r)
    return results


def measure(workload, seconds: float, threads: int):
    wl.compile_sources()
    scenes, setup_times, setup_cpu_times = run_setup(workload, workload.setup_repeats)
    out = wl.reset_dir(WORK_DIR / workload.name / "out")
    calls = workload.calls(scenes, out, threads)
    checker = wl.Checker(scenes, threads)
    passes, all_results = [], []
    measured = 0.0
    while not passes or measured < seconds:
        results = run_pass(calls, checker, out)
        measured += sum(r.wall_s for r in results)
        passes.append(pass_metrics(workload, calls, results))
        all_results += results
    run_errors = [f"{call.kind} {call.scene}: output differs between runs of the same call"
                  for call in calls
                  if len({r.digest for r in all_results if r.call is call}) != 1]
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["peak_rss_mb"] = max(r.maxrss_mb for r in all_results)
    metrics["setup_s"] = statistics.median(setup_cpu_times)
    metrics["setup_wall_s"] = statistics.median(setup_times)
    return scenes, all_results, run_errors, metrics, {"passes": len(passes), "setup_s": setup_cpu_times,
                                                      "setup_wall_s": setup_times}


def report(workload_name: str, results, run_errors, metrics: dict, units: dict, env: dict,
           extra: dict) -> dict:
    failed = sum(r.failed for r in results)
    for r in results:
        for e in r.errors:
            print(f"FAILED {r.call.kind} {r.call.scene}: {e}")
    for e in run_errors:
        print(f"FAILED run: {e}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        unit = units.get(name, "1/s" if name.startswith("points_per") else "s")
        print(f"{workload_name:15s} {name:32s} {value:16.6f} {unit}")
    record = {"workload": workload_name, "env": env, "metrics": metrics, **extra,
              "calls": [{"kind": r.call.kind, "scene": r.call.scene, "wall_s": r.wall_s,
                         "cpu_s": r.cpu_s,
                         "returncode": r.returncode, "maxrss_mb": r.maxrss_mb,
                         "digest": r.digest, "errors": r.errors} for r in results]}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a", encoding="utf-8") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    reported = {name: {"value": _finite(metrics[name]), "unit": units[name]} for name in units}
    return {"correct": failed == 0 and not run_errors, "attempted": len(results),
            "failed": failed, "metrics": reported}


def _finite(value: float) -> float:
    # a metric reads NaN only when its calls failed, and then correct is false
    return float(value) if math.isfinite(value) else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="scaled-down scenes and grids, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not (wl.SRC / "cloiseg" / "cli.py").is_file():
        print(f"perfbench: no cloiseg sources under {wl.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(wl.SRC))
    import cloiseg
    if not Path(cloiseg.__file__).resolve().is_relative_to(wl.SRC):
        print(f"perfbench: imported cloiseg from {cloiseg.__file__}, not {wl.SRC}",
              file=sys.stderr)
        return 2

    workload = wl.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    threads = wl.thread_count()
    try:
        if args.trace:
            import traced
            scenes, results, run_errors, metrics, extra = traced.traced_run(
                workload, threads, OUT_DIR, WORK_DIR, args.seed)
            units = traced.PER_LAYER
        else:
            scenes, results, run_errors, metrics, extra = measure(workload, args.seconds, threads)
            units = END_TO_END
        env = environment(args, threads, scenes)
        result = report(args.workload, results, run_errors, metrics, units, env, extra)
    finally:
        wl.shutil.rmtree(WORK_DIR / workload.name, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

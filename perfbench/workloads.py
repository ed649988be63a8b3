"""Scenes, CLI call lists and output checks for the three benchmark workloads.

Why each workload exists:

* ``scan-1m`` -- the main user path: one CLI ``segment`` (load -> segment ->
  save) on the 1.1M-point criterion-10 scene. PTS I/O is more than half of
  it; the rest is 14.9M epsilon-pairs (~27 neighbours per point) and ~52k
  boundary points to reattach. The sweep layer does no work here, so PTS
  I/O, pair-enumeration and reattachment gains show here and sweep-reuse
  gains must not.
* ``refinery-sweep`` -- CLI ``sweep`` in modes mu, epsilon and radius (each
  after a ``segment``) on the refinery-like scene: 38.7k points with
  ~150 epsilon-neighbours per point. I/O is negligible; the cost is repeated
  segmentation, scoring and pair enumeration up to epsilon = 0.07 on a dense
  surface, so sweep-reuse and dense-neighbourhood gains (and their memory
  cost, as ``peak_rss_mb``) show here.
* ``profiles-cli`` -- CLI ``segment``, ``eval`` and ``boundary`` on each of the
  five ``synth`` profiles, then one ``sweep --mode bias --boundary-radius
  0.03`` over all five: 16 small calls, so interpreter start-up and
  ``import cloiseg.cli`` dominate. It alone reaches ``boundary``'s own
  writer, the r_b != epsilon branch of ``segment_with_details`` and the
  five manifests; work moved into imports, or a change that helps large N
  but slows small N, shows here.
"""

from __future__ import annotations

import compileall
import csv
import hashlib
import io
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

EPSILON = 0.04
MU = 20
BIAS_BOUNDARY_RADIUS = 0.03
SCAN_SCENE_SEED = 1000     # criterion 10's scene
PROFILE_SCENE_SEED = 101   # the acceptance suite's profile fixture
PROFILES = ("dense", "sparse", "cluttered", "refinery-like", "gapped")
SMOKE_PROFILES = ("dense", "cluttered")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def thread_count() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# scenes
# ---------------------------------------------------------------------------

@dataclass
class Scene:
    name: str
    path: Path
    cloud: object
    manifest: dict | None = None

    @property
    def n(self) -> int:
        return len(self.cloud)


def criterion10_spec(seed: int, grid: int = 10, length: float = 4.0):
    """Criterion 10's scene: a grid of alternating cylinders and I-beams, the
    last one of each row ~2cm from its neighbour to exercise reattachment."""
    import cloiseg
    shapes = []
    for i in range(grid):
        for j in range(grid):
            x, y = j * 1.2, i * 1.2
            if j == grid - 1:
                x -= 1.2 - 0.25
            if (i * grid + j) % 2 == 0:
                shapes.append(cloiseg.ShapeSpec(cloiseg.ClassLabel.CYLINDER, (x, y, 0.0),
                                                {"radius": 0.08, "length": length},
                                                density=5000.0))
            else:
                shapes.append(cloiseg.ShapeSpec(cloiseg.ClassLabel.IBEAM, (x, y, 0.0),
                                                {"depth": 0.3, "width": 0.15, "length": length},
                                                density=5000.0))
    return cloiseg.SceneSpec(tuple(shapes), seed=seed)


# ---------------------------------------------------------------------------
# CLI calls
# ---------------------------------------------------------------------------

@dataclass
class Call:
    """One timed CLI invocation; ``output`` is a file, or None for stdout."""

    kind: str
    argv: list[str]
    scene: str
    output: str | None = None
    points: int = 0


@dataclass
class CallResult:
    call: Call
    wall_s: float
    #: user + system CPU seconds of the call (all its threads)
    cpu_s: float
    returncode: int
    maxrss_mb: float
    stdout: bytes
    output: bytes
    errors: list[str] = field(default_factory=list)
    #: (mean precision, mean recall) at IoU 0.5 that the output shows, if any
    quality: tuple[float, float] | None = None

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.output if self.call.output else self.stdout).hexdigest()

    @property
    def failed(self) -> bool:
        return self.returncode != 0 or bool(self.errors)


class Workload:
    """Scenes made from a seed, and the CLI calls of one pass over them."""

    name = ""
    #: scenes the traced run's layer probe works on
    primary: tuple[str, ...] = ()
    #: one-row sweeps the layer probe runs on the primary scenes, for sweep
    #: modes this workload's CLI calls do not reach
    probe_sweeps: tuple[str, ...] = ()
    #: the call kind whose checked output gives ``mprec_0.5`` / ``mrec_0.5``
    quality_from = "segment"
    #: set-ups per run; ``setup_s`` is their median
    setup_repeats = 5

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed
        self.smoke = smoke

    def scene_specs(self) -> list[tuple[str, object, dict | None]]:
        raise NotImplementedError

    def calls(self, scenes: dict[str, Scene], out: Path, threads: int) -> list[Call]:
        raise NotImplementedError

    def setup(self, work: Path) -> dict[str, Scene]:
        """Generate every scene and write its input file; manifests stay in memory."""
        import cloiseg
        work.mkdir(parents=True, exist_ok=True)
        scenes = {}
        for name, spec, manifest in self.scene_specs():
            cloud = cloiseg.generate_scene(spec)
            path = work / f"{name}.pts"
            cloiseg.save_pts(cloud, path)
            scenes[name] = Scene(name, path, cloud, manifest)
        return scenes


def _profile_specs(names, seed):
    import cloiseg
    out = []
    for name in names:
        (spec, manifest), = cloiseg.make_benchmark_suite(name, seed=PROFILE_SCENE_SEED + seed)
        out.append((name, spec, manifest))
    return out


def _common(threads: int) -> list[str]:
    return ["--threads", str(threads)]


class Scan1M(Workload):
    name = "scan-1m"
    primary = ("scan",)
    probe_sweeps = ("mu", "epsilon", "radius")
    # each set-up writes 61 MB (~7 s): two keep the run inside its time budget
    setup_repeats = 2

    def scene_specs(self):
        grid, length = (3, 1.0) if self.smoke else (10, 4.0)
        return [("scan", criterion10_spec(SCAN_SCENE_SEED + self.seed, grid, length), None)]

    def calls(self, scenes, out, threads):
        scene = scenes["scan"]
        seg = str(out / "scan.seg.pts")
        return [
            Call("segment", ["segment", str(scene.path), seg, *_common(threads)], "scan",
                 output=seg, points=scene.n),
        ]


class RefinerySweep(Workload):
    name = "refinery-sweep"
    primary = ("refinery-like",)
    quality_from = "sweep_mu"

    def scene_specs(self):
        return _profile_specs(("refinery-like",), self.seed)

    def calls(self, scenes, out, threads):
        scene = scenes["refinery-like"]
        src = str(scene.path)
        seg = str(out / "refinery.seg.pts")
        grids = ["--mus", "10,20", "--epsilons", "0.03,0.04"] if self.smoke else []
        calls = []
        for mode in ("mu", "epsilon", "radius"):
            # a ~2 s segment call alone takes the machine's speed of the moment;
            # three spread through the pass sample all of it
            calls.append(Call("segment", ["segment", src, seg, *_common(threads)], scene.name,
                              output=seg, points=scene.n))
            csv_path = str(out / f"sweep-{mode}.csv")
            calls.append(Call(f"sweep_{mode}", ["sweep", "--mode", mode, src, "--out", csv_path,
                                                *grids, *_common(threads)],
                              scene.name, output=csv_path))
        return calls


class ProfilesCLI(Workload):
    name = "profiles-cli"
    probe_sweeps = ("mu", "epsilon", "radius")
    quality_from = "eval"

    @property
    def primary(self):
        return SMOKE_PROFILES if self.smoke else PROFILES

    def scene_specs(self):
        return _profile_specs(self.primary, self.seed)

    def calls(self, scenes, out, threads):
        calls = []
        for name in self.primary:
            scene = scenes[name]
            seg = str(out / f"{name}.seg.pts")
            bnd = str(out / f"{name}.boundary.pts")
            calls += [
                Call("segment", ["segment", str(scene.path), seg, *_common(threads)], name,
                     output=seg, points=scene.n),
                Call("eval", ["eval", seg, str(scene.path), *_common(threads)], name),
                Call("boundary", ["boundary", str(scene.path), bnd, *_common(threads)], name,
                     output=bnd),
            ]
        bias = str(out / "bias.csv")
        calls.append(Call("sweep_bias",
                          ["sweep", "--mode", "bias", *(str(scenes[n].path) for n in self.primary),
                           "--boundary-radius", str(BIAS_BOUNDARY_RADIUS), "--out", bias,
                           *_common(threads)], "all", output=bias))
        return calls


WORKLOADS = {w.name: w for w in (Scan1M, RefinerySweep, ProfilesCLI)}


# ---------------------------------------------------------------------------
# running calls
# ---------------------------------------------------------------------------

def run_subprocess(call: Call, scratch: Path) -> CallResult:
    """Run one CLI call in a fresh interpreter; wall time, CPU time and max RSS of that child."""
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    argv = [sys.executable, "-m", "cloiseg.cli", *call.argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=cli_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CallResult(call, wall, usage.ru_utime + usage.ru_stime, proc.returncode,
                      usage.ru_maxrss / 1024.0,
                      out_path.read_bytes(), _read_output(call))


def run_inprocess(call: Call) -> CallResult:
    """Run one CLI call through ``cloiseg.cli.main`` in this process."""
    import cloiseg.cli
    buf = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    saved_out, saved_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = buf, io.StringIO()
    try:
        start, start_cpu = time.perf_counter(), time.process_time()
        code = cloiseg.cli.main(call.argv)
        wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
    finally:
        sys.stdout, sys.stderr = saved_out, saved_err
    buf.flush()
    return CallResult(call, wall, cpu, code, 0.0, buf.buffer.getvalue(), _read_output(call))


def _read_output(call: Call) -> bytes:
    if call.output is None:
        return b""
    try:
        return Path(call.output).read_bytes()
    except FileNotFoundError:
        return b""


def compile_sources() -> None:
    """Write the package's bytecode once, so no timed call pays for compiling it."""
    compileall.compile_dir(str(SRC / "cloiseg"), quiet=1)


def import_seconds(repeats: int = 3) -> float:
    """Median wall time of a fresh interpreter running ``import cloiseg.cli``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cloiseg.cli"], env=cli_env(),
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@dataclass
class Expected:
    """In-process results on one scene that every CLI output is checked against."""

    labeling: object
    details: object
    gt: object
    mu_dropped_instances: int


def expected_for(scene: Scene, threads: int, labeling=None, details=None) -> Expected:
    import cloiseg
    cloud = scene.cloud
    if labeling is None:
        labeling, details = cloiseg.segment_with_details(cloud, cloiseg.SegmentationParams(),
                                                         workers=threads)
    gt = cloiseg.InstanceLabeling.from_assignment(cloud.gt_instance, cloud.class_labels)
    # unflagged NOISE points are exactly the interior points of the provisional
    # instances the mu filter dropped; their same-class epsilon components
    # count those instances independently of the pipeline's own bookkeeping
    dropped = np.nonzero(~details.boundary_flags & (labeling.assignment < 0))[0]
    n_dropped = 0
    if dropped.size:
        classes = cloud.class_labels[dropped]
        index = cloiseg.RadiusIndex(cloud.positions[dropped])
        n_dropped = len(cloiseg.connected_components(
            index, EPSILON, predicate=lambda i, j: classes[i] == classes[j]))
    return Expected(labeling, details, gt, n_dropped)


def pipeline_errors(scene: Scene, exp: Expected) -> list[str]:
    """Conservation identities of the segmentation on one scene."""
    d, lab = exp.details, exp.labeling
    errors = []
    boundary = int(d.boundary_flags.sum())
    if d.reattached_count + d.boundary_noise_count != boundary:
        errors.append(f"{scene.name}: reattached {d.reattached_count} + boundary noise "
                      f"{d.boundary_noise_count} != boundary points {boundary}")
    noise = int((lab.assignment < 0).sum())
    if int(lab.sizes().sum()) + noise != scene.n:
        errors.append(f"{scene.name}: instance points + NOISE != N")
    if d.provisional_count - exp.mu_dropped_instances != lab.n_instances:
        errors.append(f"{scene.name}: provisional {d.provisional_count} - mu-dropped "
                      f"{exp.mu_dropped_instances} != instances {lab.n_instances}")
    return errors


def _prediction_errors(scene: Scene, pred: np.ndarray, exp: Expected) -> list[str]:
    import cloiseg
    errors = []
    if not np.array_equal(pred, exp.labeling.assignment):
        errors.append(f"{scene.name}: prediction column differs from in-process segment")
    ids = pred[pred >= 0]
    if ids.size:
        sizes = np.bincount(ids)
        if (sizes[sizes > 0] < MU).any():
            errors.append(f"{scene.name}: an instance has fewer than mu={MU} points")
        codes = np.unique(ids * 8 + scene.cloud.class_labels[pred >= 0])
        if codes.size != np.unique(ids).size:
            errors.append(f"{scene.name}: an instance mixes classes")
    manifest = scene.manifest or {}
    if manifest.get("expect_perfect"):
        gt = cloiseg.InstanceLabeling.from_assignment(scene.cloud.gt_instance,
                                                      scene.cloud.class_labels)
        pred_lab = cloiseg.InstanceLabeling.from_assignment(pred, scene.cloud.class_labels)
        report = cloiseg.score(pred_lab, gt, thresholds=cloiseg.THRESHOLDS)
        for t, tm in report.by_threshold.items():
            if not (tm.mean_precision == 1.0 and tm.mean_recall == 1.0):
                errors.append(f"{scene.name}: not recovered perfectly at IoU {t}")
    groups = list(manifest.get("merged_groups", []))
    if "merged_instances" in manifest:
        groups.append(manifest["merged_instances"])
    for group in groups:
        got = np.unique(pred[np.isin(scene.cloud.gt_instance, group)])
        if (got >= 0).sum() != 1:
            errors.append(f"{scene.name}: ground-truth instances {group} did not merge")
    return errors


def _csv_rows(text: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text.decode("utf-8"))))


def _same(text: str, value) -> bool:
    got = float(text)
    value = float(value)
    return (math.isnan(got) and math.isnan(value)) or got == value


def _row_errors(where: str, row: dict, expect: dict) -> list[str]:
    return [f"{where}: {k} is {row.get(k)!r}, expected {v!r}"
            for k, v in expect.items() if k not in row or not _same(row[k], v)]


class Checker:
    """Checks each CLI output against in-process results, outside any timing."""

    def __init__(self, scenes: dict[str, Scene], threads: int):
        self.scenes = scenes
        self.threads = threads
        self.expected: dict[str, Expected] = {}
        self.cache: dict = {}

    def expect(self, name: str) -> Expected:
        if name not in self.expected:
            self.expected[name] = expected_for(self.scenes[name], self.threads)
        return self.expected[name]

    def check(self, result: CallResult) -> list[str]:
        if result.returncode != 0:
            return [f"{result.call.kind} exited with {result.returncode}"]
        key = (id(result.call), result.digest)
        if key in self.cache:  # the same bytes as a checked run of this call
            result.quality, errors = self.cache[key]
            return list(errors)
        try:
            errors = getattr(self, f"_check_{result.call.kind}")(result)
        except Exception as exc:  # a malformed output must count as failed, not crash the run
            errors = [f"{result.call.kind}: output could not be checked: {exc!r}"]
        self.cache[key] = (result.quality, list(errors))
        return errors

    def _check_segment(self, result: CallResult) -> list[str]:
        import cloiseg
        scene = self.scenes[result.call.scene]
        got = cloiseg.load_pts(result.call.output)
        cloud = scene.cloud
        if not (np.array_equal(got.positions, cloud.positions)
                and np.array_equal(got.class_labels, cloud.class_labels)
                and np.array_equal(got.gt_instance, cloud.gt_instance)):
            return [f"{scene.name}: segment output does not reproduce its input columns"]
        if got.pred_instance is None:
            return [f"{scene.name}: segment output has no prediction column"]
        exp = self.expect(scene.name)
        pred = cloiseg.InstanceLabeling.from_assignment(got.pred_instance, cloud.class_labels)
        tm = cloiseg.score(pred, exp.gt, thresholds=(0.5,)).by_threshold[0.5]
        result.quality = (tm.mean_precision, tm.mean_recall)
        return pipeline_errors(scene, exp) + _prediction_errors(scene, got.pred_instance, exp)

    def _check_eval(self, result: CallResult) -> list[str]:
        import cloiseg
        exp = self.expect(result.call.scene)
        report = cloiseg.score(exp.labeling, exp.gt, thresholds=cloiseg.THRESHOLDS)
        fields, rows = report.to_rows()
        want = cloiseg.sweep.rows_to_csv_text(rows, fields).encode("utf-8")
        if result.stdout != want:
            return [f"{result.call.scene}: eval CSV differs from in-process score"]
        result.quality = eval_means(result.stdout)
        return []

    def _check_boundary(self, result: CallResult) -> list[str]:
        import cloiseg
        scene = self.scenes[result.call.scene]
        text = result.output.decode("utf-8")
        header, _, body = text.partition("\n")
        if header != f"cloi-pts v1 n={scene.n}":
            return [f"{scene.name}: boundary output header {header!r}"]
        table = np.loadtxt(io.StringIO(body), ndmin=2)
        flags = cloiseg.detect_class_boundaries(scene.cloud, cloiseg.RadiusIndex(scene.cloud.positions),
                                                cloiseg.BoundaryParams(EPSILON))
        if (table.shape != (scene.n, 6)
                or not np.array_equal(table[:, :3], scene.cloud.positions)
                or not np.array_equal(table[:, 3], scene.cloud.class_labels)
                or not np.array_equal(table[:, 4], scene.cloud.gt_instance)
                or not np.array_equal(table[:, 5], flags)):
            return [f"{scene.name}: boundary output differs from in-process flags"]
        return []

    def _mu_row(self, name: str) -> dict:
        import cloiseg
        exp = self.expect(name)
        tm = cloiseg.score(exp.labeling, exp.gt, thresholds=(0.5,)).by_threshold[0.5]
        row = {"mu": MU}
        for c in cloiseg.ClassLabel:
            row[f"prec_{c.name.lower()}"] = tm.per_class[c].precision
            row[f"rec_{c.name.lower()}"] = tm.per_class[c].recall
        row["m_prec"] = tm.mean_precision
        row["m_rec"] = tm.mean_recall
        return row

    def _grid_row(self, rows: list[dict], key: str, value: float, where: str):
        for row in rows:
            if float(row[key]) == value:
                return row
        raise ValueError(f"{where}: no row with {key}={value}")

    def _check_sweep_mu(self, result: CallResult) -> list[str]:
        rows = _csv_rows(result.output)
        row = self._grid_row(rows, "mu", MU, "sweep mu")
        result.quality = (float(row["m_prec"]), float(row["m_rec"]))
        return _row_errors("sweep mu row mu=20", row, self._mu_row(result.call.scene))

    def _check_sweep_epsilon(self, result: CallResult) -> list[str]:
        import cloiseg
        exp = self.expect(result.call.scene)
        row = self._grid_row(_csv_rows(result.output), "epsilon", EPSILON, "sweep epsilon")
        report = cloiseg.score(exp.labeling, exp.gt, thresholds=cloiseg.THRESHOLDS)
        want = {"instances_prefilter": exp.details.provisional_count,
                "instances": exp.labeling.n_instances}
        for t in cloiseg.THRESHOLDS:
            want[f"m_prec@{t:g}"] = report.by_threshold[t].mean_precision
            want[f"m_rec@{t:g}"] = report.by_threshold[t].mean_recall
        return _row_errors("sweep epsilon row epsilon=0.04", row, want)

    def _check_sweep_radius(self, result: CallResult) -> list[str]:
        import cloiseg
        scene = self.scenes[result.call.scene]
        exp = self.expect(scene.name)
        row = self._grid_row(_csv_rows(result.output), "epsilon", EPSILON, "sweep radius")
        objects = [cloiseg.segment_single_object(scene.cloud.positions[m], EPSILON)
                   for m in exp.gt.instances]
        want = {f"m_rec_ins@{t:g}": cloiseg.rec_ins(objects, t) for t in cloiseg.THRESHOLDS}
        return _row_errors("sweep radius row epsilon=0.04", row, want)

    def _check_sweep_bias(self, result: CallResult) -> list[str]:
        import cloiseg
        rows = {r["facility"]: r for r in _csv_rows(result.output)}
        params = cloiseg.SegmentationParams(boundary_radius=BIAS_BOUNDARY_RADIUS)
        precs, recs, errors = [], [], []
        for scene in self.scenes.values():
            gt = cloiseg.InstanceLabeling.from_assignment(scene.cloud.gt_instance,
                                                          scene.cloud.class_labels)
            pred = cloiseg.segment(scene.cloud, params, workers=self.threads)
            tm = cloiseg.score(pred, gt, thresholds=(0.5,)).by_threshold[0.5]
            precs.append(tm.mean_precision)
            recs.append(tm.mean_recall)
            errors += _row_errors(f"bias row {scene.name}", rows.get(str(scene.path), {}),
                                  {"m_prec": tm.mean_precision, "m_rec": tm.mean_recall})
        p, r = np.array(precs), np.array(recs)
        errors += _row_errors("bias mean row", rows.get("mean", {}),
                              {"m_prec": float(p.mean()), "m_rec": float(r.mean())})
        errors += _row_errors("bias std row", rows.get("std", {}),
                              {"m_prec": float(p.std()), "m_rec": float(r.std())})
        return errors


def eval_means(stdout: bytes) -> tuple[float, float]:
    """(mean precision, mean recall) at IoU 0.5 from ``cloiseg eval`` output."""
    for row in _csv_rows(stdout):
        if row["class"] == "mean":
            return float(row["prec@0.5"]), float(row["rec@0.5"])
    raise ValueError("eval output has no mean row")


def epsilon_pairs(cloud) -> int:
    from scipy.spatial import cKDTree
    return int(len(cKDTree(cloud.positions).query_pairs(EPSILON, output_type="ndarray")))


def flush_to_disk(paths) -> None:
    """fsync written files, so their writeback does not run during a timed call."""
    for path in paths:
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def reset_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path

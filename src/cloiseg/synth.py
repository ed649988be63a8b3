"""Deterministic synthetic industrial scenes with exact ground truth.

Shapes are surface-sampled idealizations of the CLOI vocabulary: cylinders,
torus-sector elbows, extruded I/L/C profiles, annulus+collar flanges,
sphere+stem+handwheel valves, and box clutter. Randomness comes from the
counter-based Philox generator seeded through numpy SeedSequence spawning,
so a scene is a pure function of its spec on every platform (pinned by a
golden stream test). Gap intervals of the primary parametric coordinate are
deleted exactly, with edge rings/rows keeping the realized gap width equal
to the declared one on swept shapes. Surface noise is clipped at 3 sigma.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .model import ClassLabel, LabeledPointCloud


@dataclass(frozen=True)
class ShapeSpec:
    """One surface-sampled object: class, pose, dimensions, density, noise, gaps.

    Every rule a sampler relies on is checked here, so a spec that breaks one
    fails when it is built or loaded from JSON, not when it is sampled.
    """

    class_label: ClassLabel
    position: tuple[float, float, float]
    dims: dict
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    density: float = 20000.0
    sigma: float = 0.0
    gaps: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        cls = ClassLabel(self.class_label)
        object.__setattr__(self, "class_label", cls)
        object.__setattr__(self, "position", tuple(float(v) for v in self.position))
        object.__setattr__(self, "axis", tuple(float(v) for v in self.axis))
        # a copy, so that shapes built from one dims dict never alias
        object.__setattr__(self, "dims", {k: float(v) for k, v in self.dims.items()})
        object.__setattr__(self, "density", float(self.density))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "gaps", tuple((float(a), float(b)) for a, b in self.gaps))
        if len(self.position) != 3 or len(self.axis) != 3:
            raise ValueError("position and axis must have 3 coordinates")
        if not self.density > 0:
            raise ValueError(f"density must be positive, got {self.density}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and non-negative, got {self.sigma}")
        required, nested, _ = _SHAPES[cls]
        missing = [k for k in required if k not in self.dims]
        if missing:
            raise ValueError(f"{cls.name.lower()} dims missing {missing}")
        for k in required:
            if not self.dims[k] > 0:
                raise ValueError(f"dimension {k} must be positive, got {self.dims[k]}")
        # every sampler's point and ring counts lie below density * 100 * (sum of dims)**2
        if not math.isfinite(self.density * 100.0 * sum(self.dims[k] for k in required) ** 2):
            raise ValueError(f"{cls.name.lower()} dims and density give a point count that is "
                             "not finite")
        if nested and self.dims[nested[0]] >= self.dims[nested[1]]:
            raise ValueError(f"{cls.name.lower()} {nested[0]} must be smaller than {nested[1]}")
        if cls is ClassLabel.ELBOW and self.dims["sweep_deg"] not in (90.0, 180.0):
            raise ValueError(f"elbow sweep_deg must be 90 or 180, got {self.dims['sweep_deg']}")
        if cls is not ClassLabel.OTHER:
            norm = np.linalg.norm(self.axis)
            if norm == 0 or not np.isfinite(norm):
                raise ValueError(f"axis must be a finite non-zero vector, got {self.axis}")
        prev_hi = -1.0
        for lo, hi in self.gaps:
            if not (0.0 <= lo < hi <= 1.0):
                raise ValueError(f"gap ({lo}, {hi}) must satisfy 0 <= lo < hi <= 1")
            if lo <= prev_hi:
                raise ValueError("gaps must be sorted and non-overlapping")
            prev_hi = hi

    def to_dict(self) -> dict:
        return {
            "class": self.class_label.name.lower(),
            "position": list(self.position),
            "axis": list(self.axis),
            "dims": dict(self.dims),
            "density": self.density,
            "sigma": self.sigma,
            "gaps": [list(g) for g in self.gaps],
        }

    @classmethod
    def from_dict(cls, d: dict, where: str = "shape") -> "ShapeSpec":
        """The shape of a JSON object; a value of the wrong JSON type raises
        ``ValueError`` naming its path below ``where``."""
        name = _field(_object(d, where), "class", where)
        if not isinstance(name, str) or name.upper() not in ClassLabel.__members__:
            raise ValueError(f"{where}.class must be one of "
                             f"{', '.join(c.name.lower() for c in ClassLabel)}, got {name!r}")
        dims = _object(_field(d, "dims", where), f"{where}.dims")
        optional = {k: _number(d[k], f"{where}.{k}") for k in ("density", "sigma") if k in d}
        if "axis" in d:
            optional["axis"] = _numbers(d["axis"], f"{where}.axis")
        if "gaps" in d:
            optional["gaps"] = tuple(_numbers(g, f"{where}.gaps[{i}]", 2)
                                     for i, g in enumerate(_list(d["gaps"], f"{where}.gaps")))
        position = _numbers(_field(d, "position", where), f"{where}.position")
        dims = {k: _number(v, f"{where}.dims.{k}") for k, v in dims.items()}
        try:
            return cls(ClassLabel[name.upper()], position, dims, **optional)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class ClutterSpec:
    """Uniform random points in a box, labeled other/clutter as one instance."""

    count: int
    box_min: tuple[float, float, float]
    box_max: tuple[float, float, float]

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"clutter count must be >= 1, got {self.count}")
        if any(a >= b for a, b in zip(self.box_min, self.box_max)):
            raise ValueError("clutter box must have positive extent on every axis")

    def to_dict(self) -> dict:
        return {"count": self.count, "box_min": list(self.box_min), "box_max": list(self.box_max)}

    @classmethod
    def from_dict(cls, d: dict) -> "ClutterSpec":
        """The clutter of a JSON object, checked as :meth:`ShapeSpec.from_dict` checks."""
        count = _integer(_field(_object(d, "clutter"), "count", "clutter"), "clutter.count")
        return cls(count, *(_numbers(_field(d, k, "clutter"), f"clutter.{k}", 3)
                            for k in ("box_min", "box_max")))


@dataclass(frozen=True)
class SceneSpec:
    """A list of shapes plus optional clutter; the seed fixes all randomness."""

    shapes: tuple[ShapeSpec, ...]
    seed: int = 0
    clutter: ClutterSpec | None = None

    def to_dict(self) -> dict:
        return {
            "shapes": [s.to_dict() for s in self.shapes],
            "seed": self.seed,
            "clutter": None if self.clutter is None else self.clutter.to_dict(),
        }

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        """The spec of a JSON object; a value of the wrong JSON type raises
        ``ValueError`` naming its path, such as ``shapes[0].dims.radius``."""
        shapes = _list(_field(_object(d, "spec"), "shapes", ""), "shapes")
        seed = _integer(d.get("seed", 0), "seed")
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        return cls(
            shapes=tuple(ShapeSpec.from_dict(s, f"shapes[{i}]") for i, s in enumerate(shapes)),
            seed=seed,
            clutter=None if d.get("clutter") is None else ClutterSpec.from_dict(d["clutter"]),
        )

    @classmethod
    def from_json(cls, path) -> "SceneSpec":
        """The spec of a JSON file; one that is not UTF-8 JSON, or whose values
        :meth:`from_dict` rejects, raises ValueError starting with its path."""
        try:
            return cls.from_dict(json.loads(Path(path).read_bytes().decode("utf-8")))
        except ValueError as exc:  # a UnicodeDecodeError, a JSONDecodeError or a value
            raise ValueError(f"{path}: {exc}") from None


# JSON readers: each returns the value at a JSON path or raises ValueError naming it.

def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list, got {type(value).__name__}")
    return value


def _field(d: dict, key: str, where: str):
    if key not in d:
        raise ValueError(f"{where + '.' if where else ''}{key} is missing")
    return d[key]


def _integer(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where} must be an integer, got {type(value).__name__}")
    return value


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where} must be a number, got {type(value).__name__}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{where} is out of the float range") from None


def _numbers(value, where: str, count: int | None = None) -> tuple[float, ...]:
    if len(_list(value, where)) != (count or len(value)):
        raise ValueError(f"{where} must hold {count} numbers, got {len(value)}")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def _rng(seed: int, index: int) -> np.random.Generator:
    """The stream of shape ``index`` (the clutter's index is the shape count)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(index,))))


def _frame(axis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    a = np.asarray(axis, dtype=np.float64) / np.linalg.norm(axis)
    ref = np.array([1.0, 0.0, 0.0]) if abs(a[0]) <= 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(a, ref)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(a, e1)
    return e1, e2, a


def _ring(center, e1, e2, radius, count, phase) -> np.ndarray:
    angles = phase + 2.0 * math.pi * np.arange(count) / count
    return center + radius * (np.cos(angles)[:, None] * e1 + np.sin(angles)[:, None] * e2)


def _weighted_angle(rng, count, ring_radius, tube_radius) -> np.ndarray:
    """Tube angles distributed by the torus area element (ring + tube*cos)."""
    grid = np.linspace(0.0, 2.0 * math.pi, 4097)
    weights = ring_radius + tube_radius * np.cos(grid)
    cdf = np.concatenate([[0.0], np.cumsum((weights[1:] + weights[:-1]) / 2 * np.diff(grid))])
    u = rng.random(count) * cdf[-1]
    return np.interp(u, cdf, grid)


# Each sampler returns the raw surface before gap deletion and noise:
# (points, normals, cut, edge), where ``cut`` is each point's primary
# parametric coordinate in [0, 1] and ``edge(b, phase) -> (points, normals)``
# is the ring or row at cut ``b`` (None for shapes without one).

def _sample_cylinder(shape: ShapeSpec, rng):
    r, length = shape.dims["radius"], shape.dims["length"]
    e1, e2, a = _frame(shape.axis)
    base = np.asarray(shape.position, dtype=np.float64)
    n = max(1, round(shape.density * 2.0 * math.pi * r * length))
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    v = rng.random(n)
    radial = np.cos(theta)[:, None] * e1 + np.sin(theta)[:, None] * e2
    pts = base + (v * length)[:, None] * a + r * radial
    n_ring = max(8, round(2.0 * math.pi * r * math.sqrt(shape.density)))

    def edge(b, phase):
        center = base + b * length * a
        ring = _ring(center, e1, e2, r, n_ring, phase)
        return ring, (ring - center) / r

    return pts, radial, v, edge


def _sample_elbow(shape: ShapeSpec, rng):
    big_r, tube_r = shape.dims["bend_radius"], shape.dims["tube_radius"]
    sweep_rad = math.radians(shape.dims["sweep_deg"])
    e1, e2, a = _frame(shape.axis)
    base = np.asarray(shape.position, dtype=np.float64)
    area = sweep_rad * tube_r * 2.0 * math.pi * big_r
    n = max(1, round(shape.density * area))
    phi = rng.random(n) * sweep_rad
    theta = _weighted_angle(rng, n, big_r, tube_r)
    u_dir = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
    centerline = base + big_r * u_dir
    normals = np.cos(theta)[:, None] * u_dir + np.sin(theta)[:, None] * a
    pts = centerline + tube_r * normals
    n_ring = max(8, round(2.0 * math.pi * tube_r * math.sqrt(shape.density)))

    def edge(b, phase):
        ang = b * sweep_rad
        u = math.cos(ang) * e1 + math.sin(ang) * e2
        center = base + big_r * u
        ring = _ring(center, u, a, tube_r, n_ring, phase)
        return ring, (ring - center) / tube_r

    return pts, normals, phi / sweep_rad, edge


def _profile_segments(shape: ShapeSpec) -> list[tuple[np.ndarray, np.ndarray]]:
    """The 2D profile of an I-beam, angle or channel as line segments."""
    if shape.class_label is ClassLabel.ANGLE:
        la, lb = shape.dims["leg_a"], shape.dims["leg_b"]
        return [
            (np.array([0.0, 0.0]), np.array([la, 0.0])),
            (np.array([0.0, 0.0]), np.array([0.0, lb])),
        ]
    h, w = shape.dims["depth"], shape.dims["width"]
    if shape.class_label is ClassLabel.IBEAM:
        return [
            (np.array([-w / 2, -h / 2]), np.array([w / 2, -h / 2])),
            (np.array([-w / 2, h / 2]), np.array([w / 2, h / 2])),
            (np.array([0.0, -h / 2]), np.array([0.0, h / 2])),
        ]
    return [
        (np.array([0.0, -h / 2]), np.array([0.0, h / 2])),
        (np.array([0.0, -h / 2]), np.array([w, -h / 2])),
        (np.array([0.0, h / 2]), np.array([w, h / 2])),
    ]


def _sample_extrusion(shape: ShapeSpec, rng):
    segments = _profile_segments(shape)
    length = shape.dims["length"]
    e1, e2, a = _frame(shape.axis)
    base = np.asarray(shape.position, dtype=np.float64)
    seg_len = np.array([np.linalg.norm(p1 - p0) for p0, p1 in segments])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    perimeter = cum[-1]

    def along(s: np.ndarray):
        """2D profile point and outward-ish normal at perimeter coordinate s."""
        seg = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(segments) - 1)
        pts2 = np.empty((s.size, 2))
        nrm2 = np.empty((s.size, 2))
        for k, (p0, p1) in enumerate(segments):
            mask = seg == k
            if not mask.any():
                continue
            t = (s[mask] - cum[k]) / seg_len[k]
            pts2[mask] = p0 + t[:, None] * (p1 - p0)
            d = (p1 - p0) / seg_len[k]
            nrm2[mask] = np.array([d[1], -d[0]])
        return pts2, nrm2

    n = max(1, round(shape.density * perimeter * length))
    s = rng.random(n) * perimeter
    v = rng.random(n)
    pts2, nrm2 = along(s)
    pts = base + (v * length)[:, None] * a + pts2[:, :1] * e1 + pts2[:, 1:] * e2
    normals = nrm2[:, :1] * e1 + nrm2[:, 1:] * e2
    m = max(3, round(perimeter * math.sqrt(shape.density)))
    s_edge = (np.arange(m) + 0.5) * perimeter / m

    def edge(b, phase):
        p2, n2 = along(s_edge)
        pts_e = base + b * length * a + p2[:, :1] * e1 + p2[:, 1:] * e2
        return pts_e, n2[:, :1] * e1 + n2[:, 1:] * e2

    return pts, normals, v, edge


def _sample_flange(shape: ShapeSpec, rng):
    r_out, r_in = shape.dims["outer_radius"], shape.dims["bore_radius"]
    r_col, l_col = shape.dims["collar_radius"], shape.dims["collar_length"]
    e1, e2, a = _frame(shape.axis)
    base = np.asarray(shape.position, dtype=np.float64)
    area_ann = math.pi * (r_out**2 - r_in**2)
    area_col = 2.0 * math.pi * r_col * l_col
    n = max(2, round(shape.density * (area_ann + area_col)))
    n_ann = max(1, round(n * area_ann / (area_ann + area_col)))
    n_col = max(1, n - n_ann)

    rho = np.sqrt(rng.random(n_ann) * (r_out**2 - r_in**2) + r_in**2)
    th = rng.uniform(0.0, 2.0 * math.pi, n_ann)
    ann = base + rho[:, None] * (np.cos(th)[:, None] * e1 + np.sin(th)[:, None] * e2)
    ann_nrm = np.tile(a, (n_ann, 1))

    th_c = rng.uniform(0.0, 2.0 * math.pi, n_col)
    v = rng.random(n_col)
    radial = np.cos(th_c)[:, None] * e1 + np.sin(th_c)[:, None] * e2
    col = base + (v * l_col)[:, None] * a + r_col * radial

    pts = np.vstack([ann, col])
    normals = np.vstack([ann_nrm, radial])
    cut = np.concatenate([np.zeros(n_ann), v])
    n_ring = max(8, round(2.0 * math.pi * r_col * math.sqrt(shape.density)))

    def edge(b, phase):
        center = base + b * l_col * a
        ring = _ring(center, e1, e2, r_col, n_ring, phase)
        return ring, (ring - center) / r_col

    return pts, normals, cut, edge


def _sample_valve(shape: ShapeSpec, rng):
    r_body, r_stem = shape.dims["body_radius"], shape.dims["stem_radius"]
    l_stem = shape.dims["stem_length"]
    r_wheel, r_tube = shape.dims["wheel_radius"], shape.dims["wheel_tube_radius"]
    e1, e2, a = _frame(shape.axis)
    base = np.asarray(shape.position, dtype=np.float64)

    areas = np.array([
        4.0 * math.pi * r_body**2,
        2.0 * math.pi * r_stem * l_stem,
        4.0 * math.pi**2 * r_wheel * r_tube,
    ])
    n = max(3, round(shape.density * areas.sum()))
    counts = np.maximum(1, np.round(n * areas / areas.sum()).astype(int))

    z = rng.uniform(-1.0, 1.0, counts[0])
    th = rng.uniform(0.0, 2.0 * math.pi, counts[0])
    s = np.sqrt(1.0 - z**2)
    dirs = (s * np.cos(th))[:, None] * e1 + (s * np.sin(th))[:, None] * e2 + z[:, None] * a
    body = base + r_body * dirs

    th_s = rng.uniform(0.0, 2.0 * math.pi, counts[1])
    v = rng.random(counts[1])
    radial = np.cos(th_s)[:, None] * e1 + np.sin(th_s)[:, None] * e2
    stem = base + (r_body + v * l_stem)[:, None] * a + r_stem * radial

    wheel_center = base + (r_body + l_stem) * a
    phi = rng.uniform(0.0, 2.0 * math.pi, counts[2])
    th_w = _weighted_angle(rng, counts[2], r_wheel, r_tube)
    u_dir = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
    wheel_nrm = np.cos(th_w)[:, None] * u_dir + np.sin(th_w)[:, None] * a
    wheel = wheel_center + r_wheel * u_dir + r_tube * wheel_nrm

    pts = np.vstack([body, stem, wheel])
    normals = np.vstack([dirs, radial, wheel_nrm])
    extent = 2.0 * r_body + l_stem + r_tube
    axial = (pts - base) @ a
    cut = np.clip((axial + r_body) / extent, 0.0, 1.0)
    return pts, normals, cut, None


def _sample_other(shape: ShapeSpec, rng):
    sx, sy, sz = shape.dims["size_x"], shape.dims["size_y"], shape.dims["size_z"]
    base = np.asarray(shape.position, dtype=np.float64)
    area = 2.0 * (sx * sy + sy * sz + sx * sz)
    n = max(1, round(shape.density * area))
    local = rng.random((n, 3)) - 0.5
    pts = base + local * np.array([sx, sy, sz])
    cut = local[:, 0] + 0.5
    return pts, np.zeros((n, 3)), cut, None


# class -> (required dims, each positive; (smaller, larger) dims or None; sampler)
_SHAPES = {
    ClassLabel.CYLINDER: (("radius", "length"), None, _sample_cylinder),
    ClassLabel.ELBOW: (("bend_radius", "tube_radius", "sweep_deg"),
                       ("tube_radius", "bend_radius"), _sample_elbow),
    ClassLabel.IBEAM: (("depth", "width", "length"), None, _sample_extrusion),
    ClassLabel.ANGLE: (("leg_a", "leg_b", "length"), None, _sample_extrusion),
    ClassLabel.CHANNEL: (("depth", "width", "length"), None, _sample_extrusion),
    ClassLabel.FLANGE: (("outer_radius", "bore_radius", "collar_radius", "collar_length"),
                        ("bore_radius", "outer_radius"), _sample_flange),
    ClassLabel.VALVE: (("body_radius", "stem_radius", "stem_length",
                        "wheel_radius", "wheel_tube_radius"),
                       ("wheel_tube_radius", "wheel_radius"), _sample_valve),
    ClassLabel.OTHER: (("size_x", "size_y", "size_z"), None, _sample_other),
}


def _sample(shape: ShapeSpec, rng: np.random.Generator) -> np.ndarray:
    """One shape's surface drawn from ``rng``, with its gaps cut and its noise added."""
    pts, normals, cut, edge = _SHAPES[shape.class_label][2](shape, rng)
    keep = np.ones(cut.shape[0], dtype=bool)
    for lo, hi in shape.gaps:
        keep &= ~((cut > lo) & (cut < hi))
    pts, normals = pts[keep], normals[keep]

    # edge rings at the gap boundaries pin the realized gap width exactly;
    # both edges of one gap share a phase so opposing points align
    if shape.gaps and edge is not None:
        rings = []
        for lo, hi in shape.gaps:
            phase = rng.uniform(0.0, 2.0 * math.pi)
            rings += [edge(lo, phase), edge(hi, phase)]
        pts = np.vstack([pts] + [p for p, _ in rings])
        normals = np.vstack([normals] + [n for _, n in rings])

    if shape.sigma > 0 and normals.any():
        disp = rng.normal(0.0, shape.sigma, pts.shape[0])
        disp = np.clip(disp, -3.0 * shape.sigma, 3.0 * shape.sigma)
        pts = pts + disp[:, None] * normals
    return pts


def sample_shape(shape: ShapeSpec, seed: int = 0) -> np.ndarray:
    """Surface-sample one shape; returns (n, 3) positions."""
    return _sample(shape, _rng(seed, 0))


def generate_scene(spec: SceneSpec) -> LabeledPointCloud:
    """Sample every shape plus clutter into one labeled cloud with exact ground truth.

    Instance ``i`` is shape ``i``; the clutter, if any, is the last instance.
    """
    parts = [(_sample(shape, _rng(spec.seed, i)), shape.class_label)
             for i, shape in enumerate(spec.shapes)]
    if spec.clutter is not None:
        rng = _rng(spec.seed, len(spec.shapes))
        lo = np.asarray(spec.clutter.box_min, dtype=np.float64)
        hi = np.asarray(spec.clutter.box_max, dtype=np.float64)
        parts.append((lo + rng.random((spec.clutter.count, 3)) * (hi - lo), ClassLabel.OTHER))
    if not parts:
        return LabeledPointCloud(np.empty((0, 3)), np.empty(0, dtype=np.int64))
    sizes = [len(pts) for pts, _ in parts]
    return LabeledPointCloud(
        np.vstack([pts for pts, _ in parts]),
        np.repeat(np.array([int(cls) for _, cls in parts], dtype=np.int64), sizes),
        np.repeat(np.arange(len(parts), dtype=np.int64), sizes),
    )


# ---------------------------------------------------------------------------
# Benchmark profiles
# ---------------------------------------------------------------------------

_X_AXIS, _Y_AXIS = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
_IBEAM = {"depth": 0.2, "width": 0.1, "length": 0.5}
_ANGLE = {"leg_a": 0.08, "leg_b": 0.08, "length": 0.5}
_CHANNEL = {"depth": 0.12, "width": 0.05, "length": 0.5}
_FLANGE = {"outer_radius": 0.08, "bore_radius": 0.03, "collar_radius": 0.04, "collar_length": 0.06}
_VALVE = {"body_radius": 0.06, "stem_radius": 0.015, "stem_length": 0.1,
          "wheel_radius": 0.05, "wheel_tube_radius": 0.01}


def _shapes(rows, **common) -> list[ShapeSpec]:
    """Shapes from ``(class, position, dims[, axis])`` rows that share ``common`` fields."""
    return [ShapeSpec(cls, position, dims, *axis, **common)
            for cls, position, dims, *axis in rows]


def _separated_lineup(density: float, sigma: float, gaps=()) -> list[ShapeSpec]:
    """One object per class on a 1m-spaced line; surface gaps far exceed 4cm."""
    return _shapes([
        (ClassLabel.CYLINDER, (0.0, 0.0, 0.0), {"radius": 0.04, "length": 0.5}),
        (ClassLabel.CYLINDER, (1.0, 0.0, 0.0), {"radius": 0.03, "length": 0.4}, _X_AXIS),
        (ClassLabel.ELBOW, (2.0, 0.0, 0.0),
         {"bend_radius": 0.12, "tube_radius": 0.03, "sweep_deg": 90.0}),
        (ClassLabel.IBEAM, (3.0, 0.0, 0.0), _IBEAM),
        (ClassLabel.ANGLE, (4.0, 0.0, 0.0), _ANGLE),
        (ClassLabel.CHANNEL, (5.0, 0.0, 0.0), _CHANNEL),
    ], density=density, sigma=sigma, gaps=gaps) + _shapes([
        (ClassLabel.FLANGE, (6.0, 0.0, 0.0), _FLANGE),
        (ClassLabel.VALVE, (7.0, 0.0, 0.0), _VALVE),
    ], density=density, sigma=sigma)


# Each profile builder returns (shapes, clutter, manifest without "profile").

def _dense():
    return _separated_lineup(25000.0, 0.0005), None, {
        "expect_perfect": True,
        "min_separation": 0.4,
        "max_intra_gap": 0.03,
    }


def _sparse():
    gaps = ((0.30, 0.42), (0.60, 0.72))  # two >4cm scan holes on 0.4-0.5m shapes
    shapes = _separated_lineup(12000.0, 0.0005, gaps=gaps)
    # the elbow arc is only ~0.19m long, so it needs a wider fraction to
    # open a hole that exceeds the 4cm radius even on the bend's inside
    shapes[2] = replace(shapes[2], gaps=((0.28, 0.65),))
    return shapes, None, {
        "expect_over_segmentation": True,
        "gapped_instances": [i for i, s in enumerate(shapes) if s.gaps],
        "min_gap_width": 0.4 * 0.12,
    }


def _gapped():
    gaps = ((0.31, 0.38), (0.64, 0.71))  # two 3.5cm holes split 0.5m shapes in thirds
    return _shapes([
        (ClassLabel.CYLINDER, (0.0, 0.0, 0.0), {"radius": 0.04, "length": 0.5}),
        (ClassLabel.CYLINDER, (1.0, 0.0, 0.0), {"radius": 0.025, "length": 0.5}, _X_AXIS),
        (ClassLabel.IBEAM, (2.0, 0.0, 0.0), _IBEAM),
        (ClassLabel.CHANNEL, (3.0, 0.0, 0.0), _CHANNEL),
    ], density=25000.0, gaps=gaps), None, {
        "gap_width": 0.035,
        "expected_radius_selection": 0.04,
    }


def _cluttered():
    return _shapes([
        # same-class pair 2cm apart: expected to merge at the 4cm radius
        (ClassLabel.CYLINDER, (0.0, 0.0, 0.0), {"radius": 0.04, "length": 0.5}),
        (ClassLabel.CYLINDER, (0.10, 0.0, 0.0), {"radius": 0.04, "length": 0.5}),
        (ClassLabel.VALVE, (1.0, 0.0, 0.0), _VALVE),
        (ClassLabel.ANGLE, (2.0, 0.0, 0.0), _ANGLE),
        (ClassLabel.CYLINDER, (3.0, 0.0, 0.0), {"radius": 0.03, "length": 0.5}),
    ], density=20000.0), ClutterSpec(2500, (2.85, -0.15, -0.05), (3.15, 0.15, 0.55)), {
        "expect_under_segmentation": True,
        "merged_instances": [0, 1],
        "pair_gap": 0.02,
    }


def _refinery_like():
    pipe = {"radius": 0.02, "length": 0.6}
    junction = {"radius": 0.05, "length": 0.4}
    return _shapes([
        # conduit bundle: three parallel runs with 2cm clearances
        (ClassLabel.CYLINDER, (0.0, 0.0, 0.0), pipe),
        (ClassLabel.CYLINDER, (0.06, 0.0, 0.0), pipe),
        (ClassLabel.CYLINDER, (0.12, 0.0, 0.0), pipe),
        # welded frame: two touching I-beams
        (ClassLabel.IBEAM, (1.0, 0.0, 0.0), _IBEAM),
        (ClassLabel.IBEAM, (1.0, 0.0, 0.5), _IBEAM, _Y_AXIS),
        # pipe junction: coaxial cylinders fused end to end
        (ClassLabel.CYLINDER, (2.0, 0.0, 0.0), junction),
        (ClassLabel.CYLINDER, (2.0, 0.0, 0.4), junction),
        # flange seated on a pipe end: classes differ, boundary splits them
        (ClassLabel.CYLINDER, (3.0, 0.0, 0.0), {"radius": 0.04, "length": 0.4}),
        (ClassLabel.FLANGE, (3.0, 0.0, 0.4), _FLANGE),
        (ClassLabel.VALVE, (4.0, 0.0, 0.0), _VALVE),
        (ClassLabel.ELBOW, (5.0, 0.0, 0.0),
         {"bend_radius": 0.12, "tube_radius": 0.03, "sweep_deg": 180.0}),
    ], density=30000.0), ClutterSpec(4000, (6.0, -0.3, -0.1), (7.0, 0.3, 0.7)), {
        "expect_mixed": True,
        "merged_groups": [[0, 1, 2], [3, 4], [5, 6]],
        "split_by_boundary": [7, 8],
    }


_PROFILES = {"sparse": _sparse, "dense": _dense, "cluttered": _cluttered,
             "refinery-like": _refinery_like, "gapped": _gapped}
PROFILE_NAMES = tuple(_PROFILES)


def make_benchmark_suite(profile: str, seed: int = 0) -> list[tuple[SceneSpec, dict]]:
    """Scenes plus machine-readable expectations for a named benchmark profile."""
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}; known: {', '.join(PROFILE_NAMES)}")
    shapes, clutter, manifest = _PROFILES[profile]()
    return [(SceneSpec(tuple(shapes), seed=seed, clutter=clutter),
             {"profile": profile, **manifest})]

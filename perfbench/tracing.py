"""In-memory span tracer that times calls into cloiseg's public functions.

The tracer changes nothing in the package. While installed it replaces each
traced public function (and the two `RadiusIndex` methods) with a wrapper in
every loaded ``cloiseg`` module that holds a reference to it, so internal
calls such as ``sweep_mu -> segment -> segment_with_details`` nest as parent
and child spans. ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import asdict, dataclass, field

#: layer (module of cloiseg) -> its traced public callables
TRACED = {
    "model": ("load_pts", "save_pts"),
    "spatial": ("RadiusIndex.__init__", "RadiusIndex.pairs_within"),
    "boundary": ("detect_class_boundaries",),
    "segmentation": ("segment", "segment_with_details", "connected_components",
                     "segment_single_object"),
    "evaluation": ("score", "rec_ins"),
    "sweep": ("sweep_mu", "sweep_epsilon", "sweep_radius_per_object",
              "facility_bias_report", "write_csv"),
    "cli": ("main",),
    "synth": ("generate_scene",),
}


def _rows(args, kwargs, result) -> dict:
    rows = result[0] if isinstance(result, tuple) else result
    return {"rows": len(rows)} if isinstance(rows, list) else {}


#: span attributes recorded from a traced call's arguments and result
ANNOTATE = {
    "model.load_pts": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    "model.save_pts": lambda a, k, r: {"bytes": os.path.getsize(a[1])},
    "spatial.RadiusIndex.pairs_within": lambda a, k, r: {"pairs": int(len(r))},
    "sweep.sweep_mu": _rows,
    "sweep.sweep_epsilon": _rows,
    "sweep.sweep_radius_per_object": _rows,
    "sweep.facility_bias_report": _rows,
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; spans opened while another is open become its children."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, **attrs):
        return _SpanContext(self, name, attrs)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter(), 0.0, self.run_id)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        """Wrap every traced callable in all loaded cloiseg modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "cloiseg" or n.startswith("cloiseg.")) and m is not None]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"cloiseg.{layer}")
            for attr in names:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, meth, self._wrap(f"{layer}.{attr}", vars(cls)[meth]))
                    continue
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    def children(self) -> dict[int, list[Span]]:
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        return kids

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its (sequential) child spans cover."""
        kids = self.children()
        return {s.id: s.duration - sum(c.duration for c in kids.get(s.id, ()))
                for s in self.spans}

    def descendants(self, root: Span) -> list[Span]:
        kids = self.children()
        out, todo = [], [root]
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(kids.get(s.id, ()))
        return out

    def to_json(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> Span:
        self.span = self.tracer._open(self.name)
        self.span.attrs.update(self.attrs)
        return self.span

    def __exit__(self, *exc) -> None:
        self.tracer._close(self.span)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]

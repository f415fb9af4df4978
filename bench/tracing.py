"""In-memory span tracer for the traced benchmark run.

Wrappers are installed from outside the program, on the module attributes
that camtrack3d's modules look up at call time, and removed afterwards:

* a *span* wrapper records one span per call. With no span open it starts
  a root span (one per frame, carrying the frame id); inside one it is a
  child span of the innermost open span and carries the same frame id;
* an *aggregate* wrapper is for hot calls (geometry): per enclosing span it
  adds a call count and summed time instead of recording a span;
* a *counter* wrapper adds a call count and summed time to run totals. It
  is for calls outside any frame, including calls from the listener's
  reader thread, so it takes a lock.

A span's self time is its duration minus its child spans and aggregated
calls. Spans are kept in memory; :meth:`Tracer.write` saves them as JSON
lines when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

clock = time.perf_counter


class Span:
    __slots__ = ("name", "frame", "parent", "start", "end", "child_s", "agg")

    def __init__(self, name, frame, parent, start):
        self.name = name
        self.frame = frame
        self.parent = parent
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.agg: dict[str, list] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s - sum(s for _, s in self.agg.values())


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.totals: dict[str, list] = {}
        self._open: list[Span] = []
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- wrappers

    def span(self, name, fn, frame_of=None):
        def wrapper(*args, **kw):
            parent = self._open[-1] if self._open else None
            if parent is not None:
                frame = parent.frame
            else:
                frame = frame_of(args) if frame_of is not None else None
            sp = Span(name, frame, parent, clock())
            self._open.append(sp)
            try:
                return fn(*args, **kw)
            finally:
                sp.end = clock()
                self._open.pop()
                if parent is not None:
                    parent.child_s += sp.duration
                self.spans.append(sp)
        return wrapper

    def aggregate(self, name, fn):
        def wrapper(*args, **kw):
            t0 = clock()
            try:
                return fn(*args, **kw)
            finally:
                dt = clock() - t0
                if self._open:
                    entry = self._open[-1].agg.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += dt
                else:
                    self._add_total(name, dt)
        return wrapper

    def counter(self, name, fn):
        def wrapper(*args, **kw):
            t0 = clock()
            try:
                return fn(*args, **kw)
            finally:
                self._add_total(name, clock() - t0)
        return wrapper

    def _add_total(self, name, dt):
        with self._lock:
            entry = self.totals.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += dt

    @contextmanager
    def frame(self, name, frame_id):
        """A root span opened by the benchmark around one frame of work."""
        sp = Span(name, frame_id, None, clock())
        self._open.append(sp)
        try:
            yield
        finally:
            sp.end = clock()
            self._open.pop()
            self.spans.append(sp)

    # ------------------------------------------------------------- summaries

    def roots(self, name) -> list[Span]:
        return [s for s in self.spans if s.parent is None and s.name == name]

    def per_name(self) -> dict[str, dict]:
        """Per span or aggregated-call name: calls, total and self seconds."""
        out: dict[str, dict] = {}
        for s in self.spans:
            e = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            e["calls"] += 1
            e["total_s"] += s.duration
            e["self_s"] += s.self_s
            for name, (n, secs) in s.agg.items():
                a = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                a["calls"] += n
                a["total_s"] += secs
                a["self_s"] += secs
        for name, (n, secs) in self.totals.items():
            a = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            a["calls"] += n
            a["total_s"] += secs
            a["self_s"] += secs
        return out

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "frame": s.frame,
                    "parent": None if s.parent is None else index[id(s.parent)],
                    "start": s.start, "end": s.end, "self_s": s.self_s,
                    "agg": {k: {"calls": n, "s": secs} for k, (n, secs) in s.agg.items()},
                }) + "\n")
            f.write(json.dumps({"totals": {k: {"calls": n, "s": secs}
                                           for k, (n, secs) in self.totals.items()}})
                    + "\n")


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers on camtrack3d for the duration of the block."""
    from camtrack3d import association, features, hub, netproto, tracker

    patches = []

    def patch(owner, attr, make):
        orig = getattr(owner, attr)
        patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    # hub: the frame loop; each process_frame call is one frame's root span
    patch(hub, "process_frame",
          lambda f: tracer.span("hub.process_frame", f, frame_of=lambda a: a[1].frame))
    for attr in ("predict", "assign", "resolve_shared", "update",
                 "gate_claimed_features", "spawn_targets", "cull_targets"):
        patch(hub, attr, lambda f, attr=attr: tracer.span(attr, f))
    patch(hub, "feature_from_row", lambda f: tracer.aggregate("feature_from_row", f))
    # association: the geometry it calls, aggregated per enclosing stage
    for attr in ("project", "pixel_ray", "triangulate", "mahalanobis_closest_point"):
        patch(association, attr, lambda f, attr=attr: tracer.aggregate(attr, f))
    # tracker: the row writer, one root span per written frame
    patch(tracker.TrajectoryWriter, "write_frame",
          lambda f: tracer.span("write_frame", f, frame_of=lambda a: a[1]))
    # features: the camera node's stages and its distortion correction
    patch(features, "update_background", lambda f: tracer.span("update_background", f))
    patch(features, "extract_features", lambda f: tracer.span("extract_features", f))
    patch(features, "correct_distortion",
          lambda f: tracer.aggregate("correct_distortion", f))
    # netproto: encode is a stage of the camera node's frame; decode runs
    # on the listener's reader thread and feed between frames
    patch(netproto, "encode", lambda f: tracer.span("encode", f))
    patch(netproto, "decode", lambda f: tracer.counter("decode", f))
    patch(netproto.FrameAssembler, "feed", lambda f: tracer.counter("feed", f))
    try:
        yield tracer
    finally:
        for owner, attr, orig in reversed(patches):
            setattr(owner, attr, orig)

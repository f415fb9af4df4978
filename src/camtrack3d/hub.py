"""The central tracking loop: per assembled frame, predict every target,
associate features, resolve shared assignments, update, spawn new targets
from unclaimed features and cull lost ones.

Processing is single-threaded and deterministic: identical assembled-frame
sequences and configuration produce bit-identical trajectory output.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .association import (
    AssignmentMatrix,
    GateConfig,
    LikelihoodCounters,
    SpawnStats,
    assign,
    cull_targets,
    gate_claimed_features,
    pair_table,
    resolve_shared,
    spawn_targets,
)
from .features import Feature, feature_from_row
from .netproto import AssembledFrame
from .tracker import (
    ObservationModel,
    ProcessModel,
    SingularInnovation,
    TargetState,
    TrajectoryWriter,
    predict,
    update,
)

log = logging.getLogger(__name__)


@dataclass
class RunStats:
    frames: int = 0
    births: int = 0
    deaths: int = 0
    singular_drops: int = 0
    nonfinite_rows: int = 0  # feature rows dropped at ingress
    latencies: list = field(default_factory=list)
    likelihood: LikelihoodCounters = field(default_factory=LikelihoodCounters)
    spawn: SpawnStats = field(default_factory=SpawnStats)

    def latency_percentiles(self) -> dict[str, float]:
        if not self.latencies:
            return {}
        ls = np.asarray(self.latencies)
        return {"p50": float(np.percentile(ls, 50)),
                "p90": float(np.percentile(ls, 90)),
                "p99": float(np.percentile(ls, 99))}

    def summary(self) -> dict:
        out = {"frames": self.frames, "births": self.births,
               "deaths": self.deaths, "singular_drops": self.singular_drops,
               "nonfinite_rows": self.nonfinite_rows}
        out.update({f"latency_{k}": v for k, v in self.latency_percentiles().items()})
        return out


@dataclass
class FrameEvents:
    frame: int
    births: list[int]
    deaths: list[int]
    latency: float
    assignments: AssignmentMatrix | None = None
    birth_features: set = field(default_factory=set)  # (cam_id, index) consumed


@dataclass
class TrackerWorld:
    """All mutable tracking state for one run."""

    process: ProcessModel
    observation: ObservationModel
    gate: GateConfig
    targets: list[TargetState] = field(default_factory=list)
    next_target_id: int = 0
    frame_counter: int | None = None  # latched to first frame - 1
    stats: RunStats = field(default_factory=RunStats)

    def live_posteriors(self) -> list[TargetState]:
        return sorted(self.targets, key=lambda t: t.target_id)


def _frame_features(aframe: AssembledFrame, stats: RunStats) -> dict[str, list[Feature]]:
    """The frame's feature rows as Features, per camera. Rows holding a NaN
    or an infinity are dropped and counted: no gate rejects them reliably,
    and they break the birth search's triangulation."""
    out: dict[str, list[Feature]] = {}
    for cam_id, rows in aframe.features_by_camera.items():
        rows = np.asarray(rows, dtype=float).reshape(-1, 6)
        finite = np.isfinite(rows).all(axis=1)
        stats.nonfinite_rows += int(np.count_nonzero(~finite))
        out[cam_id] = [feature_from_row(r) for r in rows[finite]]
    return out


def process_frame(world: TrackerWorld, aframe: AssembledFrame,
                  receipt_time: float | None = None) -> list[FrameEvents]:
    """Advance the world through `aframe`.

    Frames skipped by assembly are processed as all-missing so the
    constant-dt process model stays valid; one FrameEvents per processed
    frame is returned (gap frames included, the given frame last).
    """
    if world.frame_counter is None:
        world.frame_counter = aframe.frame - 1
    if aframe.frame <= world.frame_counter:
        raise ValueError(
            f"frame {aframe.frame} not ahead of counter {world.frame_counter}")
    events = []
    while world.frame_counter + 1 < aframe.frame:
        gap = AssembledFrame(frame=world.frame_counter + 1, features_by_camera={},
                             complete=False, latency=0.0,
                             timestamp_us=aframe.timestamp_us)
        events.append(_process_one(world, gap, None))
    events.append(_process_one(world, aframe, receipt_time))
    return events


def _process_one(world: TrackerWorld, aframe: AssembledFrame,
                 receipt_time: float | None) -> FrameEvents:
    t0 = time.perf_counter() if receipt_time is None else receipt_time
    cameras = world.observation.cameras
    features = _frame_features(aframe, world.stats)

    # 1: predict
    priors = [predict(t, world.process) for t in world.targets]
    # every (target, camera, feature) pair, scored once for steps 2, 3 and 5
    table = pair_table(features, priors, cameras)
    # 2: associate
    assignments = assign(features, priors, cameras, world.gate,
                         world.stats.likelihood, table=table)
    # 3: shared-measurement resolution (merge prevention)
    assignments = resolve_shared(assignments, priors, features, cameras, table=table)
    # 4: update
    posteriors = []
    for prior in priors:
        col = assignments.columns[prior.target_id]
        obs = []
        for cam, idx in zip(cameras, col):
            if idx is not None:
                z = features[cam.cam_id][idx]
                obs.append((cam, (z.u, z.v)))
        try:
            posteriors.append(update(prior, obs, world.observation))
        except SingularInnovation:
            world.stats.singular_drops += 1
            log.warning("frame %d target %d: singular innovation, update dropped",
                        aframe.frame, prior.target_id)
            posteriors.append(update(prior, [], world.observation))

    # 5: birth from unclaimed features; a feature counts as claimed when a
    # track selected it OR when it falls inside any track's image gate
    # (else clutter next to a live target seeds a duplicate that fights it)
    claimed = assignments.claimed()
    claimed |= gate_claimed_features(features, priors, cameras, world.gate, table=table)
    unclaimed = {
        cam_id: [(j, z) for j, z in enumerate(lst) if (cam_id, j) not in claimed]
        for cam_id, lst in features.items()}
    born, birth_features = spawn_targets(unclaimed, cameras, world.gate,
                                         aframe.frame, world.next_target_id,
                                         world.stats.spawn)
    world.next_target_id += len(born)
    # 6: death by covariance threshold
    kept, removed = cull_targets(posteriors + born, world.gate)
    latency = time.perf_counter() - t0

    world.targets = kept
    world.frame_counter = aframe.frame
    world.stats.frames += 1
    world.stats.births += len(born)
    world.stats.deaths += len(removed)
    world.stats.latencies.append(latency)
    return FrameEvents(frame=aframe.frame,
                       births=[t.target_id for t in born],
                       deaths=[t.target_id for t in removed],
                       latency=latency,
                       assignments=assignments,
                       birth_features=birth_features)


def run(source: Iterable[AssembledFrame], world: TrackerWorld,
        trajectory_path=None, dump_assignments_path=None) -> RunStats:
    """Drive :func:`process_frame` over a stream of assembled frames,
    writing the trajectory CSV as frames complete (each row is flushed
    before the next frame is processed)."""
    writer = TrajectoryWriter(trajectory_path) if trajectory_path is not None else None
    dump = open(dump_assignments_path, "w") if dump_assignments_path else None
    try:
        for aframe in source:
            for ev in process_frame(world, aframe):
                if writer is not None:
                    writer.write_frame(ev.frame, world.live_posteriors())
                if dump is not None:
                    cols = {str(tid): [i for i in col]
                            for tid, col in ev.assignments.columns.items()}
                    dump.write(json.dumps({"frame": ev.frame, "assignments": cols,
                                           "births": ev.births,
                                           "deaths": ev.deaths}) + "\n")
    finally:
        if writer is not None:
            writer.close()
        if dump is not None:
            dump.close()
    return world.stats


def assembled_frames_from_records(records: Iterable[dict],
                                  complete_cameras: int | None = None
                                  ) -> list[AssembledFrame]:
    """Group feature JSONL records (one per frame and camera) into
    assembled frames, ordered by frame number."""
    by_frame: dict[int, dict[str, np.ndarray]] = {}
    ts: dict[int, int] = {}
    for rec in records:
        f = int(rec["frame"])
        rows = np.asarray(rec.get("features", []), dtype=float).reshape(-1, 6)
        by_frame.setdefault(f, {})[rec["cam"]] = rows
        ts.setdefault(f, round(float(rec.get("t", 0.0)) * 1e6))
    out = []
    for f in sorted(by_frame):
        cams = by_frame[f]
        complete = (complete_cameras is None) or (len(cams) == complete_cameras)
        out.append(AssembledFrame(frame=f, features_by_camera=cams,
                                  complete=complete, latency=0.0,
                                  timestamp_us=ts[f]))
    return out


def packets_to_assembled(packets_by_frame: Sequence[Sequence],
                         n_cameras: int) -> list[AssembledFrame]:
    """Offline deterministic assembly of the simulation harness's
    per-frame packet lists (no clock involved)."""
    out = []
    for per_cam in packets_by_frame:
        if not per_cam:
            continue
        feats = {p.cam_id: p.features for p in per_cam}
        out.append(AssembledFrame(frame=per_cam[0].frame,
                                  features_by_camera=feats,
                                  complete=len(feats) == n_cameras,
                                  latency=0.0,
                                  timestamp_us=per_cam[0].timestamp_us))
    return out

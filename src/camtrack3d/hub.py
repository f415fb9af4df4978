"""The central tracking loop: per assembled frame, predict every target,
associate features, resolve shared assignments, update, spawn new targets
from unclaimed features and cull lost ones. Each stage is one call per
frame over all of the frame's targets.

Features stay the (n, 6) float rows of each camera's packet from ingress
to the birth search; rows that are not finite are dropped and counted
first. Every (target, camera, feature) pair is scored once per frame into
an :class:`~camtrack3d.association.PairTable`, which assignment, merge
resolution and the gate-claim test read.

Processing is single-threaded and deterministic: identical assembled-frame
sequences and configuration produce bit-identical trajectory output.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field
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
# not called here; the traced benchmark wraps hub.feature_from_row by name
from .features import feature_from_row  # noqa: F401
from .metrics import latency_percentiles
from .netproto import AssembledFrame
from .tracker import (
    ObservationModel,
    ProcessModel,
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
    gap_drops: int = 0  # frames past the death horizon that no frame confirmed
    latencies: list = field(default_factory=list)
    likelihood: LikelihoodCounters = field(default_factory=LikelihoodCounters)
    spawn: SpawnStats = field(default_factory=SpawnStats)

    def latency_percentiles(self) -> dict[str, float]:
        return latency_percentiles(self.latencies)

    def summary(self) -> dict:
        out = {"frames": self.frames, "births": self.births,
               "deaths": self.deaths, "singular_drops": self.singular_drops,
               "nonfinite_rows": self.nonfinite_rows, "gap_drops": self.gap_drops}
        out.update({f"likelihood_{k}": v for k, v in asdict(self.likelihood).items()})
        out.update({f"spawn_{k}": v for k, v in asdict(self.spawn).items()})
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
    # a frame past the death horizon and its receipt time, waiting for the
    # next frame (see process_frame)
    held: tuple[AssembledFrame, float | None] | None = None

    def live_posteriors(self) -> list[TargetState]:
        return sorted(self.targets, key=lambda t: t.target_id)


def _frame_features(aframe: AssembledFrame, stats: RunStats) -> dict[str, np.ndarray]:
    """The frame's finite feature rows, an (n, 6) float array per camera.
    Rows holding a NaN or an infinity are dropped and counted: no gate
    rejects them reliably, and they break the birth search's
    triangulation."""
    out: dict[str, np.ndarray] = {}
    for cam_id, rows in aframe.features_by_camera.items():
        rows = np.asarray(rows, dtype=float).reshape(-1, 6)
        finite = np.isfinite(rows).all(axis=1)
        stats.nonfinite_rows += int(np.count_nonzero(~finite))
        out[cam_id] = rows[finite]
    return out


def death_horizon(world: TrackerWorld) -> float:
    """Number of frames without an update after which
    :func:`~camtrack3d.association.cull_targets` has removed every target
    of `world`, whatever its covariance: k predictions add
    ``k q_pos + q_vel dt^2 (k-1) k (2k-1) / 6`` to each position variance
    (the noise accumulated from a zero covariance). Infinite when that sum
    never passes the death threshold."""
    pm, threshold = world.process, world.gate.death_covariance_threshold

    def grown(k: int) -> float:
        return k * pm.q_pos + pm.q_vel * pm.dt * pm.dt * ((k - 1) * k * (2 * k - 1) // 6)

    if not grown(2**62) > threshold:
        return math.inf
    lo, hi = 0, 1
    while not grown(hi) > threshold:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if grown(mid) > threshold else (mid, hi)
    return hi


def process_frame(world: TrackerWorld, aframe: AssembledFrame,
                  receipt_time: float | None = None) -> list[FrameEvents]:
    """Advance the world through `aframe`.

    Frames skipped by assembly are processed as all-missing so the
    constant-dt process model stays valid; one FrameEvents per processed
    frame is returned (gap frames included, the given frame last).

    A gap of at least :func:`death_horizon` frames would end every target,
    so a frame that far ahead waits for the next one. When the next frame
    is further ahead still, it confirms the new numbering and the events
    of both are returned; otherwise the waiting frame is taken for a
    corrupt frame number, dropped and counted (``RunStats.gap_drops``).
    Once a gap has emptied the world, the rest of it is skipped (no
    FrameEvents) when at least the horizon is left, since nothing would
    happen in it; no gap costs more than twice the horizon in frames. With
    no process noise the horizon is infinite, and every gap is predicted
    through frame by frame.
    """
    if world.frame_counter is None:
        world.frame_counter = aframe.frame - 1
    if aframe.frame <= world.frame_counter:
        raise ValueError(
            f"frame {aframe.frame} not ahead of counter {world.frame_counter}")
    events = []
    if world.held is not None:
        (held, held_receipt), world.held = world.held, None
        if held.frame < aframe.frame:
            events = _advance(world, held, held_receipt)
        else:
            world.stats.gap_drops += 1
            log.warning("frame %d: %d frames ahead of frame %d, and frame %d "
                        "follows it; dropped", held.frame,
                        held.frame - world.frame_counter, world.frame_counter,
                        aframe.frame)
    gap = aframe.frame - world.frame_counter - 1
    if gap and gap >= death_horizon(world):
        world.held = (aframe, receipt_time)
        return events
    return events + _advance(world, aframe, receipt_time)


def _advance(world: TrackerWorld, aframe: AssembledFrame,
             receipt_time: float | None) -> list[FrameEvents]:
    events = []
    while world.frame_counter + 1 < aframe.frame:
        left = aframe.frame - world.frame_counter - 1
        if not world.targets and left >= death_horizon(world):
            world.frame_counter = aframe.frame - 1
            break
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
    priors = predict(world.targets, world.process)
    # every (target, camera, feature) pair, scored once for steps 2, 3 and 5
    table = pair_table(features, priors, cameras)
    # 2: associate
    assignments = assign(table, world.gate, world.stats.likelihood)
    # 3: shared-measurement resolution (merge prevention)
    assignments = resolve_shared(assignments, table)
    # 4: update
    observations = [[(cam, features[cam.cam_id][idx, :2])
                     for cam, idx in zip(cameras, assignments.columns[p.target_id])
                     if idx is not None] for p in priors]
    posteriors, dropped = update(priors, observations, world.observation)
    world.stats.singular_drops += len(dropped)
    for tid in dropped:
        log.warning("frame %d target %d: singular innovation, update dropped",
                    aframe.frame, tid)

    # 5: birth from unclaimed features; a feature counts as claimed when a
    # track selected it OR when it falls inside any track's image gate
    # (else clutter next to a live target seeds a duplicate that fights it)
    claimed = assignments.claimed() | gate_claimed_features(table, world.gate)
    born, birth_features = spawn_targets(features, claimed, cameras, world.gate,
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
        if world.held is not None:  # nothing came after it to confirm it
            world.held = None
            world.stats.gap_drops += 1
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

"""The central tracking loop: per assembled frame, predict every target,
associate features, resolve shared assignments, update, spawn new targets
from unclaimed features and cull lost ones. Each stage works on all of
the frame's targets at once.

The frame state is stacked from ingress to trajectory row. At ingress the
cameras' (n, 6) float rows become one
:class:`~camtrack3d.association.FrameFeatures` table, with rows that are
not finite, rows of cameras outside the rig and rows past the per-camera
cap dropped and counted, and each row is back-projected once, for the pair
table and the birth search alike. The world keeps its targets as one
:class:`~camtrack3d.tracker.Targets` stack in id order, which predict,
update and cull read and replace. The priors' terms that read no feature
are one record, an :class:`~camtrack3d.tracker.Information`: their
predicted pixels through every camera, the EKF update's Jacobian rows and
information ``C^T C / r_px``, and the inverse position covariances. Every
(target, camera, feature) pair is scored once from it into a
:class:`~camtrack3d.association.PairTable`, which assignment, merge
resolution and the gate-claim test read, and the update reads the same
record. ``RunStats.stages`` sums the time of each stage.

Most of a frame's work reads no feature: the priors and their
:class:`~camtrack3d.tracker.Information`. :func:`run` makes them with
:func:`prepare` in the idle gap after a frame's rows are written and
flushed and before it asks for the next frame, together with the update's
covariance half for a guess of each target's cameras (those that have its
predicted position in front of them and inside their image). The next
frame uses them while the world's targets and models are the objects they
were made from, and its update takes the guessed covariance half when
every target's cameras are those guessed. Otherwise, and for a frame with
nothing prepared, the frame computes them with the same code, so the
output bits do not depend on what was prepared. Trajectory rows are
formatted when they are written.

Every source of frames goes through
:class:`~camtrack3d.netproto.FrameAssembler`: live packets, a feature
file and the simulation harness's packet lists (:func:`packets_to_assembled`)
alike. It emits frames in increasing order and drops a lone frame number
far past its camera's last, so the hub predicts through every gap it is
given while targets live, and skips the rest of it once none do.

Processing is single-threaded and deterministic: identical assembled-frame
sequences and configuration produce bit-identical trajectory output.
"""

from __future__ import annotations

import itertools
import json
import logging
import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .association import (
    _NO_ROWS,
    AssignmentMatrix,
    FrameFeatures,
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
from .geometry import Rig
from .metrics import latency_percentiles
from .netproto import AssembledFrame, FrameAssembler, FramePacket, assemble
from .tracker import (
    Information,
    ObservationModel,
    Posterior,
    ProcessModel,
    Targets,
    TargetState,
    TrajectoryWriter,
    posterior,
    predict,
    update,
)

log = logging.getLogger(__name__)
MAX_ROWS_PER_CAMERA = 32  # cameras send 10 by default; no recorded scene has over 12


@dataclass
class StageTimes:
    """Seconds spent in each stage of the frame loop, summed over frames:
    ingress (the feature table), predict (the priors and their
    :class:`~camtrack3d.tracker.Information`), score (the pair table),
    assign, resolve, update, claim (the claimed features), spawn and cull,
    then, between frames, write (:func:`run`'s trajectory rows) and prepare
    (:func:`prepare`). Predict is a lookup when the frame was prepared, and
    update mostly one when every target's cameras were guessed."""

    ingress: float = 0.0
    predict: float = 0.0
    score: float = 0.0
    assign: float = 0.0
    resolve: float = 0.0
    update: float = 0.0
    claim: float = 0.0
    spawn: float = 0.0
    cull: float = 0.0
    write: float = 0.0
    prepare: float = 0.0

    def lap(self, stage: str, since: float) -> float:
        """Add the time from `since` to now to `stage`; returns now."""
        now = time.perf_counter()
        setattr(self, stage, getattr(self, stage) + (now - since))
        return now


@dataclass
class RunStats:
    """Counters and times of a run. ``frames`` counts the frames processed,
    not the gap frames skipped once the world is empty (see
    :func:`process_frame`). ``latencies`` holds each frame's time from
    the start of its processing to its last stage; it
    and the frame stages exclude ``stages.write`` and ``stages.prepare``,
    the work done between frames, so ``stages.prepare`` plus the frame
    stages plus ``stages.write`` is the hub's CPU time per frame."""

    frames: int = 0
    births: int = 0
    deaths: int = 0
    singular_drops: int = 0
    nonfinite_rows: int = 0  # feature rows dropped at ingress
    capped_rows: int = 0  # finite rows of a camera past MAX_ROWS_PER_CAMERA, dropped
    unknown_camera_rows: int = 0  # finite rows of cameras outside the rig, dropped
    latencies: list = field(default_factory=list)
    likelihood: LikelihoodCounters = field(default_factory=LikelihoodCounters)
    spawn: SpawnStats = field(default_factory=SpawnStats)
    stages: StageTimes = field(default_factory=StageTimes)

    def latency_percentiles(self) -> dict[str, float]:
        return latency_percentiles(self.latencies)

    def summary(self) -> dict:
        out = {"frames": self.frames, "births": self.births,
               "deaths": self.deaths, "singular_drops": self.singular_drops,
               "nonfinite_rows": self.nonfinite_rows, "capped_rows": self.capped_rows,
               "unknown_camera_rows": self.unknown_camera_rows}
        out.update({f"likelihood_{k}": v for k, v in asdict(self.likelihood).items()})
        out.update({f"spawn_{k}": v for k, v in asdict(self.spawn).items()})
        out.update({f"stage_{k}_s": v for k, v in asdict(self.stages).items()})
        out.update({f"latency_{k}": v for k, v in self.latency_percentiles().items()})
        return out


@dataclass
class FrameEvents:
    frame: int
    births: list[int]
    deaths: list[int]
    latency: float
    targets: Targets  # the live targets this frame left, in id order
    assignments: AssignmentMatrix | None = None
    birth_features: set = field(default_factory=set)  # (cam_id, index) consumed


@dataclass
class TrackerWorld:
    """All mutable tracking state for one run."""

    process: ProcessModel
    observation: ObservationModel
    gate: GateConfig
    live: Targets = field(default_factory=lambda: Targets.of([]))  # in id order
    next_target_id: int = 0
    frame_counter: int | None = None  # latched to first frame - 1
    stats: RunStats = field(default_factory=RunStats)
    prepared: Prepared | None = None  # made by prepare for the next frame

    @property
    def targets(self) -> list[TargetState]:
        """The live targets in id order, as states: a new list on every
        read, so changing it changes nothing in the world."""
        return self.live.states()

    def live_posteriors(self) -> list[TargetState]:
        return self.targets


@dataclass(frozen=True, eq=False)
class Prepared:
    """What the next frame computes before reading its features, made from
    `live` under `process` and the observation model of `guess`: the EKF
    update's covariance half for the guessed cameras
    (:class:`~camtrack3d.tracker.Posterior`, which holds the priors'
    :class:`~camtrack3d.tracker.Information`, the terms the pair table and
    the update read, and with it the priors and that model)."""

    live: Targets
    process: ProcessModel
    guess: Posterior

    def fits(self, world: TrackerWorld) -> bool:
        """Whether these are still the world's targets and models."""
        return (self.live is world.live and self.process is world.process
                and self.guess.info.om is world.observation)


def prepare(world: TrackerWorld) -> None:
    """Make the next frame's priors and their
    :class:`~camtrack3d.tracker.Information` (the pair table's per-target
    terms and the measurement update's terms for every camera that
    projects each prior), from the world's live targets alone, and keep
    them in ``world.prepared``. Then make the update's covariance half for
    the cameras that have each target's predicted position in front of them
    and inside their image, the cameras likely to see it. Timed into
    ``RunStats.stages.prepare``; nothing is redone while the world's targets
    and models are those it was made from."""
    if world.prepared is not None and world.prepared.fits(world):
        return
    t = time.perf_counter()
    live, om = world.live, world.observation
    info = Information.of(predict(live, world.process), om)
    guess = posterior(info, om.rig.viewing(info.h, info.ok))
    world.prepared = Prepared(live, world.process, guess)
    world.stats.stages.lap("prepare", t)


def _frame_features(aframe: AssembledFrame, rig: Rig, stats: RunStats) -> FrameFeatures:
    """The frame's finite feature rows as one table over the rig's
    cameras. Rows holding a NaN or an infinity are dropped and counted,
    those of cameras outside the rig included: no gate rejects them
    reliably, and they break the birth search's triangulation. The finite
    rows of cameras outside the rig are dropped and counted apart. A camera
    keeps its :data:`MAX_ROWS_PER_CAMERA` finite rows of largest peak, in
    their order; the rest are counted (``capped_rows``)."""
    feats = aframe.features_by_camera
    blocks = [np.asarray(feats.get(cam_id, _NO_ROWS), dtype=float).reshape(-1, 6)
              for cam_id in rig.ids]
    counts = [len(b) for b in blocks]
    n = sum(counts)
    blocks += [np.asarray(rows, dtype=float).reshape(-1, 6)
               for cam_id, rows in feats.items() if cam_id not in rig.column]
    rows = np.concatenate(blocks)
    finite = np.isfinite(rows).all(axis=1)
    if len(rows) > n:
        stats.unknown_camera_rows += int(np.count_nonzero(finite[n:]))
    keep = finite[:n]
    if not finite.all() or max(counts, default=0) > MAX_ROWS_PER_CAMERA:
        stats.nonfinite_rows += int(np.count_nonzero(~finite))
        cam = np.repeat(np.arange(len(counts)), counts)
        # by camera, then peak, largest first (non-finite last), then row; a
        # row's rank in its camera is its place less its camera's first place
        order = np.lexsort((np.where(keep, -rows[:n, 3], np.inf), cam))
        over = order[np.arange(n) - (np.cumsum(counts) - counts)[cam] >= MAX_ROWS_PER_CAMERA]
        stats.capped_rows += int(np.count_nonzero(keep[over]))
        keep[over] = False
        counts = np.bincount(cam[keep], minlength=len(counts)).tolist()
        rows = rows[:n][keep]
    return FrameFeatures.stack(rows[:n], counts, rig)


def process_frame(world: TrackerWorld, aframe: AssembledFrame) -> list[FrameEvents]:
    """Advance the world through `aframe`.

    Frames skipped by assembly are processed as all-missing while targets
    live, so the constant-dt process model stays valid; one FrameEvents per
    processed frame is returned (gap frames included, the given frame
    last). Once the world is empty, the rest of the gap is skipped at once
    (no FrameEvents, no ``frames`` count): an empty gap frame has no
    features to spawn from and no targets to step. So a gap costs at most
    the frames its targets survive without an update, whatever the process
    noise. A corrupt frame number far ahead is the assembler's to drop
    (:class:`~camtrack3d.netproto.FrameAssembler`).
    """
    if world.frame_counter is None:
        world.frame_counter = aframe.frame - 1
    if aframe.frame <= world.frame_counter:
        raise ValueError(
            f"frame {aframe.frame} not ahead of counter {world.frame_counter}")
    events = []
    while len(world.live) and world.frame_counter + 1 < aframe.frame:
        gap = AssembledFrame(frame=world.frame_counter + 1, features_by_camera={},
                             complete=False, latency=0.0,
                             timestamp_us=aframe.timestamp_us)
        events.append(_process_one(world, gap))
    events.append(_process_one(world, aframe))
    return events


def _process_one(world: TrackerWorld, aframe: AssembledFrame) -> FrameEvents:
    t0 = t = time.perf_counter()
    stats, rig, gate = world.stats, world.observation.rig, world.gate
    lap = stats.stages.lap
    frame = _frame_features(aframe, rig, stats)
    t = lap("ingress", t)

    # 1: predict, unless prepared from these very targets and models
    prep, world.prepared = world.prepared, None
    if prep is not None and prep.fits(world):
        info, guess = prep.guess.info, prep.guess
    else:
        info = Information.of(predict(world.live, world.process), world.observation)
        guess = None
    t = lap("predict", t)
    # every (target, camera, feature) pair is scored once for steps 2, 3 and 5
    table = pair_table(frame, info)
    t = lap("score", t)
    # 2: associate
    assignments = assign(table, gate, stats.likelihood)
    t = lap("assign", t)
    # 3: shared-measurement resolution (merge prevention)
    assignments = resolve_shared(assignments, table)
    t = lap("resolve", t)
    # 4: update
    seen, px, assigned = _observations(frame, assignments)
    posteriors, dropped = update(info, (seen, px), guess)
    stats.singular_drops += len(dropped)
    for tid in dropped:
        log.warning("frame %d target %d: singular innovation, update dropped",
                    aframe.frame, tid)
    t = lap("update", t)

    # 5: birth from unclaimed features; a feature counts as claimed when a
    # track selected it OR when it falls inside any track's image gate
    # (else clutter next to a live target seeds a duplicate that fights it)
    claimed = gate_claimed_features(table, gate)
    claimed[assigned] = True
    t = lap("claim", t)
    born, birth_features = spawn_targets(frame, claimed, rig, gate, aframe.frame,
                                         world.next_target_id, stats.spawn)
    world.next_target_id += len(born)
    t = lap("spawn", t)
    # 6: death by covariance threshold
    kept, removed = cull_targets(posteriors.join(born), gate)
    lap("cull", t)
    latency = time.perf_counter() - t0

    world.live = kept
    world.frame_counter = aframe.frame
    stats.frames += 1
    stats.births += len(born)
    stats.deaths += len(removed)
    stats.latencies.append(latency)
    return FrameEvents(frame=aframe.frame,
                       births=[t.target_id for t in born],
                       deaths=removed.ids.tolist(),
                       latency=latency,
                       targets=kept,
                       assignments=assignments,
                       birth_features=birth_features)


def _observations(frame: FrameFeatures, assignments: AssignmentMatrix
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (T, C) mask of the features assigned to each target, by camera,
    their (T, C, 2) pixels and their rows in `frame`."""
    index = np.array(list(assignments.columns.values()), dtype=float  # None -> NaN
                     ).reshape(len(assignments.columns), len(assignments.camera_ids))
    seen = ~np.isnan(index)
    rows = (index + frame.starts)[seen].astype(int)
    px = np.zeros(seen.shape + (2,))
    px[seen] = frame.rows[rows, :2]
    return seen, px, rows


def run(source: Iterable[AssembledFrame], world: TrackerWorld,
        trajectory_path=None, dump_assignments_path=None) -> RunStats:
    """Drive :func:`process_frame` over a stream of assembled frames,
    writing the trajectory CSV as frames complete (each row is flushed
    before the next frame is processed; timed into
    ``RunStats.stages.write``). After a frame's rows are flushed and
    before the next frame is asked for, :func:`prepare` makes what the
    next frame needs that reads no feature."""
    writer = TrajectoryWriter(trajectory_path) if trajectory_path is not None else None
    dump = open(dump_assignments_path, "w") if dump_assignments_path else None
    try:
        for aframe in source:
            events = process_frame(world, aframe)
            t = time.perf_counter()
            for ev in events:
                if writer is not None:
                    writer.write_frame(ev.frame, ev.targets)
                if dump is not None:
                    cols = {str(tid): [i for i in col]
                            for tid, col in ev.assignments.columns.items()}
                    dump.write(json.dumps({"frame": ev.frame, "assignments": cols,
                                           "births": ev.births,
                                           "deaths": ev.deaths}) + "\n")
            world.stats.stages.lap("write", t)
            prepare(world)
    finally:
        if writer is not None:
            writer.close()
        if dump is not None:
            dump.close()
    return world.stats


def packets_to_assembled(packets_by_frame: Sequence[Sequence[FramePacket]],
                         n_cameras: int) -> list[AssembledFrame]:
    """The simulation harness's per-frame packet lists assembled offline,
    under a clock that never moves."""
    asm = FrameAssembler(n_cameras=n_cameras, clock=lambda: 0.0)
    return list(assemble(itertools.chain.from_iterable(packets_by_frame), asm))

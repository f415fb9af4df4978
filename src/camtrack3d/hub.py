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
update and cull read and replace. The priors are projected through the rig
once; every (target, camera, feature) pair is scored once into an
:class:`~camtrack3d.association.PairTable`, which assignment, merge
resolution and the gate-claim test read, and the update's Jacobians reuse
the projection. ``RunStats.stages`` sums the time of each stage.

Most of a frame's work reads no feature: the priors, their projection,
the pair table's per-target terms and the EKF update's terms for every
camera that projects each prior (predicted pixels, Jacobian rows and their
information ``C^T C / r_px``). :func:`run` makes them with :func:`prepare`
in the idle gap after a frame's rows are written and flushed and before it
asks for the next frame, together with the update's covariance half for a
guess of each target's cameras (those that have its predicted position in
front of them and inside their image) and the trajectory-row text of each
of its posterior covariances. The next frame uses them while the world's
targets and models are the objects they were made from: its update takes
the guessed covariance half whole when every target's cameras are those
guessed, and otherwise makes its own from the prepared terms, and its rows
find the text by the covariance's bytes. A born or missed target and a
frame with nothing prepared compute them in the frame with the same code,
so the output bits do not depend on what was prepared.

Every source of frames goes through
:class:`~camtrack3d.netproto.FrameAssembler`: live packets, a feature
file and the simulation harness's packet lists (:func:`packets_to_assembled`)
alike. It emits frames in increasing order and drops a lone frame number
far past its camera's last, so the hub predicts through every gap it is
given.

Processing is single-threaded and deterministic: identical assembled-frame
sequences and configuration produce bit-identical trajectory output.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
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
    position_terms,
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
    cov_keys,
    covariance_text,
    posterior,
    predict,
    update,
)

log = logging.getLogger(__name__)
MAX_ROWS_PER_CAMERA = 32  # cameras send 10 by default; no recorded scene has over 12


@dataclass
class StageTimes:
    """Seconds spent in each stage of the frame loop, summed over frames:
    ingress (the feature table), predict, score (projection and pair
    table), assign, resolve, update, claim (the claimed features), spawn
    and cull, then, between frames, write (:func:`run`'s trajectory rows)
    and prepare (:func:`prepare`). Predict, score and update are mostly
    lookups when the frame was prepared."""

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
    """Counters and times of a run. ``latencies`` holds each frame's time
    from receipt (or the start of its processing) to its last stage; it
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
    # covariance_text prepared for this frame, by cov_keys (see prepare)
    cov_text: dict = field(default_factory=dict)


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
    `live` under `process` and the observation model of `guess`: the
    priors' projection through the rig, the pair table's per-target terms,
    the EKF update's covariance half for the guessed cameras
    (:class:`~camtrack3d.tracker.Posterior`, which holds the update's
    :class:`~camtrack3d.tracker.Information` for every camera, and with it
    the priors and that model) and, by the bytes of each of its posterior
    covariances (:func:`~camtrack3d.tracker.cov_keys`), its
    :func:`~camtrack3d.tracker.covariance_text`."""

    live: Targets
    process: ProcessModel
    projected: tuple[np.ndarray, np.ndarray]
    terms: tuple[np.ndarray, np.ndarray]
    guess: Posterior
    cov_text: dict[bytes, str]

    def fits(self, world: TrackerWorld) -> bool:
        """Whether these are still the world's targets and models."""
        return (self.live is world.live and self.process is world.process
                and self.guess.info.om is world.observation)


def prepare(world: TrackerWorld) -> None:
    """Make the next frame's priors, their projection, the pair table's
    per-target terms and the measurement update's terms for every camera
    that projects each prior, from the world's live targets alone, and keep
    them in ``world.prepared``. Then make the update's covariance half for
    the cameras that have each target's predicted position in front of them
    and inside their image, the cameras likely to see it, and the trajectory
    row's covariance text of each posterior covariance. Timed into
    ``RunStats.stages.prepare``; nothing is redone while the world's targets
    and models are those it was made from."""
    if world.prepared is not None and world.prepared.fits(world):
        return
    t = time.perf_counter()
    live, om = world.live, world.observation
    priors = predict(live, world.process)
    projected = om.rig.project(priors.means[:, :3])
    guess = posterior(Information.of(priors, om, projected), om.rig.viewing(projected))
    covs = guess.covs[guess.kept]
    world.prepared = Prepared(live, world.process, projected, position_terms(priors), guess,
                              dict(zip(cov_keys(covs), covariance_text(covs))))
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
    frame is returned (gap frames included, the given frame last). Once a
    gap has emptied the world, the rest of it is skipped (no FrameEvents)
    when at least :func:`death_horizon` frames are left, since nothing
    would happen in it: no gap costs more than twice the horizon in
    frames. With no process noise the horizon is infinite, and every gap
    is predicted through frame by frame. A corrupt frame number far ahead
    is the assembler's to drop (:class:`~camtrack3d.netproto.FrameAssembler`).
    """
    if world.frame_counter is None:
        world.frame_counter = aframe.frame - 1
    if aframe.frame <= world.frame_counter:
        raise ValueError(
            f"frame {aframe.frame} not ahead of counter {world.frame_counter}")
    events = []
    while world.frame_counter + 1 < aframe.frame:
        left = aframe.frame - world.frame_counter - 1
        if not len(world.live) and left >= death_horizon(world):
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
    t = time.perf_counter()
    t0 = t if receipt_time is None else receipt_time
    stats, rig, gate = world.stats, world.observation.rig, world.gate
    lap = stats.stages.lap
    frame = _frame_features(aframe, rig, stats)
    t = lap("ingress", t)

    # 1: predict, unless prepared from these very targets and models
    prep, world.prepared = world.prepared, None
    if prep is not None and prep.fits(world):
        guess, projected, terms, cov_text = prep.guess, prep.projected, prep.terms, prep.cov_text
        priors = guess.info.priors
    else:
        priors = predict(world.live, world.process)
        # the priors through every camera, once, for the pair table and
        # the update's Jacobians
        projected = rig.project(priors.means[:, :3])
        terms, guess, cov_text = None, None, {}
    t = lap("predict", t)
    # every (target, camera, feature) pair is scored once for steps 2, 3 and 5
    table = pair_table(frame, priors, rig, projected, terms)
    t = lap("score", t)
    # 2: associate
    assignments = assign(table, gate, stats.likelihood)
    t = lap("assign", t)
    # 3: shared-measurement resolution (merge prevention)
    assignments = resolve_shared(assignments, table)
    t = lap("resolve", t)
    # 4: update
    seen, px, assigned = _observations(frame, assignments)
    posteriors, dropped = update(priors, (seen, px), world.observation, projected, guess)
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
                       birth_features=birth_features,
                       cov_text=cov_text)


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
    next frame needs that reads no feature, and that frame's rows are
    written with the covariance text it made."""
    writer = TrajectoryWriter(trajectory_path) if trajectory_path is not None else None
    dump = open(dump_assignments_path, "w") if dump_assignments_path else None
    try:
        for aframe in source:
            events = process_frame(world, aframe)
            t = time.perf_counter()
            for ev in events:
                if writer is not None:
                    writer.write_frame(ev.frame, ev.targets, ev.cov_text)
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

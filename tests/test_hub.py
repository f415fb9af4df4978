import copy
import dataclasses
import hashlib
import importlib
import importlib.util
import io
import itertools
import json
import math
import sys
import time
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camtrack3d import hub, tracker
from camtrack3d.association import GateConfig, cull_targets
from camtrack3d.hub import (
    TrackerWorld,
    packets_to_assembled,
    prepare,
    process_frame,
    run,
)
from camtrack3d.features import read_features_jsonl, write_features_jsonl
from camtrack3d.netproto import AssembledFrame, FrameAssembler, assemble
from camtrack3d.simharness import (
    generate_rig,
    preset,
    simulate_truth,
    synthesize_observations,
)
from camtrack3d.tracker import (
    ObservationModel,
    ProcessModel,
    Targets,
    TargetState,
    TrajectoryWriter,
    predict,
)
from helpers import ring_of_cameras


def make_world(cams, fps, **gate_kw):
    return TrackerWorld(process=ProcessModel(dt=1.0 / fps),
                        observation=ObservationModel(cameras=cams),
                        gate=GateConfig(**gate_kw))


def noiseless_scene(n_targets=1, n_frames=50, seed=41, preset_name="smalltunnel"):
    spec = preset(preset_name, seed=seed, pixel_noise=0.0, clutter_rate=0.0,
                  detection_prob=1.0)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, n_targets, n_frames, maneuver_sigma=0.0,
                            speed=0.05)
    packets = synthesize_observations(truths, cams, spec)
    frames = packets_to_assembled(packets, spec.n_cameras)
    return spec, cams, truths, frames


# --------------------------------------------------------------- process_frame

def test_cold_start_births_one_target():
    spec, cams, truths, frames = noiseless_scene()
    world = make_world(cams, spec.fps)
    events = process_frame(world, frames[0])
    assert len(events) == 1
    assert len(events[0].births) == 1
    assert len(world.targets) == 1
    t = world.targets[0]
    assert np.linalg.norm(t.position - truths[0].position(0)) < 1e-6
    assert np.array_equal(t.velocity, np.zeros(3))


def test_zero_feature_frame_keeps_prior():
    spec, cams, truths, frames = noiseless_scene()
    world = make_world(cams, spec.fps)
    process_frame(world, frames[0])
    prior_mean = world.targets[0].mean.copy()
    empty = AssembledFrame(frame=1, features_by_camera={}, complete=False,
                           latency=0.0)
    process_frame(world, empty)
    t = world.targets[0]
    assert t.frames_since_observation == 1
    # posterior equals the prior prediction (position advanced by zero
    # velocity, covariance grown by Q)
    assert np.allclose(t.position, prior_mean[:3], atol=1e-12)


def test_gap_frames_processed_as_missing():
    spec, cams, truths, frames = noiseless_scene(n_frames=10)
    world = make_world(cams, spec.fps)
    process_frame(world, frames[0])
    events = process_frame(world, frames[4])  # frames 1..3 dropped
    assert [e.frame for e in events] == [1, 2, 3, 4]
    assert world.frame_counter == 4
    assert world.targets[0].frames_since_observation == 0


def test_a_jump_of_2_to_the_62_frames_returns_quickly():
    # the hub predicts through the gap until its last target dies, then
    # skips the rest of it; dropping a corrupt frame number is the
    # assembler's (test_netproto's reproduction, test_cli's corrupt record)
    spec, cams, truths, frames = noiseless_scene(n_frames=10)
    world = make_world(cams, spec.fps)
    process_frame(world, frames[0])
    corrupt = AssembledFrame(frame=frames[1].frame + 2**62,
                             features_by_camera=frames[1].features_by_camera,
                             complete=True, latency=0.0)
    t0 = time.perf_counter()
    events = process_frame(world, corrupt)
    assert time.perf_counter() - t0 < 0.1
    assert [e.frame for e in events[:-1]] == list(range(1, len(events)))
    assert events[-2].deaths == [0]
    assert events[-1].frame == corrupt.frame and world.frame_counter == corrupt.frame
    assert "gap_drops" not in world.stats.summary()


def test_rows_of_cameras_outside_the_rig_are_dropped_and_counted_at_ingress():
    # an assembler without the rig's ids passes a ghost camera's packet on:
    # its finite rows count once as unknown_camera_rows, its non-finite row
    # only as non-finite, and the frame is as without it
    spec, cams, truths, frames = noiseless_scene(n_frames=3)
    ghost = np.array([[100.0, 100.0, 20.0, 150.0, 0.0, 2.0]] * 3
                     + [[np.nan, 100.0, 20.0, 150.0, 0.0, 2.0]])
    haunted = [dataclasses.replace(af, features_by_camera={**af.features_by_camera,
                                                           "ghost": ghost})
               for af in frames]
    plain, world = make_world(cams, spec.fps), make_world(cams, spec.fps)
    for af, bf in zip(frames, haunted):
        assert frame_result(plain, af) == frame_result(world, bf)
    assert (world.stats.unknown_camera_rows, world.stats.nonfinite_rows) == (9, 3)
    assert (plain.stats.unknown_camera_rows, plain.stats.nonfinite_rows) == (0, 0)


@pytest.mark.parametrize("noise", [{"q_pos": 0.0, "q_vel": 0.0}, {}],
                         ids=["zero-noise", "defaults"])
def test_a_confirmed_jump_returns_as_many_events_whatever_its_length(noise):
    # the gap is predicted through while its target lives, and the rest of
    # it is skipped at once, whatever the process noise: without any, a
    # zero-covariance target never dies, but one born and updated does
    spec, cams, truths, _ = noiseless_scene(n_frames=7)
    packets = synthesize_observations(truths, cams, spec)

    def jump(length):
        ahead = [[dataclasses.replace(p, frame=p.frame + length) for p in frame]
                 for frame in packets[5:]]
        frames = packets_to_assembled(packets[:5] + ahead, spec.n_cameras)
        assert [af.frame for af in frames] == [*range(5), 5 + length, 6 + length]
        world = make_world(cams, spec.fps)
        world.process = ProcessModel(dt=spec.dt, **noise)
        for af in frames[:5]:
            process_frame(world, af)
        return process_frame(world, frames[5])

    short = jump(2000)  # first, as predicting every frame of it returns 2,001 events
    assert len(short) < 100 and short[-2].deaths == [0]
    assert [e.frame for e in short[:-1]] == list(range(5, 4 + len(short)))
    far = jump(2**62)
    assert [(e.frame, e.births, e.deaths) for e in far[:-1]] == [
        (e.frame, e.births, e.deaths) for e in short[:-1]]
    assert len(far) == len(short) and far[-1].frame == 5 + 2**62


def test_jump_past_the_death_horizon_resumes_as_if_predicted_through():
    spec, cams, truths, frames = noiseless_scene(n_frames=112)
    world = make_world(cams, spec.fps)
    got = []
    for af in frames[:5]:
        got += process_frame(world, af)
    jump = process_frame(world, frames[101])  # its events come back as it arrives
    assert jump[-1].frame == 101
    got += jump
    for af in frames[102:]:
        got += process_frame(world, af)
    # oracle: every frame of the gap given as an empty frame
    oracle = make_world(cams, spec.fps)
    want = []
    for f in range(112):
        af = frames[f] if f < 5 or f > 100 else AssembledFrame(
            frame=f, features_by_camera={}, complete=False, latency=0.0)
        want += process_frame(oracle, af)
    # exactly the gap's frames after every target died are skipped
    skipped = {e.frame for e in want} - {e.frame for e in got}
    assert skipped and all(e.births == e.deaths == [] for e in want if e.frame in skipped)
    assert skipped == set(range(max(e.frame for e in want if e.deaths) + 1, 101))
    assert [(e.frame, e.births, e.deaths) for e in got] == [
        (e.frame, e.births, e.deaths) for e in want if e.frame not in skipped]
    assert len(world.targets) == len(oracle.targets) == 1
    for t, u in zip(world.live_posteriors(), oracle.live_posteriors()):
        assert (t.target_id, t.born_at) == (u.target_id, u.born_at)
        assert np.array_equal(t.mean, u.mean) and np.array_equal(t.cov, u.cov)
    assert np.linalg.norm(world.targets[0].position - truths[0].position(111)) < 1e-3


@pytest.mark.parametrize("dt, q_pos, q_vel, threshold", [
    (0.01, 1e-4, 0.25, 0.004), (1 / 30, 1e-4, 0.25, 0.004), (0.01, 1e-6, 1.0, 0.01),
    (0.005, 0.0, 0.25, 0.004), (0.01, 1.1e-3, 0.0, 0.004),
])
def test_death_horizon_is_when_a_zero_covariance_target_dies(dt, q_pos, q_vel, threshold):
    # a gap is predicted through frame by frame until its last target
    # dies, and no further
    world = TrackerWorld(process=ProcessModel(dt=dt, q_pos=q_pos, q_vel=q_vel),
                         observation=ObservationModel(cameras=ring_of_cameras(2)),
                         gate=GateConfig(death_covariance_threshold=threshold))
    world.live = Targets.of([TargetState(target_id=0, mean=np.zeros(6), cov=np.zeros((6, 6)))])
    world.frame_counter = 0
    targets, horizon = world.live, 0
    while not len(cull_targets(targets, world.gate)[1]):
        targets, horizon = predict(targets, world.process), horizon + 1
    events = process_frame(world, AssembledFrame(frame=10**6, features_by_camera={},
                                                 complete=False, latency=0.0))
    assert [e.frame for e in events] == [*range(1, horizon + 1), 10**6]
    assert [e.deaths for e in events[:-1]] == [[]] * (horizon - 1) + [[0]]
    assert world.stats.frames == horizon + 1


def test_summary_reports_likelihood_and_spawn_counters():
    spec, cams, truths, frames = noiseless_scene(n_frames=5)
    world = make_world(cams, spec.fps)
    summary = run(frames, world).summary()
    lk, sp = world.stats.likelihood, world.stats.spawn
    assert lk.dist2d_evals > 0 and sp.passes > 0
    assert summary["likelihood_dist2d_evals"] == lk.dist2d_evals
    assert summary["likelihood_area_evals"] == lk.area_evals
    assert summary["likelihood_mahalanobis_evals"] == lk.mahalanobis_evals
    assert summary["spawn_camera_combinations"] == sp.camera_combinations
    assert summary["spawn_hypotheses_triangulated"] == sp.hypotheses_triangulated
    assert summary["spawn_passes"] == sp.passes


def test_frame_number_must_advance():
    spec, cams, truths, frames = noiseless_scene()
    world = make_world(cams, spec.fps)
    process_frame(world, frames[1])
    with pytest.raises(ValueError):
        process_frame(world, frames[0])


def test_tracks_follow_target():
    spec, cams, truths, frames = noiseless_scene(n_frames=100)
    world = make_world(cams, spec.fps)
    for af in frames:
        process_frame(world, af)
    t = world.targets[0]
    assert np.linalg.norm(t.position - truths[0].position(99)) < 1e-3
    assert t.born_at == 0


def test_singular_innovation_dropped_not_fatal():
    # an (artificially) hostile observation cannot crash the frame loop
    spec, cams, truths, frames = noiseless_scene()
    world = make_world(cams, spec.fps)
    process_frame(world, frames[0])
    # a covariance so large that the innovation covariance is past the
    # 1e12 condition limit, while the target still gates its features in
    assert len(world.live) == 1
    world.live = dataclasses.replace(world.live, covs=np.eye(6)[None] * 1e8)
    process_frame(world, frames[1])  # must not raise
    assert world.stats.singular_drops >= 1


def test_stage_times_sum_within_frame_latencies(tmp_path):
    spec, cams, truths, frames = noiseless_scene(n_frames=50)
    world = make_world(cams, spec.fps)
    stats = run(frames, world, trajectory_path=tmp_path / "traj.csv")
    stages = dataclasses.asdict(stats.stages)
    assert list(stages) == ["ingress", "predict", "score", "assign", "resolve",
                            "update", "claim", "spawn", "cull", "write", "prepare"]
    # every stage runs on every frame
    assert all(seconds > 0 for seconds in stages.values()), stages
    # the latencies cover the frame stages; the rows are written and the
    # next frame prepared between frames
    frame_stages = sum(v for k, v in stages.items() if k not in ("write", "prepare"))
    assert frame_stages <= sum(stats.latencies)
    summary = stats.summary()
    assert {k: summary[f"stage_{k}_s"] for k in stages} == stages


# -------------------------------------------------------------------------- run

def test_run_single_target_contiguous_rows(tmp_path):
    spec, cams, truths, frames = noiseless_scene(n_frames=300)
    world = make_world(cams, spec.fps)
    out = tmp_path / "traj.csv"
    stats = run(frames, world, trajectory_path=out)
    assert stats.frames == 300
    assert stats.births == 1
    assert stats.deaths == 0
    from camtrack3d.tracker import read_trajectory_csv

    rows = read_trajectory_csv(out)
    tid = next(iter(rows[0]))
    lifetimes = sorted(t for t in rows if tid in rows[t])
    assert lifetimes == list(range(300))  # contiguous


def test_run_reports_live_target_at_stream_end():
    spec, cams, truths, frames = noiseless_scene(n_frames=40)
    world = make_world(cams, spec.fps)
    stats = run(frames[:25], world)
    assert stats.frames == 25
    assert len(world.targets) == 1


def test_run_deterministic_bit_identical(tmp_path):
    spec = preset("smalltunnel", seed=43, pixel_noise=1.0, clutter_rate=0.5,
                  detection_prob=0.95)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, 2, 150, maneuver_sigma=0.005)
    packets = synthesize_observations(truths, cams, spec)
    frames = packets_to_assembled(packets, spec.n_cameras)
    paths = []
    for i in (0, 1):
        world = make_world(cams, spec.fps)
        path = tmp_path / f"traj{i}.csv"
        run(frames, world, trajectory_path=path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("kept", [[*range(5), 8, 9], [*range(5), *range(101, 112)]])
def test_gap_frames_write_their_own_rows(tmp_path, kept):
    # each frame predicted through a gap, or through a jump until its target
    # dies, writes the targets it left, as a run given every missing frame empty
    spec, cams, truths, frames = noiseless_scene(n_frames=112)
    empty = [f if f.frame in kept else
             AssembledFrame(frame=f.frame, features_by_camera={}, complete=False,
                            latency=0.0, timestamp_us=f.timestamp_us)
             for f in frames[:kept[-1] + 1]]
    gap, full = tmp_path / "gap.csv", tmp_path / "full.csv"
    run([frames[i] for i in kept], make_world(cams, spec.fps), trajectory_path=gap)
    run(empty, make_world(cams, spec.fps), trajectory_path=full)
    rows = gap.read_text().splitlines()
    assert rows == full.read_text().splitlines()
    means = {r.split(",")[0]: r.split(",")[2:8] for r in rows[1:]}
    assert len({tuple(means[str(f)]) for f in range(5, 9)}) == 4


def test_offline_records_match_packet_source(tmp_path):
    # JSONL-file source and direct packet assembly produce bit-identical output
    spec, cams, truths, frames = noiseless_scene(n_frames=60)
    packets = synthesize_observations(truths, cams, spec)
    write_features_jsonl(tmp_path / "features.jsonl", itertools.chain.from_iterable(packets))
    asm = FrameAssembler(camera_ids=[c.cam_id for c in cams], clock=lambda: 0.0)
    frames_b = list(assemble(read_features_jsonl(tmp_path / "features.jsonl"), asm))
    assert not any(asm.counters().values())
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    run(frames, make_world(cams, spec.fps), trajectory_path=pa)
    run(frames_b, make_world(cams, spec.fps), trajectory_path=pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_assignment_dump(tmp_path):
    import json

    spec, cams, truths, frames = noiseless_scene(n_frames=10)
    world = make_world(cams, spec.fps)
    dump = tmp_path / "assign.jsonl"
    run(frames, world, dump_assignments_path=dump)
    lines = [json.loads(l) for l in dump.read_text().splitlines()]
    assert len(lines) == 10
    assert lines[1]["assignments"]  # the born target appears from frame 1
    assert lines[0]["births"] == [0]


def test_every_feature_used_at_most_once_per_frame():
    spec = preset("smalltunnel", seed=47, pixel_noise=1.0, clutter_rate=1.0,
                  detection_prob=0.9)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, 2, 80, maneuver_sigma=0.0, speed=0.05)
    packets = synthesize_observations(truths, cams, spec)
    frames = packets_to_assembled(packets, spec.n_cameras)
    world = make_world(cams, spec.fps)
    for af in frames:
        events = process_frame(world, af)
        for ev in events:
            # a feature either feeds a track update or a birth hypothesis,
            # never both
            am = ev.assignments
            assigned = {(cam_id, idx) for col in am.columns.values()
                        for cam_id, idx in zip(am.camera_ids, col) if idx is not None}
            assert not (assigned & ev.birth_features)
            # and no two targets hold identical non-null columns
            nonnull = [col for col in ev.assignments.columns.values()
                       if any(i is not None for i in col)]
            assert len(nonnull) == len(set(nonnull))


def test_target_ids_have_contiguous_lifetimes(tmp_path):
    spec = preset("smalltunnel", seed=51, pixel_noise=1.0, clutter_rate=0.5,
                  detection_prob=0.9)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, 2, 200, maneuver_sigma=0.005)
    packets = synthesize_observations(truths, cams, spec)
    frames = packets_to_assembled(packets, spec.n_cameras)
    out = tmp_path / "traj.csv"
    run(frames, make_world(cams, spec.fps), trajectory_path=out)
    from camtrack3d.tracker import read_trajectory_csv

    rows = read_trajectory_csv(out)
    seen: dict[int, list[int]] = {}
    for frame in sorted(rows):
        for tid in rows[frame]:
            seen.setdefault(tid, []).append(frame)
    for tid, fr in seen.items():
        assert fr == list(range(fr[0], fr[0] + len(fr))), f"target {tid} lifetime gap"


# ------------------------------------------------------ non-finite feature rows

def with_rows(aframe, extra):
    """`aframe` with rows appended to every camera's features."""
    feats = {cam_id: np.vstack([np.asarray(rows, dtype=float).reshape(-1, 6), extra])
             for cam_id, rows in aframe.features_by_camera.items()}
    return AssembledFrame(frame=aframe.frame, features_by_camera=feats,
                          complete=aframe.complete, latency=0.0,
                          timestamp_us=aframe.timestamp_us)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e308])
def test_extreme_rows_do_not_disturb_tracking(bad):
    # NaN rows used to win association (a NaN ray distance scored 1.0) and
    # then make the target's updates singular; inf rows crashed the birth
    # search. 1e308 is finite: it is kept, and gated out like any far blob.
    track_with_extreme_rows(bad)


def test_huge_finite_rows_raise_no_warning():
    # a row near 1e308 overflowed the norm in pixel_ray and warned on every
    # frame; the birth search now sees DegenerateGeometry instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        track_with_extreme_rows(1e308)


def track_with_extreme_rows(bad):
    spec, cams, truths, frames = noiseless_scene(n_targets=2, n_frames=30)
    world = make_world(cams, spec.fps)
    for af in frames[:10]:
        process_frame(world, af)
    assert len(world.targets) == 2
    bad_rows = np.array([[bad, bad, 20.0, 150.0, 0.0, 2.0],
                         [bad, 100.0, 20.0, 150.0, 0.0, 2.0],
                         [100.0, 100.0, bad, bad, bad, bad]])
    for af in frames[10:]:
        for ev in process_frame(world, with_rows(af, bad_rows)):
            assert ev.births == [] and ev.deaths == []
    n_bad = 3 * len(cams) * 20
    assert world.stats.nonfinite_rows == (0 if math.isfinite(bad) else n_bad)
    assert world.stats.summary()["nonfinite_rows"] == world.stats.nonfinite_rows
    assert world.stats.singular_drops == 0
    for t in world.targets:
        assert t.frames_since_observation == 0
        assert np.all(np.isfinite(t.mean)) and np.all(np.isfinite(t.cov))
    truth_now = [tr.position(29) for tr in truths]
    for t in world.targets:
        assert min(np.linalg.norm(t.position - p) for p in truth_now) < 0.01


@pytest.fixture(scope="module")
def tracked_two_targets():
    spec, cams, truths, frames = noiseless_scene(n_targets=2, n_frames=12)
    world = make_world(cams, spec.fps)
    for af in frames[:10]:
        process_frame(world, af)
    return world, frames[10:]


row_values = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.floats(-10.0, 700.0))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(st.lists(row_values, min_size=6, max_size=6), max_size=6))
def test_arbitrary_rows_never_raise(tracked_two_targets, rows):
    base, (af, after) = tracked_two_targets
    world = copy.deepcopy(base)
    extra = np.array(rows, dtype=float).reshape(-1, 6)
    process_frame(world, with_rows(af, extra))
    process_frame(world, after)
    for t in world.targets:
        assert np.all(np.isfinite(t.mean)) and np.all(np.isfinite(t.cov))


# ------------------------------------------------- rows per camera at ingress

def hostile_rows(data, n, size):
    """`n` finite rows of one hostile kind inside an image of `size`."""
    draw, (w, h) = data.draw, size
    kind = draw(st.sampled_from(["spread", "duplicated", "one pixel", "corners"]))
    peaks = st.sampled_from([1.0, 2.0, 150.0, 255.0])  # few values: many ties
    if kind == "duplicated":
        return np.tile([w / 3, h / 2, 20.0, draw(peaks), 0.0, 1.0], (n, 1))
    rows = np.empty((n, 6))
    rows[:, 2:] = [20.0, 0.0, 0.0, 1.0]
    rows[:, 3] = draw(st.lists(peaks, min_size=n, max_size=n))
    if kind == "spread":
        rows[:, 0] = draw(st.lists(st.floats(0.0, w - 1), min_size=n, max_size=n))
        rows[:, 1] = draw(st.lists(st.floats(0.0, h - 1), min_size=n, max_size=n))
    elif kind == "one pixel":
        rows[:, :2] = [w / 2, h / 2]
    else:
        rows[:, :2] = np.array([[0.0, 0.0], [w - 1, 0.0], [0.0, h - 1], [w - 1, h - 1]])[
            np.arange(n) % 4]
    return rows


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_rows_past_the_cap_are_dropped_and_counted_once(tracked_two_targets, data):
    # one camera sends up to a few rows more than the cap, of one hostile
    # kind, with non-finite rows among them: the birth search sees at most
    # the cap's rows of any camera, those of largest peak in their order
    # (ties to the lower row), and every dropped row is counted once
    base, (af, _) = tracked_two_targets
    world = copy.deepcopy(base)
    cams = world.observation.cameras
    victim = data.draw(st.sampled_from(cams), label="camera")
    n = data.draw(st.integers(hub.MAX_ROWS_PER_CAMERA - 2, hub.MAX_ROWS_PER_CAMERA + 5))
    finite = hostile_rows(data, n, victim.image_size)
    bad = data.draw(st.lists(st.integers(0, n), max_size=3), label="non-finite at")
    sent = np.insert(finite, bad, np.nan, axis=0)
    feats = dict(af.features_by_camera) | {victim.cam_id: sent}
    seen = []

    def spawn(frame, *args, **kwargs):
        seen.append(frame)
        return spawn_targets(frame, *args, **kwargs)

    spawn_targets, hub.spawn_targets = hub.spawn_targets, spawn
    try:
        process_frame(world, dataclasses.replace(af, features_by_camera=feats))
    finally:
        hub.spawn_targets = spawn_targets
    stats = world.stats
    assert stats.capped_rows - base.stats.capped_rows == max(0, n - hub.MAX_ROWS_PER_CAMERA)
    assert stats.nonfinite_rows - base.stats.nonfinite_rows == len(bad)
    assert stats.summary()["capped_rows"] == stats.capped_rows
    (frame,) = seen
    assert max(np.bincount(frame.cam_of)) <= hub.MAX_ROWS_PER_CAMERA
    order = sorted(range(n), key=lambda i: (-finite[i, 3], i))
    kept = finite[sorted(order[:hub.MAX_ROWS_PER_CAMERA])]
    assert frame.rows[frame.slices[victim.cam_id]].tobytes() == kept.tobytes()
    for cam_id, block in af.features_by_camera.items():
        if cam_id != victim.cam_id:
            assert frame.rows[frame.slices[cam_id]].tobytes() == np.asarray(
                block, dtype=float).reshape(-1, 6).tobytes()


# ------------------------------------------------- prepared frames

def counters(stats):
    """The summary's counters, without its times."""
    return {k: v for k, v in stats.summary().items()
            if not k.startswith(("stage_", "latency_"))}


@pytest.fixture
def guess_served(monkeypatch):
    """Counts the frames whose update is given a prepared guess (`calls`),
    those of them whose update takes it whole, making no posterior of its
    own (`whole`), and the targets these observed (`served`)."""
    counts = {"served": 0, "whole": 0, "calls": 0}
    update, posterior = hub.update, tracker.posterior
    made = []

    def counted_posterior(info, use):
        made.append(use)
        return posterior(info, use)

    def counted_update(info, observations, guess=None):
        made.clear()
        result = update(info, observations, guess)
        if guess is not None:
            counts["calls"] += 1
            if not made:
                counts["whole"] += 1
                counts["served"] += int(np.count_nonzero(observations[0].any(axis=1)))
        return result

    monkeypatch.setattr(hub, "update", counted_update)
    monkeypatch.setattr(tracker, "posterior", counted_posterior)
    return counts


@pytest.fixture
def cells_served(monkeypatch):
    """Counts the frames whose rows are written from the covariance cells
    that :func:`prepare` made (`frames`)."""
    counts = {"frames": 0}
    write_frame = TrajectoryWriter.write_frame

    def counted_write_frame(self, frame_number, targets, cells=None):
        counts["frames"] += cells is not None
        return write_frame(self, frame_number, targets, cells)

    monkeypatch.setattr(TrajectoryWriter, "write_frame", counted_write_frame)
    return counts


def cluttered_smalltunnel():
    spec = preset("smalltunnel", seed=7, clutter_rate=1.0, detection_prob=0.95)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, 3, 300)
    return cams, spec.fps, packets_to_assembled(synthesize_observations(truths, cams, spec),
                                                spec.n_cameras)


def tunnel_scene():
    # the shape of the tunnel-live benchmark's scene 15: no clutter, every
    # target seen by every camera that views it
    spec = preset("smalltunnel", seed=15, clutter_rate=0.0, detection_prob=1.0)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, 3, 300, maneuver_sigma=0.002, speed=0.1)
    return cams, spec.fps, packets_to_assembled(synthesize_observations(truths, cams, spec),
                                                spec.n_cameras)


def bigcyl_seed_21():
    # the scene of test_bigcyl_birth_search_digest_is_recorded_value
    spec = preset("bigcyl", seed=21, clutter_rate=1.0, detection_prob=0.95)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, 3, 90, crossing=True)
    return cams, spec.fps, packets_to_assembled(synthesize_observations(truths, cams, spec),
                                                spec.n_cameras)


def with_gaps(kept):
    def scene():
        spec, cams, truths, frames = noiseless_scene(n_frames=112)
        return cams, spec.fps, [frames[i] for i in kept]
    return scene


@pytest.mark.parametrize("scene", [
    cluttered_smalltunnel, tunnel_scene, bigcyl_seed_21,
    with_gaps([*range(5), 8, 9]),  # a gap predicted through
    with_gaps([*range(5), *range(101, 112)]),  # a jump the target dies in
], ids=["smalltunnel-clutter", "tunnel", "bigcyl-21", "gap", "jump"])
def test_run_prepares_each_frame_and_gives_the_bare_loops_bytes(
        scene, guess_served, cells_served, tmp_path):
    cams, fps, frames = scene()
    prepared = io.StringIO()
    dump = tmp_path / "assignments.jsonl"
    stats = run(frames, make_world(cams, fps), trajectory_path=prepared,
                dump_assignments_path=dump)
    assert guess_served["served"] > 0
    assert cells_served["frames"] > 0  # some rows are written from prepared cells
    assert stats.stages.prepare > 0
    served = dict(guess_served)
    world = make_world(cams, fps)
    bare = io.StringIO()
    writer = TrajectoryWriter(bare)
    events = []
    for af in frames:
        for ev in process_frame(world, af):
            writer.write_frame(ev.frame, ev.targets)
            events.append({"frame": ev.frame, "births": ev.births, "deaths": ev.deaths,
                           "assignments": {str(tid): list(col) for tid, col
                                           in ev.assignments.columns.items()}})
    assert guess_served == served  # nothing prepared, no guess given
    assert world.stats.stages.prepare == 0
    assert world.prepared is None
    assert prepared.getvalue() == bare.getvalue()
    assert [json.loads(line) for line in dump.read_text().splitlines()] == events
    assert counters(stats) == counters(world.stats)


@pytest.mark.parametrize("scene, whole, served, cells", [
    (cluttered_smalltunnel, 135, 405, 132), (tunnel_scene, 299, 897, 299),
], ids=["smalltunnel-clutter", "tunnel"])
def test_camera_guess_serves_no_fewer_updates_than_the_last_frames_cameras(
        scene, whole, served, cells, guess_served, cells_served):
    # every frame after the first is given the guess, and its update takes
    # it whole when every target's cameras are those guessed, the cameras
    # that view the prior: on the tunnel scene in every frame, serving each
    # of its 897 target updates, and on the cluttered scene in 135 of 299;
    # a frame that took it whole and had no birth or death is written from
    # the cells prepared with it: 299 of the tunnel scene's 300 frames, and
    # 132 of the cluttered scene's (3 of its 135 had one)
    cams, fps, frames = scene()
    stats = run(frames, make_world(cams, fps), trajectory_path=io.StringIO())
    assert guess_served == {"served": served, "whole": whole, "calls": stats.frames - 1}
    assert cells_served == {"frames": cells}
    assert not any(k.startswith("updates_") for k in stats.summary())


def frame_result(world, af):
    events = process_frame(world, af)
    return [(ev.frame, ev.births, ev.deaths, ev.targets.ids.tobytes(),
             ev.targets.means.tobytes(), ev.targets.covs.tobytes()) for ev in events]


@pytest.mark.parametrize("change", ["replace live", "rescale live", "new observation model",
                                    "new process model", "deepcopy", "deepcopy shared"])
def test_prepared_frame_is_used_only_for_its_own_targets_and_models(change, guess_served):
    spec, cams, truths, frames = noiseless_scene(n_targets=2, n_frames=12)
    world = make_world(cams, spec.fps)
    for af in frames[:10]:
        process_frame(world, af)
    fresh = copy.deepcopy(world)
    prepare(world)
    assert world.prepared.fits(world)
    if change == "replace live":  # the same values in a new stack
        world.live = dataclasses.replace(world.live)
    elif change == "rescale live":
        world.live = dataclasses.replace(world.live, covs=world.live.covs * 4.0)
    elif change == "new observation model":
        world.observation = ObservationModel(cameras=cams, r_px=4.0)
    elif change == "new process model":
        world.process = ProcessModel(dt=2.0 / spec.fps)
    elif change == "deepcopy":
        world = copy.deepcopy(world)
    else:  # as the benchmark copies a world: its models shared
        world = copy.deepcopy(world, {id(world.process): world.process,
                                      id(world.observation): world.observation,
                                      id(world.gate): world.gate})
    for name in ("live", "observation", "process"):
        setattr(fresh, name, getattr(world, name))
    used = change.startswith("deepcopy")
    assert world.prepared.fits(world) == used
    got = frame_result(world, frames[10])
    assert (guess_served["calls"] > 0) == used
    assert got == frame_result(fresh, frames[10])
    assert world.prepared is None
    assert frame_result(world, frames[11]) == frame_result(fresh, frames[11])


@pytest.mark.parametrize("skip", [3, 20])
def test_prepared_frame_after_a_gap_gets_the_right_priors(skip, guess_served, cells_served):
    # the prepared priors are for the next processed frame, whatever its
    # number: the first frame predicted through the gap uses them, whether
    # or not the target dies in the gap and the rest of it is skipped
    spec, cams, truths, frames = noiseless_scene(n_frames=40)
    world = make_world(cams, spec.fps)
    for af in frames[:5]:
        process_frame(world, af)
    fresh, written = copy.deepcopy(world), copy.deepcopy(world)
    prepare(world)
    later = frames[4 + skip:4 + skip + 2]
    first, second = frame_result(world, later[0]), frame_result(world, later[1])
    assert (first, second) == (frame_result(fresh, later[0]), frame_result(fresh, later[1]))
    assert (len(first) < skip) == (skip == 20)
    assert first[0][0] == 5 and first[-1][0] == later[0].frame
    # given once, to frame 5, which observes nothing: not the cameras guessed
    assert guess_served == {"served": 0, "whole": 0, "calls": 1}
    # so no row of the gap is written from the cells prepared with the guess
    prepare(written)
    run(later[:1], written, trajectory_path=io.StringIO())
    assert cells_served == {"frames": 0}


# ------------------------------------------------------------ determinism

def test_smalltunnel_assignment_digest_is_recorded_value():
    # Digest of every frame's assignment columns, births and deaths on a
    # cluttered 300-frame smalltunnel run, recorded when association
    # scored pairs one at a time; the batched pair table must reproduce it.
    spec = preset("smalltunnel", seed=7, clutter_rate=1.0, detection_prob=0.95)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, 3, 300)
    frames = packets_to_assembled(synthesize_observations(truths, cams, spec),
                                  spec.n_cameras)
    world = make_world(cams, spec.fps)
    h = hashlib.blake2b(digest_size=8)
    for af in frames:
        for ev in process_frame(world, af):
            cols = sorted((tid, tuple(-1 if i is None else i for i in col))
                          for tid, col in ev.assignments.columns.items())
            h.update(repr((ev.frame, cols, sorted(ev.births),
                           sorted(ev.deaths))).encode())
    assert int.from_bytes(h.digest(), "big") == 2497656049722698907
    assert (world.stats.births, world.stats.deaths) == (14, 11)


def test_bigcyl_birth_search_digest_is_recorded_value():
    # Digest of every frame's assignment columns, births, deaths and the
    # features each birth consumed on a short cluttered bigcyl run, where
    # the birth search spawns eleven targets; recorded before the hub kept
    # feature rows as arrays, which must reproduce it.
    spec = preset("bigcyl", seed=21, clutter_rate=1.0, detection_prob=0.95)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, 3, 90, crossing=True)
    frames = packets_to_assembled(synthesize_observations(truths, cams, spec),
                                  spec.n_cameras)
    world = make_world(cams, spec.fps)
    h = hashlib.blake2b(digest_size=8)
    for af in frames:
        for ev in process_frame(world, af):
            cols = sorted((tid, tuple(-1 if i is None else i for i in col))
                          for tid, col in ev.assignments.columns.items())
            h.update(repr((ev.frame, cols, sorted(ev.births), sorted(ev.deaths),
                           sorted(ev.birth_features))).encode())
    assert int.from_bytes(h.digest(), "big") == 2564956075376412310
    assert (world.stats.births, world.stats.deaths) == (11, 8)


def test_birth_search_work_is_bounded_on_criterion_5_scene():
    # The birth search covers the combinations of the cameras that hold
    # an unclaimed row, once per frame: at most every combination of two
    # or more of the 11 cameras (2036) in any frame, and far fewer on
    # average, since most frames leave only a few cameras with a row.
    spec = preset("bigcyl", seed=105, clutter_rate=1.0, detection_prob=0.95)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, 3, 600, crossing=True)
    frames = packets_to_assembled(synthesize_observations(truths, cams, spec),
                                  spec.n_cameras)
    world = make_world(cams, spec.fps)
    per_frame = []
    for af in frames:
        before = world.stats.spawn.camera_combinations
        process_frame(world, af)
        per_frame.append(world.stats.spawn.camera_combinations - before)
    assert world.stats.spawn.passes == world.stats.frames == len(frames)
    assert max(per_frame) <= 2036
    assert sum(per_frame) / len(per_frame) <= 400


# ------------------------------------------------------- benchmark records

BENCH = Path(__file__).resolve().parents[1] / "bench"


@contextmanager
def bench_modules(*names):
    """The named modules of bench/, imported without writing bytecode
    there and removed from sys.modules afterwards."""
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        yield [importlib.import_module(name) for name in names]
    finally:
        sys.path.remove(str(BENCH))
        sys.dont_write_bytecode = dont_write
        for name in names:
            sys.modules.pop(name, None)


def test_bigcyl_clutter_record_of_seed_105():
    # the benchmark checks each run against the digest, births and deaths
    # recorded in bench/workloads.json; seed 105 is its default seed
    if not (BENCH / "workloads.py").exists():
        pytest.skip("bench/ not present")
    with bench_modules("scenes", "workloads") as (scenes, workloads):
        record = scenes.load_records()["bigcyl-clutter"]
        scene = scenes.bigcyl_clutter(105, record["shape"])
        world = workloads.new_world(scene)
        events = [ev for af in packets_to_assembled(scene.packets_by_frame,
                                                    scene.spec.n_cameras)
                  for ev in process_frame(world, af)]
        got = {"digest": workloads.assignment_digest(events),
               "births": world.stats.births, "deaths": world.stats.deaths}
    assert world.stats.frames == record["shape"]["frames"] == 300
    assert got == record["golden"]["105"]


# ------------------------------------------------------- benchmark tracing

def test_benchmark_tracer_finds_every_name_it_wraps():
    # bench/tracing.py wraps hub and association functions by name, so a
    # rename there would crash every traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    if not path.exists():
        pytest.skip("bench/tracing.py not present")
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # read only: nothing under bench/ is written
    from camtrack3d import association, hub

    names = [(hub, "process_frame"), (hub, "assign"), (association, "project")]
    before = [getattr(owner, attr) for owner, attr in names]
    scene_spec, cams, truths, frames = noiseless_scene(n_frames=2)
    world = make_world(cams, scene_spec.fps)
    with tracing.installed(tracing.Tracer()) as tracer:
        for af in frames:
            hub.process_frame(world, af)
    assert [getattr(owner, attr) for owner, attr in names] == before
    spans = tracer.per_name()
    assert spans["hub.process_frame"]["calls"] == 2
    # one span per frame for each stage, the EKF steps included: the
    # traced tracker.* metrics read these names
    for stage in ("predict", "assign", "resolve_shared", "update",
                  "gate_claimed_features", "spawn_targets", "cull_targets"):
        assert spans[stage]["calls"] == 2
    assert world.stats.births == 1

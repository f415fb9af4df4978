import copy
import hashlib
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from camtrack3d.association import GateConfig
from camtrack3d.hub import (
    TrackerWorld,
    assembled_frames_from_records,
    packets_to_assembled,
    process_frame,
    run,
)
from camtrack3d.netproto import AssembledFrame
from camtrack3d.simharness import (
    generate_rig,
    preset,
    simulate_truth,
    synthesize_observations,
)
from camtrack3d.tracker import ObservationModel, ProcessModel


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
    # degenerate covariance: blow the state covariance to near-singular
    t = world.targets[0]
    bad_cov = np.full((6, 6), 1e12)
    world.targets[0] = type(t)(target_id=t.target_id, mean=t.mean, cov=bad_cov,
                               frames_since_observation=0, born_at=0)
    process_frame(world, frames[1])  # must not raise


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


def test_offline_records_match_packet_source(tmp_path):
    # JSONL-file source and direct packet assembly produce bit-identical output
    spec, cams, truths, frames = noiseless_scene(n_frames=60)
    packets = synthesize_observations(truths, cams, spec)
    records = []
    for per_cam in packets:
        for pkt in per_cam:
            records.append({"frame": pkt.frame, "cam": pkt.cam_id,
                            "t": pkt.timestamp_us / 1e6,
                            "features": pkt.features.tolist()})
    frames_b = assembled_frames_from_records(records, complete_cameras=len(cams))
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
            claimed = ev.assignments.claimed()
            assert not (claimed & ev.birth_features)
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
    for stage in ("assign", "resolve_shared", "gate_claimed_features",
                  "spawn_targets", "cull_targets"):
        assert spans[stage]["calls"] == 2
    assert world.stats.births == 1

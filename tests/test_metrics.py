import math

import numpy as np
import pytest

from camtrack3d.metrics import (
    FrameMismatch,
    angular_velocity,
    approach_angle,
    evaluate,
    horizontal_speed,
    kinematic_tracks,
    read_histogram_csv,
    speed_histogram,
    write_histogram_csv,
    write_report_json,
)
from camtrack3d.simharness import TruthTrajectory


def straight_truth(tid=0, start=(0.0, 0.0, 0.3), vel=(0.15, 0.0, 0.0),
                   n=100, dt=0.01, birth=0):
    vel = np.asarray(vel, dtype=float)
    pos = np.asarray(start) + np.outer(np.arange(n) * dt, vel)
    return TruthTrajectory(target_id=tid, birth=birth, positions=pos,
                           velocities=np.tile(vel, (n, 1)))


def frames_from_truth(truth, id_offset=0, jitter=0.0, rng=None):
    frames = {}
    for t in range(truth.birth, truth.death):
        p = truth.position(t)
        if jitter and rng is not None:
            p = p + rng.normal(0, jitter, size=3)
        frames.setdefault(t, {})[truth.target_id + id_offset] = np.append(
            p, truth.velocity(t))
    return frames


# ------------------------------------------------------------------ kinematics

def test_straight_flight_speed_exact():
    tr = straight_truth(vel=(0.15, 0.0, 0.02))
    speeds = horizontal_speed(tr.positions, 0.01)
    assert np.allclose(speeds, 0.15, atol=1e-12)
    assert np.allclose(angular_velocity(tr.positions, 0.01), 0.0, atol=1e-9)


def test_circle_angular_velocity_two_percent():
    r, v, fps = 0.1, 0.15, 100.0
    omega = v / r
    t = np.arange(600) / fps
    pos = np.stack([r * np.cos(omega * t), r * np.sin(omega * t),
                    np.full_like(t, 0.3)], axis=1)
    w = angular_velocity(pos, 1.0 / fps)
    interior = w[2:-2]
    assert np.all(np.abs(interior - omega) / omega < 0.02)
    sp = horizontal_speed(pos, 1.0 / fps)
    assert np.allclose(sp[2:-2], v, rtol=1e-3)


def test_approach_angle_direct_flight_is_zero():
    tr = straight_truth(start=(0.0, 0.0, 0.3), vel=(0.1, 0.0, 0.0))
    psi = approach_angle(tr.positions, 0.01, landmark=(10.0, 0.0, 0.3))
    assert np.allclose(psi, 0.0, atol=1e-9)


def test_approach_angle_perpendicular():
    tr = straight_truth(start=(0.0, 0.0, 0.3), vel=(0.0, 0.1, 0.0), n=10)
    psi = approach_angle(tr.positions, 0.01, landmark=(10.0, 0.0, 0.3))
    assert psi[0] == pytest.approx(math.pi / 2, abs=0.15)


def test_speed_histogram_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    speeds = rng.normal(0.15, 0.05, size=2000).clip(0)
    edges, density = speed_histogram(speeds, bins=30)
    # unit area
    widths = np.diff(edges)
    assert float(np.sum(density * widths)) == pytest.approx(1.0)
    path = tmp_path / "speed_hist.csv"
    write_histogram_csv(path, edges, density)
    e2, d2 = read_histogram_csv(path)
    assert np.array_equal(e2, edges)
    assert np.array_equal(d2, density)


def test_kinematic_tracks_keep_tracks_of_10_frames_or_more_in_id_order():
    frames = {f: {tid: np.full(6, float(10 * tid + f)) for tid in (3, 1, 2)
                  if f < {1: 10, 2: 9, 3: 12}[tid]} for f in range(12)}
    tracks = kinematic_tracks(frames)
    assert [t.shape for t in tracks] == [(10, 3), (12, 3)]
    assert tracks[0][:, 0].tolist() == [10.0 + f for f in range(10)]
    assert tracks[1][:, 0].tolist() == [30.0 + f for f in range(12)]


# ------------------------------------------------------------------ evaluation

def test_perfect_tracker_scores_zero_error():
    truth = straight_truth()
    est = frames_from_truth(truth, id_offset=5)
    report = evaluate(est, [truth], matching_radius=0.05, fps=100.0)
    assert report["position_rmse"] == pytest.approx(0.0, abs=1e-12)
    assert report["id_switches"] == 0
    assert report["fragmentation"] == 0
    assert report["track_count"] == 1
    assert report["birth_lag_frames"] == 0
    assert report["horizontal_speed_mean"] == pytest.approx(0.15, abs=1e-6)


def test_reprojection_score_sums_scalar_projections_in_order():
    # the truth starts behind the camera at (0, 0, 0.3) and passes in front
    # of it, so that camera skips the first pairs
    from camtrack3d.geometry import BehindCamera, PointAtInfinity, project
    from helpers import look_at_camera, ring_of_cameras

    cams = ring_of_cameras(4) + [look_at_camera((0.0, 0.0, 0.3), (1.0, 0.0, 0.3), "ahead")]
    truth = straight_truth(start=(-0.045, 0.05, 0.3), n=60)
    est = frames_from_truth(truth, jitter=0.004, rng=np.random.default_rng(8))
    total, n = 0.0, 0
    for t in range(truth.birth, truth.death):
        for cam in cams:
            try:
                pu, pv = project(cam, est[t][0][:3])
                qu, qv = project(cam, truth.position(t))
            except (BehindCamera, PointAtInfinity):
                continue
            total += math.hypot(pu - qu, pv - qv)
            n += 1
    assert 4 * 60 < n < 5 * 60
    report = evaluate(est, [truth], matching_radius=0.05, cameras=cams)
    assert report["mean_reprojection_error_px"] == total / n


def test_rmse_reflects_jitter():
    rng = np.random.default_rng(3)
    truth = straight_truth()
    est = frames_from_truth(truth, jitter=0.005, rng=rng)
    report = evaluate(est, [truth], matching_radius=0.05)
    noise = report["position_rmse"]
    assert 0.005 * 0.7 < noise < 0.005 * math.sqrt(3) * 1.3


def test_id_switch_detected():
    truth = straight_truth(n=60)
    est = frames_from_truth(truth)
    # swap the estimate id halfway through
    for t in range(30, 60):
        est[t] = {99: est[t].pop(0)}
    report = evaluate(est, [truth], matching_radius=0.05)
    assert report["id_switches"] == 1
    assert report["track_count"] == 2


def test_fragmentation_counts_gaps():
    truth = straight_truth(n=50)
    est = frames_from_truth(truth)
    for t in range(20, 25):
        del est[t]
    report = evaluate(est, [truth], matching_radius=0.05)
    assert report["fragmentation"] == 1


def test_birth_lag():
    truth = straight_truth(n=50)
    est = frames_from_truth(truth)
    for t in range(0, 3):
        del est[t]
    report = evaluate(est, [truth], matching_radius=0.05)
    assert report["birth_lag_frames"] == 3


def test_frame_mismatch_raised():
    truth = straight_truth(n=10, birth=0)
    est = {100 + t: {0: np.zeros(6)} for t in range(10)}
    with pytest.raises(FrameMismatch):
        evaluate(est, [truth])


def test_latency_percentiles_passthrough():
    truth = straight_truth(n=10)
    est = frames_from_truth(truth)
    report = evaluate(est, [truth], latencies=np.linspace(0.001, 0.01, 100))
    assert report["latency_p50"] == pytest.approx(0.0055, abs=2e-4)
    assert report["latency_p99"] <= 0.01


def test_report_json(tmp_path):
    truth = straight_truth(n=10)
    est = frames_from_truth(truth)
    report = evaluate(est, [truth])
    path = tmp_path / "report.json"
    write_report_json(path, report)
    import json

    loaded = json.loads(path.read_text())
    assert loaded["track_count"] == 1

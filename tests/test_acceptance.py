"""Acceptance suite: one test per system-level criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -s` to see them
inline). Tolerances are fixed here, not tuned elsewhere.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import stats as sstats

from camtrack3d.association import GateConfig, assign
from camtrack3d.features import BackgroundModel, Frame, extract_features
from camtrack3d.geometry import project, triangulate
from camtrack3d.hub import TrackerWorld, packets_to_assembled, process_frame, run
from camtrack3d.metrics import (
    angular_velocity,
    evaluate,
    horizontal_speed,
    read_histogram_csv,
    speed_histogram,
    write_histogram_csv,
)
from camtrack3d.netproto import FrameAssembler, FramePacket, decode, encode
from camtrack3d.simharness import (
    TruthTrajectory,
    generate_rig,
    preset,
    simulate_truth,
    synthesize_observations,
)
from camtrack3d.tracker import (
    ObservationModel,
    ProcessModel,
    TargetState,
    observation_function,
    observation_jacobian,
)
from helpers import bruteforce_assignment, make_feature, predict_one, table_of, update_one

# observation noise stated as "1 px" means unit RMS of the 2D displacement
ONE_PX_RMS = 2 ** -0.5


@contextmanager
def criterion(number, description):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {number} [{description}]: FAIL "
              f"({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"\nACCEPTANCE {number} [{description}]: PASS "
          f"({time.perf_counter() - t0:.1f}s)")


def make_world(cams, fps, **gate_kw):
    return TrackerWorld(process=ProcessModel(dt=1.0 / fps),
                        observation=ObservationModel(cameras=cams),
                        gate=GateConfig(**gate_kw))


# --------------------------------------------------------------------------- 1

def test_criterion_1_triangulation_accuracy():
    with criterion(1, "triangulation accuracy"):
        t0 = time.perf_counter()
        spec = preset("smalltunnel")
        cams = generate_rig(spec)
        rng = np.random.default_rng(101)
        lo, hi = spec.bounds
        lo, hi = lo + 0.05, hi - 0.05
        noisy_errs, clean_errs = [], []
        for _ in range(1000):
            X = rng.uniform(lo, hi)
            clean = [(c, project(c, X)) for c in cams]
            _, e_clean = triangulate(clean)
            clean_errs.append(e_clean)
            noisy = [(c, (u + rng.normal(0, ONE_PX_RMS),
                          v + rng.normal(0, ONE_PX_RMS)))
                     for c, (u, v) in clean]
            _, e_noisy = triangulate(noisy)
            noisy_errs.append(e_noisy)
        assert np.mean(noisy_errs) < 1.0
        assert np.mean(clean_errs) < 1e-9
        assert time.perf_counter() - t0 < 5.0


# --------------------------------------------------------------------------- 2

def test_criterion_2_physical_scale_accuracy():
    with criterion(2, "physical-scale accuracy"):
        spec = preset("smalltunnel")
        cams = generate_rig(spec)
        rng = np.random.default_rng(102)
        lo, hi = spec.bounds
        lo, hi = lo + 0.05, hi - 0.05
        for _ in range(100):
            A = rng.uniform(lo, hi)
            B = rng.uniform(lo, hi)
            pa, _ = triangulate([(c, project(c, A)) for c in cams])
            pb, _ = triangulate([(c, project(c, B)) for c in cams])
            truth = np.linalg.norm(A - B)
            got = np.linalg.norm(pa - pb)
            assert abs(got - truth) <= 1e-6 * max(truth, 1e-12)


# --------------------------------------------------------------------------- 3

def test_criterion_3_ekf_correctness():
    with criterion(3, "EKF correctness"):
        t0 = time.perf_counter()
        spec = preset("smalltunnel")
        cams = generate_rig(spec)
        rng = np.random.default_rng(103)

        # (a) analytic jacobian vs central finite differences
        step = 1e-6
        for _ in range(25):
            mean = np.append(rng.uniform([-0.5, -0.1, 0.05], [0.5, 0.1, 0.25]),
                             rng.normal(size=3) * 0.1)
            C = observation_jacobian(mean, cams)
            fd = np.zeros_like(C)
            for j in range(6):
                hi_s, lo_s = mean.copy(), mean.copy()
                hi_s[j] += step
                lo_s[j] -= step
                fd[:, j] = (observation_function(hi_s, cams)
                            - observation_function(lo_s, cams)) / (2 * step)
            scale = np.maximum(np.abs(fd), 1.0)
            assert np.max(np.abs(C - fd) / scale) < 1e-4

        # (b) covariance PSD through 1e4 random predict/update steps
        pm = ProcessModel(dt=spec.dt)
        om = ObservationModel(cameras=cams)
        s = TargetState(target_id=0, mean=np.array([0, 0, 0.15, 0, 0, 0.0]),
                        cov=np.diag([0.05**2] * 3 + [1.0] * 3))
        truth_pos = np.array([0.0, 0.0, 0.15])
        lo, hi = spec.bounds
        for k in range(10_000):
            s = predict_one(s, pm)
            truth_pos = np.clip(truth_pos + rng.normal(0, 0.005, 3),
                                lo + 0.05, hi - 0.05)
            views = []
            for c in cams:
                if rng.random() < 0.7:
                    u, v = project(c, truth_pos)
                    views.append((c, (u + rng.normal(0, 1), v + rng.normal(0, 1))))
            s = update_one(s, views, om)
            if k % 100 == 0 or k > 9_900:
                assert np.allclose(s.cov, s.cov.T, atol=1e-12)
                assert np.linalg.eigvalsh(s.cov)[0] >= -1e-12

        # (c) missing observations leave the exact covariance recursion
        s = TargetState(target_id=0, mean=np.array([0, 0, 0.15, 0.05, 0, 0.0]),
                        cov=np.diag([1e-4] * 3 + [1e-2] * 3))
        oracle = s.cov.copy()
        for _ in range(20):
            s = update_one(predict_one(s, pm), [], om)
            raw = pm.A @ oracle @ pm.A.T + pm.Q
            oracle = 0.5 * (raw + raw.T)
            assert np.array_equal(s.cov, oracle)

        # (d) NEES consistency over 500 Monte-Carlo runs on a scene matched
        # to the filter's models
        n_runs, n_frames = 500, 40
        q_pos, q_vel, r_px = 1e-6, 1e-3, 1.0
        pm_c = ProcessModel(dt=spec.dt, q_pos=q_pos, q_vel=q_vel)
        om_c = ObservationModel(cameras=cams[:3], r_px=r_px)
        mean0 = np.array([0.0, 0.0, 0.15, 0.0, 0.0, 0.0])
        P0 = np.diag([0.01**2] * 3 + [0.05**2] * 3)
        sq = np.sqrt(np.diag(pm_c.Q))
        nees = np.zeros((n_runs, n_frames))
        for r in range(n_runs):
            truth = mean0 + np.linalg.cholesky(P0) @ rng.standard_normal(6)
            s = TargetState(target_id=0, mean=mean0.copy(), cov=P0.copy())
            for t in range(n_frames):
                truth = pm_c.A @ truth + sq * rng.standard_normal(6)
                s = predict_one(s, pm_c)
                y = observation_function(truth, om_c.cameras)
                y = y + rng.standard_normal(len(y)) * math.sqrt(r_px)
                obs = [(c, (y[2 * i], y[2 * i + 1]))
                       for i, c in enumerate(om_c.cameras)]
                s = update_one(s, obs, om_c)
                e = s.mean - truth
                nees[r, t] = e @ np.linalg.solve(s.cov, e)
        anees = nees.mean(axis=0)  # per time step, averaged over runs
        lo_b = sstats.chi2.ppf(0.025, 6 * n_runs) / n_runs / 1.2
        hi_b = sstats.chi2.ppf(0.975, 6 * n_runs) / n_runs * 1.2
        burn = 2
        assert np.all(anees[burn:] > lo_b), (anees.min(), lo_b)
        assert np.all(anees[burn:] < hi_b), (anees.max(), hi_b)

        assert time.perf_counter() - t0 < 60.0


# --------------------------------------------------------------------------- 4

def test_criterion_4_single_camera_anisotropy():
    with criterion(4, "single-camera covariance anisotropy"):
        spec = preset("smalltunnel", seed=104, clutter_rate=0.0,
                      detection_prob=1.0)
        cams = generate_rig(spec)
        truths = simulate_truth(spec, 1, 60, maneuver_sigma=0.0, speed=0.05)
        keep = cams[0]
        window = (30, 32)  # all but cams[0] blanked for 2 frames
        occl = [(window[0], window[1], [c.cam_id for c in cams[1:]])]
        packets = synthesize_observations(truths, cams, spec, occlusions=occl)
        frames = packets_to_assembled(packets, spec.n_cameras)
        world = make_world(cams, spec.fps)
        traces = {}
        doms = {}
        deaths = []
        for af in frames:
            for ev in process_frame(world, af):
                deaths += ev.deaths
            t = world.targets[0]
            traces[af.frame] = float(np.trace(t.cov[:3, :3]))
            w, V = np.linalg.eigh(t.cov[:3, :3])
            doms[af.frame] = (V[:, -1], t.position.copy())
        # (a) the error estimate grows strictly during the window
        assert traces[window[0]] > traces[window[0] - 1]
        assert traces[window[0] + 1] > traces[window[0]]
        # (b) dominant eigenvector within 10 degrees of the camera-target ray
        for f in range(window[0], window[1]):
            vec, pos = doms[f]
            ray = pos - keep.center
            ray = ray / np.linalg.norm(ray)
            ang = math.degrees(math.acos(min(1.0, abs(float(vec @ ray)))))
            assert ang < 10.0
        # (c) the track survives and re-converges within 5 frames
        assert deaths == []
        assert len(world.targets) == 1
        baseline = traces[window[0] - 1]
        recovered = [f for f in range(window[1], window[1] + 6)
                     if traces[f] <= 1.5 * baseline]
        assert recovered, (baseline, [traces[f] for f in range(window[1], window[1] + 6)])


# --------------------------------------------------------------------------- 5

def test_criterion_5_multi_target_crossing():
    with criterion(5, "multi-target tracking through crossings"):
        t0 = time.perf_counter()
        spec = preset("bigcyl", seed=105, clutter_rate=1.0, detection_prob=0.95)
        cams = generate_rig(spec)
        truths = simulate_truth(spec, 3, 600, crossing=True)
        packets = synthesize_observations(truths, cams, spec)
        frames = packets_to_assembled(packets, spec.n_cameras)
        world = make_world(cams, spec.fps)
        est_frames = {}
        for af in frames:
            for ev in process_frame(world, af):
                # zero merges: no identical non-null subsets post-resolution
                nonnull = [col for col in ev.assignments.columns.values()
                           if any(i is not None for i in col)]
                assert len(nonnull) == len(set(nonnull))
            est_frames[af.frame] = {t.target_id: t.mean.copy()
                                    for t in world.targets}
        report = evaluate(est_frames, truths, matching_radius=0.05)
        assert report["id_switches"] <= 1, report
        assert report["position_rmse"] < 0.005, report
        assert time.perf_counter() - t0 < 120.0


# --------------------------------------------------------------------------- 6

def test_criterion_6_nnsf_equals_bruteforce():
    with criterion(6, "NNSF equals brute-force oracle"):
        rng = np.random.default_rng(106)
        spec = preset("smalltunnel")
        cams = generate_rig(spec)[:3]
        gate = GateConfig()
        matches = 0
        instances = 0
        while instances < 200:
            n_targets = int(rng.integers(1, 3))
            positions = []
            tries = 0
            while len(positions) < n_targets and tries < 50:
                tries += 1
                cand = rng.uniform([-0.55, -0.08, 0.05], [0.55, 0.08, 0.25])
                ok = True
                for p in positions:
                    for c in cams:
                        a = np.array(project(c, cand))
                        b = np.array(project(c, p))
                        if np.linalg.norm(a - b) <= 2 * gate.dist2d_threshold:
                            ok = False
                if ok:
                    positions.append(cand)
            if len(positions) < n_targets:
                continue
            targets = [TargetState(target_id=i,
                                   mean=np.append(p, [0.0, 0.0, 0.0]),
                                   cov=np.diag([0.02**2] * 3 + [0.25] * 3))
                       for i, p in enumerate(positions)]
            feats = {}
            for c in cams:
                lst = []
                for p in positions:
                    u, v = project(c, p)
                    lst.append(make_feature(u + rng.normal(0, 2),
                                            v + rng.normal(0, 2)))
                while len(lst) < 3 and rng.random() < 0.4:
                    lst.append(make_feature(rng.uniform(0, 640),
                                            rng.uniform(0, 480)))
                feats[c.cam_id] = lst
            am = assign(table_of(feats, targets, cams), gate)
            oracle = bruteforce_assignment(feats, targets, cams, gate)
            instances += 1
            if am.columns == oracle:
                matches += 1
        assert matches == 200, f"{matches}/200 matched"


# --------------------------------------------------------------------------- 7

def test_criterion_7_birth_death_timing():
    with criterion(7, "track birth and death timing"):
        spec = preset("smalltunnel", seed=107, pixel_noise=0.0,
                      clutter_rate=0.0, detection_prob=1.0)
        cams = generate_rig(spec)
        enter, leave = 10, 50
        n = leave - enter
        vel = np.array([0.04, 0.0, 0.0])
        pos = np.array([-0.4, 0.0, 0.15]) + np.outer(np.arange(n) * spec.dt, vel)
        truth = TruthTrajectory(target_id=0, birth=enter, positions=pos,
                                velocities=np.tile(vel, (n, 1)))
        total = 160
        packets = synthesize_observations([truth], cams, spec, n_frames=total)
        frames = packets_to_assembled(packets, spec.n_cameras)
        world = make_world(cams, spec.fps)
        birth_frame = None
        death_frame = None
        last_observed_cov = None
        for af in frames:
            for ev in process_frame(world, af):
                if ev.births and birth_frame is None:
                    birth_frame = ev.frame
                if ev.deaths:
                    death_frame = ev.frame
            if af.frame == leave - 1:
                last_observed_cov = world.targets[0].cov.copy()
        # acquisition within 3 frames of first >= 2-camera visibility
        assert birth_frame is not None
        assert birth_frame - enter <= 3
        # death exactly at the closed-form covariance crossing
        pm = world.process
        P = last_observed_cov.copy()
        k = 0
        while True:
            k += 1
            raw = pm.A @ P @ pm.A.T + pm.Q
            P = 0.5 * (raw + raw.T)
            if np.linalg.eigvalsh(P[:3, :3])[-1] > world.gate.death_covariance_threshold:
                break
            assert k < 1000
        predicted_death = (leave - 1) + k
        assert death_frame == predicted_death, (death_frame, predicted_death)


# --------------------------------------------------------------------------- 8

def test_criterion_8_latency_and_throughput():
    with criterion(8, "hub latency and sustained throughput"):
        spec = preset("smalltunnel", seed=108, clutter_rate=0.0,
                      detection_prob=1.0)
        cams = generate_rig(spec)
        n_frames = 10_000
        truths = simulate_truth(spec, 3, n_frames, maneuver_sigma=0.002,
                                speed=0.1)
        packets = synthesize_observations(truths, cams, spec)
        frames = packets_to_assembled(packets, spec.n_cameras)
        world = make_world(cams, spec.fps)
        t_run = time.perf_counter()
        stats = run(frames, world)
        t_run = time.perf_counter() - t_run
        ls = np.asarray(stats.latencies)
        frame_period = spec.dt
        assert stats.frames == n_frames
        assert float(np.percentile(ls, 50)) < 0.010, np.percentile(ls, 50)
        assert float(np.percentile(ls, 99)) < frame_period, np.percentile(ls, 99)
        # sustained realtime: total per-frame processing (association,
        # update, birth search and output together) stays below the frame
        # period, so a bounded input queue cannot grow over the run
        assert t_run / n_frames < frame_period


# --------------------------------------------------------------------------- 9

def test_criterion_9_protocol_robustness():
    with criterion(9, "wire protocol robustness"):
        rng = np.random.default_rng(109)
        # 1e5 randomized packets round-trip bit-exactly
        ok = 0
        for i in range(100_000):
            rows = int(rng.integers(0, 6))
            p = FramePacket(cam_id=f"c{i % 11}",
                            frame=int(rng.integers(0, 2**63)),
                            timestamp_us=int(rng.integers(0, 2**63)),
                            features=rng.normal(size=(rows, 6)) * 1e3)
            if decode(encode(p)) == p:
                ok += 1
        assert ok == 100_000
        # assembler ordering + no duplicates under 100 arrival shuffles
        cams = ["a", "b", "c", "d"]
        for trial in range(100):
            by_cam = {c: [FramePacket(cam_id=c, frame=f, timestamp_us=f,
                                      features=np.zeros((0, 6)))
                          for f in range(12)] for c in cams}
            idx = {c: 0 for c in cams}
            asm = FrameAssembler(n_cameras=4, clock=lambda: 0.0)
            seen = []
            while any(idx[c] < 12 for c in cams):
                avail = [c for c in cams if idx[c] < 12]
                c = rng.choice(avail)
                seen += [af.frame for af in asm.feed(by_cam[c][idx[c]])]
                idx[c] += 1
            seen += [af.frame for af in asm.finish()]
            assert seen == sorted(seen)
            assert len(seen) == len(set(seen)) == 12
            assert asm.duplicates == 0


# -------------------------------------------------------------------------- 10

def test_criterion_10_feature_extraction_oracles():
    with criterion(10, "feature extraction moment oracles"):
        # analytic square
        px = np.zeros((48, 64), dtype=np.uint8)
        px[10:15, 20:25] = 255
        model = BackgroundModel.constant(px.shape, 0.0, difference_threshold=30.0)
        f = extract_features(Frame(cam_id="c", index=0, timestamp=0.0, pixels=px),
                             model)[0]
        assert abs(f.area - 25.0) < 1e-6
        assert abs(f.peak - 255.0) < 1e-6
        assert abs(f.u_raw - 22.0) < 1e-6 and abs(f.v_raw - 12.0) < 1e-6
        # analytic bar
        px = np.zeros((48, 64), dtype=np.uint8)
        px[20:24, 10:30] = 255
        f = extract_features(Frame(cam_id="c", index=0, timestamp=0.0, pixels=px),
                             model)[0]
        assert abs(f.theta - 0.0) < 1e-6
        assert abs(f.ecc - 5.0) < 1e-6
        # equivariance over 100 randomized blobs
        rng = np.random.default_rng(110)
        for _ in range(100):
            blob = (rng.uniform(0, 1, size=(6, 9)) > 0.35) * int(rng.integers(90, 255))
            base = np.zeros((64, 64), dtype=np.uint8)
            base[25:31, 25:34] = blob.astype(np.uint8)
            model = BackgroundModel.constant(base.shape, 0.0,
                                             difference_threshold=40.0)
            fa = extract_features(Frame(cam_id="c", index=0, timestamp=0.0,
                                        pixels=base), model, max_features=99)
            dx, dy = int(rng.integers(-12, 12)), int(rng.integers(-12, 12))
            shifted = np.roll(np.roll(base, dy, axis=0), dx, axis=1)
            fb = extract_features(Frame(cam_id="c", index=0, timestamp=0.0,
                                        pixels=shifted), model, max_features=99)
            assert len(fa) == len(fb) >= 1
            for a, b in zip(fa, fb):
                assert abs((b.u_raw - a.u_raw) - dx) < 1e-9
                assert abs((b.v_raw - a.v_raw) - dy) < 1e-9
            rot = np.rot90(base)
            fc = extract_features(Frame(cam_id="c", index=0, timestamp=0.0,
                                        pixels=rot), model, max_features=99)
            assert len(fc) == len(fa)
            for a, c in zip(fa, sorted(fc, key=lambda f: -f.area)):
                assert abs(c.area - a.area) < 1e-9
                assert abs(c.peak - a.peak) < 1e-9
                if np.isfinite(a.ecc) and a.ecc > 1.01:
                    assert abs(c.ecc - a.ecc) < 1e-9
                    want = (a.theta + math.pi / 2.0) % math.pi
                    assert min(abs(c.theta - want),
                               math.pi - abs(c.theta - want)) < 1e-9


# -------------------------------------------------------------------------- 11

def test_criterion_11_kinematics(tmp_path):
    with criterion(11, "trajectory kinematics"):
        # circle: angular velocity within 2% of v/r
        r, v, fps = 0.1, 0.15, 100.0
        t = np.arange(800) / fps
        omega = v / r
        pos = np.stack([r * np.cos(omega * t), r * np.sin(omega * t),
                        np.full_like(t, 0.3)], axis=1)
        w = angular_velocity(pos, 1.0 / fps)[2:-2]
        assert np.all(np.abs(w - omega) / omega < 0.02)
        # straight flight: speed exact to finite-difference error
        vel = np.array([0.15, 0.0, 0.0])
        line = np.outer(t, vel)
        sp = horizontal_speed(line, 1.0 / fps)
        assert np.allclose(sp, 0.15, atol=1e-12)
        # histogram output format regenerates bit-exactly
        edges, density = speed_histogram(sp, bins=20, value_range=(0.0, 0.3))
        path = tmp_path / "hist.csv"
        write_histogram_csv(path, edges, density)
        e2, d2 = read_histogram_csv(path)
        assert np.array_equal(edges, e2) and np.array_equal(density, d2)
        widths = np.diff(e2)
        assert float(np.sum(d2 * widths)) == pytest.approx(1.0)

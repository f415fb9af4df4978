import contextlib
import csv
import io
import json
import math
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camtrack3d.cli import main
from camtrack3d.geometry import BehindCamera, load_calibration, project
from camtrack3d.simharness import generate_rig, preset
from helpers import checkout_env, look_at_camera


def test_simulate_then_track_then_report(tmp_path, capsys):
    out = tmp_path / "scene"
    assert main(["simulate", "--preset", "smalltunnel", "--targets", "1",
                 "--frames", "120", "--seed", "5", "--out-dir", str(out)]) == 0
    assert (out / "calibration.cal").exists()
    assert (out / "truth.csv").exists()
    assert (out / "features.jsonl").exists()

    traj = tmp_path / "traj.csv"
    stats = tmp_path / "stats.json"
    assert main(["track", "--config", str(out / "run.cfg"),
                 "--features", str(out / "features.jsonl"),
                 "--calibration", str(out / "calibration.cal"),
                 "--out", str(traj), "--stats-out", str(stats)]) == 0
    assert traj.exists()
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["frames"] == 120
    assert summary["births"] >= 1
    assert json.loads(stats.read_text())["stage_update_s"] == summary["stage_update_s"] > 0
    # a track run prepares every frame after the first, between frames
    assert json.loads(stats.read_text())["stage_prepare_s"] == summary["stage_prepare_s"] > 0
    assert not any(key.startswith("updates_") for key in json.loads(stats.read_text()))

    assert main(["report", "--traj", str(traj), "--truth", str(out / "truth.csv"),
                 "--fps", "100", "--stats", str(stats),
                 "--out-json", str(tmp_path / "report.json"),
                 "--hist-csv", str(tmp_path / "hist.csv")]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["position_rmse"] < 0.01
    assert report["id_switches"] == 0
    assert "latency_p50" in report
    assert (tmp_path / "hist.csv").exists()


def test_track_counts_rows_of_cameras_outside_the_calibration(tmp_path, capsys):
    # a features file naming a camera the calibration does not hold: its
    # record is dropped and counted as unknown_camera before assembly, and
    # the trajectory is as without it
    out = tmp_path / "scene"
    assert main(["simulate", "--preset", "smalltunnel", "--targets", "1",
                 "--frames", "20", "--seed", "5", "--out-dir", str(out)]) == 0
    plain = (out / "features.jsonl").read_text()
    ghost = {"frame": 3, "cam": "ghost", "t": 0.03,
             "features": [[100.0, 100.0, 20.0, 150.0, 0.0, 2.0]] * 3
             + [[float("nan"), 100.0, 20.0, 150.0, 0.0, 2.0]]}
    (tmp_path / "haunted.jsonl").write_text(plain + json.dumps(ghost) + "\n")
    summaries, trajectories = [], []
    for features in (out / "features.jsonl", tmp_path / "haunted.jsonl"):
        traj, stats = tmp_path / f"{features.stem}.csv", tmp_path / f"{features.stem}.json"
        assert main(["track", "--config", str(out / "run.cfg"), "--features", str(features),
                     "--calibration", str(out / "calibration.cal"),
                     "--out", str(traj), "--stats-out", str(stats)]) == 0
        printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        summaries.append((printed, json.loads(stats.read_text())))
        trajectories.append(traj.read_bytes())
    assert trajectories[0] == trajectories[1]
    for (printed, saved), ghosts in zip(summaries, [0, 1]):
        for summary in (printed, saved):
            assert summary["unknown_camera"] == ghosts
            assert (summary["unknown_camera_rows"], summary["nonfinite_rows"]) == (0, 0)
            assert summary["frames"] == 20


@pytest.fixture(scope="module")
def scene20(tmp_path_factory):
    """A simulated 20-frame scene, and the trajectory and summary of its
    features file."""
    out = tmp_path_factory.mktemp("scene20")
    assert main(["simulate", "--preset", "smalltunnel", "--targets", "1",
                 "--frames", "20", "--seed", "5", "--out-dir", str(out)]) == 0
    lines = (out / "features.jsonl").read_text().splitlines(keepends=True)
    traj, summary = track_lines(out, lines)
    assert not any(summary[k] for k in ("late", "duplicates", "partial", "far_ahead",
                                        "unknown_camera", "undecodable"))
    assert summary["frames"] == 20
    return out, lines, traj


def track_lines(scene, lines, name="features.jsonl"):
    """The trajectory bytes and the printed summary of `track` over a
    features file of `lines`."""
    features, traj = scene / f"in-{name}", scene / f"out-{name}.csv"
    features.write_text("".join(lines))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["track", "--config", str(scene / "run.cfg"), "--features", str(features),
                     "--calibration", str(scene / "calibration.cal"), "--out", str(traj)]) == 0
    return traj.read_bytes(), json.loads(out.getvalue().splitlines()[-1])


def test_track_drops_one_corrupt_frame_number_and_keeps_tracking(scene20):
    # a record of camera cam00 numbered 502 after frame 2: it waits for
    # cam00's next record, frame 3, and is dropped; every frame comes out
    scene, lines, clean = scene20
    first3 = next(i for i, line in enumerate(lines) if json.loads(line)["frame"] == 3)
    corrupt = json.loads(lines[first3])
    assert corrupt["cam"] == "cam00"
    corrupt["frame"] = 502
    traj, summary = track_lines(scene, lines[:first3] + [json.dumps(corrupt) + "\n"]
                                + lines[first3:], "corrupt.jsonl")
    assert (summary["frames"], summary["far_ahead"], summary["late"]) == (20, 1, 0)
    assert summary["partial"] == 0
    assert traj == clean


def test_track_keeps_the_first_of_two_records_for_one_camera_and_frame(scene20):
    scene, lines, clean = scene20
    i = next(i for i, line in enumerate(lines) if json.loads(line)["frame"] == 5)
    second = json.loads(lines[i])
    second["features"] = [[u + 7.0 for u in row] for row in second["features"]] or [[1.0] * 6]
    traj, summary = track_lines(scene, lines[:i + 1] + [json.dumps(second) + "\n"]
                                + lines[i + 1:], "duplicate.jsonl")
    assert (summary["duplicates"], summary["late"], summary["frames"]) == (1, 0, 20)
    assert traj == clean


def bad_feature_lines():
    """Lines that are not records a camera could send: each one of the
    kinds a corrupt or hand-edited file holds."""
    record = st.fixed_dictionaries({
        "frame": st.integers(0, 30), "cam": st.sampled_from(["cam00", "cam01", "ghost"]),
        "t": st.floats(0, 1), "features": st.lists(
            st.lists(st.floats(0, 500), min_size=6, max_size=6), max_size=3)})
    return st.one_of(
        record.map(lambda r: {**r, "t": math.nan}),
        record.flatmap(lambda r: st.lists(st.lists(st.floats(0, 500), min_size=5, max_size=5),
                                          min_size=1, max_size=6).map(
            lambda rows: {**r, "features": rows})),
        record.map(lambda r: {k: v for k, v in r.items() if k != "frame"}),
        record.flatmap(lambda r: st.text(max_size=20).map(lambda s: {**r, "frame": s})),
    ).map(json.dumps) | record.flatmap(
        lambda r: st.integers(1, len(json.dumps(r)) - 1).map(lambda n: json.dumps(r)[:n]))


@settings(max_examples=15, deadline=None)
@given(bad=st.lists(bad_feature_lines(), min_size=1, max_size=4))
def test_track_counts_bad_lines_and_writes_the_same_trajectory(scene20, bad):
    scene, lines, clean = scene20
    traj, summary = track_lines(scene, lines + [line + "\n" for line in bad], "bad.jsonl")
    assert traj == clean
    assert summary["undecodable"] == len(bad)
    assert not any(summary[k] for k in ("late", "duplicates", "partial", "far_ahead",
                                        "unknown_camera"))


def test_simulate_render_writes_pgm(tmp_path):
    out = tmp_path / "scene"
    assert main(["simulate", "--preset", "smalltunnel", "--targets", "1",
                 "--frames", "3", "--seed", "1", "--out-dir", str(out),
                 "--render"]) == 0
    pgms = list((out / "frames").rglob("*.pgm"))
    assert len(pgms) == 3 * 5  # frames x cameras


def test_calibrate_dlt_command(tmp_path, capsys):
    cam = look_at_camera((1.0, -2.0, 1.2), (0.0, 0.0, 0.3), "truth")
    rng = np.random.default_rng(3)
    pts = rng.uniform([-0.4, -0.4, 0.0], [0.4, 0.4, 0.6], size=(12, 3))
    path = tmp_path / "points.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y", "z", "u", "v"])
        for X in pts:
            u, v = project(cam, X)
            w.writerow([*X, u, v])
    out = tmp_path / "cam.cal"
    assert main(["calibrate-dlt", "--points", str(path), "--out", str(out),
                 "--id", "est", "--width", "640", "--height", "480"]) == 0
    est = load_calibration(out)[0]
    u, v = project(est, pts[0])
    truth_uv = project(cam, pts[0])
    assert abs(u - truth_uv[0]) < 1e-6 and abs(v - truth_uv[1]) < 1e-6


def write_correspondences(path, cam, pts, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["x", "y", "z", "u", "v"])
        for X in pts:
            x = cam.projection @ np.append(X, 1.0)  # points behind the camera too
            w.writerow([*X, *(x[:2] / x[2] + rng.normal(0.0, noise, 2))])


def test_calibrate_dlt_prints_the_per_point_mean_error(tmp_path, capsys):
    cam = look_at_camera((1.0, -2.0, 1.2), (0.0, 0.0, 0.3), "truth")
    pts = np.random.default_rng(4).uniform([-0.4, -0.4, 0.0], [0.4, 0.4, 0.6], size=(15, 3))
    path, out = tmp_path / "points.csv", tmp_path / "cam.cal"
    write_correspondences(path, cam, pts, noise=0.5)
    assert main(["calibrate-dlt", "--points", str(path), "--out", str(out),
                 "--id", "est"]) == 0
    est = load_calibration(out)[0]
    with open(path, newline="") as f:
        rows = [[float(r[k]) for k in "xyzuv"] for r in csv.DictReader(f)]
    errs = []
    for x, y, z, u, v in rows:  # one project call per point
        pu, pv = project(est, (x, y, z))
        errs.append(np.hypot(pu - u, pv - v))
    assert capsys.readouterr().out == (f"calibrated est: mean reprojection error "
                                       f"{float(np.mean(errs)):.6g} px over 15 points\n")


def test_calibrate_dlt_fails_on_a_point_behind_the_camera(tmp_path):
    cam = look_at_camera((1.0, -2.0, 1.2), (0.0, 0.0, 0.3), "truth")
    pts = np.random.default_rng(5).uniform([-0.4, -0.4, 0.0], [0.4, 0.4, 0.6], size=(12, 3))
    behind = 2.0 * np.array([1.0, -2.0, 1.2]) - np.array([0.0, 0.0, 0.3])
    path = tmp_path / "points.csv"
    write_correspondences(path, cam, np.vstack([pts[:5], behind, pts[5:]]))
    with pytest.raises(BehindCamera):
        main(["calibrate-dlt", "--points", str(path), "--out", str(tmp_path / "cam.cal"),
              "--id", "est"])


def test_triangulate_command(tmp_path, capsys):
    spec = preset("smalltunnel", seed=9)
    cams = generate_rig(spec, calibration_path=tmp_path / "rig.cal")
    X = np.array([0.1, -0.05, 0.2])
    path = tmp_path / "obs.csv"
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["cam", "u", "v"])
        for c in cams[:3]:
            u, v = project(c, X)
            w.writerow([c.cam_id, u, v])
    assert main(["triangulate", "--calibration", str(tmp_path / "rig.cal"),
                 "--points", str(path)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    vals = out[1].split(",")
    point = np.array([float(v) for v in vals[:3]])
    assert np.linalg.norm(point - X) < 1e-9


def test_triangulate_command_grouped_frames(tmp_path, capsys):
    spec = preset("smalltunnel", seed=9)
    cams = generate_rig(spec, calibration_path=tmp_path / "rig.cal")
    path = tmp_path / "obs.csv"
    points = {0: np.array([0.0, 0.0, 0.15]), 1: np.array([0.2, 0.05, 0.2])}
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["frame", "cam", "u", "v"])
        for frame, X in points.items():
            for c in cams[:2]:
                u, v = project(c, X)
                w.writerow([frame, c.cam_id, u, v])
    assert main(["triangulate", "--calibration", str(tmp_path / "rig.cal"),
                 "--points", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("frame,")
    assert len(lines) == 3


@pytest.mark.parametrize("port", ["65536", "99999999"])
def test_track_on_a_port_out_of_range_exits_with_one_line(port, tmp_path, capsys, monkeypatch):
    # bind() would raise OverflowError; the port is checked before any socket
    import camtrack3d.cli as cli

    generate_rig(preset("smalltunnel", seed=13), calibration_path=tmp_path / "rig.cal")
    monkeypatch.setattr(cli, "PacketListener", None)  # calling it fails the test
    rc = main(["track", "--features", port, "--calibration", str(tmp_path / "rig.cal"),
               "--out", str(tmp_path / "traj.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"track: port {port} is out of range 0-65535"]
    assert not (tmp_path / "traj.csv").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_track_rejects_a_wait_budget_that_never_runs_out(value, tmp_path, monkeypatch):
    # the config's wait budget reaches the assembler checked, before any
    # socket is made
    import camtrack3d.cli as cli

    generate_rig(preset("smalltunnel", seed=13), calibration_path=tmp_path / "rig.cal")
    (tmp_path / "run.cfg").write_text(f"wait_budget = {value}\n")
    monkeypatch.setattr(cli, "PacketListener", None)  # calling it fails the test
    with pytest.raises(ValueError, match="wait_budget"):
        main(["track", "--config", str(tmp_path / "run.cfg"), "--features", "0",
              "--calibration", str(tmp_path / "rig.cal"), "--out", str(tmp_path / "traj.csv")])


def test_report_hist_csv_bins_the_tracks_of_evaluates_speeds(tmp_path):
    # a 5-frame track is too short for evaluate's speed statistics, and so
    # for the histogram: only the 20-frame track's speeds are binned
    from camtrack3d.metrics import horizontal_speed, read_histogram_csv, speed_histogram
    from camtrack3d.simharness import TruthTrajectory, write_truth_csv
    from camtrack3d.tracker import TargetState, TrajectoryWriter

    steps = np.arange(20)[:, None]
    # 0.1 to 0.5 m/s at 100 fps, and 2 m/s
    slow = [0.0, 0.0, 0.3] + (0.001 * steps + 1e-4 * steps ** 2) * [1.0, 0.0, 0.0]
    fast = [0.2, 0.1, 0.3] + 0.02 * steps[:5] * [0.0, 1.0, 0.0]
    with TrajectoryWriter(tmp_path / "traj.csv") as w:
        for f in range(20):
            states = [TargetState(0, np.append(slow[f], [0.1, 0.0, 0.0]), np.eye(6))]
            if f < 5:
                states.append(TargetState(1, np.append(fast[f], [0.0, 2.0, 0.0]), np.eye(6)))
            w.write_frame(f, states)
    write_truth_csv(tmp_path / "truth.csv",
                    [TruthTrajectory(0, 0, slow, np.tile([0.1, 0.0, 0.0], (20, 1)))])
    assert main(["report", "--traj", str(tmp_path / "traj.csv"),
                 "--truth", str(tmp_path / "truth.csv"), "--fps", "100",
                 "--out-json", str(tmp_path / "report.json"),
                 "--hist-csv", str(tmp_path / "hist.csv")]) == 0
    speeds = horizontal_speed(slow, 0.01)
    edges, density = read_histogram_csv(tmp_path / "hist.csv")
    want_edges, want_density = speed_histogram(speeds)
    assert edges.tobytes() == want_edges.tobytes()
    assert density.tobytes() == want_density.tobytes()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["horizontal_speed_mean"] == float(np.mean(speeds))


def test_track_over_tcp(tmp_path, capsys):
    # end-to-end: camera nodes stream packets over loopback TCP while the
    # hub tracks in realtime
    from camtrack3d.netproto import send_packets
    from camtrack3d.simharness import simulate_truth, synthesize_observations

    out = tmp_path / "scene"
    out.mkdir()
    spec = preset("smalltunnel", seed=13, pixel_noise=0.5)
    cams = generate_rig(spec, calibration_path=out / "rig.cal")
    truths = simulate_truth(spec, 1, 60, maneuver_sigma=0.0, speed=0.05)
    packets = synthesize_observations(truths, cams, spec)

    # find a free port by binding a listener first
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    flat = [p for per_cam in packets for p in per_cam]

    def feed():
        import time

        time.sleep(0.3)  # let the CLI listener start
        send_packets("127.0.0.1", port, flat)

    sender = threading.Thread(target=feed)
    sender.start()
    traj = tmp_path / "traj.csv"
    rc = main(["track", "--features", str(port),
               "--calibration", str(out / "rig.cal"), "--out", str(traj)])
    sender.join()
    assert rc == 0
    from camtrack3d.tracker import read_trajectory_csv

    rows = read_trajectory_csv(traj)
    assert len(rows) == 60


def test_track_over_tcp_reports_transport_counters(tmp_path, capsys):
    # one packet that does not decode and one from a camera the calibration
    # does not name, sent ahead of the scene on the same connection, are
    # dropped, counted and reported with the hub's counters; the unknown
    # camera's packet completes no frame, so no real packet arrives late
    import dataclasses
    import socket
    import struct
    import time

    from camtrack3d.netproto import write_packet
    from camtrack3d.simharness import simulate_truth, synthesize_observations

    spec = preset("smalltunnel", seed=13, pixel_noise=0.5)
    cams = generate_rig(spec, calibration_path=tmp_path / "rig.cal")
    truths = simulate_truth(spec, 1, 20, maneuver_sigma=0.0, speed=0.05)
    flat = [p for per_cam in synthesize_observations(truths, cams, spec) for p in per_cam]

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    def feed():
        time.sleep(0.3)  # let the CLI listener start
        with socket.create_connection(("127.0.0.1", port)) as sock:
            sock.sendall(struct.pack("<I", 3) + b"\x00\x01\x02")
            write_packet(sock, dataclasses.replace(flat[0], cam_id="ghost"))
            for p in flat:
                write_packet(sock, p)

    sender = threading.Thread(target=feed)
    sender.start()
    stats_path = tmp_path / "stats.json"
    rc = main(["track", "--features", str(port), "--calibration", str(tmp_path / "rig.cal"),
               "--out", str(tmp_path / "traj.csv"), "--stats-out", str(stats_path)])
    sender.join()
    assert rc == 0
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    saved = json.loads(stats_path.read_text())
    for summary in (printed, saved):
        assert summary["undecodable"] == 1
        assert summary["unknown_camera"] == 1
        assert summary["late"] == 0
        assert summary["closed_connections"] == 0
        assert {"late", "duplicates", "partial"} <= set(summary)
        assert summary["frames"] == 20
        assert summary["likelihood_dist2d_evals"] > 0
        assert summary["spawn_passes"] > 0


def test_live_frames_feed_the_packets_received_before_the_stop():
    # when the stop is seen the listener can still read four of five
    # cameras' packets of frame 7, and the fifth only after it has once
    # had nothing to read: the four are fed and their partial frame is
    # flushed, the fifth is not fed
    from camtrack3d.cli import _live_frames
    from camtrack3d.netproto import FrameAssembler
    from camtrack3d.simharness import simulate_truth, synthesize_observations

    spec = preset("smalltunnel", seed=13, pixel_noise=0.5)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, 1, 8, maneuver_sigma=0.0, speed=0.05)
    packets = synthesize_observations(truths, cams, spec)[7]

    class QueuedListener:
        def __init__(self, items):
            self.items = list(items)

        def get(self, timeout=0.05):
            item = self.items.pop(0)
            return None if item is None else (time.monotonic(), item)

    listener = QueuedListener([*packets[:4], None, packets[4]])
    asm = FrameAssembler(camera_ids=[c.cam_id for c in cams], wait_budget=600.0)
    stop = threading.Event()
    stop.set()
    frames = list(_live_frames(listener, asm, stop))
    assert [f.frame for f in frames] == [7]
    assert not frames[0].complete
    assert sorted(frames[0].features_by_camera) == sorted(p.cam_id for p in packets[:4])
    assert listener.items == [packets[4]]


def test_live_frames_end_after_the_stop_while_packets_keep_coming():
    # a camera that keeps the listener busy after the stop cannot hold
    # the run open: the drain ends at the first packet read more than the
    # wait budget after the stop
    from camtrack3d.cli import _live_frames
    from camtrack3d.netproto import FrameAssembler, FramePacket

    class BusyListener:
        fed = 0

        def get(self, timeout=0.05):
            self.fed += 1
            assert self.fed < 5_000, "the drain did not end"
            time.sleep(0.001)
            return time.monotonic(), FramePacket("c0", self.fed, 0, np.zeros((0, 6)))

    listener = BusyListener()
    asm = FrameAssembler(camera_ids=["c0", "c1"], wait_budget=0.02)
    stop = threading.Event()
    stop.set()
    frames = list(_live_frames(listener, asm, stop))
    assert [f.frame for f in frames] == list(range(1, listener.fed))


@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM])
def test_live_track_ends_cleanly_on_signal(tmp_path, signum):
    # one camera connection stays open, and the last frame waits in the
    # assembler for a camera that never reports (the wait budget is long):
    # a signal ends the run, the pending frame is processed, and the
    # trajectory and the summary are written
    from camtrack3d.netproto import write_packet
    from camtrack3d.simharness import simulate_truth, synthesize_observations
    from camtrack3d.tracker import read_trajectory_csv

    spec = preset("smalltunnel", seed=13, pixel_noise=0.5)
    generate_rig(spec, calibration_path=tmp_path / "rig.cal")
    cams = load_calibration(tmp_path / "rig.cal")
    truths = simulate_truth(spec, 1, 20, maneuver_sigma=0.0, speed=0.05)
    packets = synthesize_observations(truths, cams, spec)
    (tmp_path / "run.cfg").write_text("wait_budget = 600\n")
    traj, stats_path = tmp_path / "traj.csv", tmp_path / "stats.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "camtrack3d.cli", "track", "--config", str(tmp_path / "run.cfg"),
         "--features", "0", "--calibration", str(tmp_path / "rig.cal"),
         "--out", str(traj), "--stats-out", str(stats_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=checkout_env(),
        bufsize=0)  # unbuffered: communicate() reads the pipes past any buffer

    def fail(why, err=b""):
        """End the child and fail with `why` and everything it wrote to stderr."""
        if proc.poll() is None:
            proc.kill()
        err += proc.communicate()[1]
        pytest.fail(f"{why} (exit code {proc.returncode}); track's stderr:\n"
                    f"{err.decode(errors='replace')}")

    try:
        line = proc.stderr.readline()
        if not line.startswith(b"listening on port"):
            fail(f"track did not report its port, first stderr line {line!r}", line)
        port = int(line.decode().split()[-1])
        with socket.create_connection(("127.0.0.1", port)) as sock:
            for per_cam in packets[:-1]:
                for p in per_cam:
                    write_packet(sock, p)
            for p in packets[-1][:-1]:
                write_packet(sock, p)
            deadline = time.monotonic() + 60
            while not (traj.exists() and "\n18," in traj.read_text()):
                if proc.poll() is not None:
                    fail("track exited before writing frame 18")
                if time.monotonic() > deadline:
                    fail("frame 18 not in the trajectory after 60 s")
                time.sleep(0.02)
            proc.send_signal(signum)
            try:
                out, err = proc.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                fail("track still running 60 s after the signal")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    stderr = f"track's stderr:\n{err.decode(errors='replace')}"
    assert proc.returncode == 0, stderr
    assert sorted(read_trajectory_csv(traj)) == list(range(20)), stderr
    printed = json.loads(out.decode().strip().splitlines()[-1])
    saved = json.loads(stats_path.read_text())
    for name, summary in (("printed", printed), ("saved", saved)):
        assert summary["frames"] == 20, (name, stderr)
        assert summary["partial"] == 1, (name, stderr)
        assert summary["late"] == 0, (name, stderr)
        assert summary["stage_prepare_s"] > 0, (name, stderr)
    assert len(saved["latencies"]) == 20, stderr

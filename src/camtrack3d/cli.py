"""Command line front end.

Subcommands:
  simulate       generate a synthetic rig, truth, and feature stream
  track          run the tracking hub over a feature stream (JSONL or TCP)
  calibrate-dlt  estimate a camera from 3D/2D correspondences
  triangulate    triangulate pixel observations through a calibration
  report         score a trajectory CSV against a truth CSV
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import signal
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import geometry, hub, metrics, simharness
from .features import read_features_jsonl, write_features_jsonl
from .netproto import FrameAssembler, PacketListener, assemble


def _cmd_simulate(args) -> int:
    overrides = {}
    if args.clutter is not None:
        overrides["clutter_rate"] = args.clutter
    if args.detection is not None:
        overrides["detection_prob"] = args.detection
    if args.noise is not None:
        overrides["pixel_noise"] = args.noise
    spec = simharness.preset(args.preset, seed=args.seed, **overrides)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    cameras = simharness.generate_rig(spec, calibration_path=out / "calibration.cal")
    truths = simharness.simulate_truth(spec, args.targets, args.frames,
                                       maneuver_sigma=args.maneuver,
                                       crossing=args.crossing)
    simharness.write_truth_csv(out / "truth.csv", truths)
    packets = simharness.synthesize_observations(truths, cameras, spec,
                                                 n_frames=args.frames)
    write_features_jsonl(out / "features.jsonl", itertools.chain.from_iterable(packets))
    cfg = dict(cfgmod.DEFAULTS)
    cfg["dt"] = spec.dt
    cfg["seed"] = spec.seed
    cfgmod.save_config(out / "run.cfg", cfg)
    if args.render:
        simharness.render_pgm_frames(out / "frames", packets, spec.image_size)
    print(f"wrote calibration, truth.csv, features.jsonl, run.cfg to {out}")
    return 0


def _tracking_world(cfg, cameras) -> hub.TrackerWorld:
    pm, om, gate = cfgmod.models_from_config(cfg, cameras)
    return hub.TrackerWorld(process=pm, observation=om, gate=gate)


@contextmanager
def _stop_on_signal():
    """An event that SIGINT or SIGTERM sets while the block runs, in place
    of their default actions (in the main thread; elsewhere it is never
    set)."""
    stop = threading.Event()
    if threading.current_thread() is not threading.main_thread():
        yield stop
        return
    signals = (signal.SIGINT, signal.SIGTERM)
    previous = [signal.signal(s, lambda *_: stop.set()) for s in signals]
    try:
        yield stop
    finally:
        for s, handler in zip(signals, previous):
            signal.signal(s, handler)


def _live_frames(listener, asm: FrameAssembler, stop: threading.Event):
    """The assembled frames of the listener's packets, each arriving when
    ``get`` reads it. The wait budget is consulted only while nothing is
    left to read, so a lagging consumer never takes its delay for camera
    loss. The stream ends when every camera has disconnected or once
    `stop` is set; what can be read at once is then fed, up to a packet
    read a wait budget after the stop, and the pending frames flushed."""
    stopped_at = None
    while True:
        if stopped_at is None and stop.is_set():
            stopped_at = time.monotonic()
        try:
            item = listener.get(timeout=0.02 if stopped_at is None else 0)
        except EOFError:
            break
        if item is None:
            if stopped_at is not None:  # drained
                break
            yield from asm.flush_due()
            continue
        arrived, packet = item
        if stopped_at is not None and arrived > stopped_at + asm.wait_budget:
            break  # a backlog: it cannot hold the run open
        yield from asm.feed(packet, now=arrived)
    yield from asm.finish()


def _cmd_track(args) -> int:
    cameras = geometry.load_calibration(args.calibration)
    cfg = cfgmod.load_config(args.config) if args.config else {}
    world = _tracking_world(cfg, cameras)
    wait_budget = float(cfg.get("wait_budget", cfgmod.DEFAULTS["wait_budget"]))
    camera_ids = [c.cam_id for c in cameras]
    if args.features.isdigit():
        port = int(args.features)
        listener = PacketListener(host="0.0.0.0", port=port).start()
        print(f"listening on port {listener.address[1]}", file=sys.stderr)
        asm = FrameAssembler(camera_ids=camera_ids, wait_budget=wait_budget)
        try:
            with _stop_on_signal() as stop:
                stats = hub.run(_live_frames(listener, asm, stop), world,
                                trajectory_path=args.out,
                                dump_assignments_path=args.dump_assignments)
        finally:
            listener.stop()
        drops = listener.counters()
    else:
        # a clock that never moves: a file's frames wait for their cameras, not for time
        asm = FrameAssembler(camera_ids=camera_ids, clock=lambda: 0.0)
        drops = {"undecodable": 0}
        stats = hub.run(assemble(read_features_jsonl(args.features, drops), asm), world,
                        trajectory_path=args.out,
                        dump_assignments_path=args.dump_assignments)
    summary = {**stats.summary(), **asm.counters(), **drops}
    if args.stats_out:
        payload = dict(summary)
        payload["latencies"] = list(stats.latencies)
        metrics.write_report_json(args.stats_out, payload)
    print(json.dumps(summary, sort_keys=True))
    return 0


def _cmd_calibrate_dlt(args) -> int:
    corr = []
    with open(args.points, newline="") as f:
        for row in csv.DictReader(f):
            corr.append((np.array([float(row["x"]), float(row["y"]), float(row["z"])]),
                         (float(row["u"]), float(row["v"]))))
    cam = geometry.dlt_calibrate(corr, cam_id=args.id,
                                 image_size=(args.width, args.height)
                                 if args.width and args.height else None)
    geometry.save_calibration(args.out, [cam])
    x, ok = geometry.project_points([cam], [X for X, _ in corr])
    if not ok.all():  # raise what project raises for the first such point
        geometry.project(cam, corr[int(np.argmin(ok))][0])
    uv = np.array([px for _, px in corr])
    errs = np.hypot(x[:, 0, 0] / x[:, 0, 2] - uv[:, 0], x[:, 0, 1] / x[:, 0, 2] - uv[:, 1])
    print(f"calibrated {args.id}: mean reprojection error "
          f"{float(np.mean(errs)):.6g} px over {len(corr)} points")
    return 0


def _cmd_triangulate(args) -> int:
    cameras = {c.cam_id: c for c in geometry.load_calibration(args.calibration)}
    rows = []
    with open(args.points, newline="") as f:
        reader = csv.DictReader(f)
        grouped = "frame" in (reader.fieldnames or [])
        for row in reader:
            rows.append(row)
    writer = csv.writer(sys.stdout)
    if grouped:
        writer.writerow(["frame", "x", "y", "z", "reprojection_error_px"])
        by_frame: dict[int, list] = {}
        for row in rows:
            by_frame.setdefault(int(row["frame"]), []).append(row)
        for frame in sorted(by_frame):
            views = [(cameras[r["cam"]], (float(r["u"]), float(r["v"])))
                     for r in by_frame[frame]]
            point, err = geometry.triangulate(views)
            writer.writerow([frame, *(repr(float(x)) for x in point), repr(err)])
    else:
        views = [(cameras[r["cam"]], (float(r["u"]), float(r["v"]))) for r in rows]
        point, err = geometry.triangulate(views)
        writer.writerow(["x", "y", "z", "reprojection_error_px"])
        writer.writerow([*(repr(float(x)) for x in point), repr(err)])
    return 0


def _cmd_report(args) -> int:
    cameras = geometry.load_calibration(args.calibration) if args.calibration else None
    latencies = None
    if args.stats:
        with open(args.stats) as f:
            latencies = json.load(f).get("latencies")
    landmark = tuple(args.landmark) if args.landmark else None
    report = metrics.evaluate(args.traj, args.truth,
                              matching_radius=args.radius,
                              cameras=cameras, landmark=landmark,
                              latencies=latencies, fps=args.fps)
    if args.out_json:
        metrics.write_report_json(args.out_json, report)
    if args.hist_csv:
        from .tracker import read_trajectory_csv

        est = read_trajectory_csv(args.traj)
        speeds = []
        ids = {tid for fr in est.values() for tid in fr}
        for tid in sorted(ids):
            fl = sorted(t for t in est if tid in est[t])
            if len(fl) < 3:
                continue
            pos = np.array([est[t][tid][:3] for t in fl])
            speeds.append(metrics.horizontal_speed(pos, 1.0 / args.fps))
        if speeds:
            edges, density = metrics.speed_histogram(np.concatenate(speeds))
            metrics.write_histogram_csv(args.hist_csv, edges, density)
    print(json.dumps(report, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="camtrack3d",
                                description="multi-camera 3D target tracking")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic scene")
    sim.add_argument("--preset", default="smalltunnel",
                     choices=sorted(simharness.PRESETS))
    sim.add_argument("--targets", type=int, default=1)
    sim.add_argument("--frames", type=int, default=500)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--maneuver", type=float, default=0.0,
                     help="per-frame velocity noise, m/s")
    sim.add_argument("--clutter", type=float, default=None)
    sim.add_argument("--detection", type=float, default=None)
    sim.add_argument("--noise", type=float, default=None, help="pixel noise sigma")
    sim.add_argument("--crossing", action="store_true",
                     help="launch targets through a common crossing point")
    sim.add_argument("--render", action="store_true", help="also write PGM frames")
    sim.set_defaults(func=_cmd_simulate)

    tr = sub.add_parser("track", help="run the tracking hub")
    tr.add_argument("--config", default=None)
    tr.add_argument("--features", required=True,
                    help="feature JSONL path, or a TCP port number to listen on")
    tr.add_argument("--calibration", required=True)
    tr.add_argument("--out", required=True, help="trajectory CSV path")
    tr.add_argument("--dump-assignments", default=None,
                    help="per-frame assignment JSONL (diagnostic)")
    tr.add_argument("--stats-out", default=None, help="end-of-run stats JSON")
    tr.set_defaults(func=_cmd_track)

    cal = sub.add_parser("calibrate-dlt", help="DLT camera calibration")
    cal.add_argument("--points", required=True,
                     help="CSV with columns x,y,z,u,v")
    cal.add_argument("--out", required=True)
    cal.add_argument("--id", default="dlt")
    cal.add_argument("--width", type=int, default=None)
    cal.add_argument("--height", type=int, default=None)
    cal.set_defaults(func=_cmd_calibrate_dlt)

    tri = sub.add_parser("triangulate", help="triangulate pixel observations")
    tri.add_argument("--calibration", required=True)
    tri.add_argument("--points", required=True,
                     help="CSV with columns cam,u,v (optionally frame)")
    tri.set_defaults(func=_cmd_triangulate)

    rep = sub.add_parser("report", help="score trajectory against truth")
    rep.add_argument("--traj", required=True)
    rep.add_argument("--truth", required=True)
    rep.add_argument("--radius", type=float, default=0.05)
    rep.add_argument("--fps", type=float, default=100.0)
    rep.add_argument("--calibration", default=None)
    rep.add_argument("--landmark", type=float, nargs=3, default=None)
    rep.add_argument("--stats", default=None, help="stats JSON from track")
    rep.add_argument("--out-json", default=None)
    rep.add_argument("--hist-csv", default=None, help="speed histogram CSV")
    rep.set_defaults(func=_cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())

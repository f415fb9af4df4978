"""Trajectory kinematics and run scoring.

Computes horizontal speed, angular velocity and landmark approach angle
for analytic trajectories (where the right answers are known), then runs
the full simulate -> track -> evaluate loop and prints the report.

Run:  python3 demos/06_kinematics_report.py
"""

import tempfile
from pathlib import Path

import numpy as np

from camtrack3d.association import GateConfig
from camtrack3d.hub import TrackerWorld, packets_to_assembled, run
from camtrack3d.metrics import (
    angular_velocity,
    approach_angle,
    evaluate,
    horizontal_speed,
    speed_histogram,
    write_histogram_csv,
)
from camtrack3d.simharness import (
    generate_rig,
    preset,
    simulate_truth,
    synthesize_observations,
)
from camtrack3d.tracker import ObservationModel, ProcessModel, read_trajectory_csv

print("=== analytic sanity: circle and straight line ===")
fps = 100.0
r, v = 0.10, 0.15
t = np.arange(600) / fps
circle = np.stack([r * np.cos(v / r * t), r * np.sin(v / r * t),
                   np.full_like(t, 0.3)], axis=1)
w = angular_velocity(circle, 1 / fps)[5:-5]
print(f"circle r={r} m at {v} m/s: angular velocity "
      f"{np.mean(w):.3f} rad/s (v/r = {v / r:.3f})")

line = np.outer(t, [0.15, 0.0, 0.0])
print(f"straight flight: horizontal speed "
      f"{horizontal_speed(line, 1 / fps).mean():.4f} m/s (truth 0.15)")

post = np.array([0.5, 0.0, 0.3])
psi = approach_angle(line, 1 / fps, post)
print(f"approach angle to a post dead ahead: {np.degrees(psi.mean()):.2f} deg")

print("\n=== full pipeline: simulate, track, evaluate ===")
spec = preset("smalltunnel", seed=6, clutter_rate=0.5, detection_prob=0.97)
cams = generate_rig(spec)
truths = simulate_truth(spec, 2, 400, maneuver_sigma=0.004)
packets = synthesize_observations(truths, cams, spec)
frames = packets_to_assembled(packets, spec.n_cameras)
world = TrackerWorld(process=ProcessModel(dt=spec.dt),
                     observation=ObservationModel(cameras=cams),
                     gate=GateConfig())
out_dir = Path(tempfile.gettempdir())
traj_path = out_dir / "demo_traj.csv"
hist_path = out_dir / "demo_speed_hist.csv"
stats = run(frames, world, trajectory_path=traj_path)
report = evaluate(traj_path, truths, matching_radius=0.05,
                  cameras=cams, landmark=(0.0, 0.0, 0.15),
                  latencies=stats.latencies, fps=spec.fps)
for key in sorted(report):
    val = report[key]
    print(f"  {key:30s} {val:.6g}" if isinstance(val, float) else
          f"  {key:30s} {val}")

est = read_trajectory_csv(traj_path)
speeds = []
for tid in {t for fr in est.values() for t in fr}:
    fl = sorted(f for f in est if tid in est[f])
    pos = np.array([est[f][tid][:3] for f in fl])
    speeds.append(horizontal_speed(pos, spec.dt))
edges, density = speed_histogram(np.concatenate(speeds), bins=30)
write_histogram_csv(hist_path, edges, density)
print(f"\nwrote {traj_path} and {hist_path} (per-bin normalized counts)")

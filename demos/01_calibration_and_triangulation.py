"""Cameras, calibration and triangulation.

Builds a five-camera desk rig, calibrates one camera from scratch with the
linear (DLT) method, then triangulates noisy two-view and five-view
observations to show how reprojection error and 3D error behave.

Run:  python3 demos/01_calibration_and_triangulation.py
"""

import tempfile
from pathlib import Path

import numpy as np

from camtrack3d.geometry import (
    dlt_calibrate,
    load_calibration,
    normalized_projection,
    pixel_ray,
    project,
    save_calibration,
    triangulate,
)
from camtrack3d.simharness import generate_rig, preset

rng = np.random.default_rng(1)

print("=== build a synthetic rig ===")
spec = preset("smalltunnel")
cams = generate_rig(spec)
print(f"{spec.n_cameras} cameras around a "
      f"{spec.arena[0]}x{spec.arena[1]}x{spec.arena[2]} m arena at {spec.fps} fps")
print(f"camera centers:\n{np.round([c.center for c in cams], 3)}")

print("\n=== DLT calibration from 10 world/pixel correspondences ===")
truth_cam = cams[0]
lo, hi = spec.bounds
points = rng.uniform(lo + 0.05, hi - 0.05, size=(10, 3))
correspondences = [(X, project(truth_cam, X)) for X in points]
estimated = dlt_calibrate(correspondences, cam_id="recovered",
                          image_size=truth_cam.image_size)
diff = (normalized_projection(estimated.projection)
        - normalized_projection(truth_cam.projection))
print(f"max |P_est - P_true| after normalization: {np.abs(diff).max():.2e}")

print("\n=== triangulation: noiseless vs 1 px noise ===")
X = np.array([0.2, -0.05, 0.18])
views = [(c, project(c, X)) for c in cams]
point, err = triangulate(views)
print(f"noiseless: 3D error {np.linalg.norm(point - X):.2e} m, "
      f"reprojection {err:.2e} px")

sigma = 2 ** -0.5  # noise with 1 px RMS displacement
errs3d, errs_px = [], []
for _ in range(500):
    noisy = [(c, (u + rng.normal(0, sigma), v + rng.normal(0, sigma)))
             for c, (u, v) in views]
    p, e = triangulate(noisy)
    errs3d.append(np.linalg.norm(p - X))
    errs_px.append(e)
print(f"1 px noise, 5 views, 500 trials: mean 3D error "
      f"{np.mean(errs3d) * 1000:.2f} mm, mean reprojection {np.mean(errs_px):.2f} px")

print("\n=== two views degrade gracefully with baseline ===")
for pair in [(0, 2), (0, 1)]:
    sub = [views[i] for i in pair]
    errs = []
    for _ in range(500):
        noisy = [(c, (u + rng.normal(0, sigma), v + rng.normal(0, sigma)))
                 for c, (u, v) in sub]
        p, _ = triangulate(noisy)
        errs.append(np.linalg.norm(p - X))
    base = np.linalg.norm(cams[pair[0]].center - cams[pair[1]].center)
    print(f"cameras {pair}, baseline {base:.2f} m: mean 3D error "
          f"{np.mean(errs) * 1000:.2f} mm")

print("\n=== pixel rays invert projection ===")
ray = pixel_ray(cams[2], project(cams[2], X))
w = X - ray.origin
miss = np.linalg.norm(w - (w @ ray.direction) * ray.direction)
print(f"back-projected ray misses the original point by {miss:.2e} m")

print("\n=== calibration file round trip ===")
cal_path = Path(tempfile.gettempdir()) / "demo_rig.cal"
save_calibration(cal_path, cams)
loaded = load_calibration(cal_path)
exact = all((a.projection == b.projection).all() for a, b in zip(cams, loaded))
print(f"reloaded {len(loaded)} cameras, bit-exact: {exact}")

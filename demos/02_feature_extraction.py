"""Background subtraction and blob features.

Renders frames containing gaussian blobs over a static background, runs
the running-average background model and the moment-based feature
extractor, and shows centroid accuracy, orientation and eccentricity.

Run:  python3 demos/02_feature_extraction.py
"""

import tempfile
from pathlib import Path

import numpy as np

from camtrack3d.features import (
    BackgroundModel,
    Frame,
    extract_features,
    update_background,
    write_pgm,
)
from camtrack3d.simharness import render_frame

rng = np.random.default_rng(2)
SIZE = (320, 240)  # w, h

print("=== warm up the background model ===")
static = np.full(SIZE[::-1], 20, dtype=np.uint8)
model = BackgroundModel.constant(SIZE[::-1], 0.0, update_interval=500,
                                 difference_threshold=15.0)
for k in range(8):
    model = update_background(model, Frame("cam", 500 * k, 0.0, static))
print(f"after 8 update events the mean background is "
      f"{model.mean.mean():.2f} (scene is 20)")

print("\n=== sub-pixel centroids from rendered blobs ===")
worst = 0.0
for _ in range(50):
    u, v = rng.uniform(30, SIZE[0] - 30), rng.uniform(30, SIZE[1] - 30)
    rows = np.array([[u, v, 20.0, 150.0, 0.0, 1.0]])
    img = render_frame(rows, SIZE)
    feats = extract_features(Frame("cam", 0, 0.0, img), model)
    err = np.hypot(feats[0].u_raw - u, feats[0].v_raw - v)
    worst = max(worst, err)
print(f"worst centroid error over 50 random sub-pixel positions: {worst:.3f} px")

print("\n=== orientation and eccentricity from an elongated blob ===")
for theta in (0.0, 0.6, 1.2, 2.4):
    rows = np.array([[160.0, 120.0, 20.0, 150.0, theta, 4.0]])
    img = render_frame(rows, SIZE, elongated=True)
    f = extract_features(Frame("cam", 0, 0.0, img), model)[0]
    print(f"rendered theta={theta:.2f}  ->  measured theta={f.theta:.2f}, "
          f"ecc={f.ecc:.2f}, area={f.area:.1f} px^2")

print("\n=== several blobs, ordered by area, capped by max_features ===")
rows = np.array([
    [60.0, 60.0, 20.0, 150.0, 0.0, 1.0],
    [160.0, 120.0, 20.0, 220.0, 0.0, 1.0],
    [260.0, 180.0, 20.0, 80.0, 0.0, 1.0],
])
img = render_frame(rows, SIZE)
feats = extract_features(Frame("cam", 0, 0.0, img), model, max_features=2)
print(f"3 blobs rendered, max_features=2 -> {len(feats)} returned, "
      f"areas {[round(f.area, 1) for f in feats]} (largest first)")

pgm_path = Path(tempfile.gettempdir()) / "demo_blobs.pgm"
write_pgm(pgm_path, img)
print(f"\nwrote {pgm_path} for inspection")

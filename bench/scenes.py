"""Workload inputs, built with the simulation harness.

Every function here is a pure function of its arguments, so the measured
process and the load generator build identical inputs from the same seed.
Nothing in this file is timed except as part of set-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from camtrack3d import geometry, simharness
from camtrack3d.features import Feature

RECORDS_PATH = Path(__file__).resolve().parent / "workloads.json"


def load_records() -> dict:
    """Per workload: its shape, seeds and checks (``workloads.json``)."""
    records = json.loads(RECORDS_PATH.read_text())["workloads"]
    for name in ("bigcyl-clutter", "tunnel-live"):
        shape = records[name]["shape"]
        spec = simharness.PRESETS[shape["preset"]]
        if (shape["cameras"], shape["fps"]) != (spec.n_cameras, spec.fps):
            raise ValueError(f"workloads.json: {name} shape does not match its preset")
    return records


@dataclass(frozen=True)
class TrackingScene:
    spec: simharness.RigSpec
    cameras: list
    truths: list
    packets_by_frame: list  # per frame, one FramePacket per camera


def bigcyl_clutter(seed: int, shape: dict) -> TrackingScene:
    """With crossing=True the targets meet at the arena centre mid-run."""
    spec = simharness.preset(shape["preset"], seed=seed,
                             clutter_rate=shape["clutter_rate"],
                             detection_prob=shape["detection_prob"])
    cams = simharness.generate_rig(spec)
    truths = simharness.simulate_truth(spec, shape["targets"], shape["frames"],
                                       crossing=shape["crossing"])
    packets = simharness.synthesize_observations(truths, cams, spec)
    return TrackingScene(spec, cams, truths, packets)


def tunnel(seed: int, n_frames: int, shape: dict) -> TrackingScene:
    spec = simharness.preset(shape["preset"], seed=seed,
                             clutter_rate=shape["clutter_rate"],
                             detection_prob=shape["detection_prob"])
    cams = simharness.generate_rig(spec)
    truths = simharness.simulate_truth(spec, shape["targets"], n_frames,
                                       maneuver_sigma=shape["maneuver_sigma"],
                                       speed=shape["speed"])
    packets = simharness.synthesize_observations(truths, cams, spec)
    return TrackingScene(spec, cams, truths, packets)


@dataclass(frozen=True)
class CamnodeScene:
    camera: geometry.CameraModel
    images: list          # uint8 (h, w), index 0 is the empty scene
    rows: list            # per image, the rendered features' ideal rows (n, 6)
    target_points: list   # per image, {row index: true 3D position}
    comparable: list      # per image, row indices isolated enough to compare


def camnode(seed: int, shape: dict) -> CamnodeScene:
    """The camera node's scene for `seed`. A flight that leaves fewer than
    min_targets comparable target blobs (targets out of view or crowded)
    is drawn again from a seed derived from `seed`, so that the camnode
    check always has enough targets to compare."""
    for k in range(100):
        sub = seed if k == 0 else int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        scene = _camnode(sub, shape)
        targets = sum(len(set(c) & set(p))
                      for c, p in zip(scene.comparable, scene.target_points))
        if targets >= shape["min_targets"]:
            return scene
        del scene  # before the next draw, so peak memory does not grow
    raise ValueError(f"camnode: no scene with {shape['min_targets']} targets for seed {seed}")


def _camnode(seed: int, shape: dict) -> CamnodeScene:
    """Pre-render one camera's frames: elongated blobs for the targets and
    Poisson clutter, drawn at the distorted pixel positions of noise-free
    projections, so the corrected centroids should equal the rows.

    Image 0 is the empty scene the background model learns. The camera is
    given radial distortion k1, so correct_distortion does work; camera 1
    views the tunnel side-on (camera 0 looks almost along its long axis).
    Every stride-th frame of the flight is drawn, so targets that start
    close together in the image spread apart within the cycle. A drawn
    feature is comparable only when it is isolation_px from every other
    one (else blobs can merge) and border_px inside the image (else the
    blob is clipped)."""
    spec = simharness.preset(shape["preset"], seed=seed,
                             clutter_rate=shape["clutter_rate"],
                             detection_prob=1.0, pixel_noise=0.0,
                             image_size=tuple(shape["image"]))
    cam = replace(simharness.generate_rig(spec)[shape["camera"]], k1=shape["k1"])
    stride, n_frames = shape["stride"], shape["frames"]
    flight = simharness.simulate_truth(spec, shape["targets"], n_frames * stride)
    truths = [replace(tr, positions=tr.positions[::stride],
                      velocities=tr.velocities[::stride]) for tr in flight]
    packets = simharness.synthesize_observations(truths, [cam], spec)
    w, h = cam.image_size
    images = [simharness.render_frame([], cam.image_size)]
    rows_out = [np.zeros((0, 6))]
    points_out = [{}]
    comparable_out = [[]]
    for t in range(1, n_frames):
        rows = packets[t][0].features
        feats, distorted = [], []
        for u, v, area, peak, theta, ecc in rows:
            du, dv = geometry.apply_distortion(cam, (u, v))
            distorted.append((du, dv))
            feats.append(Feature(u=u, v=v, u_raw=du, v_raw=dv, area=area,
                                 peak=peak, theta=theta, ecc=ecc))
        images.append(simharness.render_frame(
            feats, cam.image_size, elongated=shape["blobs"] == "elongated"))
        # a target's row is its exact projection (no pixel noise)
        points = {}
        for tr in truths:
            pos = tr.position(t)
            if not simharness.visible(cam, pos):
                continue
            u, v = geometry.project(cam, pos)
            hit = np.flatnonzero(np.hypot(rows[:, 0] - u, rows[:, 1] - v) < 1e-9)
            if len(hit):
                points[int(hit[0])] = pos
        d = np.asarray(distorted).reshape(-1, 2)
        keep = []
        for i, (du, dv) in enumerate(d):
            others = np.delete(d, i, axis=0)
            isolated = not len(others) or np.min(
                np.hypot(others[:, 0] - du, others[:, 1] - dv)) > shape["isolation_px"]
            b = shape["border_px"]
            inside = b <= du <= w - b and b <= dv <= h - b
            if isolated and inside:
                keep.append(i)
        rows_out.append(rows)
        points_out.append(points)
        comparable_out.append(keep)
    return CamnodeScene(cam, images, rows_out, points_out, comparable_out)

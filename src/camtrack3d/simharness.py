"""Deterministic synthetic scenes for desk-scale verification: camera
rigs, ground-truth flight trajectories, noisy/cluttered feature streams
and rendered frames.

Everything is reproducible from the spec seed; given the tracking hub's
own determinism, an entire run (rig, truth, observations, trajectory,
report) is a pure function of the configuration.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .features import Feature
from .geometry import CameraModel, project_points, save_calibration
from .netproto import FramePacket


class InfeasibleSpec(Exception):
    """The rig specification cannot cover its arena."""


@dataclass(frozen=True)
class RigSpec:
    """A synthetic camera rig and its observation noise model."""

    n_cameras: int
    arena: tuple[float, float, float]  # box extents in meters (x, y, z-up)
    fps: float
    pixel_noise: float = 0.5           # px, gaussian, per axis
    clutter_rate: float = 0.0          # false features per camera-frame (Poisson)
    detection_prob: float = 1.0
    image_size: tuple[int, int] = (640, 480)
    seed: int = 0

    @property
    def dt(self) -> float:
        return 1.0 / self.fps

    @property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        ex, ey, ez = self.arena
        lo = np.array([-ex / 2.0, -ey / 2.0, 0.0])
        hi = np.array([ex / 2.0, ey / 2.0, ez])
        return lo, hi

    @property
    def center(self) -> np.ndarray:
        return np.array([0.0, 0.0, self.arena[2] / 2.0])


# the three systems reported for the original apparatus, at desk scale:
# a 5-camera 100 fps fly tunnel, an 11-camera 60 fps large cylinder
# (box-approximated) and a 4-camera 200 fps bird room
PRESETS: dict[str, RigSpec] = {
    "smalltunnel": RigSpec(n_cameras=5, arena=(1.5, 0.3, 0.3), fps=100.0,
                           pixel_noise=1.0),
    "bigcyl": RigSpec(n_cameras=11, arena=(2.0, 2.0, 0.8), fps=60.0,
                      pixel_noise=0.5),
    "birdroom": RigSpec(n_cameras=4, arena=(1.5, 1.5, 3.0), fps=200.0,
                        pixel_noise=0.5),
}


def preset(name: str, **overrides) -> RigSpec:
    spec = PRESETS[name]
    return replace(spec, **overrides) if overrides else spec


def _look_at_projection(position, target, focal, image_size):
    pos = np.asarray(position, dtype=float)
    zc = np.asarray(target, dtype=float) - pos
    zc = zc / np.linalg.norm(zc)
    up = np.array([0.0, 0.0, 1.0])
    xc = np.cross(zc, up)
    if np.linalg.norm(xc) < 1e-9:
        xc = np.cross(zc, np.array([1.0, 0.0, 0.0]))
    xc = xc / np.linalg.norm(xc)
    yc = np.cross(zc, xc)
    R = np.vstack([xc, yc, zc])
    w, h = image_size
    K = np.array([[focal, 0.0, w / 2.0], [0.0, focal, h / 2.0], [0.0, 0.0, 1.0]])
    return K @ np.hstack([R, (-R @ pos)[:, None]])


def _coverage_points(spec: RigSpec) -> np.ndarray:
    lo, hi = spec.bounds
    axes = [np.linspace(l, h, 4) for l, h in zip(lo, hi)]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    return grid


def _visible(cameras: Sequence[CameraModel], points, margin: float) -> np.ndarray:
    """(T, C) mask of the points each camera images in front of it, at
    least `margin` pixels inside its image."""
    x, seen = project_points(cameras, points)
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = x[..., :2] / x[..., 2:]
    far = np.array([c.image_size for c in cameras], dtype=float) - margin
    return seen & ((margin <= uv) & (uv <= far)).all(axis=-1)


def visible(cam: CameraModel, point, margin: float = 0.0) -> bool:
    return bool(_visible([cam], point, margin)[0, 0])


def generate_rig(spec: RigSpec, calibration_path=None) -> list[CameraModel]:
    """Place cameras on a ring around the arena, all aimed at its center,
    and verify every arena grid point is visible to at least two cameras.
    Optionally writes the calibration file."""
    if spec.n_cameras < 2:
        raise InfeasibleSpec("triangulation needs at least two cameras")
    lo, hi = spec.bounds
    diag = float(np.linalg.norm(hi - lo))
    r_arena = diag / 2.0
    ring = 1.15 * diag
    center = spec.center
    w, h = spec.image_size
    cams = []
    for i in range(spec.n_cameras):
        a = 2.0 * math.pi * i / spec.n_cameras + 0.3
        z = center[2] + 0.3 * spec.arena[2] * math.sin(2.4 * i + 0.7)
        pos = np.array([center[0] + ring * math.cos(a),
                        center[1] + ring * math.sin(a), z])
        d = float(np.linalg.norm(pos - center))
        # focal so the arena's bounding sphere spans ~0.46 of the short
        # image side
        focal = 0.46 * min(w, h) * math.sqrt(max(d * d - r_arena * r_arena, 1e-9)) / r_arena
        P = _look_at_projection(pos, center, focal, spec.image_size)
        cams.append(CameraModel(projection=P, cam_id=f"cam{i:02d}",
                                image_size=spec.image_size))
    grid = _coverage_points(spec)
    for point, seen in zip(grid, _visible(cams, grid, margin=2.0).sum(axis=1)):
        if seen < 2:
            raise InfeasibleSpec(f"arena point {point} visible to {seen} < 2 cameras")
    if calibration_path is not None:
        save_calibration(calibration_path, cams)
    return cams


# ------------------------------------------------------------------ trajectories

@dataclass(frozen=True)
class TruthTrajectory:
    """Ground-truth kinematics of one target over its lifetime."""

    target_id: int
    birth: int
    positions: np.ndarray   # (T, 3)
    velocities: np.ndarray  # (T, 3)

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=float).reshape(-1, 3)
        v = np.asarray(self.velocities, dtype=float).reshape(-1, 3)
        if len(p) != len(v):
            raise ValueError("positions/velocities length mismatch")
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "velocities", v)

    @property
    def death(self) -> int:
        return self.birth + len(self.positions)

    def alive_at(self, frame: int) -> bool:
        return self.birth <= frame < self.death

    def position(self, frame: int) -> np.ndarray:
        return self.positions[frame - self.birth]

    def velocity(self, frame: int) -> np.ndarray:
        return self.velocities[frame - self.birth]


def _reflect(pos, vel, lo, hi):
    for k in range(3):
        if pos[k] < lo[k]:
            pos[k] = 2 * lo[k] - pos[k]
            vel[k] = -vel[k]
        elif pos[k] > hi[k]:
            pos[k] = 2 * hi[k] - pos[k]
            vel[k] = -vel[k]


def simulate_truth(spec: RigSpec, n_targets: int, n_frames: int,
                   maneuver_sigma: float = 0.0, speed: float = 0.15,
                   crossing: bool = False, margin: float = 0.08,
                   rng: np.random.Generator | None = None) -> list[TruthTrajectory]:
    """Constant-velocity-plus-noise trajectories with reflective arena
    boundaries. `maneuver_sigma` is the per-frame velocity noise in m/s.

    With `crossing=True` the targets are launched from a ring so they all
    pass the arena center mid-run, separated vertically by 40 mm, which
    guarantees a close (sub-5 cm) multi-target encounter.

    Each target is stepped in Python floats, one IEEE operation per
    coordinate as numpy does it on the 3-vectors; a target's velocity
    noise is drawn in one call, the same draws in the same order as one
    3-vector per frame.
    """
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    lo, hi = spec.bounds
    lo = (lo + margin).tolist()
    hi = (hi - margin).tolist()
    dt = spec.dt
    out = []
    for k in range(n_targets):
        if crossing:
            r0 = 0.35 * min(spec.arena[0], spec.arena[1])
            a = 2.0 * math.pi * k / max(n_targets, 1)
            zoff = 0.04 * (k - (n_targets - 1) / 2.0)
            pos = spec.center + np.array([r0 * math.cos(a), r0 * math.sin(a), zoff])
            goal = spec.center + np.array([0.0, 0.0, zoff])
            t_mid = max(n_frames // 2, 1)
            vel = (goal - pos) / (t_mid * dt)
        else:
            pos = rng.uniform(lo, hi)
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            vel = direction * speed
        noise = rng.normal(0.0, maneuver_sigma, size=(n_frames, 3)).tolist() \
            if maneuver_sigma > 0 else None
        pos, vel = pos.tolist(), vel.tolist()
        positions, velocities = [], []
        for t in range(n_frames):
            positions.append(pos)
            velocities.append(vel)
            if noise is None:
                vel = vel[:]  # _reflect flips in place; the recorded row stays
            else:
                vel = [a + b for a, b in zip(vel, noise[t])]
            pos = [p + v * dt for p, v in zip(pos, vel)]
            _reflect(pos, vel, lo, hi)
        out.append(TruthTrajectory(target_id=k, birth=0,
                                   positions=np.array(positions, dtype=float),
                                   velocities=np.array(velocities, dtype=float)))
    return out


def write_truth_csv(path, truths: Sequence[TruthTrajectory]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["frame", "target_id", "x", "y", "z", "vx", "vy", "vz"])
        frames = sorted({t for tr in truths for t in range(tr.birth, tr.death)})
        for t in frames:
            for tr in truths:
                if tr.alive_at(t):
                    w.writerow([t, tr.target_id,
                                *(repr(float(x)) for x in tr.position(t)),
                                *(repr(float(x)) for x in tr.velocity(t))])


def read_truth_csv(path) -> list[TruthTrajectory]:
    rows: dict[int, list[tuple[int, np.ndarray, np.ndarray]]] = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            tid = int(row["target_id"])
            rows.setdefault(tid, []).append(
                (int(row["frame"]),
                 np.array([float(row[k]) for k in ("x", "y", "z")]),
                 np.array([float(row[k]) for k in ("vx", "vy", "vz")])))
    out = []
    for tid, entries in sorted(rows.items()):
        entries.sort(key=lambda e: e[0])
        frames = [e[0] for e in entries]
        if frames != list(range(frames[0], frames[0] + len(frames))):
            raise ValueError(f"target {tid} has non-contiguous frames")
        out.append(TruthTrajectory(target_id=tid, birth=frames[0],
                                   positions=np.array([e[1] for e in entries]),
                                   velocities=np.array([e[2] for e in entries])))
    return out


# ---------------------------------------------------------------- observations

def synthesize_observations(truths: Sequence[TruthTrajectory],
                            cameras: Sequence[CameraModel],
                            spec: RigSpec,
                            n_frames: int | None = None,
                            occlusions: Sequence[tuple[int, int, Sequence[str]]] = (),
                            rng: np.random.Generator | None = None
                            ) -> list[list[FramePacket]]:
    """Forward observation model: per frame and camera, each live target is
    detected with the spec's detection probability at its projection plus
    gaussian pixel noise, Poisson clutter is added uniformly over the
    image, and occlusion windows (frame range, camera ids) force empty
    reports. Returns one list of per-camera packets per frame.

    Every truth position, and the point 1 mm along its velocity that gives
    the feature's image-plane axis, is projected through every camera up
    front; the random draws then follow one observation at a time, in a
    fixed order, since the gaussian draws are rejection-sampled."""
    rng = np.random.default_rng(spec.seed + 1) if rng is None else rng
    cams = sorted(cameras, key=lambda c: c.cam_id)
    if n_frames is None:
        n_frames = max((t.death for t in truths), default=0)
    blanked: dict[str, set[int]] = {c.cam_id: set() for c in cams}
    for start, stop, cam_ids in occlusions:
        for cid in cam_ids:
            blanked[cid].update(range(start, stop))
    # row first[k] + t - birth of the stacks holds target k at frame t
    first = np.cumsum([0] + [len(tr.positions) for tr in truths])
    pos = np.concatenate([tr.positions for tr in truths] + [np.empty((0, 3))])
    vel = np.concatenate([tr.velocities for tr in truths] + [np.empty((0, 3))])
    # one norm per vector, as the one-point axis took it: a norm along an
    # axis of the stack may round differently
    speed = np.array([np.linalg.norm(v) for v in vel]).reshape(-1, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x, seen = project_points(cams, pos)
        x_ahead, seen_ahead = project_points(cams, pos + 1e-3 * vel / speed)
        uv = x[..., :2] / x[..., 2:]
        step = x_ahead[..., :2] / x_ahead[..., 2:] - uv
    has_axis = seen & seen_ahead & ~(speed < 1e-9)
    frames: list[list[FramePacket]] = []
    for t in range(n_frames):
        ts_us = round(t * 1e6 / spec.fps)
        live = [first[k] + t - tr.birth for k, tr in enumerate(truths) if tr.alive_at(t)]
        # (live, C) rows of this frame as Python floats and bools
        uv_t, step_t = uv[live].tolist(), step[live].tolist()
        seen_t, axis_t = seen[live].tolist(), has_axis[live].tolist()
        per_cam = []
        for c, cam in enumerate(cams):
            rows: list[list[float]] = []
            w, h = cam.image_size
            if t not in blanked[cam.cam_id]:
                for i in range(len(live)):
                    detected = rng.random() < spec.detection_prob
                    if not seen_t[i][c]:
                        continue
                    noise = rng.normal(0.0, spec.pixel_noise, size=2).tolist() \
                        if spec.pixel_noise > 0 else (0.0, 0.0)
                    if not detected:
                        continue
                    u, v = uv_t[i][c]
                    u, v = u + noise[0], v + noise[1]
                    if not (0 <= u < w and 0 <= v < h):
                        continue
                    du, dv = step_t[i][c]
                    theta = math.atan2(dv, du) % math.pi if axis_t[i][c] else 0.0
                    area = 20.0 + rng.uniform(-4.0, 4.0)
                    peak = 150.0 + rng.uniform(-30.0, 30.0)
                    ecc = 2.5 + rng.uniform(-0.5, 0.5)
                    rows.append([u, v, area, peak, theta, ecc])
                n_clutter = rng.poisson(spec.clutter_rate) if spec.clutter_rate > 0 else 0
                for _ in range(n_clutter):
                    rows.append([rng.uniform(0, w), rng.uniform(0, h),
                                 rng.uniform(2.0, 30.0), rng.uniform(40.0, 200.0),
                                 rng.uniform(0, math.pi), rng.uniform(1.0, 4.0)])
            per_cam.append(FramePacket(cam_id=cam.cam_id, frame=t,
                                       timestamp_us=ts_us,
                                       features=np.array(rows, dtype=float).reshape(-1, 6)))
        frames.append(per_cam)
    return frames


# -------------------------------------------------------------------- rendering

def render_frame(features: Iterable[Feature] | np.ndarray,
                 image_size: tuple[int, int],
                 background: float = 20.0, amplitude: float = 200.0,
                 sigma: float = 1.5, elongated: bool = False) -> np.ndarray:
    """Paint gaussian blobs onto a constant background. With `elongated`
    the blob is stretched along the feature's orientation by its
    eccentricity, exercising the orientation/eccentricity moment path.

    A pixel outside every blob's box keeps the background, so the float
    image is only filled, summed and rounded inside the boxes; the bytes
    are those of rounding a whole background image with the blobs added
    in feature order."""
    w, h = image_size
    background = np.float64(background)
    out = np.full((h, w), np.clip(np.rint(background), 0, 255).astype(np.uint8))
    if isinstance(features, np.ndarray):
        blobs = [(r[0], r[1], r[4], r[5]) for r in features.tolist()]
    else:
        blobs = [(f.u_raw, f.v_raw, f.theta, f.ecc) for f in features]
    img = np.empty((h, w))
    boxes = []
    for u, v, theta, ecc in blobs:
        ecc = max(1.0, min(ecc, 6.0)) if elongated else 1.0
        reach = int(math.ceil(4.0 * (sigma * ecc)))
        x0 = max(0, int(u) - reach)
        x1 = min(w, int(u) + reach + 1)
        y0 = max(0, int(v) - reach)
        y1 = min(h, int(v) + reach + 1)
        if x0 < x1 and y0 < y1:
            img[y0:y1, x0:x1] = background
            boxes.append((y0, y1, x0, x1, u, v, theta, ecc))
    for y0, y1, x0, x1, u, v, theta, ecc in boxes:
        gx = np.arange(x0, x1)[None, :] - u
        gy = np.arange(y0, y1)[:, None] - v
        if elongated and ecc > 1.0:
            c, s = math.cos(theta), math.sin(theta)
            major = gx * c + gy * s
            minor = -gx * s + gy * c
            e = (major / (sigma * ecc)) ** 2 + (minor / sigma) ** 2
        else:
            e = (gx * gx + gy * gy) / (sigma * sigma)
        img[y0:y1, x0:x1] += amplitude * np.exp(-0.5 * e)
    for y0, y1, x0, x1, *_ in boxes:
        out[y0:y1, x0:x1] = np.clip(np.rint(img[y0:y1, x0:x1]), 0, 255)
    return out


def render_pgm_frames(out_dir, packets_by_frame: Sequence[Sequence[FramePacket]],
                      image_size: tuple[int, int], **render_kw) -> None:
    """Write one PGM per camera per frame under out_dir/<cam_id>/."""
    from pathlib import Path

    from .features import write_pgm

    root = Path(out_dir)
    for per_cam in packets_by_frame:
        for pkt in per_cam:
            d = root / pkt.cam_id
            d.mkdir(parents=True, exist_ok=True)
            img = render_frame(pkt.features, image_size, **render_kw)
            write_pgm(d / f"frame{pkt.frame:06d}.pgm", img)

"""Scoring of tracker output against simulation ground truth, plus
trajectory kinematics (horizontal speed, angular velocity, approach angle
to a landmark) and speed histograms.

Kinematics are computed from positions by central finite differences, so
they apply equally to estimated and ground-truth trajectories.
"""

from __future__ import annotations

import json
import math
from typing import Mapping, Sequence

import numpy as np

from .geometry import CameraModel, project_points
from .simharness import TruthTrajectory
from .tracker import read_trajectory_csv


class FrameMismatch(Exception):
    """Estimate and truth cover disjoint frame ranges."""


# ------------------------------------------------------------------ kinematics

def central_velocity(positions: np.ndarray, dt: float) -> np.ndarray:
    """Central-difference velocity; one-sided at the ends."""
    p = np.asarray(positions, dtype=float)
    if len(p) < 2:
        return np.zeros_like(p)
    v = np.empty_like(p)
    v[1:-1] = (p[2:] - p[:-2]) / (2.0 * dt)
    v[0] = (p[1] - p[0]) / dt
    v[-1] = (p[-1] - p[-2]) / dt
    return v


def horizontal_speed(positions: np.ndarray, dt: float) -> np.ndarray:
    """Speed of the XY-projected motion (first derivative of position in
    the horizontal plane)."""
    v = central_velocity(positions, dt)
    return np.hypot(v[:, 0], v[:, 1])


def angular_velocity(positions: np.ndarray, dt: float) -> np.ndarray:
    """Turn rate of the tangent to the 3D trajectory, rad/s. Entry t is the
    angle between the tangents at t and t+1 over dt (last entry repeated)."""
    v = central_velocity(positions, dt)
    n = np.linalg.norm(v, axis=1)
    n = np.where(n < 1e-12, 1.0, n)
    t = v / n[:, None]
    dots = np.einsum("ij,ij->i", t[:-1], t[1:])
    crosses = np.linalg.norm(np.cross(t[:-1], t[1:]), axis=1)
    # atan2 form stays accurate for near-parallel tangents
    w = np.arctan2(crosses, dots) / dt
    if len(w) == 0:
        return np.zeros(len(positions))
    return np.append(w, w[-1])


def approach_angle(positions: np.ndarray, dt: float, landmark) -> np.ndarray:
    """Unsigned angle between the horizontal direction of flight and the
    horizontal bearing to the landmark, in radians."""
    lm = np.asarray(landmark, dtype=float)[:2]
    v = central_velocity(positions, dt)[:, :2]
    bearing = lm[None, :] - np.asarray(positions)[:, :2]
    out = np.empty(len(positions))
    for i in range(len(positions)):
        nv = np.linalg.norm(v[i])
        nb = np.linalg.norm(bearing[i])
        if nv < 1e-12 or nb < 1e-12:
            out[i] = 0.0
            continue
        c = float(np.clip(v[i] @ bearing[i] / (nv * nb), -1.0, 1.0))
        out[i] = math.acos(c)
    return out


def kinematic_tracks(est_frames: Mapping[int, Mapping[int, np.ndarray]]
                     ) -> list[np.ndarray]:
    """The (n, 3) positions, in frame order, of each track of a
    {frame: {target_id: 6-vector}} trajectory that lives 10 frames or
    more, in id order: very short (typically clutter-born) tracks carry no
    usable kinematics."""
    tracks = []
    for tid in sorted({tid for frame in est_frames.values() for tid in frame}):
        frames = sorted(t for t in est_frames if tid in est_frames[t])
        if len(frames) >= 10:
            tracks.append(np.array([est_frames[t][tid][:3] for t in frames]))
    return tracks


def speed_histogram(speeds, bins: int = 40,
                    value_range: tuple[float, float] | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Normalized (unit-area) speed histogram: (bin edges, densities)."""
    speeds = np.asarray(speeds, dtype=float)
    density, edges = np.histogram(speeds, bins=bins, range=value_range,
                                  density=True)
    return edges, density


def write_histogram_csv(path, edges: np.ndarray, density: np.ndarray) -> None:
    with open(path, "w") as f:
        f.write("bin_left,bin_right,density\n")
        for lo, hi, d in zip(edges[:-1], edges[1:], density):
            f.write(f"{float(lo)!r},{float(hi)!r},{float(d)!r}\n")


def read_histogram_csv(path) -> tuple[np.ndarray, np.ndarray]:
    import csv as _csv

    lows, highs, dens = [], [], []
    with open(path) as f:
        for row in _csv.DictReader(f):
            lows.append(float(row["bin_left"]))
            highs.append(float(row["bin_right"]))
            dens.append(float(row["density"]))
    edges = np.array(lows + [highs[-1]])
    return edges, np.array(dens)


# ------------------------------------------------------------------ evaluation

def _truth_by_frame(truths: Sequence[TruthTrajectory]) -> dict[int, dict[int, np.ndarray]]:
    frames: dict[int, dict[int, np.ndarray]] = {}
    for tr in truths:
        for t in range(tr.birth, tr.death):
            frames.setdefault(t, {})[tr.target_id] = tr.position(t)
    return frames


def _greedy_match(est: Mapping[int, np.ndarray], truth: Mapping[int, np.ndarray],
                  radius: float) -> list[tuple[int, int, float]]:
    """One-to-one nearest matching within the radius; closest pairs first."""
    pairs = []
    for eid, ep in est.items():
        for tid, tp in truth.items():
            d = float(np.linalg.norm(ep[:3] - tp))
            if d <= radius:
                pairs.append((d, eid, tid))
    pairs.sort()
    used_e, used_t, out = set(), set(), []
    for d, eid, tid in pairs:
        if eid in used_e or tid in used_t:
            continue
        used_e.add(eid)
        used_t.add(tid)
        out.append((eid, tid, d))
    return out


def latency_percentiles(latencies) -> dict[str, float]:
    """The p50, p90 and p99 of latency samples; empty when there are none."""
    if not len(latencies):
        return {}
    ls = np.asarray(latencies, dtype=float)
    return {f"p{q}": float(np.percentile(ls, q)) for q in (50, 90, 99)}


def evaluate(trajectory, truths, matching_radius: float = 0.05,
             cameras: Sequence[CameraModel] | None = None,
             landmark=None, latencies=None, fps: float | None = None) -> dict:
    """Score a trajectory against ground truth.

    `trajectory` is a CSV path or the {frame: {target_id: 6-vector}}
    mapping produced by :func:`camtrack3d.tracker.read_trajectory_csv`;
    `truths` a truth CSV path or TruthTrajectory sequence. Reports position
    RMSE over matched pairs, track counts, identity switches
    (per-frame re-matched identity mapping), fragmentation, birth/death
    lag, matched-pair reprojection error when cameras are supplied,
    latency percentiles when samples are supplied, and summary kinematics.
    """
    if isinstance(trajectory, (str, bytes)) or hasattr(trajectory, "__fspath__"):
        est_frames = read_trajectory_csv(trajectory)
    else:
        est_frames = {int(f): dict(v) for f, v in dict(trajectory).items()}
    if isinstance(truths, (str, bytes)) or hasattr(truths, "__fspath__"):
        from .simharness import read_truth_csv

        truths = read_truth_csv(truths)
    truth_frames = _truth_by_frame(truths)
    common = sorted(set(est_frames) & set(truth_frames))
    if not common and truth_frames and est_frames:
        raise FrameMismatch("estimate and truth share no frames")

    sq_err, n_matched = 0.0, 0
    reproj_err, n_reproj = 0.0, 0
    id_switches = 0
    last_match: dict[int, int] = {}
    matched_frames: dict[int, list[int]] = {tr.target_id: [] for tr in truths}
    first_match: dict[int, int] = {}
    last_seen: dict[int, int] = {}
    est_points, truth_points = [], []  # matched pairs, for the reprojection score
    for t in common:
        matches = _greedy_match(est_frames[t], truth_frames[t], matching_radius)
        for eid, tid, d in matches:
            sq_err += d * d
            n_matched += 1
            if tid in last_match and last_match[tid] != eid:
                id_switches += 1
            last_match[tid] = eid
            matched_frames[tid].append(t)
            first_match.setdefault(tid, t)
            last_seen[tid] = t
            if cameras:
                est_points.append(est_frames[t][eid][:3])
                truth_points.append(truth_frames[t][tid])
    if est_points:
        est_x, est_ok = project_points(cameras, est_points)
        truth_x, truth_ok = project_points(cameras, truth_points)
        with np.errstate(divide="ignore", invalid="ignore"):
            d = est_x[..., :2] / est_x[..., 2:] - truth_x[..., :2] / truth_x[..., 2:]
        # summed pair by pair, camera by camera, with math.hypot
        for du, dv in d[est_ok & truth_ok].tolist():
            reproj_err += math.hypot(du, dv)
            n_reproj += 1

    fragmentation = 0
    for tid, frames_list in matched_frames.items():
        for a, b in zip(frames_list, frames_list[1:]):
            if b - a > 1:
                fragmentation += 1
    birth_lags = [first_match[tr.target_id] - tr.birth for tr in truths
                  if tr.target_id in first_match]
    death_lags = [abs((tr.death - 1) - last_seen[tr.target_id]) for tr in truths
                  if tr.target_id in last_seen]

    est_ids = {tid for frame in est_frames.values() for tid in frame}
    report = {
        "frames_evaluated": len(common),
        "truth_targets": len(truths),
        "track_count": len(est_ids),
        "matched_pairs": n_matched,
        "position_rmse": math.sqrt(sq_err / n_matched) if n_matched else math.nan,
        "id_switches": id_switches,
        "fragmentation": fragmentation,
        "birth_lag_frames": float(np.mean(birth_lags)) if birth_lags else math.nan,
        "death_lag_frames": float(np.mean(death_lags)) if death_lags else math.nan,
        "mean_reprojection_error_px": (reproj_err / n_reproj) if n_reproj else math.nan,
    }
    if latencies is not None:
        report.update({f"latency_{k}": v for k, v in latency_percentiles(latencies).items()})
    tracks = kinematic_tracks(est_frames) if fps is not None else []
    if tracks:
        dt = 1.0 / fps
        sp = np.concatenate([horizontal_speed(pos, dt) for pos in tracks])
        av = np.concatenate([angular_velocity(pos, dt) for pos in tracks])
        report["horizontal_speed_mean"] = float(np.mean(sp))
        report["horizontal_speed_std"] = float(np.std(sp))
        report["angular_velocity_mean"] = float(np.mean(av))
        if landmark is not None:
            report["approach_angle_mean"] = float(np.mean(np.concatenate(
                [approach_angle(pos, dt, landmark) for pos in tracks])))
    return report


def write_report_json(path, report: dict) -> None:
    with open(path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")

"""Per-target extended Kalman filter with constant-velocity dynamics and a
multi-camera projective observation model.

State is (x, y, z, vx, vy, vz) in SI units. The observation for a frame is
the stacked distortion-corrected pixel pair from each reporting camera, in
camera-id order; the filter linearizes the projection analytically.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np
from scipy import linalg as sla

from .geometry import BehindCamera, CameraModel, PointAtInfinity

# defaults: position noise 100 mm^2 (= 1e-4 m^2), velocity noise 0.25 (m/s)^2,
# pixel observation variance 1 px^2
DEFAULT_Q_POS = 1e-4
DEFAULT_Q_VEL = 0.25
DEFAULT_R_PX = 1.0

_COND_LIMIT = 1e12


class SingularInnovation(Exception):
    """Innovation covariance is not invertible within tolerance."""


@dataclass(frozen=True)
class TargetState:
    """Gaussian belief over one target: 6-vector mean and 6x6 covariance."""

    target_id: int
    mean: np.ndarray
    cov: np.ndarray
    frames_since_observation: int = 0
    born_at: int = 0

    def __post_init__(self):
        m = np.asarray(self.mean, dtype=float).reshape(6)
        P = np.asarray(self.cov, dtype=float).reshape(6, 6)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "cov", P)

    @property
    def position(self) -> np.ndarray:
        return self.mean[:3]

    @property
    def velocity(self) -> np.ndarray:
        return self.mean[3:]


@dataclass(frozen=True)
class ProcessModel:
    """Constant-velocity transition over a fixed time step."""

    dt: float
    q_pos: float = DEFAULT_Q_POS
    q_vel: float = DEFAULT_Q_VEL

    def __post_init__(self):
        A = np.eye(6)
        A[0, 3] = A[1, 4] = A[2, 5] = self.dt
        Q = np.diag([self.q_pos] * 3 + [self.q_vel] * 3).astype(float)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Q", Q)


@dataclass(frozen=True)
class ObservationModel:
    """The camera set and per-camera pixel noise. Cameras are kept sorted
    by id so stacked observation vectors have a canonical layout."""

    cameras: Sequence[CameraModel]
    r_px: float = DEFAULT_R_PX

    def __post_init__(self):
        cams = sorted(self.cameras, key=lambda c: c.cam_id)
        if not cams:
            raise ValueError("observation model needs at least one camera")
        object.__setattr__(self, "cameras", tuple(cams))
        object.__setattr__(self, "by_id", {c.cam_id: c for c in cams})

    def camera(self, cam_id: str) -> CameraModel:
        return self.by_id[cam_id]


def symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.T)


def clamp_psd(P: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Symmetrize and clamp eigenvalues at `floor` (tiny negative
    eigenvalues from roundoff are lifted to zero)."""
    P = symmetrize(P)
    w, V = np.linalg.eigh(P)
    if w[0] >= floor:
        return P
    w = np.maximum(w, floor)
    return symmetrize((V * w) @ V.T)


def predict(state: TargetState, pm: ProcessModel) -> TargetState:
    """Time update: mean <- A mean, cov <- A P A^T + Q."""
    mean = pm.A @ state.mean
    cov = symmetrize(pm.A @ state.cov @ pm.A.T + pm.Q)
    return replace(state, mean=mean, cov=cov)


def _linearize(X: np.ndarray, cam: CameraModel):
    """Projection of the homogeneous world point `X` by `cam` and the two
    rows of its Jacobian with respect to the state. Raises PointAtInfinity
    or BehindCamera (tagged with the camera id) when it does not project."""
    P = cam.projection
    x = P @ X
    if abs(x[2]) < 1e-15:
        raise PointAtInfinity(cam.cam_id)
    if cam._front_sign * x[2] < 0:
        raise BehindCamera(cam.cam_id)
    t = x[2]
    # d(r/t)/dX_j = (P[0,j] t - r P[2,j]) / t^2 for world components j
    rows = np.zeros((2, 6))
    rows[0, :3] = (P[0, :3] * t - x[0] * P[2, :3]) / (t * t)
    rows[1, :3] = (P[1, :3] * t - x[1] * P[2, :3]) / (t * t)
    return (x[0] / t, x[1] / t), rows


def observation_function(mean, cams: Sequence[CameraModel]) -> np.ndarray:
    """Predicted stacked pixel observation (u_1, v_1, ..., u_n, v_n) for
    the given cameras, in camera-id order. Raises BehindCamera (tagged with
    the offending camera id) if the position is behind any camera."""
    X = np.append(np.asarray(mean, dtype=float).ravel()[:3], 1.0)
    cams = sorted(cams, key=lambda c: c.cam_id)
    return np.array([uv for cam in cams for uv in _linearize(X, cam)[0]], dtype=float)


def observation_jacobian(mean, cams: Sequence[CameraModel]) -> np.ndarray:
    """Analytic Jacobian of :func:`observation_function` with respect to
    the 6 state components (velocity columns are zero)."""
    X = np.append(np.asarray(mean, dtype=float).ravel()[:3], 1.0)
    cams = sorted(cams, key=lambda c: c.cam_id)
    return np.vstack([np.zeros((0, 6))] + [_linearize(X, cam)[1] for cam in cams])


def update(prior: TargetState,
           observations: Sequence[tuple[CameraModel, tuple[float, float]]],
           om: ObservationModel) -> TargetState:
    """Measurement update with the stacked per-camera observation.

    With no observations the posterior equals the prior and the
    missed-frame counter is incremented. Cameras for which the prior
    position is not projectable (behind the camera) are skipped. Covariance
    is updated in Joseph form to preserve positive semidefiniteness.
    """
    X = np.append(prior.mean[:3], 1.0)
    y, h, C = [], [], []
    for cam, px in sorted(observations, key=lambda o: o[0].cam_id):
        try:
            pred, rows = _linearize(X, cam)
        except (BehindCamera, PointAtInfinity):
            continue
        y += (px[0], px[1])
        h += pred
        C.append(rows)
    if not C:
        return replace(prior,
                       frames_since_observation=prior.frames_since_observation + 1)
    y = np.array(y, dtype=float)
    h = np.array(h)
    C = np.vstack(C)
    R = np.eye(len(y)) * om.r_px
    S = C @ prior.cov @ C.T + R
    if not np.all(np.isfinite(S)) or np.linalg.cond(S) > _COND_LIMIT:
        raise SingularInnovation("innovation covariance condition too high")
    try:
        cho = sla.cho_factor(symmetrize(S))
    except np.linalg.LinAlgError as e:
        raise SingularInnovation(str(e)) from e
    K = sla.cho_solve(cho, C @ prior.cov).T  # P C^T S^-1
    mean = prior.mean + K @ (y - h)
    IKC = np.eye(6) - K @ C
    cov = IKC @ prior.cov @ IKC.T + K @ R @ K.T
    cov = clamp_psd(cov)
    return replace(prior, mean=mean, cov=cov, frames_since_observation=0)


def extrapolate(state: TargetState, horizon: float) -> np.ndarray:
    """Predicted position `horizon` seconds ahead under constant velocity."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    return state.position + horizon * state.velocity


# --------------------------------------------------------------- trajectory CSV

TRAJECTORY_FIELDS = (["frame", "target_id", "x", "y", "z", "vx", "vy", "vz"]
                     + [f"p{i}{j}" for i in range(6) for j in range(6)])


class TrajectoryWriter:
    """Streams one CSV row per live target per frame; flushed per frame so
    rows are readable before the next frame is processed."""

    def __init__(self, path_or_file):
        if hasattr(path_or_file, "write"):
            self._file = path_or_file
            self._own = False
        else:
            self._file = open(path_or_file, "w", newline="")
            self._own = True
        self._file.write(",".join(TRAJECTORY_FIELDS) + "\n")

    def write_frame(self, frame_number: int, targets: Iterable[TargetState]):
        for t in sorted(targets, key=lambda t: t.target_id):
            vals = [str(frame_number), str(t.target_id)]
            vals += [repr(float(x)) for x in t.mean]
            vals += [repr(float(x)) for x in t.cov.ravel()]
            self._file.write(",".join(vals) + "\n")
        self._file.flush()

    def close(self):
        if self._own:
            self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_trajectory_csv(path) -> dict[int, dict[int, np.ndarray]]:
    """Load a trajectory CSV as {frame: {target_id: 6-vector mean}}."""
    frames: dict[int, dict[int, np.ndarray]] = {}
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            frame = int(row["frame"])
            tid = int(row["target_id"])
            mean = np.array([float(row[k]) for k in ("x", "y", "z", "vx", "vy", "vz")])
            frames.setdefault(frame, {})[tid] = mean
    return frames

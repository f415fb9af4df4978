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

from .geometry import BehindCamera, CameraModel, project_points

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


def _linearize(position, cams: Sequence[CameraModel]):
    """Projections of the 3D `position` by `cams`, shape (C, 2), the two
    rows of each one's Jacobian with respect to the state, shape (C, 2, 6),
    and the (C,) mask of cameras it projects through (in front, not on the
    principal plane); entries outside the mask mean nothing."""
    x, ok = project_points(cams, position)
    x, t = x[0], x[0, :, 2:]
    P = np.array([c.projection for c in cams]).reshape(-1, 3, 4)
    rows = np.zeros((len(cams), 2, 6))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # d(r/t)/dX_j = (P[0,j] t - r P[2,j]) / t^2 for world components j
        rows[:, :, :3] = ((P[:, :2, :3] * t[:, :, None] - x[:, :2, None] * P[:, 2:, :3])
                          / (t * t)[:, :, None])
        return x[:, :2] / t, rows, ok[0]


def _observe(mean, cams: Sequence[CameraModel]):
    cams = sorted(cams, key=lambda c: c.cam_id)
    pred, rows, ok = _linearize(np.asarray(mean, dtype=float).ravel()[:3], cams)
    if not ok.all():
        raise BehindCamera(cams[int(np.argmin(ok))].cam_id)
    return pred.reshape(-1), rows.reshape(-1, 6)


def observation_function(mean, cams: Sequence[CameraModel]) -> np.ndarray:
    """Predicted stacked pixel observation (u_1, v_1, ..., u_n, v_n) for
    the given cameras, in camera-id order. Raises BehindCamera (tagged with
    the offending camera id) if the position is behind any camera or on its
    principal plane."""
    return _observe(mean, cams)[0]


def observation_jacobian(mean, cams: Sequence[CameraModel]) -> np.ndarray:
    """Analytic Jacobian of :func:`observation_function` with respect to
    the 6 state components (velocity columns are zero)."""
    return _observe(mean, cams)[1]


def update(prior: TargetState,
           observations: Sequence[tuple[CameraModel, tuple[float, float]]],
           om: ObservationModel) -> TargetState:
    """Measurement update with the stacked per-camera observation.

    With no observations the posterior equals the prior and the
    missed-frame counter is incremented. Cameras for which the prior
    position is not projectable (behind the camera) are skipped. Covariance
    is updated in Joseph form to preserve positive semidefiniteness.
    """
    observations = sorted(observations, key=lambda o: o[0].cam_id)
    pred, rows, ok = _linearize(prior.mean[:3], [cam for cam, _ in observations])
    if not ok.any():
        return replace(prior,
                       frames_since_observation=prior.frames_since_observation + 1)
    y = np.array([px for (_, px), good in zip(observations, ok) if good],
                 dtype=float).reshape(-1)
    h = pred[ok].reshape(-1)
    C = rows[ok].reshape(-1, 6)
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

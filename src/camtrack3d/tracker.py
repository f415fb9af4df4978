"""Extended Kalman filters with constant-velocity dynamics and a
multi-camera projective observation model, one per target, stepped a frame
at a time.

State is (x, y, z, vx, vy, vz) in SI units. The observation for a frame is
the stacked distortion-corrected pixel pair from each reporting camera, in
camera-id order; the filter linearizes the projection analytically.

:func:`predict` and :func:`update` take every target of a frame at once and
do the same arithmetic as one filter step per target, with the same bits:
the targets are stacked and each product is a stacked ``matmul``, which
calls the same BLAS routine per target that the 2D product calls, and each
factorization is the same LAPACK call.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import lapack

from .geometry import BehindCamera, CameraModel, project_points

# defaults: position noise 100 mm^2 (= 1e-4 m^2), velocity noise 0.25 (m/s)^2,
# pixel observation variance 1 px^2
DEFAULT_Q_POS = 1e-4
DEFAULT_Q_VEL = 0.25
DEFAULT_R_PX = 1.0

_COND_LIMIT = 1e12

Observation = tuple[CameraModel, tuple[float, float]]


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


def _check(name: str, value: float, positive: bool) -> None:
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        raise ValueError(f"{name} must be {'positive' if positive else 'nonnegative'}"
                         f" and finite, got {value!r}")


@dataclass(frozen=True)
class ProcessModel:
    """Constant-velocity transition over a fixed time step."""

    dt: float
    q_pos: float = DEFAULT_Q_POS
    q_vel: float = DEFAULT_Q_VEL

    def __post_init__(self):
        _check("dt", self.dt, positive=True)
        _check("q_pos", self.q_pos, positive=False)
        _check("q_vel", self.q_vel, positive=False)
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
    # camera id -> position in `cameras`
    _column: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check("r_px", self.r_px, positive=True)
        cams = sorted(self.cameras, key=lambda c: c.cam_id)
        if not cams:
            raise ValueError("observation model needs at least one camera")
        object.__setattr__(self, "cameras", tuple(cams))
        object.__setattr__(self, "_column", {c.cam_id: k for k, c in enumerate(cams)})


def symmetrize(P: np.ndarray) -> np.ndarray:
    """0.5 (P + P^T) of a matrix or of each matrix of a stack."""
    return 0.5 * (P + P.swapaxes(-1, -2))


def clamp_psd(P: np.ndarray, floor: float = 0.0) -> np.ndarray:
    """Symmetrize and clamp eigenvalues at `floor` (tiny negative
    eigenvalues from roundoff are lifted to zero), of a matrix or of each
    matrix of a stack."""
    P = symmetrize(P)
    w, V = np.linalg.eigh(P)
    low = ~(w[..., 0] >= floor)
    if low.any():
        V = V[low]
        P[low] = symmetrize((V * np.maximum(w[low], floor)[:, None, :])
                            @ V.swapaxes(-1, -2))
    return P


def predict(states: Sequence[TargetState], pm: ProcessModel) -> list[TargetState]:
    """Time update of every target: mean <- A mean, cov <- A P A^T + Q."""
    if not states:
        return []
    # A broadcast over (T, 6, 1) is one gemv per target, as A @ mean is; a
    # stacked (T, 6) @ A^T is a gemm and rounds differently
    means = (pm.A @ np.array([s.mean for s in states])[:, :, None])[:, :, 0]
    covs = symmetrize(pm.A @ np.array([s.cov for s in states]) @ pm.A.T + pm.Q)
    return [replace(s, mean=m, cov=P) for s, m, P in zip(states, means, covs)]


def _linearize(points, cams: Sequence[CameraModel]):
    """Projections of the (T, 3) `points` by `cams`, shape (T, C, 2), the
    two rows of each one's Jacobian with respect to the state, shape
    (T, C, 2, 6), and the (T, C) mask of the pairs that project (in front,
    not on the principal plane); entries outside the mask mean nothing."""
    x, ok = project_points(cams, points)
    t = x[..., 2:]
    P = np.array([c.projection for c in cams]).reshape(-1, 3, 4)
    rows = np.zeros(x.shape[:2] + (2, 6))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # d(r/t)/dX_j = (P[0,j] t - r P[2,j]) / t^2 for world components j
        rows[..., :3] = ((P[:, :2, :3] * t[..., None] - x[..., :2, None] * P[:, 2:, :3])
                         / (t * t)[..., None])
        return x[..., :2] / t, rows, ok


def _observe(mean, cams: Sequence[CameraModel]):
    cams = sorted(cams, key=lambda c: c.cam_id)
    pred, rows, ok = _linearize(np.asarray(mean, dtype=float).ravel()[:3], cams)
    if not ok.all():
        raise BehindCamera(cams[int(np.argmin(ok[0]))].cam_id)
    return pred[0].reshape(-1), rows[0].reshape(-1, 6)


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


def _kalman_stack(means, P, C, y, h, r_px):
    """One EKF measurement update of each of G targets with n stacked
    pixel observations: means (G, 6), covariances P (G, 6, 6), Jacobians C
    (G, n, 6), observations y and predictions h (G, n). Returns the (G,)
    mask of the updates kept and their posterior means and covariances;
    an update is dropped when the innovation covariance S is not finite,
    its condition number exceeds 1e12, or it is not positive definite."""
    R = np.eye(C.shape[1]) * r_px
    CP = C @ P
    S = CP @ C.transpose(0, 2, 1) + R
    good = np.isfinite(S).all(axis=(1, 2))
    if good.any():
        good[good] = ~(np.linalg.cond(S[good]) > _COND_LIMIT)
    S = symmetrize(S)
    K = np.empty((len(C), 6, C.shape[1]))
    for g in np.flatnonzero(good):
        # what scipy's cho_factor and cho_solve call, without their finite
        # checks: S is finite here, so C P is
        c, info = lapack.dpotrf(S[g], lower=0, clean=0)
        if info:
            good[g] = False
        else:
            K[g] = lapack.dpotrs(c, CP[g], lower=0)[0].T  # P C^T S^-1
    K, C, P = K[good], C[good], P[good]
    mean = means[good] + (K @ (y - h)[good][:, :, None])[:, :, 0]
    IKC = np.eye(6) - K @ C
    cov = clamp_psd(IKC @ P @ IKC.transpose(0, 2, 1) + K @ R @ K.transpose(0, 2, 1))
    return good, mean, cov


def _camera_column(om: ObservationModel, cam: CameraModel) -> int:
    k = om._column.get(cam.cam_id)
    if k is None or om.cameras[k] is not cam:
        raise ValueError(f"camera {cam.cam_id!r} is not a camera of the observation model")
    return k


def update(priors: Sequence[TargetState],
           observations: Sequence[Sequence[Observation]],
           om: ObservationModel) -> tuple[list[TargetState], list[int]]:
    """Measurement update of every target of a frame; ``observations[i]``
    is target i's list of ``(camera, (u, v))``, where each camera is one of
    ``om.cameras`` (the same object; any other camera raises ValueError).

    Returns the posteriors, in the order of `priors`, and the ids of the
    targets whose update was dropped because the innovation covariance is
    singular (see :func:`_kalman_stack`). A target with no observation, one
    whose prior position no observing camera can project (behind it), and
    a dropped one keep the prior and count a missed frame. Covariance is
    updated in Joseph form to preserve positive semidefiniteness.
    """
    if len(observations) != len(priors):
        raise ValueError(f"{len(observations)} observation lists for {len(priors)} targets")
    seen = [i for i, obs in enumerate(observations) if obs]
    if seen:
        pred, rows, ok = _linearize(np.array([priors[i].mean[:3] for i in seen]),
                                    om.cameras)
    # targets grouped by their number of usable cameras, so that each
    # group's innovation covariances stack
    groups: dict[int, list] = {}
    for row, i in enumerate(seen):
        obs = sorted(((_camera_column(om, cam), px) for cam, px in observations[i]),
                     key=lambda o: o[0])
        obs = [(k, px) for k, px in obs if ok[row, k]]
        if obs:
            groups.setdefault(len(obs), []).append((i, row, obs))
    posteriors = list(priors)
    dropped = []  # indices into priors
    for m, members in groups.items():
        index = np.array([i for i, _, _ in members])
        at = (np.array([[row] for _, row, _ in members]),
              np.array([[k for k, _ in obs] for _, _, obs in members]))
        y = np.array([[px for _, px in obs] for _, _, obs in members], dtype=float)
        good, mean, cov = _kalman_stack(
            np.array([priors[i].mean for i in index]),
            np.array([priors[i].cov for i in index]),
            rows[at].reshape(len(index), 2 * m, 6), y.reshape(len(index), 2 * m),
            pred[at].reshape(len(index), 2 * m), om.r_px)
        for i, mu, Sigma in zip(index[good], mean, cov):
            posteriors[i] = replace(priors[i], mean=mu, cov=Sigma, frames_since_observation=0)
        dropped += list(index[~good])
    return ([p if p is not prior else
             replace(p, frames_since_observation=p.frames_since_observation + 1)
             for p, prior in zip(posteriors, priors)],
            [priors[i].target_id for i in sorted(dropped)])


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
        # tolist() gives Python floats, whose repr is the shortest exact form
        self._file.write("".join(
            ",".join([str(frame_number), str(t.target_id), *map(repr, t.mean.tolist()),
                      *map(repr, t.cov.ravel().tolist())]) + "\n"
            for t in sorted(targets, key=lambda t: t.target_id)))
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

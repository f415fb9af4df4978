"""Extended Kalman filters with constant-velocity dynamics and a
multi-camera projective observation model, stepped a frame at a time over
every target at once, on numpy alone.

State is (x, y, z, vx, vy, vz) in SI units. The observation for a frame is
the stacked distortion-corrected pixel pair from each reporting camera, in
camera-id order; the filter linearizes the projection analytically.

:func:`predict` and :func:`update` step a :class:`Targets` stack with
the same bits for a target whether it is stepped alone or in a stack: each
product is a stacked ``matmul``, which calls the same BLAS routine per
target that the 2D product calls, and each eigendecomposition the same
LAPACK call.

The measurement update is in information form: with pixel noise
``r_px I``, each camera adds ``A = C^T C / r_px`` to the information, so
every matrix is 6x6 whatever the number of cameras. The terms that read
no measurement (:class:`Information`: predicted pixels, Jacobian rows and
``A`` for every camera that projects a prior, the root of each prior
covariance, and the inverse position covariances the pair table reads)
and the covariance half of the update for a set of cameras
(:func:`posterior`) can be made before the frame arrives; :func:`update`
then sums the information vectors of the cameras that matched.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .geometry import BehindCamera, CameraModel, Rig, project_points

# defaults: position noise 100 mm^2 (= 1e-4 m^2), velocity noise 0.25 (m/s)^2,
# pixel observation variance 1 px^2
DEFAULT_Q_POS = 1e-4
DEFAULT_Q_VEL = 0.25
DEFAULT_R_PX = 1.0

_COND_LIMIT = 1e12

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


@dataclass(frozen=True, eq=False)
class Targets:
    """Targets stacked row by row: ids (T,), means (T, 6), covariances
    (T, 6, 6), frames since the last observation and birth frames (T,).
    The arrays are never written, so the states of :meth:`states`, which
    view them, stay valid."""

    ids: np.ndarray
    means: np.ndarray
    covs: np.ndarray
    missed: np.ndarray
    born_at: np.ndarray

    @classmethod
    def of(cls, states: Sequence[TargetState]) -> Targets:
        return cls(np.array([s.target_id for s in states], dtype=int),
                   np.array([s.mean for s in states]).reshape(-1, 6),
                   np.array([s.cov for s in states]).reshape(-1, 6, 6),
                   np.array([s.frames_since_observation for s in states], dtype=int),
                   np.array([s.born_at for s in states], dtype=int))

    def __len__(self) -> int:
        return len(self.ids)

    def states(self) -> list[TargetState]:
        return list(map(TargetState, self.ids.tolist(), self.means, self.covs,
                        self.missed.tolist(), self.born_at.tolist()))

    def take(self, index) -> Targets:
        """The targets an index array, a boolean mask or a slice selects."""
        return Targets(*(a[index] for a in vars(self).values()))

    def join(self, states: Sequence[TargetState]) -> Targets:
        """These targets followed by `states`."""
        if not states:
            return self
        return Targets(*map(np.concatenate, zip(vars(self).values(),
                                                vars(Targets.of(states)).values())))


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
    by id so stacked observation vectors have a canonical layout; `rig`
    holds their constants, stacked once."""

    cameras: Sequence[CameraModel]
    r_px: float = DEFAULT_R_PX
    rig: Rig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check("r_px", self.r_px, positive=True)
        rig = Rig(self.cameras)
        if not rig.cameras:
            raise ValueError("observation model needs at least one camera")
        object.__setattr__(self, "cameras", rig.cameras)
        object.__setattr__(self, "rig", rig)


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


def well_conditioned(M) -> np.ndarray:
    """Which matrices of the stack `M` have a condition number of at most
    1e12, computed as ``np.linalg.cond`` does; a NaN ratio (a zero matrix)
    fails, as the infinite number ``cond`` gives it does."""
    s = np.linalg.svd(M, compute_uv=False)
    with np.errstate(divide="ignore", invalid="ignore"):
        return s[..., 0] / s[..., -1] <= _COND_LIMIT


def predict(targets: Targets, pm: ProcessModel) -> Targets:
    """Time update of every target: mean <- A mean, cov <- A P A^T + Q."""
    # A broadcast over (T, 6, 1) is one gemv per target, as A @ mean is; a
    # stacked (T, 6) @ A^T is a gemm and rounds differently
    means = (pm.A @ targets.means[:, :, None])[:, :, 0]
    covs = symmetrize(pm.A @ targets.covs @ pm.A.T + pm.Q)
    return Targets(targets.ids, means, covs, targets.missed, targets.born_at)


def _linearize(x, P):
    """Pixel predictions, shape (..., 2), and the two rows of each one's
    Jacobian with respect to the state, shape (..., 2, 6), of homogeneous
    image points `x` (..., 3) projected by the matching projection matrices
    `P` (..., 3, 4); meaningless where `x` does not project."""
    t = x[..., 2:]
    rows = np.zeros(x.shape[:-1] + (2, 6))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # d(r/t)/dX_j = (P[0,j] t - r P[2,j]) / t^2 for world components j
        rows[..., :3] = ((P[..., :2, :3] * t[..., None] - x[..., :2, None] * P[..., 2:, :3])
                         / (t * t)[..., None])
        return x[..., :2] / t, rows


def _observe(mean, cams: Sequence[CameraModel]):
    cams = sorted(cams, key=lambda c: c.cam_id)
    x, ok = project_points(cams, np.asarray(mean, dtype=float).ravel()[:3])
    if not ok.all():
        raise BehindCamera(cams[int(np.argmin(ok[0]))].cam_id)
    pred, rows = _linearize(x[0], np.array([c.projection for c in cams]).reshape(-1, 3, 4))
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


@dataclass(frozen=True, eq=False)
class Information:
    """The terms of a frame's priors that read no measurement: those of
    the measurement update of `priors` under `om` and those of the pair
    table. For each target and each camera that projects its prior
    position (`ok`, (T, C)): the predicted pixels `h` (T, C, 2), the two
    Jacobian rows `C` (T, C, 2, 6) and the information
    ``A = C^T C / r_px`` (T, C, 6, 6), all zero where the camera does not
    project it. `root` (T, 6, 6) is the symmetric square root of each prior
    covariance (its negative eigenvalues, roundoff, taken as zero), NaN
    where the covariance is not finite. `cov_ok` (T,) marks the position
    covariances that are finite with condition at most 1e12, and `s_inv`
    (T, 3, 3) holds their inverses, zero where not."""

    priors: Targets
    om: ObservationModel
    ok: np.ndarray
    h: np.ndarray
    C: np.ndarray
    A: np.ndarray
    root: np.ndarray
    cov_ok: np.ndarray
    s_inv: np.ndarray

    @classmethod
    def of(cls, priors: Targets, om: ObservationModel) -> Information:
        """The terms of `priors` through every camera of `om`."""
        x, ok = om.rig.project(priors.means[:, :3])
        h, C = _linearize(x, om.rig.P)
        h = np.where(ok[..., None], h, 0.0)
        C = np.where(ok[..., None, None], C, 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            A = C.swapaxes(-1, -2) @ C / om.r_px
        finite = np.isfinite(priors.covs).all(axis=(1, 2))
        root = np.full(priors.covs.shape, np.nan)
        w, V = np.linalg.eigh(priors.covs[finite])
        root[finite] = (V * np.sqrt(np.maximum(w, 0.0))[:, None, :]) @ V.swapaxes(1, 2)
        cov = priors.covs[:, :3, :3]
        cov_ok = np.isfinite(cov).all(axis=(1, 2))
        cov_ok[cov_ok] = well_conditioned(cov[cov_ok])
        s_inv = np.zeros_like(cov)
        s_inv[cov_ok] = np.linalg.inv(cov[cov_ok])
        return cls(priors, om, ok, h, C, A, root, cov_ok, s_inv)


@dataclass(frozen=True, eq=False)
class Posterior:
    """The covariance half of the updates of the targets of `info` through
    the cameras of the (T, C) mask `use`: which are kept (T,), the
    covariances after them (T, 6, 6; a target's prior where its update is
    not kept) and the matrices (T, 6, 6) that turn each kept target's
    information vector ``b = sum_c C_c^T (y_c - h_c) / r_px`` into its
    mean step."""

    info: Information
    use: np.ndarray
    kept: np.ndarray
    covs: np.ndarray
    step: np.ndarray


def posterior(info: Information, use) -> Posterior:
    """The updates of the targets of `info` through the cameras of `use`,
    up to the measurement.

    The update is in information form. With pixel noise ``r_px I`` the
    cameras used add ``J = sum_c A_c``, and the posterior covariance is
    ``(I + P J)^-1 P = R (I + M)^-1 R`` with R the root of the prior P and
    ``M = R J R``. So one symmetric 6x6 eigendecomposition per target,
    ``M = V diag(mu) V^T``, gives the posterior ``(R V) diag(1 / (1 + mu))
    (R V)^T`` (symmetrized and clamped), and P is never inverted (it may
    be singular). ``C P C^T`` has rank ``min(2k, 3)`` at most for k
    cameras (C has zero velocity columns), so the other eigenvalues of M
    are zero, and they are set to zero: roundoff of the size of the largest
    one must not reach them. The mean step ``P+ b`` is made from the other
    directions alone, since b has no component along these.

    An update is dropped, as the gain form drops it, when the innovation
    covariance ``S = C P C^T + r_px I`` is not finite or its condition
    number exceeds 1e12. The eigenvalues of S are ``r_px (1 + mu)`` with
    zeros for ``2k - min(2k, 3)`` of the mu, so cond(S) is
    ``(1 + mu_max) / (1 + mu_min)``: mu_min is the second largest
    eigenvalue of M for one camera, and 0 for more."""
    P = info.priors.covs
    covs, step = P.copy(), np.zeros_like(P)
    root, k = info.root, np.count_nonzero(use, axis=1)
    J = np.where(use[:, :, None, None], info.A, 0.0).sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        M = root @ J @ root
    ok = (k > 0) & np.isfinite(M).all(axis=(1, 2))
    mu, V = np.linalg.eigh(M[ok])
    k = k[ok]
    zero = np.arange(6) < 6 - np.minimum(2 * k, 3)[:, None]
    mu[zero] = 0.0
    low = 1.0 + np.where(k == 1, mu[:, -2], 0.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        good = (low > 0) & ((1.0 + mu[:, -1]) / low <= _COND_LIMIT)
    ok[ok] = good
    RV = root[ok] @ V[good]
    d = 1.0 / (1.0 + mu[good])
    covs[ok] = clamp_psd((RV * d[:, None, :]) @ RV.swapaxes(1, 2))
    step[ok] = (RV * np.where(zero[good], 0.0, d)[:, None, :]) @ RV.swapaxes(1, 2)
    return Posterior(info, use, ok, covs, step)


def update(info: Information, observations, guess: Posterior | None = None
           ) -> tuple[Targets, list[int]]:
    """Measurement update of every target of a frame, from the terms
    `info` of its priors. Returns the posteriors and the ids of the targets
    whose update was dropped because the innovation covariance is singular
    (see :func:`posterior`).

    `observations` is the (T, C) mask of the ``info.om.cameras`` that
    observed each target and the (T, C, 2) pixels.

    `guess`, a :func:`posterior` made before the frame for a guess of each
    target's cameras, is used only when it is of this very `info` and
    every target's cameras are those guessed; otherwise the posterior is
    made here, with the same bits. Each kept update then moves its mean by
    ``P+ sum_c C_c^T (y_c - h_c) / r_px``.

    A target with no observation, one whose prior position no observing
    camera can project (behind it), and a dropped one keep the prior and
    count a missed frame.
    """
    seen, px = observations
    priors, use = info.priors, seen & info.ok
    fits = guess is not None and guess.info is info and (guess.use == use).all()
    post = guess if fits else posterior(info, use)
    kept = post.kept
    e = np.where(use[..., None], px - info.h, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        b = np.where(use[..., None], (info.C.swapaxes(-1, -2) @ e[..., None])[..., 0],
                     0.0).sum(axis=1) / info.om.r_px
    means = priors.means.copy()
    means[kept] += (post.step[kept] @ b[kept, :, None])[:, :, 0]
    missed = np.where(kept, 0, priors.missed + 1)
    return (Targets(priors.ids, means, post.covs, missed, priors.born_at),
            priors.ids[use.any(axis=1) & ~kept].tolist())


def extrapolate(state: TargetState, horizon: float) -> np.ndarray:
    """Predicted position `horizon` seconds ahead under constant velocity."""
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    return state.position + horizon * state.velocity


# --------------------------------------------------------------- trajectory CSV

TRAJECTORY_FIELDS = (["frame", "target_id", "x", "y", "z", "vx", "vy", "vz"]
                     + [f"p{i}{j}" for i in range(6) for j in range(6)])

_UPPER = np.triu_indices(6)
# the 36 entries of a symmetric 6x6 matrix, row by row, picked from its 21
# upper-triangle entries
_FROM_UPPER = operator.itemgetter(*(
    list(zip(*_UPPER)).index((min(i, j), max(i, j))) for i in range(6) for j in range(6)))


def covariance_text(covs) -> list[str]:
    """The 36 covariance cells of each trajectory row, comma-joined, for
    each covariance of the (T, 6, 6) stack `covs`: ``repr`` of each entry
    (the shortest exact form), row by row. A covariance whose lower
    triangle mirrors its upper one bit for bit is formatted from its 21
    upper-triangle entries."""
    bits = covs.view(np.uint64)
    mirrored = (bits == bits.swapaxes(1, 2)).all(axis=(1, 2)).tolist()
    return [",".join(_FROM_UPPER(list(map(repr, upper))) if sym
                     else map(repr, cov.ravel().tolist()))
            for cov, upper, sym in zip(covs, covs[:, _UPPER[0], _UPPER[1]].tolist(), mirrored)]


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

    def write_frame(self, frame_number: int, targets: Targets | Iterable[TargetState]):
        """One row per target of a stack in id order, or of states in any
        order. Numbers are ``repr`` of Python floats (the shortest exact
        form); the covariance cells are :func:`covariance_text`."""
        if not isinstance(targets, Targets):
            targets = Targets.of(sorted(targets, key=lambda t: t.target_id))
        frame = str(frame_number)
        self._file.write("".join(
            f"{frame},{tid},{','.join(map(repr, mean))},{cells}\n"
            for tid, mean, cells in zip(targets.ids.tolist(), targets.means.tolist(),
                                        covariance_text(targets.covs))))
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

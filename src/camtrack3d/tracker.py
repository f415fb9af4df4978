"""Extended Kalman filters with constant-velocity dynamics and a
multi-camera projective observation model, stepped a frame at a time over
every target at once.

State is (x, y, z, vx, vy, vz) in SI units. The observation for a frame is
the stacked distortion-corrected pixel pair from each reporting camera, in
camera-id order; the filter linearizes the projection analytically.

:func:`predict` and :func:`update` step a :class:`Targets` stack (a list
of :class:`TargetState` is stacked, stepped and returned as states) with
the same bits as one filter step per target: each product is a stacked
``matmul``, which calls the same BLAS routine per target that the 2D
product calls, and each factorization is the same LAPACK call.

The update is split at the measurement. Its gain step (Jacobians,
predicted pixels, the keep or drop decision, gain and posterior
covariance) depends only on the prior and the target's camera set, so it
can be made before the frame arrives (:class:`Gains`, :func:`gain_steps`);
:func:`update` then adds ``K (y - h)`` to each prior mean and makes only
the gain steps it was not given. What a posterior covariance alone decides,
such as its trajectory-row text (:func:`covariance_text`), can be made
ahead too and found again by the covariance's bytes (:func:`by_value`).
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.linalg import lapack

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


def predict(targets, pm: ProcessModel):
    """Time update of every target: mean <- A mean, cov <- A P A^T + Q.
    Takes and returns a :class:`Targets` stack, or a list of states."""
    if not isinstance(targets, Targets):
        return predict(Targets.of(targets), pm).states()
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


def _gain(P, C, r_px):
    """The half of one EKF measurement update that reads no measurement,
    of each of G targets with n stacked pixel observations: covariances P
    (G, 6, 6) and Jacobians C (G, n, 6). Returns the (G,) mask of the
    updates kept and their gains (g, 6, n) and posterior covariances
    (g, 6, 6); an update is dropped when the innovation covariance S is
    not finite, its condition number exceeds 1e12, or it is not positive
    definite."""
    R = np.eye(C.shape[1]) * r_px
    CP = C @ P
    S = CP @ C.transpose(0, 2, 1) + R
    good = np.isfinite(S).all(axis=(1, 2))
    if good.any():
        good[good] = well_conditioned(S[good])
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
    if not good.all():
        K, C, P = K[good], C[good], P[good]
    IKC = np.eye(6) - K @ C
    cov = clamp_psd(IKC @ P @ IKC.transpose(0, 2, 1) + K @ R @ K.transpose(0, 2, 1))
    return good, K, cov


@dataclass(frozen=True, eq=False)
class GainStep:
    """The measurement-free half of the update of G targets that use m
    cameras each: their rows (G,) in the priors, camera columns (G, m)
    and predicted pixels (G, 2m), which updates are kept (G,), and the
    gains (g, 6, 2m) and posterior covariances (g, 6, 6) of the g kept
    ones."""

    rows: np.ndarray
    cols: np.ndarray
    h: np.ndarray
    kept: np.ndarray
    K: np.ndarray
    cov: np.ndarray

    def take(self, mask) -> GainStep:
        """The step of the targets the (G,) `mask` selects."""
        k = mask[self.kept]
        return GainStep(self.rows[mask], self.cols[mask], self.h[mask], self.kept[mask],
                        self.K[k], self.cov[k])


def gain_steps(priors: Targets, use, om: ObservationModel, x) -> list[GainStep]:
    """The gain steps of the targets of `priors` through the cameras of
    the (T, C) mask `use` of ``om.cameras``, where `x` (T, C, 3) is the
    priors' projection. Targets are grouped by their number of cameras, so
    that each group's innovation covariances stack; a target with no
    camera has no step."""
    counts = np.count_nonzero(use, axis=1)
    steps = []
    for m in sorted(set(counts.tolist()) - {0}):
        rows = np.flatnonzero(counts == m)
        cols = np.nonzero(use[rows])[1].reshape(len(rows), m)
        pred, C = _linearize(x[rows[:, None], cols], om.rig.P[cols])
        kept, K, cov = _gain(priors.covs[rows], C.reshape(len(rows), 2 * m, 6), om.r_px)
        steps.append(GainStep(rows, cols, pred.reshape(len(rows), 2 * m), kept, K, cov))
    return steps


@dataclass(frozen=True, eq=False)
class Gains:
    """Gain steps made before the measurements arrive: for each target of
    `priors`, the step through the cameras of its row of `use` (T, C).
    :func:`update` looks a target up by its row and camera mask, and only
    for these very `priors` and `om`."""

    priors: Targets
    om: ObservationModel
    use: np.ndarray
    steps: list[GainStep]

    @classmethod
    def of(cls, priors: Targets, cameras, om: ObservationModel, projected) -> Gains:
        """The gain steps of `priors` through the cameras of the (T, C)
        guess `cameras` that project them (``projected`` is
        ``om.rig.project`` of the prior positions)."""
        x, ok = projected
        use = cameras & ok
        return cls(priors, om, use, gain_steps(priors, use, om, x))

    def lookup(self, use) -> tuple[np.ndarray, list[GainStep]]:
        """The (T,) mask of the targets whose step is for their row of
        `use`, and those steps."""
        hit = (self.use == use).all(axis=1)
        if hit.all():
            return hit, self.steps
        return hit, [step.take(hit[step.rows]) for step in self.steps]


@dataclass
class UpdateCounters:
    """Instrumentation: the updates whose gain step was prepared before the
    frame (:class:`Gains`), and those whose step was made on demand."""

    prepared: int = 0
    on_demand: int = 0


def update(priors, observations, om: ObservationModel, projected=None, gains=None,
           counters: UpdateCounters | None = None):
    """Measurement update of every target of a frame. Returns the
    posteriors and the ids of the targets whose update was dropped because
    the innovation covariance is singular (see :func:`_gain`).

    For a :class:`Targets` stack, `observations` is the (T, C) mask of the
    ``om.cameras`` that observed each target and the (T, C, 2) pixels, and
    `projected` is ``om.rig.project`` of the prior positions if the caller
    has it. For a list of states, ``observations[i]`` lists target i's
    ``(camera, (u, v))``, each camera one of ``om.cameras`` (the same
    object, at most once; else ValueError).

    Each update is split at the measurement: a gain step (:func:`_gain`:
    Jacobians, predicted pixels, the keep or drop decision, the gain K and
    the posterior covariance) that reads no measurement, then
    ``mean = prior + K (y - h)``. `gains`, a :class:`Gains` of these
    `priors` and `om` made before the frame, supplies the gain step of
    every target it holds for the target's camera mask; the others are
    computed here, stacked by group, with the same bits, and nothing is
    computed when every step was supplied. `counters` counts the updates
    of each kind.

    A target with no observation, one whose prior position no observing
    camera can project (behind it), and a dropped one keep the prior and
    count a missed frame. Covariance is updated in Joseph form to preserve
    positive semidefiniteness.
    """
    if not isinstance(priors, Targets):
        if len(observations) != len(priors):
            raise ValueError(
                f"{len(observations)} observation lists for {len(priors)} targets")
        seen = np.zeros((len(priors), len(om.cameras)), dtype=bool)
        px = np.zeros(seen.shape + (2,))
        for i, obs in enumerate(observations):
            for cam, uv in obs:
                k = om.rig.column.get(cam.cam_id)
                if k is None or om.cameras[k] is not cam or seen[i, k]:
                    raise ValueError(f"camera {cam.cam_id!r} is not a camera of the "
                                     f"observation model, or observes target {i} twice")
                seen[i, k], px[i, k] = True, uv
        posteriors, dropped = update(Targets.of(priors), (seen, px), om)
        return posteriors.states(), dropped
    seen, px = observations
    x, ok = om.rig.project(priors.means[:, :3]) if projected is None else projected
    use = seen & ok
    need = use.any(axis=1)
    if gains is not None and gains.priors is priors and gains.om is om:
        hit, steps = gains.lookup(use)
        if counters is not None:
            counters.prepared += int(np.count_nonzero(need & hit))
        need &= ~hit
    else:
        steps = []
    if need.any():
        steps = steps + gain_steps(priors, use & need[:, None], om, x)
        if counters is not None:
            counters.on_demand += int(np.count_nonzero(need))
    means, covs, missed = priors.means.copy(), priors.covs.copy(), priors.missed + 1
    dropped = []
    for step in steps:
        rows, h = step.rows[step.kept], step.h[step.kept]
        innovation = px[rows[:, None], step.cols[step.kept]].reshape(h.shape) - h
        means[rows] = priors.means[rows] + (step.K @ innovation[:, :, None])[:, :, 0]
        covs[rows], missed[rows] = step.cov, 0
        dropped += step.rows[~step.kept].tolist()
    return (Targets(priors.ids, means, covs, missed, priors.born_at),
            priors.ids[sorted(dropped)].tolist())


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


_COV_BYTES = 36 * 8


def cov_keys(covs) -> list[bytes]:
    """The bytes of each covariance of the (T, 6, 6) stack `covs`, in C
    order: the key under which a value made from it is found again."""
    raw = covs.tobytes()
    return [raw[i:i + _COV_BYTES] for i in range(0, len(raw), _COV_BYTES)]


def by_value(covs, known, compute) -> list:
    """``compute(covs)``, one value per covariance of the (T, 6, 6) stack
    `covs`, each taken from `known` (a mapping from :func:`cov_keys` to
    values `compute` made earlier) when it holds the covariance; `compute`
    runs once, on the covariances it lacks."""
    if not known:
        return compute(covs)
    values = list(map(known.get, cov_keys(covs)))
    missing = [i for i, value in enumerate(values) if value is None]
    if missing:
        for i, value in zip(missing, compute(covs[missing])):
            values[i] = value
    return values


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

    def write_frame(self, frame_number: int, targets: Targets | Iterable[TargetState],
                    cov_text=None):
        """One row per target of a stack in id order, or of states in any
        order. Numbers are ``repr`` of Python floats (the shortest exact
        form); the covariance cells are :func:`covariance_text`, taken
        from `cov_text` (its result by :func:`cov_keys`, made earlier) for
        the covariances it holds."""
        if not isinstance(targets, Targets):
            targets = Targets.of(sorted(targets, key=lambda t: t.target_id))
        frame = str(frame_number)
        self._file.write("".join(
            f"{frame},{tid},{','.join(map(repr, mean))},{cells}\n"
            for tid, mean, cells in zip(targets.ids.tolist(), targets.means.tolist(),
                                        by_value(targets.covs, cov_text, covariance_text))))
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

"""Nearest-neighbor data association with two-stage gating, track-merge
prevention, combinatorial track birth and covariance-threshold death.

Per target and camera, the most likely feature is selected by a likelihood
that multiplies two indicator gates (image distance, blob area) with
exp(-d) where d is the Mahalanobis distance between the back-projected
pixel ray and the predicted 3D position.

The hub keeps a frame's features as one :class:`FrameFeatures` table of
(n, 6) float rows (u, v, area, peak, theta, ecc), camera by camera, with
each row's unit ray, back-projected once when the table is stacked, and
its targets as one :class:`~camtrack3d.tracker.Targets` stack.
:func:`pair_table` takes the priors' :class:`~camtrack3d.tracker.Information`
(their predicted pixels through every camera and inverse position
covariances, made once per frame and shared with the EKF update) and the
table's rays and computes the image distance and the ray distance of every
(target, camera, feature) pair in a fixed number of array operations.
Assignment (:func:`assign`), merge prevention (:func:`resolve_shared`)
and the birth search's claim test (:func:`gate_claimed_features`) take
that table and apply their own thresholds. Since the table computes
every ray distance anyway, the gates no longer save work;
``LikelihoodCounters`` still counts the stages a pair-by-pair evaluation
would run. The birth search (:func:`spawn_targets`) reads the rows
outside the frame's claimed-row mask, tests all pairs of the same rays
at once, triangulates the cliques of that compatibility graph in one
stacked call per size, counts the cameras that see every hypothesis with
one projection and takes births in one scan of the acceptable
hypotheses, best first. :func:`feature_likelihood` and
:func:`mahalanobis_closest_point` compute the same quantities one pair at
a time and are the reference the table is tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .features import Feature
from .geometry import (
    BehindCamera,
    CameraModel,
    DegenerateGeometry,
    PointAtInfinity,
    Ray3,
    Rig,
    _T_EPS,
    line_distances,
    pixel_ray,
    project,
    triangulate,  # not called here; the traced benchmark wraps it by name
    triangulate_sets,
)
from .tracker import _COND_LIMIT, Information, Targets, TargetState

_NO_ROWS = np.empty((0, 6))  # a camera that reported no features


class SingularCovariance(Exception):
    """Position covariance is not invertible within tolerance."""


@dataclass
class GateConfig:
    """Gating and track-lifecycle thresholds. All configurable; defaults
    suit the desk-scale simulated rigs."""

    dist2d_threshold: float = 30.0        # px
    area_threshold: float = 1.0           # px^2, strict 'greater than'
    mahalanobis_gate: float = 5.0         # cap on accepted ray distance
    birth_reprojection_threshold: float = 1.5   # px
    death_covariance_threshold: float = 0.004   # m^2, max position eigenvalue
    min_birth_cameras: int = 2
    birth_miss_tolerance: int = 1         # cameras allowed silent at birth
    sigma_birth: float = 0.01             # m, new-track position stddev
    sigma_vbirth: float = 1.0             # m/s, new-track velocity stddev
    birth_pair_distance: float = 0.03     # m, pairwise ray-consistency prune

    def __post_init__(self):
        for name in ("dist2d_threshold", "area_threshold", "mahalanobis_gate",
                     "birth_reprojection_threshold", "death_covariance_threshold",
                     "sigma_birth", "sigma_vbirth", "birth_pair_distance"):
            if not getattr(self, name) > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive")
        if not self.birth_miss_tolerance >= 0:
            raise ValueError("birth_miss_tolerance must be nonnegative")
        if math.isnan(self.min_birth_cameras):
            raise ValueError("min_birth_cameras must not be NaN")


@dataclass
class LikelihoodCounters:
    """Instrumentation: how often each gating stage actually ran."""

    dist2d_evals: int = 0
    area_evals: int = 0
    mahalanobis_evals: int = 0


@dataclass
class SpawnStats:
    """Instrumentation for the birth search, summed over its calls."""

    camera_combinations: int = 0      # the combinations the search covers
    hypotheses_triangulated: int = 0  # each ray-consistent tuple, once
    passes: int = 0                   # one per call


def mahalanobis_closest_point(ray: Ray3, center, cov) -> tuple[np.ndarray, float]:
    """Minimize the Mahalanobis distance from `center` (covariance `cov`)
    over points of the ray; closed form via the zero of the derivative of
    the quadratic in the ray parameter. Returns (closest point, distance)."""
    center = np.asarray(center, dtype=float).reshape(3)
    cov = np.asarray(cov, dtype=float).reshape(3, 3)
    if not np.all(np.isfinite(cov)) or np.linalg.cond(cov) > _COND_LIMIT:
        raise SingularCovariance("position covariance condition too high")
    try:
        Sd = np.linalg.solve(cov, ray.direction)
        Sw = np.linalg.solve(cov, center - ray.origin)
    except np.linalg.LinAlgError as e:
        raise SingularCovariance(str(e)) from e
    denom = float(ray.direction @ Sd)
    if denom <= 0:
        raise SingularCovariance("covariance not positive definite along ray")
    s = float(ray.direction @ Sw) / denom
    point = ray.point_at(s)
    diff = point - center
    d2 = float(diff @ np.linalg.solve(cov, diff))
    if not math.isfinite(d2):  # a non-finite ray or center: gated out
        return point, math.inf
    return point, math.sqrt(max(0.0, d2))


def feature_likelihood(z: Feature, target: TargetState, cam: CameraModel,
                       gate: GateConfig,
                       counters: LikelihoodCounters | None = None) -> float:
    """Likelihood that feature `z` arose from `target` seen by `cam`.

    Returns 0 when the image-distance or area gate fails (the Mahalanobis
    stage is not evaluated in that case) or when the ray distance exceeds
    the gate; otherwise exp(-d_mahal).
    """
    try:
        pu, pv = project(cam, target.position)
    except (BehindCamera, PointAtInfinity):
        return 0.0
    if counters is not None:
        counters.dist2d_evals += 1
    if math.hypot(z.u - pu, z.v - pv) >= gate.dist2d_threshold:
        return 0.0
    if counters is not None:
        counters.area_evals += 1
    if not z.area > gate.area_threshold:
        return 0.0
    if counters is not None:
        counters.mahalanobis_evals += 1
    try:
        ray = pixel_ray(cam, (z.u, z.v))
        _, d = mahalanobis_closest_point(ray, target.position, target.cov[:3, :3])
    except (DegenerateGeometry, SingularCovariance):
        return 0.0
    if d > gate.mahalanobis_gate:
        return 0.0
    return math.exp(-d)


@dataclass(frozen=True)
class AssignmentMatrix:
    """Per-target assignment columns: one entry per camera (in camera-id
    order), each a feature index into that camera's feature list or None."""

    camera_ids: tuple[str, ...]
    columns: dict[int, tuple[int | None, ...]]


@dataclass(frozen=True, eq=False)
class FrameFeatures:
    """One frame's feature rows as one table: `rows` (N, 6), camera by
    camera in the rig's camera order. ``slices[cam_id]`` selects one
    camera's rows, in its row order; ``cam_of[n]`` is row n's camera
    index and ``starts[k]`` the first row of camera k. ``rays`` (N, 3)
    are the rows' back-projected unit directions, toward the scene from
    their camera's center, and ``ray_ok`` (N,) marks those that
    :func:`pixel_ray` accepts: the others are numerically zero or not
    finite before normalization."""

    rows: np.ndarray
    slices: dict[str, slice]
    cam_of: np.ndarray
    starts: np.ndarray
    rays: np.ndarray
    ray_ok: np.ndarray

    @classmethod
    def stack(cls, rows: np.ndarray, counts: Sequence[int], rig: Rig) -> FrameFeatures:
        """The table of `rows`, which hold ``counts[k]`` rows of the rig's
        camera k, camera after camera, back-projected with the rig's
        stacked ``inv(M)``."""
        ends = list(itertools.accumulate(counts, initial=0))
        cam_of = np.repeat(np.arange(len(counts)), counts)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            d = np.einsum("nij,nj->ni", rig.m_inv[cam_of],
                          np.column_stack([rows[:, :2], np.ones(len(rows))]))
            norm = np.linalg.norm(d, axis=1)
            d = d / norm[:, None]
        return cls(rows=rows,
                   slices={cam_id: slice(ends[k], ends[k + 1])
                           for k, cam_id in enumerate(rig.ids)},
                   cam_of=cam_of, starts=np.array(ends[:-1]),
                   rays=d, ray_ok=~(norm < _T_EPS) & np.isfinite(norm))

    def ids(self, rows: np.ndarray) -> set[tuple[str, int]]:
        """The (camera id, row index) of the table's rows `rows`."""
        cam_ids = list(self.slices)
        k = self.cam_of[rows]
        return {(cam_ids[c], j) for c, j in zip(k.tolist(), (rows - self.starts[k]).tolist())}


@dataclass(frozen=True, eq=False)
class PairTable:
    """Geometry of every (target, camera, feature) pairing of one frame.

    Rows follow the priors given to :func:`pair_table`, whose ids are
    ``target_ids``. Columns are the rows of `features`, camera by
    camera in camera-id order; ``slices[cam_id]`` selects one camera's
    columns, in its row order. The table holds no thresholds: each
    consumer applies its own gates.
    """

    target_ids: tuple[int, ...]
    features: FrameFeatures
    visible: np.ndarray    # (T, N) target projects in front of the feature's camera
    dist2d: np.ndarray     # (T, N) image distance to the prediction; inf if not visible
    ray_dist: np.ndarray   # (T, N) Mahalanobis ray distance; inf where undefined

    @property
    def slices(self) -> dict[str, slice]:
        return self.features.slices


def pair_table(frame: FrameFeatures, info: Information) -> PairTable:
    """Score every pair of a feature of `frame` (a table over the rig of
    ``info.om``) and a target of ``info.priors``, in one pass over the
    frame and its rays, from the priors' predicted pixels and position
    terms in `info`.

    Per pair this is what :func:`project`, :func:`pixel_ray` and
    :func:`mahalanobis_closest_point` compute one call at a time, with the
    same rejections: a target behind the camera or at infinity is not
    visible; a covariance that is not finite or has condition above 1e12,
    a ray outside ``frame.ray_ok`` and a ray with d^T S^-1 d <= 0 give an
    infinite ray distance. The ray distance is the closed form
    d^2 = w^T S^-1 w - (d^T S^-1 w)^2 / (d^T S^-1 d), with w the vector
    from the ray origin to the target, S its position covariance and d the
    unit ray direction. It is evaluated as the quadratic form of the
    residual s*d - w at the optimal s, after removing the component of w
    along d (which leaves the residual unchanged), so that no large terms
    cancel.
    """
    uv, cam_of = frame.rows[:, :2], frame.cam_of
    pos, s_inv = info.priors.means[:, :3], info.s_inv
    visible, h = info.ok[:, cam_of], info.h[:, cam_of]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dist2d = np.where(visible, np.hypot(uv[:, 0] - h[..., 0], uv[:, 1] - h[..., 1]), np.inf)

        # every pair: w (T, N, 3) with its along-ray part removed
        d = frame.rays
        w = pos[:, None, :] - info.om.rig.centers[cam_of]
        w -= np.einsum("tni,ni->tn", w, d)[..., None] * d
        sd = np.einsum("tij,nj->tni", s_inv, d)
        dsd = np.einsum("tni,ni->tn", sd, d)
        dsw = np.einsum("tij,tnj,ni->tn", s_inv, w, d)
        resid = (dsw / dsd)[..., None] * d - w
        d2 = np.einsum("tni,tij,tnj->tn", resid, s_inv, resid)
        ray_dist = np.sqrt(np.maximum(d2, 0.0))
        ok = info.cov_ok[:, None] & frame.ray_ok & ~(dsd <= 0) & np.isfinite(ray_dist)
    return PairTable(target_ids=tuple(info.priors.ids.tolist()), features=frame,
                     visible=visible, dist2d=dist2d, ray_dist=np.where(ok, ray_dist, np.inf))


def pair_likelihoods(table: PairTable, gate: GateConfig,
                     counters: LikelihoodCounters | None = None) -> np.ndarray:
    """The (T, N) matrix of :func:`feature_likelihood` over every pair of
    `table`. `counters` counts the gate stages that function would have
    evaluated pair by pair."""
    in_image = ~(table.dist2d >= gate.dist2d_threshold)
    scored = in_image & (table.features.rows[:, 2] > gate.area_threshold)
    if counters is not None:
        counters.dist2d_evals += int(np.count_nonzero(table.visible))
        counters.area_evals += int(np.count_nonzero(in_image))
        counters.mahalanobis_evals += int(np.count_nonzero(scored))
    return np.where(scored & (table.ray_dist <= gate.mahalanobis_gate),
                    np.exp(-table.ray_dist), 0.0)


def assign(table: PairTable, gate: GateConfig,
           counters: LikelihoodCounters | None = None) -> AssignmentMatrix:
    """Nearest-neighbor assignment: per target and camera, the feature
    maximizing the likelihood read from `table` (None when every feature
    gates to zero). Ties break to the lowest feature index."""
    frame = table.features
    # each camera's likelihoods in a row of their own, zero-padded:
    # (T, C, most rows of one camera)
    width = max([1] + [sl.stop - sl.start for sl in frame.slices.values()])
    padded = np.zeros((len(table.target_ids), len(frame.starts), width))
    padded[:, frame.cam_of, np.arange(len(frame.rows)) - frame.starts[frame.cam_of]] = \
        pair_likelihoods(table, gate, counters)
    best = padded.argmax(axis=2)
    best[~(padded.max(axis=2) > 0.0)] = -1
    columns = {tid: tuple(None if j < 0 else j for j in col)
               for tid, col in zip(table.target_ids, best.tolist())}
    return AssignmentMatrix(camera_ids=tuple(table.slices), columns=columns)


def resolve_shared(assignments: AssignmentMatrix, table: PairTable) -> AssignmentMatrix:
    """Merge prevention: when several targets hold the exact same non-null
    assignment subset, the one whose predicted observation is closest
    (summed image distance, read from `table`) keeps it; the others are
    stripped to all-null for this frame. Ties break to the lowest target
    id."""
    groups: dict[tuple, list[int]] = {}
    for tid, col in assignments.columns.items():
        if any(idx is not None for idx in col):
            groups.setdefault(col, []).append(tid)
    shared = {col: tids for col, tids in groups.items() if len(tids) >= 2}
    if not shared:
        return assignments
    row = {tid: i for i, tid in enumerate(table.target_ids)}
    columns = dict(assignments.columns)
    null_col = (None,) * len(assignments.camera_ids)
    for col, tids in shared.items():
        feature_columns = [table.slices[cam_id].start + idx
                           for cam_id, idx in zip(assignments.camera_ids, col)
                           if idx is not None]

        def prediction_distance(tid: int) -> float:
            total = 0.0  # inf when the target is not visible to a camera
            for k in feature_columns:
                total += float(table.dist2d[row[tid], k])
            return total

        winner = min(sorted(tids), key=prediction_distance)
        for tid in tids:
            if tid != winner:
                columns[tid] = null_col
    return replace(assignments, columns=columns)


def gate_claimed_features(table: PairTable, gate: GateConfig) -> np.ndarray:
    """The (N,) mask of the features plausibly explained by an existing
    target: inside its image-distance gate AND with a back-projected ray
    passing the target's 3D Mahalanobis gate.

    Such features are considered claimed by that prediction even when the
    target selected a different (more likely) feature, so they must not
    seed new tracks: a near-duplicate birth next to a live target would
    fight it for measurements and fragment the trajectory. The ray test
    keeps the claim local in 3D; a feature that merely projects near a
    distant track along its viewing ray stays available for births.
    """
    return (~(table.dist2d >= gate.dist2d_threshold)
            & (table.ray_dist <= gate.mahalanobis_gate)).any(axis=0)


def spawn_targets(frame: FrameFeatures, claimed: np.ndarray, rig: Rig,
                  gate: GateConfig, frame_number: int, next_id: int,
                  stats: SpawnStats | None = None
                  ) -> tuple[list[TargetState], set[tuple[str, int]]]:
    """Hypothesize new targets from the rows of `frame`, a table over
    `rig`, outside the (N,) mask `claimed` of rows existing tracks claimed.

    Rows outside ``frame.ray_ok`` are left out. Two rows of different
    cameras are compatible when their rays pass closer than
    ``birth_pair_distance`` (the later row's ray first, since the distance
    is not bitwise symmetric; a NaN distance counts as compatible). The
    hypotheses are the cliques of at least ``min_birth_cameras`` rows of
    this graph, grown row by row; a clique holds one row per camera, since
    rows of one camera are never compatible. A hypothesis is acceptable
    when its mean reprojection error is below the birth threshold AND it is
    supported by nearly every camera able to see the hypothesized point
    (all but `birth_miss_tolerance` of them; a point on the image border
    counts as seen): with detection thresholds set low a real target is
    seen by almost all covering cameras, whereas clutter coincidences and
    mixed-target phantom points muster only two or three consistent rays.

    Births are taken in one scan of the acceptable hypotheses sorted by
    (most cameras, smaller error, lexicographic feature choice): a
    hypothesis is born when none of its features went to an earlier birth.
    That equals repeating the search over the features left after each
    birth, since whether a tuple is acceptable does not depend on the
    other features. Returns the new targets and the set of consumed
    (camera id, row index).

    All pair distances come from one call, each clique size is
    triangulated in one stacked call and the cameras seeing the points are
    counted in one projection; with fewer than two unclaimed rows with a
    usable ray nothing is computed. `stats` counts one pass per call, the
    camera combinations covered (``min_birth_cameras`` or more cameras
    with a usable row) and every clique triangulated.
    """
    stats = SpawnStats() if stats is None else stats
    stats.passes += 1
    rows = np.flatnonzero(~claimed & frame.ray_ok)
    if len(rows) < 2:
        return [], set()
    cams, d = frame.cam_of[rows], frame.rays[rows]
    min_size, n_cams = max(2, gate.min_birth_cameras), len(set(cams.tolist()))
    stats.camera_combinations += sum(math.comb(n_cams, k)
                                     for k in range(min_size, n_cams + 1))
    # later[i, j]: usable row j > i is compatible with usable row i
    a, b = np.triu_indices(len(rows), 1)
    o = rig.centers[cams]
    later = np.zeros((len(rows), len(rows)), dtype=bool)
    far = line_distances(o[b], d[b], o[a], d[a]) >= gate.birth_pair_distance
    later[a, b] = (cams[a] != cams[b]) & ~far
    hypotheses = []  # ((-n_cams, err, table rows), point) below the error threshold
    cliques, grow = np.arange(len(rows))[:, None], later  # grow[i]: rows that extend clique i
    while grow.any():
        i, j = grow.nonzero()
        cliques, grow = np.column_stack([cliques[i], j]), grow[i] & later[j]
        if (size := cliques.shape[1]) < min_size:
            continue
        stats.hypotheses_triangulated += len(cliques)
        t = rows[cliques]  # table rows
        found, points, errs = triangulate_sets(rig.P[frame.cam_of[t]], frame.rows[t, :2])
        keep = errs < gate.birth_reprojection_threshold
        hypotheses += [((-size, err, tuple(r)), point) for err, r, point in
                       zip(errs[keep].tolist(), t[found[keep]].tolist(), points[keep])]
    if not hypotheses:
        return [], set()
    born: list[TargetState] = []
    used: set[int] = set()  # table rows
    x, ok = rig.project([point for _, point in hypotheses])
    with np.errstate(divide="ignore", invalid="ignore"):
        viewing = np.count_nonzero(rig.viewing(x[..., :2] / x[..., 2:], ok), axis=1)
    cov = np.diag([gate.sigma_birth**2] * 3 + [gate.sigma_vbirth**2] * 3)
    for (key, point), n in sorted(zip(hypotheses, viewing.tolist()),
                                  key=lambda hyp: hyp[0][0]):
        if not -key[0] < n - gate.birth_miss_tolerance and used.isdisjoint(key[2]):
            used.update(key[2])
            born.append(TargetState(target_id=next_id + len(born),
                                    mean=np.append(point, [0.0, 0.0, 0.0]),
                                    cov=cov.copy(), frames_since_observation=0,
                                    born_at=frame_number))
    return born, frame.ids(np.array(list(used), dtype=int))


def cull_targets(targets: Targets, gate: GateConfig) -> tuple[Targets, Targets]:
    """Split a :class:`~camtrack3d.tracker.Targets` stack into (kept,
    removed): removed when the largest eigenvalue of the position
    covariance block exceeds the death threshold."""
    covs, threshold = targets.covs[:, :3, :3], gate.death_covariance_threshold
    # no eigenvalue of a 3x3 block exceeds 3 max|entry| (Gershgorin), so
    # only blocks within a rounding margin of the threshold, or with an
    # entry that is not finite, need their eigenvalues
    near = ~(3.0 * np.abs(covs).max(axis=(1, 2)) < threshold * (1.0 - 1e-9))
    dead = np.zeros(len(targets), dtype=bool)
    if near.any():
        dead[near] = np.linalg.eigvalsh(covs[near])[:, -1] > threshold
    if not dead.any():  # most frames: no copies
        return targets, targets.take(slice(0, 0))
    return targets.take(~dead), targets.take(dead)

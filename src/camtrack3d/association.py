"""Nearest-neighbor data association with two-stage gating, track-merge
prevention, combinatorial track birth and covariance-threshold death.

Per target and camera, the most likely feature is selected by a likelihood
that multiplies two indicator gates (image distance, blob area) with
exp(-d) where d is the Mahalanobis distance between the back-projected
pixel ray and the predicted 3D position.

The hub keeps each camera's features as the (n, 6) float rows
(u, v, area, peak, theta, ecc) that arrive on the wire, and scores each
frame once. :func:`pair_table` projects every target through every camera
(:func:`~camtrack3d.geometry.project_points`), back-projects every
feature and computes the image distance and the ray distance of every
(target, camera, feature) pair in a fixed number of array operations.
Assignment (:func:`assign`), merge prevention (:func:`resolve_shared`) and
the birth search's claim test (:func:`gate_claimed_features`) take that
table and apply their own thresholds. Since the table computes every ray
distance anyway, the gates no longer save work; ``LikelihoodCounters``
still counts the stages a pair-by-pair evaluation would run. The birth
search (:func:`spawn_targets`) reads the rows no target claimed,
triangulates each ray-consistent tuple of them once and takes births in
one scan of the acceptable hypotheses, best first.
:func:`feature_likelihood` and :func:`mahalanobis_closest_point` compute
the same quantities one pair at a time and are the reference the table is
tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .features import Feature
from .geometry import (
    BehindCamera,
    CameraModel,
    DegenerateGeometry,
    PointAtInfinity,
    Ray3,
    _T_EPS,
    pixel_ray,
    project,
    project_points,
    triangulate,
)
from .tracker import TargetState

_COND_LIMIT = 1e12

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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.birth_miss_tolerance < 0:
            raise ValueError("birth_miss_tolerance must be nonnegative")


@dataclass
class LikelihoodCounters:
    """Instrumentation: how often each gating stage actually ran."""

    dist2d_evals: int = 0
    area_evals: int = 0
    mahalanobis_evals: int = 0


@dataclass
class SpawnStats:
    """Instrumentation for the birth search, summed over its calls."""

    camera_combinations: int = 0      # of cameras holding a usable unclaimed row
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

    def claimed(self) -> set[tuple[str, int]]:
        used = set()
        for col in self.columns.values():
            for cam_id, idx in zip(self.camera_ids, col):
                if idx is not None:
                    used.add((cam_id, idx))
        return used


@dataclass(frozen=True)
class PairTable:
    """Geometry of every (target, camera, feature) pairing of one frame.

    Rows follow the targets in the order given to :func:`pair_table`, whose
    ids are ``target_ids``. Columns are the frame's features, camera by
    camera in camera-id order; ``slices[cam_id]`` selects one camera's
    columns, in its row order. The table holds no thresholds: each
    consumer applies its own gates.
    """

    target_ids: tuple[int, ...]
    slices: dict[str, slice]
    area: np.ndarray       # (N,) blob area per feature
    visible: np.ndarray    # (T, N) target projects in front of the feature's camera
    dist2d: np.ndarray     # (T, N) image distance to the prediction; inf if not visible
    ray_dist: np.ndarray   # (T, N) Mahalanobis ray distance; inf where undefined


def pair_table(features_by_camera: Mapping[str, np.ndarray],
               targets: Sequence[TargetState],
               cameras: Sequence[CameraModel]) -> PairTable:
    """Project every target, back-project every feature and score every
    pair, in one pass over the frame. `features_by_camera` maps a camera
    id to its (n, 6) feature rows.

    Per pair this is what :func:`project`, :func:`pixel_ray` and
    :func:`mahalanobis_closest_point` compute one call at a time, with the
    same rejections: a target behind the camera or at infinity is not
    visible; a covariance that is not finite or has condition above 1e12,
    a numerically zero ray and a ray with d^T S^-1 d <= 0 give an infinite
    ray distance. The ray distance is the closed form
    d^2 = w^T S^-1 w - (d^T S^-1 w)^2 / (d^T S^-1 d), with w the vector
    from the ray origin to the target, S its position covariance and d the
    unit ray direction. It is evaluated as the quadratic form of the
    residual s*d - w at the optimal s, after removing the component of w
    along d (which leaves the residual unchanged), so that no large terms
    cancel.
    """
    cams = sorted(cameras, key=lambda c: c.cam_id)
    rows = [features_by_camera.get(c.cam_id, _NO_ROWS) for c in cams]
    counts = [len(r) for r in rows]
    ends = list(itertools.accumulate(counts, initial=0))
    slices = {c.cam_id: slice(ends[k], ends[k + 1]) for k, c in enumerate(cams)}
    target_ids = tuple(t.target_id for t in targets)
    n_t, n_f = len(targets), ends[-1]
    uva = np.concatenate([_NO_ROWS, *rows])[:, :3]
    if n_t == 0 or n_f == 0:
        return PairTable(target_ids=target_ids, slices=slices, area=uva[:, 2],
                         visible=np.zeros((n_t, n_f), dtype=bool),
                         dist2d=np.full((n_t, n_f), np.inf),
                         ray_dist=np.full((n_t, n_f), np.inf))
    cam_of = np.repeat(np.arange(len(cams)), counts)
    pos = np.array([t.mean[:3] for t in targets])
    cov = np.array([t.cov[:3, :3] for t in targets])
    # targets through every camera: (T, C, 3) homogeneous image points
    x, seen = project_points(cams, pos)
    visible = seen[:, cam_of]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        depth = x[..., 2]
        dist2d = np.where(visible,
                          np.hypot(uva[:, 0] - (x[..., 0] / depth)[:, cam_of],
                                   uva[:, 1] - (x[..., 1] / depth)[:, cam_of]),
                          np.inf)

        # feature rays: unit directions (N, 3) from each camera's inv(M)
        m_inv = np.stack([c._front_sign * c._m_inv for c in cams])
        d = np.einsum("nij,nj->ni", m_inv[cam_of],
                      np.column_stack([uva[:, :2], np.ones(n_f)]))
        norm = np.linalg.norm(d, axis=1)
        ray_ok = ~(norm < _T_EPS)
        d = d / norm[:, None]

        # per target: the inverse position covariance, when usable
        cov_ok = np.isfinite(cov).all(axis=(1, 2))
        cov_ok[cov_ok] = np.linalg.cond(cov[cov_ok]) <= _COND_LIMIT
        s_inv = np.zeros_like(cov)
        s_inv[cov_ok] = np.linalg.inv(cov[cov_ok])

        # every pair: w (T, N, 3) with its along-ray part removed
        w = pos[:, None, :] - np.stack([c.center for c in cams])[cam_of]
        w -= np.einsum("tni,ni->tn", w, d)[..., None] * d
        sd = np.einsum("tij,nj->tni", s_inv, d)
        dsd = np.einsum("tni,ni->tn", sd, d)
        dsw = np.einsum("tij,tnj,ni->tn", s_inv, w, d)
        resid = (dsw / dsd)[..., None] * d - w
        d2 = np.einsum("tni,tij,tnj->tn", resid, s_inv, resid)
        ray_dist = np.sqrt(np.maximum(d2, 0.0))
        ok = cov_ok[:, None] & ray_ok & ~(dsd <= 0) & np.isfinite(ray_dist)
    return PairTable(target_ids=target_ids, slices=slices, area=uva[:, 2],
                     visible=visible, dist2d=dist2d,
                     ray_dist=np.where(ok, ray_dist, np.inf))


def pair_likelihoods(table: PairTable, gate: GateConfig,
                     counters: LikelihoodCounters | None = None) -> np.ndarray:
    """The (T, N) matrix of :func:`feature_likelihood` over every pair of
    `table`. `counters` counts the gate stages that function would have
    evaluated pair by pair."""
    in_image = ~(table.dist2d >= gate.dist2d_threshold)
    scored = in_image & (table.area > gate.area_threshold)
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
    likelihood = pair_likelihoods(table, gate, counters)
    rows = np.arange(len(table.target_ids))
    per_camera = []
    for sl in table.slices.values():
        if sl.start == sl.stop:
            per_camera.append([None] * len(rows))
            continue
        block = likelihood[:, sl]
        best = block.argmax(axis=1)
        per_camera.append([int(j) if p > 0.0 else None
                           for j, p in zip(best, block[rows, best])])
    columns = {tid: tuple(col[i] for col in per_camera)
               for i, tid in enumerate(table.target_ids)}
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


def gate_claimed_features(table: PairTable, gate: GateConfig) -> set[tuple[str, int]]:
    """Features plausibly explained by an existing target: inside its
    image-distance gate AND with a back-projected ray passing the target's
    3D Mahalanobis gate.

    Such features are considered claimed by that prediction even when the
    target selected a different (more likely) feature, so they must not
    seed new tracks: a near-duplicate birth next to a live target would
    fight it for measurements and fragment the trajectory. The ray test
    keeps the claim local in 3D; a feature that merely projects near a
    distant track along its viewing ray stays available for births.
    """
    hit = (~(table.dist2d >= gate.dist2d_threshold)
           & (table.ray_dist <= gate.mahalanobis_gate)).any(axis=0)
    return {(cam_id, int(j)) for cam_id, sl in table.slices.items()
            for j in np.flatnonzero(hit[sl])}


def _cameras_viewing(point, cameras: Sequence[CameraModel]) -> int:
    """How many cameras have `point` in front of them and inside the image."""
    x, ok = project_points(cameras, point)
    with np.errstate(divide="ignore", invalid="ignore"):
        u, v = x[0, :, 0] / x[0, :, 2], x[0, :, 1] / x[0, :, 2]
    w, h = np.array([c.image_size for c in cameras], dtype=float).T
    return int(np.count_nonzero(ok[0] & (0 <= u) & (u <= w) & (0 <= v) & (v <= h)))


def _ray_ray_distance(r1: Ray3, r2: Ray3) -> float:
    """Minimum Euclidean distance between two lines."""
    w0 = r1.origin - r2.origin
    b = float(r1.direction @ r2.direction)
    d = float(r1.direction @ w0)
    e = float(r2.direction @ w0)
    denom = 1.0 - b * b
    if denom < 1e-12:  # parallel
        return float(np.linalg.norm(w0 - d * r1.direction))
    s = (b * e - d) / denom
    t = (e - b * d) / denom
    return float(np.linalg.norm(r1.point_at(s) - r2.point_at(t)))


def spawn_targets(features_by_camera: Mapping[str, np.ndarray],
                  claimed: set[tuple[str, int]],
                  cameras: Sequence[CameraModel],
                  gate: GateConfig,
                  frame_number: int,
                  next_id: int,
                  stats: SpawnStats | None = None
                  ) -> tuple[list[TargetState], set[tuple[str, int]]]:
    """Hypothesize new targets from features no existing track claimed.

    `features_by_camera` maps camera id to its (n, 6) feature rows; rows
    named in `claimed` as (camera id, row index) are left out, and so are
    rows whose pixel ray is degenerate. Two remaining rows of different
    cameras are compatible when their rays pass closer than
    ``birth_pair_distance``; each pair is tested once. For every
    combination of at least ``min_birth_cameras`` of the cameras that hold
    such rows, the tuples of one row per camera that are pairwise
    compatible are grown camera by camera and each is triangulated once.
    A hypothesis is acceptable when its mean reprojection error is below
    the birth threshold AND it is supported by nearly every camera able to
    see the hypothesized point (all but `birth_miss_tolerance` of them):
    with detection thresholds set low a real target is seen by almost all
    covering cameras, whereas clutter coincidences and mixed-target
    phantom points muster only two or three consistent rays.

    Births are taken in one scan of the acceptable hypotheses sorted by
    (most cameras, smaller error, lexicographic feature choice): a
    hypothesis is born when none of its features went to an earlier birth.
    That equals repeating the search over the features left after each
    birth, since whether a tuple is acceptable does not depend on the
    other features. Returns the new targets and the set of consumed
    (camera id, row index).

    `stats` counts one pass per call, every camera combination enumerated
    (only cameras with a usable row take part) and every tuple
    triangulated.
    """
    cams = sorted(cameras, key=lambda c: c.cam_id)
    ids, views, rays = [], [], []  # usable rows, camera by camera
    groups: dict[str, list[int]] = {}
    for cam in cams:
        for j, uv in enumerate(features_by_camera.get(cam.cam_id, _NO_ROWS)[:, :2]):
            if (cam.cam_id, j) in claimed:
                continue
            try:
                rays.append(pixel_ray(cam, uv))
            except DegenerateGeometry:
                continue
            groups.setdefault(cam.cam_id, []).append(len(ids))
            ids.append((cam.cam_id, j))
            views.append((cam, uv))
    # later ray first, since the distance is not bitwise symmetric; a NaN
    # distance counts as compatible
    compatible = [set() for _ in ids]
    for b in range(len(ids)):
        for a in range(b):
            if ids[a][0] != ids[b][0] and not (
                    _ray_ray_distance(rays[b], rays[a]) >= gate.birth_pair_distance):
                compatible[a].add(b)
                compatible[b].add(a)

    if stats is not None:
        stats.passes += 1
    accepted = {}  # (-n_cams, err, feature ids) -> triangulated point
    for size in range(max(2, gate.min_birth_cameras), len(groups) + 1):
        for first, *rest in itertools.combinations(groups.values(), size):
            if stats is not None:
                stats.camera_combinations += 1
            tuples = [((r,), compatible[r]) for r in first]
            for rows in rest:
                tuples = [(t + (r,), ok & compatible[r])
                          for t, ok in tuples for r in rows if r in ok]
            for t, _ in tuples:
                if stats is not None:
                    stats.hypotheses_triangulated += 1
                try:
                    point, err = triangulate([views[r] for r in t])
                except DegenerateGeometry:
                    continue
                if err >= gate.birth_reprojection_threshold:
                    continue
                if size < _cameras_viewing(point, cams) - gate.birth_miss_tolerance:
                    continue
                accepted[(-size, err, tuple(ids[r] for r in t))] = point

    cov = np.diag([gate.sigma_birth**2] * 3 + [gate.sigma_vbirth**2] * 3)
    born: list[TargetState] = []
    used: set[tuple[str, int]] = set()
    for key in sorted(accepted):
        if used.isdisjoint(key[2]):
            used.update(key[2])
            born.append(TargetState(target_id=next_id + len(born),
                                    mean=np.append(accepted[key], [0.0, 0.0, 0.0]),
                                    cov=cov.copy(), frames_since_observation=0,
                                    born_at=frame_number))
    return born, used


def cull_targets(targets: Sequence[TargetState], gate: GateConfig
                 ) -> tuple[list[TargetState], list[TargetState]]:
    """Split targets into (kept, removed): removed when the largest
    eigenvalue of the position covariance block exceeds the death
    threshold."""
    if not targets:
        return [], []
    worst = np.linalg.eigvalsh(np.array([t.cov[:3, :3] for t in targets]))[:, -1]
    dead = worst > gate.death_covariance_threshold
    return ([t for t, d in zip(targets, dead) if not d],
            [t for t, d in zip(targets, dead) if d])

"""Shared fixtures-by-hand for the test suite: simple synthetic cameras."""

import os
from pathlib import Path

import numpy as np

from camtrack3d.geometry import CameraModel


def checkout_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports this checkout's
    package first, with `extra` variables set."""
    import camtrack3d

    src = str(Path(camtrack3d.__file__).resolve().parents[1])
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def look_at_camera(position, target, cam_id="cam", focal=800.0,
                   image_size=(640, 480), up=(0.0, 0.0, 1.0)):
    """Build a pinhole camera at `position` looking at `target`."""
    pos = np.asarray(position, dtype=float)
    tgt = np.asarray(target, dtype=float)
    zc = tgt - pos
    zc = zc / np.linalg.norm(zc)
    up = np.asarray(up, dtype=float)
    xc = np.cross(zc, up)
    if np.linalg.norm(xc) < 1e-9:
        xc = np.cross(zc, np.array([1.0, 0.0, 0.0]))
    xc = xc / np.linalg.norm(xc)
    yc = np.cross(zc, xc)
    R = np.vstack([xc, yc, zc])
    w, h = image_size
    K = np.array([[focal, 0.0, w / 2.0],
                  [0.0, focal, h / 2.0],
                  [0.0, 0.0, 1.0]])
    P = K @ np.hstack([R, (-R @ pos)[:, None]])
    return CameraModel(projection=P, cam_id=cam_id, image_size=image_size)


def ring_of_cameras(n, radius=2.0, height=0.6, target=(0.0, 0.0, 0.3),
                    focal=800.0, image_size=(640, 480)):
    cams = []
    for i in range(n):
        a = 2.0 * np.pi * i / n
        pos = (radius * np.cos(a), radius * np.sin(a), height + 0.15 * (i % 3))
        cams.append(look_at_camera(pos, target, cam_id=f"c{i:02d}",
                                   focal=focal, image_size=image_size))
    return cams


def point_to_ray_distance(point, ray):
    w = np.asarray(point, dtype=float) - ray.origin
    return float(np.linalg.norm(w - (w @ ray.direction) * ray.direction))


def make_feature(u, v, area=20.0, peak=150.0, theta=0.0, ecc=2.0):
    from camtrack3d.features import Feature

    return Feature(u=float(u), v=float(v), u_raw=float(u), v_raw=float(v),
                   area=area, peak=peak, theta=theta, ecc=ecc)


def feature_rows(features_by_camera):
    """Per camera, a list of Features as the hub holds it: (n, 6) rows."""
    return {cam_id: np.array([z.as_row() for z in lst], dtype=float).reshape(-1, 6)
            for cam_id, lst in features_by_camera.items()}


def frame_table(rows_by_camera, cameras):
    """The hub's feature table of a mapping of camera id to (n, 6) rows,
    over the rig of `cameras` (rows of other cameras are left out), and
    that rig."""
    from camtrack3d.association import _NO_ROWS, FrameFeatures
    from camtrack3d.geometry import Rig

    rig = Rig(cameras)
    blocks = [np.asarray(rows_by_camera.get(cam_id, _NO_ROWS), dtype=float).reshape(-1, 6)
              for cam_id in rig.ids]
    rows = np.concatenate([_NO_ROWS, *blocks])
    return FrameFeatures.stack(rows, [len(b) for b in blocks], rig), rig


def pair_table_of(rows_by_camera, targets, cameras):
    """association.pair_table of per-camera rows and a list of states."""
    from camtrack3d.association import pair_table
    from camtrack3d.tracker import Targets

    frame, rig = frame_table(rows_by_camera, cameras)
    stack = Targets.of(targets)
    return pair_table(frame, stack, rig, rig.project(stack.means[:, :3]))


def table_of(features_by_camera, targets, cameras):
    """association.pair_table of per-camera Feature lists."""
    return pair_table_of(feature_rows(features_by_camera), targets, cameras)


def spawn_from_rows(rows_by_camera, claimed, cameras, gate, frame_number, next_id,
                    stats=None):
    """association.spawn_targets of per-camera rows, with the claimed rows
    named as a set of (camera id, row index)."""
    from camtrack3d.association import spawn_targets

    frame, rig = frame_table(rows_by_camera, cameras)
    return spawn_targets(frame, claimed_mask(frame, claimed), rig, gate, frame_number,
                         next_id, stats)


def claimed_mask(frame, claimed):
    """The row mask of `frame` that a set of (camera id, row index) names;
    names of rows the table does not hold are left out."""
    mask = np.zeros(len(frame.rows), dtype=bool)
    for cam_id, j in claimed:
        rows = frame.slices.get(cam_id)
        if rows is not None and j < rows.stop - rows.start:
            mask[rows.start + j] = True
    return mask


def unclaimed_rows(unclaimed_by_camera):
    """The feature rows spawn_targets reads, from per-camera lists of
    (index, Feature) pairs numbered 0, 1, ... (nothing claimed)."""
    for pairs in unclaimed_by_camera.values():
        assert [i for i, _ in pairs] == list(range(len(pairs)))
    return feature_rows({cam_id: [z for _, z in pairs]
                         for cam_id, pairs in unclaimed_by_camera.items()})


def bruteforce_assignment(features_by_camera, targets, cameras, gate,
                          miss=2e-22):
    """Exhaustive maximum-likelihood assignment oracle.

    Scores every assignment matrix as the product over targets and cameras
    of the per-feature likelihood, with a fixed miss factor for null
    entries chosen below any in-gate likelihood (exp(-gate) is the floor of
    accepted values). Ties keep the first maximal matrix in enumeration
    order (null first, then feature indices ascending), matching the
    documented lowest-index tie-break.
    """
    import itertools

    from camtrack3d.association import feature_likelihood

    cams = sorted(cameras, key=lambda c: c.cam_id)
    per_target_columns = []
    for t in targets:
        options_per_cam = []
        for cam in cams:
            feats = features_by_camera.get(cam.cam_id, ())
            opts = [(None, miss)]
            opts += [(j, feature_likelihood(z, t, cam, gate))
                     for j, z in enumerate(feats)]
            options_per_cam.append(opts)
        cols = []
        for combo in itertools.product(*options_per_cam):
            idxs = tuple(j for j, _ in combo)
            score = 1.0
            for _, p in combo:
                score *= p
            cols.append((idxs, score))
        per_target_columns.append(cols)
    best_score, best = -1.0, None
    for assignment in itertools.product(*per_target_columns):
        score = 1.0
        for _, s in assignment:
            score *= s
        if score > best_score:
            best_score = score
            best = {t.target_id: col for t, (col, _) in zip(targets, assignment)}
    return best


def gate_claimed_features_oracle(features_by_camera, targets, cameras, gate):
    """Pair-by-pair reference for association.gate_claimed_features: a
    feature is claimed when some target projects within the image gate of
    it and the feature's ray passes that target's Mahalanobis gate."""
    import math

    from camtrack3d.association import SingularCovariance, mahalanobis_closest_point
    from camtrack3d.geometry import (
        BehindCamera,
        DegenerateGeometry,
        PointAtInfinity,
        pixel_ray,
        project,
    )

    claimed = set()
    for cam in cameras:
        for target in targets:
            try:
                pu, pv = project(cam, target.position)
            except (BehindCamera, PointAtInfinity):
                continue
            for j, z in enumerate(features_by_camera.get(cam.cam_id, ())):
                if math.hypot(z.u - pu, z.v - pv) >= gate.dist2d_threshold:
                    continue
                try:
                    ray = pixel_ray(cam, (z.u, z.v))
                    _, d = mahalanobis_closest_point(ray, target.position,
                                                     target.cov[:3, :3])
                except (DegenerateGeometry, SingularCovariance):
                    continue
                if d <= gate.mahalanobis_gate:
                    claimed.add((cam.cam_id, j))
    return claimed


def extract_features_oracle(frame, model, max_features=10, camera=None,
                            moment_fraction=0.3):
    """Whole-image reference for features.extract_features: the difference
    image, the detection mask and the 8-connected labelling are computed
    over the full frame, and features are sorted by (-area, u_raw, v_raw)
    over regions in label order."""
    from scipy import ndimage

    from camtrack3d.features import DimensionMismatch, Feature
    from camtrack3d.geometry import correct_distortion

    if frame.pixels.shape != model.mean.shape:
        raise DimensionMismatch(
            f"frame {frame.pixels.shape} vs model {model.mean.shape}")
    diff = np.abs(frame.pixels.astype(float) - model.mean)
    if model.use_variance_gate:
        mask = diff > model.sigma_gate * np.sqrt(model.variance)
    else:
        mask = diff > model.difference_threshold
    if not mask.any():
        return []
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    out = []
    for i, region in enumerate(ndimage.find_objects(labels, count)):
        comp = labels[region] == i + 1
        d = diff[region]
        peak = d[comp].max()
        keep = comp & (d >= moment_fraction * peak)
        u_loc, v_loc, area, peak, theta, ecc = _region_moments_oracle(d, keep)
        u_raw = u_loc + region[1].start
        v_raw = v_loc + region[0].start
        if camera is not None:
            u, v = correct_distortion(camera, (u_raw, v_raw))
        else:
            u, v = u_raw, v_raw
        out.append(Feature(u=u, v=v, u_raw=u_raw, v_raw=v_raw, area=area,
                           peak=peak, theta=theta, ecc=ecc))
    out.sort(key=lambda f: (-f.area, f.u_raw, f.v_raw))
    return out[:max_features]


def _region_moments_oracle(diff, keep):
    """A frozen copy of the original features._region_moments, so that the
    library's version is checked against its bits: centroid, area and
    orientation statistics over the kept pixels, weighted by difference
    value normalized to the regional peak."""
    import math

    from camtrack3d.features import ECC_DEGENERATE

    ys, xs = np.nonzero(keep)
    peak = float(diff[ys, xs].max())
    w = diff[ys, xs] / peak
    wsum = float(w.sum())
    u_raw = float((w * xs).sum() / wsum)
    v_raw = float((w * ys).sum() / wsum)
    dx = xs - u_raw
    dy = ys - v_raw
    mu20 = float((w * dx * dx).sum() / wsum) + 1.0 / 12.0
    mu02 = float((w * dy * dy).sum() / wsum) + 1.0 / 12.0
    mu11 = float((w * dx * dy).sum() / wsum)
    theta = 0.5 * math.atan2(2.0 * mu11, mu20 - mu02)
    theta %= math.pi
    half_tr = 0.5 * (mu20 + mu02)
    disc = math.sqrt((0.5 * (mu20 - mu02)) ** 2 + mu11 * mu11)
    lam_max = half_tr + disc
    lam_min = half_tr - disc
    ecc = ECC_DEGENERATE if lam_min <= 1e-12 else math.sqrt(lam_max / lam_min)
    return u_raw, v_raw, wsum, peak, theta, ecc


def _first_value_oracle(mean, bound, strict):
    """Whole-image smallest uint8 value p with fl(p - mean) > bound
    (strict) or with not fl(p - mean) < bound, or 256 where there is none:
    the estimate from mean + bound where it is exact, bisection elsewhere."""
    above, below = (np.greater, np.less_equal) if strict else (np.greater_equal, np.less)
    est = np.add(mean, bound)
    est = np.floor(est) + 1.0 if strict else np.ceil(est)
    good = above(est - mean, bound) & below(est - 1.0 - mean, bound)
    est = np.clip(est, 0.0, 256.0)
    bad = np.flatnonzero(~good)
    if bad.size:
        m = mean.reshape(-1)[bad]
        c = bound if np.ndim(bound) == 0 else np.reshape(bound, -1)[bad]
        lo, hi = np.zeros(bad.size), np.full(bad.size, 256.0)
        for _ in range(9):
            mid = np.floor(0.5 * (lo + hi))
            x = mid - m
            ok = (above(x, c) if strict else ~below(x, c)) | (lo >= hi)
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, mid + 1.0)
        est.reshape(-1)[bad] = hi
    return est


def mask_bounds_oracle(model):
    """The (gt, lt) uint8 detection bounds of a BackgroundModel, derived
    over the whole image at once."""
    if model.use_variance_gate:
        thr = model.sigma_gate * np.sqrt(model.variance)
    else:
        thr = model.difference_threshold
    hi = _first_value_oracle(model.mean, thr, strict=True)
    lo = _first_value_oracle(model.mean, -thr, strict=False)
    always = lo >= hi
    hi -= 1.0
    hi[always] = 0.0
    lo[always] = 255.0
    return hi.astype(np.uint8), lo.astype(np.uint8)


def update_background_oracle(model, frame):
    """Whole-image reference for features.update_background: the refreshed
    mean, variance and mask bounds, or None off the update interval."""
    from dataclasses import replace

    if frame.index % model.update_interval != 0:
        return None
    lam = model.learning_rate
    px = frame.pixels.astype(float)
    mean = (1.0 - lam) * model.mean + lam * px
    var = (1.0 - lam) * model.variance + lam * (px - model.mean) ** 2
    return mean, var, mask_bounds_oracle(replace(model, mean=mean, variance=var))


# ------------------------------------------------------------- EKF, one target

class SingularInnovation(Exception):
    """A one-target update dropped: its innovation covariance is singular
    (tracker.update reports these targets' ids instead of raising)."""


def predict_one(state, pm):
    """tracker.predict of a single target."""
    from camtrack3d.tracker import predict

    return predict([state], pm)[0]


def update_one(prior, observations, om):
    """tracker.update of a single target; raises SingularInnovation when
    its update is dropped, as the one-target filter step did."""
    from camtrack3d.tracker import update

    posteriors, dropped = update([prior], [observations], om)
    if dropped:
        raise SingularInnovation("innovation covariance is singular")
    return posteriors[0]


def _symmetrize(P):
    return 0.5 * (P + P.T)


def predict_oracle(state, pm):
    """The one-target time update that tracker.predict batches."""
    from dataclasses import replace

    mean = pm.A @ state.mean
    cov = _symmetrize(pm.A @ state.cov @ pm.A.T + pm.Q)
    return replace(state, mean=mean, cov=cov)


def _clamp_psd_oracle(P, floor=0.0):
    P = _symmetrize(P)
    w, V = np.linalg.eigh(P)
    if w[0] >= floor:
        return P
    w = np.maximum(w, floor)
    return _symmetrize((V * w) @ V.T)


def update_oracle(prior, observations, om):
    """The one-target measurement update that tracker.update batches:
    projection and Jacobian per observing camera, SVD condition number,
    scipy's Cholesky factor and solve, a full eigendecomposition to clamp
    the posterior covariance. Raises SingularInnovation."""
    from dataclasses import replace

    from scipy import linalg as sla

    from camtrack3d.geometry import project_points

    observations = sorted(observations, key=lambda o: o[0].cam_id)
    cams = [cam for cam, _ in observations]
    x, ok = project_points(cams, prior.mean[:3])
    x, t, ok = x[0], x[0, :, 2:], ok[0]
    if not ok.any():
        return replace(prior,
                       frames_since_observation=prior.frames_since_observation + 1)
    P = np.array([c.projection for c in cams]).reshape(-1, 3, 4)
    rows = np.zeros((len(cams), 2, 6))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rows[:, :, :3] = ((P[:, :2, :3] * t[:, :, None] - x[:, :2, None] * P[:, 2:, :3])
                          / (t * t)[:, :, None])
        pred = x[:, :2] / t
    y = np.array([px for (_, px), good in zip(observations, ok) if good],
                 dtype=float).reshape(-1)
    h = pred[ok].reshape(-1)
    C = rows[ok].reshape(-1, 6)
    R = np.eye(len(y)) * om.r_px
    S = C @ prior.cov @ C.T + R
    if not np.all(np.isfinite(S)) or np.linalg.cond(S) > 1e12:
        raise SingularInnovation("innovation covariance condition too high")
    try:
        cho = sla.cho_factor(_symmetrize(S))
    except np.linalg.LinAlgError as e:
        raise SingularInnovation(str(e)) from e
    K = sla.cho_solve(cho, C @ prior.cov).T
    mean = prior.mean + K @ (y - h)
    IKC = np.eye(6) - K @ C
    cov = IKC @ prior.cov @ IKC.T + K @ R @ K.T
    cov = _clamp_psd_oracle(cov)
    return replace(prior, mean=mean, cov=cov, frames_since_observation=0)


def gain_form_update(priors, observations, om, projected=None):
    """The measurement update in gain form, as tracker.update made it
    before the information form, with the same signature: for a Targets
    stack, `observations` is the (T, C) mask of the cameras that observed
    each target and their (T, C, 2) pixels. Targets are grouped by their
    number of cameras, and each group's innovation covariances S = C P C^T
    + r_px I (n x n, n = 2 per camera) are stacked: an update is dropped
    when S is not finite, its SVD condition number exceeds 1e12 or LAPACK's
    Cholesky factor fails; the gain solves S, and the posterior covariance
    is the Joseph form, clamped. Bit-identical to update_oracle per target,
    and a drop-in for hub.update."""
    from scipy.linalg import lapack

    from camtrack3d.tracker import Targets, _linearize, clamp_psd, symmetrize, well_conditioned

    if not isinstance(priors, Targets):
        seen = np.zeros((len(priors), len(om.cameras)), dtype=bool)
        px = np.zeros(seen.shape + (2,))
        for i, obs in enumerate(observations):
            for cam, uv in obs:
                seen[i, om.rig.column[cam.cam_id]] = True
                px[i, om.rig.column[cam.cam_id]] = uv
        posteriors, dropped = gain_form_update(Targets.of(priors), (seen, px), om)
        return posteriors.states(), dropped
    seen, px = observations
    x, ok = om.rig.project(priors.means[:, :3]) if projected is None else projected
    use = seen & ok
    counts = np.count_nonzero(use, axis=1)
    means, covs, missed = priors.means.copy(), priors.covs.copy(), priors.missed + 1
    dropped = []
    for m in sorted(set(counts.tolist()) - {0}):
        rows = np.flatnonzero(counts == m)
        cols = np.nonzero(use[rows])[1].reshape(len(rows), m)
        pred, C = _linearize(x[rows[:, None], cols], om.rig.P[cols])
        C, h = C.reshape(len(rows), 2 * m, 6), pred.reshape(len(rows), 2 * m)
        P = priors.covs[rows]
        R = np.eye(2 * m) * om.r_px
        CP = C @ P
        S = CP @ C.transpose(0, 2, 1) + R
        good = np.isfinite(S).all(axis=(1, 2))
        if good.any():
            good[good] = well_conditioned(S[good])
        S = symmetrize(S)
        K = np.empty((len(rows), 6, 2 * m))
        for g in np.flatnonzero(good):
            c, info = lapack.dpotrf(S[g], lower=0, clean=0)
            if info:
                good[g] = False
            else:
                K[g] = lapack.dpotrs(c, CP[g], lower=0)[0].T  # P C^T S^-1
        K, C, P, h, kept = K[good], C[good], P[good], h[good], rows[good]
        IKC = np.eye(6) - K @ C
        covs[kept] = clamp_psd(IKC @ P @ IKC.transpose(0, 2, 1) + K @ R @ K.transpose(0, 2, 1))
        innovation = px[kept[:, None], cols[good]].reshape(h.shape) - h
        means[kept] = priors.means[kept] + (K @ innovation[:, :, None])[:, :, 0]
        missed[kept] = 0
        dropped += rows[~good].tolist()
    return (Targets(priors.ids, means, covs, missed, priors.born_at),
            priors.ids[sorted(dropped)].tolist())


def cull_targets_oracle(targets, gate):
    """The one-target-at-a-time death test that cull_targets batches."""
    kept, removed = [], []
    for t in targets:
        if np.linalg.eigvalsh(t.cov[:3, :3])[-1] > gate.death_covariance_threshold:
            removed.append(t)
        else:
            kept.append(t)
    return kept, removed


def trajectory_rows_oracle(frame_number, targets):
    """The text TrajectoryWriter.write_frame wrote with one float() and
    repr() per element."""
    out = []
    for t in sorted(targets, key=lambda t: t.target_id):
        vals = [str(frame_number), str(t.target_id)]
        vals += [repr(float(x)) for x in t.mean]
        vals += [repr(float(x)) for x in t.cov.ravel()]
        out.append(",".join(vals) + "\n")
    return "".join(out)


def spawn_targets_oracle(features_by_camera, claimed, cameras, gate,
                         frame_number, next_id, stats=None):
    """The birth search that association.spawn_targets replaced: it walks
    every camera combination of size min_birth_cameras..n, grows
    one-row-per-camera tuples depth-first with the pairwise ray prune,
    takes the best acceptable hypothesis (most cameras, then smaller
    error, then lexicographic feature choice), removes its features and
    repeats the whole search until nothing acceptable remains."""
    import itertools

    from camtrack3d.association import _NO_ROWS
    from camtrack3d.geometry import DegenerateGeometry, pixel_ray, triangulate
    from camtrack3d.tracker import TargetState

    cams = sorted(cameras, key=lambda c: c.cam_id)
    uv = {c.cam_id: features_by_camera.get(c.cam_id, _NO_ROWS)[:, :2] for c in cams}
    pool = {cam_id: [j for j in range(len(rows)) if (cam_id, j) not in claimed]
            for cam_id, rows in uv.items()}
    rays = {}

    def ray_of(cam, idx):
        key = (cam.cam_id, idx)
        if key not in rays:
            try:
                rays[key] = pixel_ray(cam, uv[cam.cam_id][idx])
            except DegenerateGeometry:
                return None
        return rays[key]

    born, used = [], set()
    min_size = max(2, gate.min_birth_cameras)
    while True:
        if stats is not None:
            stats.passes += 1
        best = None  # (key, point, choice)
        for size in range(len(cams), min_size - 1, -1):
            for combo in itertools.combinations(cams, size):
                if stats is not None:
                    stats.camera_combinations += 1
                for choice in _consistent_tuples_oracle(combo, pool, ray_of, gate):
                    views = [(cam, uv[cam.cam_id][idx]) for cam, idx in choice]
                    if stats is not None:
                        stats.hypotheses_triangulated += 1
                    try:
                        point, err = triangulate(views)
                    except DegenerateGeometry:
                        continue
                    if err >= gate.birth_reprojection_threshold:
                        continue
                    viewing = _cameras_viewing(point, cams)
                    if size < viewing - gate.birth_miss_tolerance:
                        continue
                    key = (-size, err, tuple((cam.cam_id, idx) for cam, idx in choice))
                    if best is None or key < best[0]:
                        best = (key, point, choice)
        if best is None:
            break
        _, point, choice = best
        cov = np.diag([gate.sigma_birth**2] * 3 + [gate.sigma_vbirth**2] * 3)
        born.append(TargetState(target_id=next_id,
                                mean=np.append(point, [0.0, 0.0, 0.0]),
                                cov=cov, frames_since_observation=0,
                                born_at=frame_number))
        next_id += 1
        for cam, idx in choice:
            used.add((cam.cam_id, idx))
            pool[cam.cam_id].remove(idx)
    return born, used


def _cameras_viewing(point, cameras):
    """How many cameras have `point` in front of them and inside the image
    (the border included), one projection per point."""
    from camtrack3d.geometry import project_points

    x, ok = project_points(cameras, point)
    with np.errstate(divide="ignore", invalid="ignore"):
        u, v = x[0, :, 0] / x[0, :, 2], x[0, :, 1] / x[0, :, 2]
    w, h = np.array([c.image_size for c in cameras], dtype=float).T
    return int(np.count_nonzero(ok[0] & (0 <= u) & (u <= w) & (0 <= v) & (v <= h)))


def _consistent_tuples_oracle(combo, pool, ray_of, gate):
    """Depth-first enumeration of one-feature-per-camera choices over a
    camera combination, pruning pairs whose back-projected rays pass
    farther apart than the birth consistency distance."""
    combo = list(combo)

    def grow(level, chosen):
        if level == len(combo):
            yield list(chosen)
            return
        cam = combo[level]
        for idx in pool[cam.cam_id]:
            ray = ray_of(cam, idx)
            if ray is None:
                continue
            ok = True
            for pcam, pidx in chosen:
                pray = ray_of(pcam, pidx)
                if pray is None or ray_ray_distance(ray, pray) >= gate.birth_pair_distance:
                    ok = False
                    break
            if ok:
                chosen.append((cam, idx))
                yield from grow(level + 1, chosen)
                chosen.pop()

    yield from grow(0, [])


def ray_ray_distance(r1, r2) -> float:
    """Minimum Euclidean distance between two lines, given as Ray3: the
    scalar reference for geometry.line_distances."""
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


def triangulate_oracle(views):
    """The one-set triangulation that geometry.triangulate_sets replaced:
    rows built in a loop, one SVD, reprojection view by view. Raises
    DegenerateGeometry where it finds no point."""
    import math

    from camtrack3d.geometry import _T_EPS, DegenerateGeometry

    rows = []
    for cam, (u, v) in views:
        P = cam.projection
        rows.append(float(u) * P[2] - P[0])
        rows.append(float(v) * P[2] - P[1])
    A = np.asarray(rows)
    norms = np.linalg.norm(A, axis=1)
    if np.any(norms < _T_EPS):
        raise DegenerateGeometry("degenerate constraint row")
    A = A / norms[:, None]
    _, s, vt = np.linalg.svd(A)
    if s[2] < 1e-12 * s[0]:
        raise DegenerateGeometry("design matrix rank deficient")
    X = vt[-1]
    if abs(X[3]) < 1e-12 * np.linalg.norm(X):
        raise DegenerateGeometry("triangulated point at infinity")
    point = X[:3] / X[3]
    err = 0.0
    for cam, (u, v) in views:
        x = cam.projection @ np.append(point, 1.0)
        if abs(x[2]) < _T_EPS:
            raise DegenerateGeometry("reprojection at infinity")
        err += math.hypot(x[0] / x[2] - u, x[1] / x[2] - v)
    return point, err / len(views)


def _axis_angle_oracle(cam, pos, vel):
    """Image-plane angle of the projected velocity, in [0, pi)."""
    import math

    from camtrack3d.geometry import BehindCamera, PointAtInfinity, project

    speed = float(np.linalg.norm(vel))
    if speed < 1e-9:
        return 0.0
    try:
        a = project(cam, pos)
        b = project(cam, np.asarray(pos) + 1e-3 * np.asarray(vel) / speed)
    except (BehindCamera, PointAtInfinity):
        return 0.0
    return math.atan2(b[1] - a[1], b[0] - a[0]) % math.pi


def synthesize_observations_oracle(truths, cameras, spec, n_frames=None,
                                   occlusions=(), rng=None):
    """The forward observation model that simharness.synthesize_observations
    batched: it projects each (frame, camera, target) point, and the point
    1 mm along the target's velocity, one at a time with
    geometry.project."""
    import math

    from camtrack3d.geometry import BehindCamera, PointAtInfinity, project
    from camtrack3d.netproto import FramePacket

    rng = np.random.default_rng(spec.seed + 1) if rng is None else rng
    cams = sorted(cameras, key=lambda c: c.cam_id)
    if n_frames is None:
        n_frames = max((t.death for t in truths), default=0)
    blanked = {c.cam_id: set() for c in cams}
    for start, stop, cam_ids in occlusions:
        for cid in cam_ids:
            blanked[cid].update(range(start, stop))
    frames = []
    for t in range(n_frames):
        ts_us = round(t * 1e6 / spec.fps)
        per_cam = []
        for cam in cams:
            rows = []
            if t not in blanked[cam.cam_id]:
                for tr in truths:
                    if not tr.alive_at(t):
                        continue
                    detected = rng.random() < spec.detection_prob
                    pos = tr.position(t)
                    try:
                        u, v = project(cam, pos)
                    except (BehindCamera, PointAtInfinity):
                        continue
                    noise = rng.normal(0.0, spec.pixel_noise, size=2) \
                        if spec.pixel_noise > 0 else np.zeros(2)
                    if not detected:
                        continue
                    u, v = u + noise[0], v + noise[1]
                    w, h = cam.image_size
                    if not (0 <= u < w and 0 <= v < h):
                        continue
                    theta = _axis_angle_oracle(cam, pos, tr.velocity(t))
                    area = 20.0 + rng.uniform(-4.0, 4.0)
                    peak = 150.0 + rng.uniform(-30.0, 30.0)
                    ecc = 2.5 + rng.uniform(-0.5, 0.5)
                    rows.append([u, v, area, peak, theta, ecc])
                n_clutter = rng.poisson(spec.clutter_rate) if spec.clutter_rate > 0 else 0
                w, h = cam.image_size
                for _ in range(n_clutter):
                    rows.append([rng.uniform(0, w), rng.uniform(0, h),
                                 rng.uniform(2.0, 30.0), rng.uniform(40.0, 200.0),
                                 rng.uniform(0, math.pi), rng.uniform(1.0, 4.0)])
            per_cam.append(FramePacket(cam_id=cam.cam_id, frame=t,
                                       timestamp_us=ts_us,
                                       features=np.array(rows, dtype=float).reshape(-1, 6)))
        frames.append(per_cam)
    return frames


def render_frame_oracle(features, image_size, background=20.0, amplitude=200.0,
                        sigma=1.5, elongated=False):
    """simharness.render_frame as it was before it rounded only the blob
    boxes: every blob added into a whole float image through `Feature`
    objects and meshgrids, then the whole image rounded and clipped."""
    import math

    from camtrack3d.features import Feature

    w, h = image_size
    img = np.full((h, w), background, dtype=float)
    feats = features
    if isinstance(features, np.ndarray):
        feats = [Feature(u=r[0], v=r[1], u_raw=r[0], v_raw=r[1], area=r[2],
                         peak=r[3], theta=r[4], ecc=r[5]) for r in features]
    for f in feats:
        ecc = max(1.0, min(f.ecc, 6.0)) if elongated else 1.0
        s_major = sigma * ecc
        reach = int(math.ceil(4.0 * s_major))
        x0 = max(0, int(f.u_raw) - reach)
        x1 = min(w, int(f.u_raw) + reach + 1)
        y0 = max(0, int(f.v_raw) - reach)
        y1 = min(h, int(f.v_raw) + reach + 1)
        if x0 >= x1 or y0 >= y1:
            continue
        xs = np.arange(x0, x1) - f.u_raw
        ys = np.arange(y0, y1) - f.v_raw
        gx, gy = np.meshgrid(xs, ys)
        if elongated and ecc > 1.0:
            c, s = math.cos(f.theta), math.sin(f.theta)
            major = gx * c + gy * s
            minor = -gx * s + gy * c
            e = (major / s_major) ** 2 + (minor / sigma) ** 2
        else:
            e = (gx * gx + gy * gy) / (sigma * sigma)
        img[y0:y1, x0:x1] += amplitude * np.exp(-0.5 * e)
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def simulate_truth_oracle(spec, n_targets, n_frames, maneuver_sigma=0.0, speed=0.15,
                          crossing=False, margin=0.08, rng=None):
    """simharness.simulate_truth as it was before it stepped Python floats:
    each target's position and velocity stepped as numpy 3-vectors, with
    one 3-vector of velocity noise drawn per frame."""
    import math

    from camtrack3d.simharness import TruthTrajectory

    def reflect(pos, vel, lo, hi):
        for k in range(3):
            if pos[k] < lo[k]:
                pos[k] = 2 * lo[k] - pos[k]
                vel[k] = -vel[k]
            elif pos[k] > hi[k]:
                pos[k] = 2 * hi[k] - pos[k]
                vel[k] = -vel[k]
        return pos, vel

    rng = np.random.default_rng(spec.seed) if rng is None else rng
    lo, hi = spec.bounds
    lo = lo + margin
    hi = hi - margin
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
        positions = np.empty((n_frames, 3))
        velocities = np.empty((n_frames, 3))
        pos = pos.astype(float).copy()
        vel = vel.astype(float).copy()
        for t in range(n_frames):
            positions[t] = pos
            velocities[t] = vel
            if maneuver_sigma > 0:
                vel = vel + rng.normal(0.0, maneuver_sigma, size=3)
            pos = pos + vel * dt
            pos, vel = reflect(pos, vel, lo, hi)
        out.append(TruthTrajectory(target_id=k, birth=0, positions=positions,
                                   velocities=velocities))
    return out

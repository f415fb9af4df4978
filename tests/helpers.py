"""Shared fixtures-by-hand for the test suite: simple synthetic cameras."""

import numpy as np

from camtrack3d.geometry import CameraModel


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

    from camtrack3d.features import (
        DimensionMismatch,
        Feature,
        _region_moments,
    )
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
        u_loc, v_loc, area, peak, theta, ecc = _region_moments(d, keep)
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

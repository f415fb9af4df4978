"""Multi-view camera geometry: projection, lens distortion, triangulation,
DLT calibration and 3D line fitting.

Conventions used throughout the package:
  * world coordinates are meters, image coordinates are pixels
  * 2D homogeneous points are length-3 arrays (r, s, t) with (u, v) = (r/t, s/t)
  * 3D homogeneous points are length-4 arrays; the 4th component must be
    nonzero for finite points
  * a camera is a rank-3 3x4 projection matrix mapping world homogeneous
    points to image homogeneous points, plus a two-coefficient radial
    distortion model
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


class GeometryError(Exception):
    """Base class for geometric failures."""


class PointAtInfinity(GeometryError):
    """Dehomogenization attempted with a (near-)zero scale component."""


class BehindCamera(GeometryError):
    """A point lies behind the camera's principal plane."""


class DegenerateGeometry(GeometryError):
    """The input configuration does not determine a unique solution."""


class InsufficientPoints(GeometryError):
    """Too few correspondences for the requested estimation."""


class DegenerateConfiguration(GeometryError):
    """Correspondences are coplanar/collinear and do not constrain the model."""


class NoConvergence(GeometryError):
    """Iterative distortion inversion did not converge."""


_T_EPS = 1e-15


def dehomogenize(p) -> tuple[float, float]:
    """Convert a homogeneous image point (r, s, t) to pixel coordinates (r/t, s/t).

    Raises PointAtInfinity when |t| < 1e-15.
    """
    p = np.asarray(p, dtype=float).ravel()
    if p.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {p.shape}")
    r, s, t = p
    if abs(t) < _T_EPS:
        raise PointAtInfinity(f"t = {t!r}")
    return (r / t, s / t)


@dataclass(frozen=True)
class Ray3:
    """A 3D ray: origin plus unit direction."""

    origin: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=float).reshape(3)
        d = np.asarray(self.direction, dtype=float).reshape(3)
        n = np.linalg.norm(d)
        if n < _T_EPS:
            raise DegenerateGeometry("ray direction is numerically zero")
        object.__setattr__(self, "origin", o)
        object.__setattr__(self, "direction", d / n)

    def point_at(self, s: float) -> np.ndarray:
        return self.origin + s * self.direction


@dataclass(frozen=True)
class Plane3:
    """Plane pi . (X, 1) = 0, stored with unit normal part."""

    coefficients: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float).reshape(4)
        n = np.linalg.norm(c[:3])
        if n < _T_EPS:
            raise DegenerateGeometry("plane normal is numerically zero")
        object.__setattr__(self, "coefficients", c / n)

    @property
    def normal(self) -> np.ndarray:
        return self.coefficients[:3]


@dataclass(frozen=True)
class CameraModel:
    """A calibrated camera: 3x4 projection, radial distortion and center.

    Distortion maps an ideal (pinhole) pixel p to the observed pixel
        q = c + (1 + k1*rho^2 + k2*rho^4) * (p - c)
    where c is the distortion center and rho = |p - c| / radius_scale with
    radius_scale equal to half the image diagonal, so that k1, k2 stay O(1)
    for realistic lenses.
    """

    projection: np.ndarray
    cam_id: str
    image_size: tuple[int, int]
    k1: float = 0.0
    k2: float = 0.0
    dist_center: tuple[float, float] | None = None
    center: np.ndarray = field(default=None, repr=False)  # derived if None

    def __post_init__(self):
        P = np.array(self.projection, dtype=float)
        if P.shape != (3, 4):
            raise ValueError(f"projection must be 3x4, got {P.shape}")
        w, h = self.image_size
        if w <= 0 or h <= 0:
            raise ValueError("image_size must be positive")
        u, s, vt = np.linalg.svd(P)
        if s[2] < 1e-12 * s[0]:
            raise DegenerateGeometry("projection matrix is rank deficient")
        center = self.center
        if center is None:
            c_h = vt[-1]
            if abs(c_h[3]) < _T_EPS:
                raise DegenerateGeometry("camera center at infinity")
            center = c_h[:3] / c_h[3]
        else:
            center = np.asarray(center, dtype=float).reshape(3)
            resid = np.linalg.norm(P @ np.append(center, 1.0))
            if resid > 1e-9 * max(1.0, np.linalg.norm(P)):
                raise ValueError("center does not satisfy projection @ (C,1) == 0")
        dc = self.dist_center
        if dc is None:
            dc = (w / 2.0, h / 2.0)
        object.__setattr__(self, "projection", P)
        object.__setattr__(self, "center", np.asarray(center, dtype=float))
        object.__setattr__(self, "dist_center", (float(dc[0]), float(dc[1])))
        # Sign of det(M) tells which side of the principal plane is "in front".
        object.__setattr__(self, "_front_sign", float(np.sign(np.linalg.det(P[:, :3]))))
        # inv(M) back-projects pixels (pixel_ray and the association kernel)
        object.__setattr__(self, "_m_inv", np.linalg.inv(P[:, :3]))

    @property
    def radius_scale(self) -> float:
        w, h = self.image_size
        return 0.5 * math.hypot(w, h)


def project(cam: CameraModel, X) -> tuple[float, float]:
    """Project a finite 3D point through the ideal pinhole model.

    X may be a 3-vector (finite point) or a 4-vector homogeneous point.
    Distortion is NOT applied; the result lives in distortion-corrected
    pixel coordinates. Raises BehindCamera when the point is behind the
    principal plane and PointAtInfinity when it projects to infinity.
    """
    X = np.asarray(X, dtype=float).ravel()
    if X.shape == (3,):
        X = np.append(X, 1.0)
    elif X.shape != (4,):
        raise ValueError(f"expected a 3- or 4-vector, got shape {X.shape}")
    x = cam.projection @ X
    if abs(x[2]) < _T_EPS:
        raise PointAtInfinity("point on the principal plane")
    if cam._front_sign * x[2] * np.sign(X[3]) < 0:
        raise BehindCamera(cam.cam_id)
    return dehomogenize(x)


def project_points(cameras: Sequence[CameraModel], points
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Project T finite 3D points through C cameras at once.

    Returns the homogeneous image points, shape (T, C, 3), and the (T, C)
    mask of the pairs :func:`project` accepts: not on the camera's
    principal plane and not behind it. The einsum gives the bits of
    ``cam.projection @ (X, 1)``; a stacked ``matmul`` does not.
    """
    return _project(np.array([c.projection for c in cameras]).reshape(-1, 3, 4),
                    np.array([c._front_sign for c in cameras]), points)


def _project(P, front, points) -> tuple[np.ndarray, np.ndarray]:
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.einsum("cij,tj->tci", P, np.column_stack([points, np.ones(len(points))]))
        depth = x[..., 2]
        return x, ~(np.abs(depth) < _T_EPS) & ~(front * depth < 0)


class Rig:
    """A camera set sorted by id, with the constants the batched kernels
    read stacked once: projection matrices ``P`` (C, 3, 4), front signs
    (C,), the signed ``inv(M)`` that back-projects a pixel to a ray toward
    the scene (C, 3, 3), centers (C, 3) and image sizes (C, 2)."""

    def __init__(self, cameras: Iterable[CameraModel]):
        cams = self.cameras = tuple(sorted(cameras, key=lambda c: c.cam_id))
        self.ids = tuple(c.cam_id for c in cams)
        self.column = {cam_id: k for k, cam_id in enumerate(self.ids)}
        self.P = np.array([c.projection for c in cams]).reshape(-1, 3, 4)
        self.front = np.array([c._front_sign for c in cams])
        self.m_inv = np.array([c._front_sign * c._m_inv for c in cams]).reshape(-1, 3, 3)
        self.centers = np.array([c.center for c in cams]).reshape(-1, 3)
        self.size = np.array([c.image_size for c in cams], dtype=float).reshape(-1, 2)

    def project(self, points) -> tuple[np.ndarray, np.ndarray]:
        """:func:`project_points` of `points` through the rig's cameras."""
        return _project(self.P, self.front, points)

    def viewing(self, pixels, ok) -> np.ndarray:
        """The (T, C) mask of the cameras that have each point in front of
        them and inside their image (a point on the image border counts as
        inside), from its (T, C, 2) `pixels` through every camera and the
        (T, C) mask `ok` that :meth:`project` gives."""
        return ok & ((0 <= pixels) & (pixels <= self.size)).all(axis=-1)


def apply_distortion(cam: CameraModel, ideal) -> tuple[float, float]:
    """Map an ideal pixel to the observed (distorted) pixel."""
    u, v = float(ideal[0]), float(ideal[1])
    cx, cy = cam.dist_center
    du, dv = u - cx, v - cy
    rho2 = (du * du + dv * dv) / cam.radius_scale**2
    f = 1.0 + cam.k1 * rho2 + cam.k2 * rho2 * rho2
    return (cx + f * du, cy + f * dv)


def correct_distortion(cam: CameraModel, observed, max_iter: int = 20,
                       tol: float = 1e-9) -> tuple[float, float]:
    """Invert the radial distortion model.

    The displacement is purely radial, so the inverse reduces to a scalar
    root find for the ideal radius; iterated with Newton updates (at most
    ``max_iter`` steps). Raises NoConvergence if the residual does not fall
    below ``tol`` pixels.
    """
    if cam.k1 == 0.0 and cam.k2 == 0.0:
        return (float(observed[0]), float(observed[1]))
    u, v = float(observed[0]), float(observed[1])
    cx, cy = cam.dist_center
    s = cam.radius_scale
    qu, qv = (u - cx) / s, (v - cy) / s
    r_obs = math.hypot(qu, qv)
    if r_obs < _T_EPS:
        return (u, v)
    k1, k2 = cam.k1, cam.k2
    r = r_obs
    for _ in range(max_iter):
        r2 = r * r
        g = r * (1.0 + k1 * r2 + k2 * r2 * r2) - r_obs
        if abs(g) * s < tol:
            break
        dg = 1.0 + 3.0 * k1 * r2 + 5.0 * k2 * r2 * r2
        if abs(dg) < _T_EPS:
            raise NoConvergence("distortion model not locally invertible")
        r = r - g / dg
    else:
        raise NoConvergence(
            f"radial inversion residual {abs(g) * s:g} px after {max_iter} iterations")
    scale = r / r_obs
    return (cx + qu * scale * s, cy + qv * scale * s)


def pixel_ray(cam: CameraModel, p) -> Ray3:
    """Back-project a distortion-corrected pixel to the ray through the
    camera center, oriented towards the scene in front of the camera."""
    u, v = float(p[0]), float(p[1])
    with np.errstate(over="ignore", invalid="ignore"):
        d = cam._front_sign * (cam._m_inv @ np.array([u, v, 1.0]))
        n = np.linalg.norm(d)
    if not math.isfinite(n):
        raise DegenerateGeometry("back-projected direction is not finite")
    if n < _T_EPS:
        raise DegenerateGeometry("back-projected direction is numerically zero")
    return Ray3(origin=cam.center.copy(), direction=d / n)


def line_distances(o1, d1, o2, d2) -> np.ndarray:
    """Minimum distance between the lines through `o1` along `d1` and
    through `o2` along `d2` (unit directions), row by row over (K, 3)
    arrays; for nearly parallel lines, from `o2` to the first line."""
    w0 = o1 - o2
    b, d, e = _dot(d1, d2)[:, None], _dot(d1, w0)[:, None], _dot(d2, w0)[:, None]
    denom = 1.0 - b * b
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gap = np.where(denom < 1e-12, w0 - d * d1,
                       (o1 + (b * e - d) / denom * d1) - (o2 + (e - b * d) / denom * d2))
        return np.sqrt(_dot(gap, gap))


def _dot(a, b) -> np.ndarray:
    """Row-wise dot products, each with the bits of ``a[i] @ b[i]`` (a
    stacked matmul; einsum and elementwise sums round differently)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def triangulate(views: Sequence[tuple[CameraModel, tuple[float, float]]]
                ) -> tuple[np.ndarray, float]:
    """Recover a 3D point from >= 2 distortion-corrected pixel observations
    (:func:`triangulate_sets` of one set). Returns (point [m], mean
    reprojection error [px]); raises DegenerateGeometry where that finds no
    point, e.g. when all camera centers coincide."""
    if len(views := list(views)) < 2:
        raise ValueError("triangulation needs at least two views")
    found, points, errs = triangulate_sets(
        np.array([[cam.projection for cam, _ in views]]),
        np.array([[(float(u), float(v)) for _, (u, v) in views]]))
    if not len(found):
        raise DegenerateGeometry("no unique finite point (coincident cameras?)")
    return points[0], float(errs[0])


def triangulate_sets(P, uv) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangulate M sets of k views each, from the views' projections `P`
    (M, k, 3, 4) and distortion-corrected pixels `uv` (M, k, 2).

    Homogeneous linear method: each view contributes the constraints
    u*P3 - P1 and v*P3 - P2, each normalized, and the point is the right
    singular vector of the stacked system with the smallest singular value.
    A set gives no point for a zero or non-finite constraint row, a rank
    deficient system, or a point or reprojection at infinity. Returns the
    indices of the sets that give one, their points and their mean
    reprojection errors. Each set has the bits it has alone: one SVD call
    and one einsum serve all sets, and each set's errors are summed with
    ``math.hypot`` in view order (``np.hypot`` rounds differently).
    """
    m, k = uv.shape[:2]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        A = (uv[..., None] * P[..., 2:, :] - P[..., :2, :]).reshape(m, 2 * k, 4)
        norms = np.linalg.norm(A, axis=2)
        A /= norms[..., None]
    sets = np.flatnonzero(~(norms < _T_EPS).any(axis=1) & np.isfinite(A).all(axis=(1, 2)))
    _, s, vt = np.linalg.svd(A[sets])
    X = vt[:, -1]
    full = ~(s[:, 2] < 1e-12 * s[:, 0]) & ~(np.abs(X[:, 3]) < 1e-12 * np.sqrt(_dot(X, X)))
    sets, points = sets[full], X[full, :3] / X[full, 3:]
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.einsum("mkij,mj->mki", P[sets], np.column_stack([points, np.ones(len(points))]))
    finite = ~(np.abs(x[..., 2]) < _T_EPS).any(axis=1)
    sets, points, x = sets[finite], points[finite], x[finite]
    errs = np.empty(len(sets))
    du, dv = (x[..., :2] / x[..., 2:] - uv[sets]).transpose(2, 0, 1).tolist()
    for n, (row_u, row_v) in enumerate(zip(du, dv)):
        err = 0.0
        for a, b in zip(row_u, row_v):
            err += math.hypot(a, b)
        errs[n] = err / k
    return sets, points, errs


def _normalize(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (n, dim) points moved to their centroid and scaled to a mean
    distance of sqrt(dim), and the homogeneous transform that does it."""
    centroid = pts.mean(axis=0)
    rms = np.linalg.norm(pts - centroid, axis=1).mean()
    dim = pts.shape[1]
    scale = math.sqrt(dim) / rms if rms > _T_EPS else 1.0
    T = np.eye(dim + 1)
    T[:dim, :dim] *= scale
    T[:dim, dim] = -scale * centroid
    return (pts - centroid) * scale, T


def dlt_calibrate(correspondences: Sequence[tuple], cam_id: str = "dlt",
                  image_size: tuple[int, int] | None = None) -> CameraModel:
    """Estimate a projection matrix from >= 6 world/pixel correspondences.

    ``correspondences`` is a sequence of (world 3-vector, (u, v)) pairs.
    Points are isotropically pre-normalized (centroid at the origin, RMS
    distance sqrt(2) / sqrt(3)) before the linear solve. The returned
    camera has zero distortion.

    Raises InsufficientPoints for < 6 pairs and DegenerateConfiguration when
    the points are coplanar/collinear.
    """
    pairs = list(correspondences)
    if len(pairs) < 6:
        raise InsufficientPoints(f"DLT needs >= 6 correspondences, got {len(pairs)}")
    world = np.asarray([np.asarray(w, dtype=float).ravel() for w, _ in pairs])
    pix = np.asarray([[float(p[0]), float(p[1])] for _, p in pairs])
    wn, U = _normalize(world)
    pn, T = _normalize(pix)
    n = len(pairs)
    A = np.zeros((2 * n, 12))
    for i in range(n):
        Xh = np.append(wn[i], 1.0)
        u, v = pn[i]
        A[2 * i, 4:8] = -Xh
        A[2 * i, 8:12] = v * Xh
        A[2 * i + 1, 0:4] = Xh
        A[2 * i + 1, 8:12] = -u * Xh
    _, s, vt = np.linalg.svd(A)
    # A generic configuration leaves a 1D null space (rank 11); coplanar or
    # collinear point sets leave more.
    if s[10] < 1e-8 * s[0]:
        raise DegenerateConfiguration("correspondences are coplanar or collinear")
    Pn = vt[-1].reshape(3, 4)
    P = np.linalg.solve(T, Pn) @ U
    if image_size is None:
        w = int(math.ceil(2.0 * max(abs(pix[:, 0]).max(), 1.0)))
        h = int(math.ceil(2.0 * max(abs(pix[:, 1]).max(), 1.0)))
        image_size = (w, h)
    return CameraModel(projection=P, cam_id=cam_id, image_size=image_size)


def normalized_projection(P) -> np.ndarray:
    """Scale a projection matrix to unit Frobenius norm with the
    largest-magnitude entry positive, so matrices can be compared."""
    P = np.asarray(P, dtype=float)
    P = P / np.linalg.norm(P)
    flat = np.abs(P).argmax()
    if P.flat[flat] < 0:
        P = -P
    return P


def image_line_plane(cam: CameraModel, p, theta: float) -> Plane3:
    """Back-project the image line through pixel p with slope angle theta
    into the world plane containing it and the camera center."""
    u, v = float(p[0]), float(p[1])
    x1 = np.array([u, v, 1.0])
    x2 = np.array([u + math.cos(theta), v + math.sin(theta), 1.0])
    line = np.cross(x1, x2)
    return Plane3(cam.projection.T @ line)


def body_axis(views: Sequence[tuple[CameraModel, tuple[float, float], float]]
              ) -> tuple[Ray3, float]:
    """Fit the 3D line of intersection of the planes back-projected from
    per-camera 2D axis observations (pixel position + slope angle).

    Returns (line, residual) where the residual is the third singular value
    of the stacked plane system (zero for an exact intersection). The line
    direction is canonicalized to nonnegative z (ties: nonnegative x, then
    y). Raises DegenerateGeometry when the planes are (near-)parallel.
    """
    views = list(views)
    if len(views) < 2:
        raise ValueError("body axis needs at least two views")
    A = np.vstack([image_line_plane(cam, p, th).coefficients
                   for cam, p, th in views])
    _, s, vt = np.linalg.svd(A)
    if s[1] < 1e-9 * s[0]:
        raise DegenerateGeometry("planes are identical")
    X1, X2 = vt[-1], vt[-2]
    # Point at infinity on the line = the null-space combination with zero
    # 4th component; its first three entries are the direction.
    d = X1[3] * X2[:3] - X2[3] * X1[:3]
    nd = np.linalg.norm(d)
    if nd < 1e-9:
        raise DegenerateGeometry("planes are parallel; line of intersection at infinity")
    d = d / nd
    if d[2] < 0 or (d[2] == 0 and (d[0] < 0 or (d[0] == 0 and d[1] < 0))):
        d = -d
    anchor = X1 if abs(X1[3]) >= abs(X2[3]) else X2
    p0 = anchor[:3] / anchor[3]
    origin = p0 - (p0 @ d) * d  # foot of the perpendicular from the world origin
    residual = float(s[2]) if len(s) > 2 else 0.0
    return Ray3(origin=origin, direction=d), residual


def save_calibration(path, cameras: Iterable[CameraModel]) -> None:
    """Write cameras to the line-oriented text calibration format.

    Floats are written with repr (shortest round-trip representation) so a
    load/save cycle is bit exact.
    """
    cams = list(cameras)
    lines = [f"cal v1 {len(cams)}"]
    for cam in cams:
        w, h = cam.image_size
        lines.append(f"cam {cam.cam_id} {w} {h}")
        for row in cam.projection:
            lines.append(" ".join(repr(float(x)) for x in row))
        cx, cy = cam.dist_center
        lines.append(f"dist {cx!r} {cy!r} {cam.k1!r} {cam.k2!r}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_calibration(path) -> list[CameraModel]:
    """Read the calibration format written by :func:`save_calibration`."""
    with open(path) as f:
        raw = [ln.strip() for ln in f if ln.strip()]
    if not raw or not raw[0].startswith("cal v1 "):
        raise ValueError("not a 'cal v1' calibration file")
    n = int(raw[0].split()[2])
    cams = []
    i = 1
    for _ in range(n):
        tag, cam_id, w, h = raw[i].split()
        if tag != "cam":
            raise ValueError(f"expected 'cam' line, got {raw[i]!r}")
        P = np.array([[float(x) for x in raw[i + 1 + r].split()] for r in range(3)])
        dist = raw[i + 4].split()
        if dist[0] != "dist":
            raise ValueError(f"expected 'dist' line, got {raw[i + 4]!r}")
        cx, cy, k1, k2 = (float(x) for x in dist[1:])
        cams.append(CameraModel(projection=P, cam_id=cam_id,
                                image_size=(int(w), int(h)),
                                k1=k1, k2=k2, dist_center=(cx, cy)))
        i += 5
    if len(cams) != n:
        raise ValueError("camera count mismatch")
    return cams

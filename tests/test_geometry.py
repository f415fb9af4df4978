import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camtrack3d.geometry import (
    BehindCamera,
    CameraModel,
    DegenerateConfiguration,
    DegenerateGeometry,
    InsufficientPoints,
    PointAtInfinity,
    Rig,
    apply_distortion,
    body_axis,
    correct_distortion,
    dehomogenize,
    dlt_calibrate,
    line_distances,
    load_calibration,
    normalized_projection,
    pixel_ray,
    project,
    save_calibration,
    triangulate,
    triangulate_sets,
)
from helpers import (
    look_at_camera,
    point_to_ray_distance,
    ray_ray_distance,
    ring_of_cameras,
    triangulate_oracle,
)

IDENTITY_P = np.hstack([np.eye(3), np.zeros((3, 1))])


def identity_camera(**kw):
    return CameraModel(projection=IDENTITY_P, cam_id="id", image_size=(640, 480), **kw)


# ---------------------------------------------------------------- dehomogenize

def test_dehomogenize_direct_division():
    assert dehomogenize((2.0, 4.0, 2.0)) == (1.0, 2.0)


def test_dehomogenize_origin():
    assert dehomogenize((0.0, 0.0, 1.0)) == (0.0, 0.0)


def test_dehomogenize_point_at_infinity():
    with pytest.raises(PointAtInfinity):
        dehomogenize((3.0, 6.0, 0.0))


# --------------------------------------------------------------------- project

def test_project_identity_camera():
    assert project(identity_camera(), (1.0, 2.0, 4.0)) == (0.25, 0.5)


def test_project_camera_center_is_infinity():
    with pytest.raises(PointAtInfinity):
        project(identity_camera(), (0.0, 0.0, 0.0, 1.0))


def test_project_behind_camera():
    with pytest.raises(BehindCamera):
        project(identity_camera(), (0.0, 0.0, -1.0))


def test_project_matches_dense_multiply_oracle():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 50:
        P = rng.normal(size=(3, 4))
        if np.linalg.matrix_rank(P) < 3:
            continue
        X = np.append(rng.normal(size=3), 1.0)
        x = P @ X
        # only points in front of the principal plane are projectable
        if np.sign(np.linalg.det(P[:, :3])) * x[2] <= 1e-6:
            continue
        cam = CameraModel(projection=P, cam_id="r", image_size=(640, 480))
        u, v = project(cam, X)
        assert u == pytest.approx(x[0] / x[2], rel=1e-12)
        assert v == pytest.approx(x[1] / x[2], rel=1e-12)
        checked += 1


# ------------------------------------------------------------------ distortion

def fixed_point_undistort(cam, observed, iters=500):
    """Independent oracle: plain fixed-point iteration on the radius."""
    cx, cy = cam.dist_center
    s = cam.radius_scale
    q = np.array([(observed[0] - cx) / s, (observed[1] - cy) / s])
    r_obs = float(np.hypot(*q))
    if r_obs == 0.0:
        return tuple(observed)
    r = r_obs
    for _ in range(iters):
        r_new = r_obs / (1.0 + cam.k1 * r * r + cam.k2 * r**4)
        if abs(r_new - r) < 1e-15:
            r = r_new
            break
        r = r_new
    p = q * (r / r_obs) * s
    return (cx + p[0], cy + p[1])


def test_distortion_identity_when_coefficients_vanish():
    cam = identity_camera()
    for p in [(10.0, 20.0), (320.0, 240.0), (-5.0, 600.0)]:
        assert apply_distortion(cam, p) == p
        assert correct_distortion(cam, p) == p


def test_distortion_wide_angle_corner_150px():
    # k1 chosen so the image corner displaces by ~150 px: on a 640x480 image
    # the corner sits at rho = 1, so displacement = k1 * half-diagonal.
    w, h = 640, 480
    half_diag = 0.5 * math.hypot(w, h)
    k1 = 150.0 / half_diag
    cam = identity_camera(k1=k1)
    corner = (0.0, 0.0)
    observed = apply_distortion(cam, corner)
    disp = math.hypot(observed[0] - corner[0], observed[1] - corner[1])
    assert disp == pytest.approx(150.0, rel=1e-12)
    back = correct_distortion(cam, observed)
    assert math.hypot(back[0] - corner[0], back[1] - corner[1]) < 1e-6


def test_distortion_round_trip_random_k1():
    rng = np.random.default_rng(42)
    for _ in range(100):
        k1 = rng.uniform(-0.3, 0.3)
        cam = identity_camera(k1=k1)
        p = (rng.uniform(0, 640), rng.uniform(0, 480))
        obs = apply_distortion(cam, p)
        back = correct_distortion(cam, obs)
        assert math.hypot(back[0] - p[0], back[1] - p[1]) < 1e-6
        oracle = fixed_point_undistort(cam, obs)
        assert math.hypot(back[0] - oracle[0], back[1] - oracle[1]) < 1e-6


def test_distortion_round_trip_with_k2():
    cam = identity_camera(k1=0.12, k2=-0.04)
    for p in [(1.0, 2.0), (600.0, 450.0), (320.0, 10.0)]:
        obs = apply_distortion(cam, p)
        back = correct_distortion(cam, obs)
        assert math.hypot(back[0] - p[0], back[1] - p[1]) < 1e-6


# ----------------------------------------------------------------- triangulate

def test_triangulate_two_noiseless_views():
    cams = [look_at_camera((-0.5, 0.0, 0.0), (0.0, 0.0, 5.0), "a"),
            look_at_camera((0.5, 0.0, 0.0), (0.0, 0.0, 5.0), "b")]
    X = np.array([0.0, 0.0, 5.0])
    views = [(c, project(c, X)) for c in cams]
    point, err = triangulate(views)
    assert np.linalg.norm(point - X) < 1e-9
    assert err < 1e-9


def test_triangulate_same_camera_twice_degenerate():
    cam = look_at_camera((0.0, -2.0, 0.5), (0.0, 0.0, 0.5), "a")
    px = project(cam, (0.0, 0.0, 0.5))
    with pytest.raises(DegenerateGeometry):
        triangulate([(cam, px), (cam, px)])


def test_triangulate_noisy_reprojection_below_one_pixel():
    # desk-scale rig, 4 cameras, 1 px noise (unit RMS of the 2D
    # displacement, i.e. 1/sqrt(2) px per axis)
    cams = ring_of_cameras(4)
    rng = np.random.default_rng(3)
    sigma = 2 ** -0.5
    errs = []
    for _ in range(200):
        X = rng.uniform([-0.3, -0.3, 0.1], [0.3, 0.3, 0.5])
        views = []
        for c in cams:
            u, v = project(c, X)
            views.append((c, (u + rng.normal(0, sigma), v + rng.normal(0, sigma))))
        _, err = triangulate(views)
        errs.append(err)
    assert np.mean(errs) < 1.0


def test_triangulate_random_point_recovery_property():
    rng = np.random.default_rng(11)
    cams = ring_of_cameras(3)
    for _ in range(50):
        X = rng.uniform([-0.3, -0.3, 0.1], [0.3, 0.3, 0.5])
        point, err = triangulate([(c, project(c, X)) for c in cams])
        assert np.linalg.norm(point - X) < 1e-9 * max(1.0, np.linalg.norm(X))
        assert err < 1e-9


def test_triangulate_baseline_collapse_never_improves():
    # paired-noise comparison: halving the baseline must not reduce 3D error
    target = np.array([0.0, 0.0, 5.0])
    rng = np.random.default_rng(5)
    noise = rng.normal(0, 1.0, size=(1000, 2, 2))
    points = target + rng.uniform(-0.2, 0.2, size=(1000, 3))

    def mean_error(baseline):
        cams = [look_at_camera((-baseline / 2, 0, 0), target, "a"),
                look_at_camera((baseline / 2, 0, 0), target, "b")]
        errs = []
        for X, nz in zip(points, noise):
            views = [(c, tuple(np.add(project(c, X), n))) for c, n in zip(cams, nz)]
            p, _ = triangulate(views)
            errs.append(np.linalg.norm(p - X))
        return np.mean(errs)

    assert mean_error(0.5) >= mean_error(1.0)


# ------------------------------------------------------------------- pixel_ray

@st.composite
def view_sets(draw):
    """M sets of k views of random cameras: noisy projections of a point or
    pure clutter, plus the degenerate cases (a zero constraint row, the
    same camera twice, a point at infinity, an overflowing pixel)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, k = draw(st.integers(1, 6)), draw(st.integers(2, 6))
    P, uv = np.empty((m, k, 3, 4)), np.empty((m, k, 2))
    for i in range(m):
        cams = []
        for _ in range(k):
            pos = rng.normal(size=3)
            cams.append(look_at_camera(rng.uniform(1.0, 3.0) * pos / np.linalg.norm(pos),
                                       rng.uniform(-0.2, 0.2, 3), focal=rng.uniform(400, 1200)))
        P[i] = [c.projection for c in cams]
        X = rng.uniform(-0.3, 0.3, 3)
        uv[i] = [np.array(project(c, X)) + rng.normal(0, 1.0, 2) for c in cams]
        case = rng.integers(6)
        if case == 0:  # clutter
            uv[i] = rng.uniform([0, 0], [640, 480], size=(k, 2))
        elif case == 1:  # u * P3 - P1 is exactly zero
            P[i, 0, 0] = uv[i, 0, 0] * P[i, 0, 2]
        elif case == 2:  # every view is the same camera and pixel
            P[i], uv[i] = P[i, :1], uv[i, :1]
        elif case == 3:  # the rays are parallel: they meet at infinity
            x = P[i, :, :, :3] @ rng.normal(size=3)
            uv[i] = x[:, :2] / x[:, 2:]
        elif case == 4:
            uv[i, 0, 0] = 1e308
    return P, uv


@settings(max_examples=200, deadline=None)
@given(view_sets())
def test_triangulate_sets_matches_one_set_at_a_time(sets):
    # the stacked kernel gives every set the bits of the one-set method,
    # and rejects the sets it rejects
    P, uv = sets
    found, points, errs = triangulate_sets(P, uv)
    assert points.shape == (len(found), 3) and errs.shape == (len(found),)
    got = {i: (p.tobytes(), e) for i, p, e in zip(found.tolist(), points, errs.tolist())}
    for i in range(len(P)):
        views = [(SimpleNamespace(projection=p), tuple(x)) for p, x in zip(P[i], uv[i])]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                want = triangulate_oracle(views)
        except (DegenerateGeometry, np.linalg.LinAlgError):
            assert i not in got
            with pytest.raises(DegenerateGeometry):
                triangulate(views)
            continue
        assert got[i] == (want[0].tobytes(), want[1])
        point, err = triangulate(views)
        assert (point.tobytes(), err) == (want[0].tobytes(), want[1])


def test_triangulate_sets_error_bits_on_many_noisy_sets():
    # np.hypot differs from math.hypot in about one pixel offset of 200,
    # so summing errors with it shows here, if rarely in the property above
    rng = np.random.default_rng(17)
    cams = ring_of_cameras(5)
    P = np.array([c.projection for c in cams])
    X = rng.uniform(-0.3, 0.3, size=(2000, 3))
    uv = np.array([[project(c, x) for c in cams] for x in X]) + rng.normal(0, 1.0, (2000, 5, 2))
    found, points, errs = triangulate_sets(np.broadcast_to(P, (2000, 5, 3, 4)), uv)
    assert found.tolist() == list(range(2000))
    for i in range(2000):
        want = triangulate_oracle(list(zip(cams, uv[i])))
        assert (points[i].tobytes(), errs[i]) == (want[0].tobytes(), want[1])


def test_triangulate_sets_of_no_sets():
    found, points, errs = triangulate_sets(np.empty((0, 3, 3, 4)), np.empty((0, 3, 2)))
    assert points.shape == (0, 3) and errs.shape == found.shape == (0,)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_line_distances_match_scalar(seed):
    # stacked pair distances between pixel_ray rays give the bits of the
    # scalar line distance, parallel rays included; degenerate pixels
    # give no ray
    rng = np.random.default_rng(seed)
    cams = []
    for k in range(rng.integers(1, 5)):
        pos = rng.normal(size=3)
        cams.append(look_at_camera(rng.uniform(1.0, 3.0) * pos / np.linalg.norm(pos),
                                   rng.uniform(-0.2, 0.2, 3), cam_id=f"c{k}",
                                   focal=rng.uniform(400, 1200)))
    rig = Rig(cams)
    n = int(rng.integers(1, 12))
    cam_of = rng.integers(len(cams), size=n)
    uv = rng.uniform([0, 0], [640, 480], size=(n, 2))
    repeat = rng.random(n) < 0.2  # the same pixel again: a parallel pair
    uv[1:][repeat[1:]], cam_of[1:][repeat[1:]] = uv[:-1][repeat[1:]], cam_of[:-1][repeat[1:]]
    bad = rng.random(n) < 0.15
    uv[bad] = rng.choice([np.nan, np.inf, -np.inf, 1e308], size=(np.count_nonzero(bad), 2))
    rays = []
    for i in range(n):
        try:
            rays.append(pixel_ray(rig.cameras[cam_of[i]], uv[i]))
        except DegenerateGeometry:
            rays.append(None)
    good = np.array([i for i, r in enumerate(rays) if r is not None], dtype=int)
    d = np.array([r.direction if r is not None else np.zeros(3) for r in rays])
    a, b = np.triu_indices(len(good), 1)
    a, b = good[a], good[b]
    o = rig.centers[cam_of]
    got = line_distances(o[b], d[b], o[a], d[a])
    want = [ray_ray_distance(rays[j], rays[i]) for i, j in zip(a, b)]
    assert got.tobytes() == np.array(want, dtype=float).tobytes()


def test_pixel_ray_principal_ray():
    ray = pixel_ray(identity_camera(), (0.0, 0.0))
    assert np.allclose(ray.origin, 0.0)
    assert np.allclose(ray.direction, [0.0, 0.0, 1.0])


def test_pixel_ray_translated_camera_origin():
    C = np.array([1.5, -2.0, 0.25])
    P = np.hstack([np.eye(3), (-C)[:, None]])
    cam = CameraModel(projection=P, cam_id="t", image_size=(640, 480))
    ray = pixel_ray(cam, (0.1, 0.2))
    assert np.allclose(ray.origin, C)


def test_pixel_ray_consistent_with_project():
    rng = np.random.default_rng(17)
    cams = ring_of_cameras(5)
    for _ in range(50):
        X = rng.uniform([-0.3, -0.3, 0.1], [0.3, 0.3, 0.5])
        cam = cams[rng.integers(len(cams))]
        px = project(cam, X)
        ray = pixel_ray(cam, px)
        assert point_to_ray_distance(X, ray) < 1e-9
        # reprojection along the ray returns the pixel
        for s in (1.0, 10.0):
            u, v = project(cam, ray.point_at(s))
            assert math.hypot(u - px[0], v - px[1]) < 1e-9


@pytest.mark.parametrize("px", [(1e308, 100.0), (1e308, -1e308), (1e200, 1e200),
                                (math.nan, 0.0), (math.inf, 0.0)])
def test_pixel_ray_rejects_non_finite_direction_without_warning(px):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateGeometry):
            pixel_ray(ring_of_cameras(1)[0], px)


# --------------------------------------------------------------- dlt_calibrate

def test_dlt_recovers_projection():
    rng = np.random.default_rng(23)
    cam = look_at_camera((1.2, -2.0, 0.9), (0.0, 0.0, 0.3), "truth")
    pts = rng.uniform([-0.4, -0.4, 0.0], [0.4, 0.4, 0.6], size=(10, 3))
    corr = [(X, project(cam, X)) for X in pts]
    est = dlt_calibrate(corr, cam_id="est", image_size=cam.image_size)
    diff = normalized_projection(est.projection) - normalized_projection(cam.projection)
    assert np.abs(diff).max() < 1e-6


def test_dlt_insufficient_points():
    cam = look_at_camera((1.0, 1.0, 1.0), (0.0, 0.0, 0.0), "t")
    pts = np.random.default_rng(0).uniform(-0.3, 0.3, size=(5, 3))
    corr = [(X, project(cam, X + np.array([0, 0, -2.0]))) for X in pts]
    with pytest.raises(InsufficientPoints):
        dlt_calibrate(corr)


def test_dlt_coplanar_degenerate():
    rng = np.random.default_rng(29)
    cam = look_at_camera((0.0, -3.0, 1.0), (0.0, 0.0, 0.0), "t")
    pts = [np.array([x, y, 0.0]) for x, y in rng.uniform(-0.5, 0.5, size=(10, 2))]
    corr = [(X, project(cam, X)) for X in pts]
    with pytest.raises(DegenerateConfiguration):
        dlt_calibrate(corr)


def test_dlt_project_identity_property():
    rng = np.random.default_rng(31)
    for trial in range(10):
        cam = look_at_camera(rng.uniform([1, 1, 0.5], [3, 3, 2]),
                             (0.0, 0.0, 0.0), f"t{trial}")
        pts = rng.uniform(-0.5, 0.5, size=(8, 3))
        corr = [(X, project(cam, X)) for X in pts]
        est = dlt_calibrate(corr, image_size=cam.image_size)
        diff = normalized_projection(est.projection) - normalized_projection(cam.projection)
        assert np.abs(diff).max() < 1e-6


# ------------------------------------------------------------------- body_axis

def test_body_axis_vertical_post_two_cameras():
    # two orthogonal cameras see a vertical post; theta is vertical in both
    post = np.array([0.0, 0.0, 0.3])
    cams = [look_at_camera((2.0, 0.0, 0.3), post, "a"),
            look_at_camera((0.0, 2.0, 0.3), post, "b")]
    views = []
    for cam in cams:
        pa = project(cam, post)
        pb = project(cam, post + np.array([0.0, 0.0, 0.1]))
        theta = math.atan2(pb[1] - pa[1], pb[0] - pa[0])
        views.append((cam, pa, theta))
    line, residual = body_axis(views)
    assert abs(abs(line.direction[2]) - 1.0) < 1e-6
    assert line.direction[2] > 0  # canonical sign
    assert residual < 1e-9


def test_body_axis_identical_planes_degenerate():
    cam = look_at_camera((2.0, 0.0, 0.3), (0.0, 0.0, 0.3), "a")
    px = project(cam, (0.0, 0.0, 0.3))
    with pytest.raises(DegenerateGeometry):
        body_axis([(cam, px, 0.3), (cam, px, 0.3)])


def test_body_axis_pitched_axis_with_noise():
    # 30 degree pitch body axis observed by 3 cameras with 0.2 px line noise
    rng = np.random.default_rng(37)
    pitch = math.radians(30.0)
    direction = np.array([math.cos(pitch), 0.0, math.sin(pitch)])
    center = np.array([0.05, -0.02, 0.3])
    cams = ring_of_cameras(3)
    views = []
    for cam in cams:
        a = np.array(project(cam, center - 0.05 * direction))
        b = np.array(project(cam, center + 0.05 * direction))
        a += rng.normal(0, 0.2, size=2)
        b += rng.normal(0, 0.2, size=2)
        theta = math.atan2(b[1] - a[1], b[0] - a[0])
        views.append((cam, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2), theta))
    line, _ = body_axis(views)
    cosang = abs(float(line.direction @ direction))
    assert math.degrees(math.acos(min(1.0, cosang))) < 0.5


# ------------------------------------------------------------------- rig model

def test_camera_center_invariant():
    cam = look_at_camera((1.0, 2.0, 3.0), (0.0, 0.0, 0.0), "c")
    resid = np.linalg.norm(cam.projection @ np.append(cam.center, 1.0))
    assert resid < 1e-9 * np.linalg.norm(cam.projection)
    with pytest.raises(ValueError):
        CameraModel(projection=cam.projection, cam_id="bad",
                    image_size=(640, 480), center=np.array([9.0, 9.0, 9.0]))


def test_rank_deficient_projection_rejected():
    P = np.zeros((3, 4))
    P[0, 0] = 1.0
    with pytest.raises(DegenerateGeometry):
        CameraModel(projection=P, cam_id="r", image_size=(10, 10))


# ------------------------------------------------------------ calibration file

def test_calibration_file_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(41)
    cams = []
    for i in range(3):
        cam = look_at_camera(rng.uniform(1, 3, size=3), (0, 0, 0), f"cam{i}",
                             focal=rng.uniform(500, 900))
        cams.append(CameraModel(projection=cam.projection, cam_id=cam.cam_id,
                                image_size=cam.image_size,
                                k1=rng.uniform(-0.2, 0.2),
                                k2=rng.uniform(-0.05, 0.05)))
    path = tmp_path / "rig.cal"
    save_calibration(path, cams)
    loaded = load_calibration(path)
    assert len(loaded) == len(cams)
    for a, b in zip(cams, loaded):
        assert a.cam_id == b.cam_id
        assert a.image_size == b.image_size
        assert (a.projection == b.projection).all()  # bit exact
        assert a.k1 == b.k1 and a.k2 == b.k2 and a.dist_center == b.dist_center
    # second save produces the identical file
    path2 = tmp_path / "rig2.cal"
    save_calibration(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()

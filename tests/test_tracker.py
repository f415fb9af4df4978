import math

import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camtrack3d import tracker
from camtrack3d.association import GateConfig, cull_targets
from camtrack3d.geometry import BehindCamera, PointAtInfinity, project, triangulate
from camtrack3d.tracker import (
    Information,
    ObservationModel,
    Posterior,
    ProcessModel,
    Targets,
    TargetState,
    TrajectoryWriter,
    extrapolate,
    observation_function,
    observation_jacobian,
    posterior,
    predict,
    read_trajectory_csv,
    update,
)
from helpers import (
    SingularInnovation,
    cull_targets_oracle,
    look_at_camera,
    observation_arrays,
    predict_oracle,
    predict_one,
    ring_of_cameras,
    trajectory_rows_oracle,
    update_one,
    update_oracle,
    update_states,
)


def state(mean, cov, tid=0):
    return TargetState(target_id=tid, mean=np.asarray(mean, dtype=float),
                       cov=np.asarray(cov, dtype=float))


# ------------------------------------------------------------ model parameters

@pytest.mark.parametrize("field, value", [
    ("dt", 0.0), ("dt", -0.01), ("dt", math.nan), ("dt", math.inf),
    ("q_pos", -1e-4), ("q_pos", math.nan), ("q_pos", math.inf),
    ("q_vel", -0.25), ("q_vel", math.nan), ("q_vel", math.inf),
])
def test_process_model_rejects_invalid_parameter(field, value):
    kw = {"dt": 0.01, field: value}
    with pytest.raises(ValueError, match=field):
        ProcessModel(**kw)


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_observation_model_rejects_invalid_r_px(value):
    with pytest.raises(ValueError, match="r_px"):
        ObservationModel(cameras=ring_of_cameras(2), r_px=value)


def test_zero_process_noise_is_accepted():
    pm = ProcessModel(dt=0.01, q_pos=0.0, q_vel=0.0)
    assert np.array_equal(pm.Q, np.zeros((6, 6)))


# --------------------------------------------------------------------- predict

def test_predict_zero_state_covariance_becomes_q():
    pm = ProcessModel(dt=0.01)
    s = state(np.zeros(6), np.zeros((6, 6)))
    out = predict_one(s, pm)
    assert np.array_equal(out.mean, np.zeros(6))
    assert np.array_equal(out.cov, pm.Q)


def test_predict_constant_velocity_step():
    pm = ProcessModel(dt=0.01)
    s = state([1, 2, 3, 1, 0, 0], np.eye(6))
    out = predict_one(s, pm)
    assert np.allclose(out.mean, [1.01, 2, 3, 1, 0, 0])
    assert np.array_equal(out.mean[3:], s.mean[3:])


def test_predict_trace_strictly_increases_without_updates():
    rng = np.random.default_rng(13)
    pm = ProcessModel(dt=0.01)
    A = rng.normal(size=(6, 6))
    s = state(rng.normal(size=6), A @ A.T)
    traces = [np.trace(s.cov)]
    for _ in range(10):
        s = predict_one(s, pm)
        traces.append(np.trace(s.cov))
    assert all(b > a for a, b in zip(traces, traces[1:]))


def test_missing_observations_equal_bare_prediction_recursion():
    # k missed frames leave exactly the k-fold A P A^T + Q recursion
    pm = ProcessModel(dt=1.0 / 60.0)
    cams = ring_of_cameras(3)
    om = ObservationModel(cameras=cams)
    rng = np.random.default_rng(21)
    L = rng.normal(size=(6, 6)) * 0.01
    s0 = state(np.array([0.05, -0.02, 0.3, 0.1, 0.0, 0.0]), L @ L.T)

    with_updates = s0
    bare = s0
    oracle_cov = s0.cov.copy()
    for k in range(8):
        with_updates = update_one(predict_one(with_updates, pm), [], om)
        bare = predict_one(bare, pm)
        raw = pm.A @ oracle_cov @ pm.A.T + pm.Q
        oracle_cov = 0.5 * (raw + raw.T)  # predict re-enforces symmetry
        assert np.array_equal(with_updates.cov, bare.cov)  # bitwise
        assert np.array_equal(with_updates.cov, oracle_cov)
        assert with_updates.frames_since_observation == k + 1


# --------------------------------------------------------- observation model

def test_observation_function_identity_camera():
    from camtrack3d.geometry import CameraModel
    cam = CameraModel(projection=np.hstack([np.eye(3), np.zeros((3, 1))]),
                      cam_id="i", image_size=(640, 480))
    y = observation_function([1, 2, 4, 0, 0, 0], [cam])
    assert np.allclose(y, [0.25, 0.5])


def test_observation_function_concatenates_in_camera_id_order():
    cams = ring_of_cameras(2)
    X = np.array([0.05, 0.1, 0.35])
    y = observation_function(np.append(X, [0, 0, 0]), cams[::-1])
    expected = np.concatenate([project(c, X) for c in sorted(cams, key=lambda c: c.cam_id)])
    assert np.allclose(y, expected)


def test_observation_function_empty_camera_set():
    y = observation_function(np.zeros(6), [])
    assert y.shape == (0,)


def test_jacobian_velocity_columns_zero():
    cams = ring_of_cameras(4)
    rng = np.random.default_rng(31)
    for _ in range(10):
        mean = np.append(rng.uniform([-0.2, -0.2, 0.1], [0.2, 0.2, 0.5]),
                         rng.normal(size=3))
        C = observation_jacobian(mean, cams)
        assert np.all(C[:, 3:] == 0.0)


def test_jacobian_matches_central_finite_differences():
    cams = ring_of_cameras(5)
    rng = np.random.default_rng(37)
    step = 1e-6
    for _ in range(20):
        mean = np.append(rng.uniform([-0.2, -0.2, 0.1], [0.2, 0.2, 0.5]),
                         rng.normal(size=3) * 0.1)
        C = observation_jacobian(mean, cams)
        fd = np.zeros_like(C)
        for j in range(6):
            hi, lo = mean.copy(), mean.copy()
            hi[j] += step
            lo[j] -= step
            fd[:, j] = (observation_function(hi, cams)
                        - observation_function(lo, cams)) / (2 * step)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(C - fd) / scale) < 1e-4


def test_jacobian_identity_camera_hand_derivative():
    from camtrack3d.geometry import CameraModel
    cam = CameraModel(projection=np.hstack([np.eye(3), np.zeros((3, 1))]),
                      cam_id="i", image_size=(640, 480))
    C = observation_jacobian([0, 0, 1, 0, 0, 0], [cam])
    assert C[0, 0] == pytest.approx(1.0)  # du/dx at (0,0,1)
    assert C[0, 2] == pytest.approx(0.0)  # du/dz at (0,0,1)


# ---------------------------------------------------------------------- update

def test_update_empty_observations_keeps_prior():
    cams = ring_of_cameras(3)
    om = ObservationModel(cameras=cams)
    s = state([0.1, 0.0, 0.3, 0.0, 0.0, 0.0], np.eye(6) * 1e-3)
    out = update_one(s, [], om)
    assert np.array_equal(out.mean, s.mean)
    assert np.array_equal(out.cov, s.cov)
    assert out.frames_since_observation == 1


def test_update_zero_gain_limit():
    cams = ring_of_cameras(3)
    om = ObservationModel(cameras=cams)
    X = np.array([0.02, -0.05, 0.3])
    s = state(np.append(X, [0, 0, 0]), np.eye(6) * 1e-18)
    obs = [(c, (project(c, X)[0] + 1.0, project(c, X)[1] - 1.0)) for c in cams]
    out = update_one(s, obs, om)
    assert np.linalg.norm(out.mean[:3] - X) < 1e-9
    assert out.frames_since_observation == 0


def test_update_beats_per_frame_triangulation():
    # constant velocity target, 5 cameras, 1 px noise: the filter's
    # posterior RMSE stays below the per-frame triangulation RMSE
    cams = ring_of_cameras(5)
    om = ObservationModel(cameras=cams, r_px=1.0)
    pm = ProcessModel(dt=0.01)
    rng = np.random.default_rng(43)
    pos = np.array([-0.2, -0.1, 0.25])
    vel = np.array([0.25, 0.15, 0.05])
    s = TargetState(target_id=0, mean=np.append(pos, vel),
                    cov=np.diag([0.05**2] * 3 + [1.0] * 3))
    ekf_err, tri_err = [], []
    for t in range(200):
        truth = pos + vel * (t * pm.dt)
        views = []
        for c in cams:
            u, v = project(c, truth)
            views.append((c, (u + rng.normal(0, 1), v + rng.normal(0, 1))))
        s = update_one(predict_one(s, pm), views, om)
        tri, _ = triangulate(views)
        ekf_err.append(np.sum((s.position - truth) ** 2))
        tri_err.append(np.sum((tri - truth) ** 2))
    skip = 20  # let the filter converge
    assert math.sqrt(np.mean(ekf_err[skip:])) < math.sqrt(np.mean(tri_err[skip:]))


def test_covariance_stays_psd_through_random_sequences():
    cams = ring_of_cameras(4)
    om = ObservationModel(cameras=cams)
    pm = ProcessModel(dt=0.01)
    rng = np.random.default_rng(47)
    s = state([0, 0, 0.3, 0, 0, 0], np.diag([0.01] * 3 + [1.0] * 3))
    truth = np.array([0.0, 0.0, 0.3])
    for i in range(300):
        s = predict_one(s, pm)
        truth = np.clip(truth + rng.normal(0, 0.01, size=3),
                        [-0.3, -0.3, 0.1], [0.3, 0.3, 0.5])
        if rng.random() < 0.7:
            X = truth
            views = []
            for c in cams:
                if rng.random() < 0.8:
                    u, v = project(c, X)
                    views.append((c, (u + rng.normal(0, 1), v + rng.normal(0, 1))))
            s = update_one(s, views, om)
        assert np.allclose(s.cov, s.cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(s.cov)[0] >= -1e-12


def test_single_camera_update_uncertainty_along_ray():
    # after one single-camera update from a distant camera the largest
    # covariance eigenvector points (nearly) along the camera-target ray
    cams = ring_of_cameras(5)
    om = ObservationModel(cameras=cams)
    X = np.array([0.0, 0.0, 0.3])
    prior = state(np.append(X, [0, 0, 0]), np.diag([0.05**2] * 3 + [0.5] * 3))
    cam = cams[0]
    out = update_one(prior, [(cam, project(cam, X))], om)
    pos_cov = out.cov[:3, :3]
    w, V = np.linalg.eigh(pos_cov)
    dominant = V[:, -1]
    ray = X - cam.center
    ray = ray / np.linalg.norm(ray)
    angle = math.degrees(math.acos(min(1.0, abs(float(dominant @ ray)))))
    assert angle < 10.0


# ----------------------------------------------------------------- extrapolate

def test_extrapolate_zero_horizon():
    s = state([1, 2, 3, 4, 5, 6], np.eye(6))
    assert np.array_equal(extrapolate(s, 0.0), [1, 2, 3])


def test_extrapolate_linear():
    s = state([1, 2, 3, 1, 0, 0], np.eye(6))
    assert np.allclose(extrapolate(s, 0.05), [1.05, 2, 3])


def test_extrapolate_three_frame_horizon_error_bound():
    cams = ring_of_cameras(5)
    om = ObservationModel(cameras=cams)
    pm = ProcessModel(dt=0.01)
    rng = np.random.default_rng(53)
    pos = np.array([-0.15, 0.0, 0.3])
    vel = np.array([0.2, 0.1, 0.0])
    s = TargetState(target_id=0, mean=np.append(pos, vel),
                    cov=np.diag([0.05**2] * 3 + [1.0] * 3))
    single, extrap = [], []
    for t in range(150):
        truth = pos + vel * (t * pm.dt)
        views = []
        for c in cams:
            u, v = project(c, truth)
            views.append((c, (u + rng.normal(0, 1), v + rng.normal(0, 1))))
        s = update_one(predict_one(s, pm), views, om)
        single.append(np.linalg.norm(s.position - truth))
        future = pos + vel * ((t + 3) * pm.dt)
        extrap.append(np.linalg.norm(extrapolate(s, 3 * pm.dt) - future))
    skip = 20
    assert np.mean(extrap[skip:]) < 3.0 * np.mean(single[skip:])


# -------------------------------------------------------------- trajectory CSV

def test_trajectory_csv_round_trip(tmp_path):
    path = tmp_path / "traj.csv"
    s1 = state([1, 2, 3, 4, 5, 6], np.eye(6) * 0.25, tid=3)
    s2 = state([0.1, 0.2, 0.3, 0, 0, 0], np.eye(6), tid=1)
    with TrajectoryWriter(path) as w:
        w.write_frame(7, [s1, s2])
    frames = read_trajectory_csv(path)
    assert set(frames) == {7}
    assert set(frames[7]) == {1, 3}
    assert np.array_equal(frames[7][3], s1.mean)  # repr round-trip is exact


def test_trajectory_rows_are_byte_identical_to_per_element_formatting():
    rng = np.random.default_rng(59)
    targets = [state(rng.normal(size=6) * 10.0 ** rng.integers(-300, 300, size=6),
                     rng.normal(size=(6, 6)), tid=tid) for tid in (4, 0, 17)]
    targets.append(state([0.0, -0.0, math.inf, -math.inf, math.nan, 1e-320],
                         np.eye(6) * 0.1, tid=2))
    buf = io.StringIO()
    w = TrajectoryWriter(buf)
    header = buf.getvalue()
    w.write_frame(12, targets)
    w.write_frame(13, [])
    assert buf.getvalue() == header + trajectory_rows_oracle(12, targets)


def test_write_frame_with_cells_made_ahead_writes_the_same_bytes():
    # the cells prepare makes for the guessed covariances stand in for
    # those write_frame would make: a covariance mirrored bit for bit, one
    # asymmetric by one ulp, one with a mirrored 0.0 / -0.0 pair, and one
    # with NaN, infinite and -0.0 cells
    rng = np.random.default_rng(61)
    covs = rng.normal(size=(4, 6, 6))
    covs = 0.5 * (covs + covs.swapaxes(1, 2))
    covs[1, 4, 2] = np.nextafter(covs[1, 2, 4], np.inf)
    covs[2, 0, 5], covs[2, 5, 0] = 0.0, -0.0
    covs[3, 1, 1], covs[3, 2, 3], covs[3, 3, 2] = -0.0, math.nan, math.inf
    bits = covs.view(np.uint64)
    assert (bits == bits.swapaxes(1, 2)).all(axis=(1, 2)).tolist() == [True, False, False, False]
    targets = Targets(np.array([0, 3, 7, 9]), rng.normal(size=(4, 6)), covs,
                      np.zeros(4, dtype=int), np.zeros(4, dtype=int))
    texts = []
    for cells in (None, tracker.covariance_text(targets.covs)):
        buf = io.StringIO()
        TrajectoryWriter(buf).write_frame(5, targets, cells)
        texts.append(buf.getvalue())
    assert texts[1] == texts[0]
    assert texts[0].endswith(trajectory_rows_oracle(5, targets.states()))


matrix_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
                     5e-324, -1e-310, 2.2250738585072014e-308]))


@st.composite
def written_targets(draw):
    """Targets in any id order whose covariances are exactly symmetric,
    symmetric but for one mirrored 0.0 / -0.0 pair, or asymmetric, with
    NaN, infinite and subnormal entries among ordinary floats."""
    targets = []
    for tid in draw(st.lists(st.integers(0, 2**40), max_size=4, unique=True)):
        kind = draw(st.sampled_from(["symmetric", "signed zero", "asymmetric"]))
        cov = np.array(draw(st.lists(matrix_cells, min_size=36, max_size=36))).reshape(6, 6)
        if kind != "asymmetric":
            lower = np.tril_indices(6, -1)
            cov[lower] = cov.T[lower]
        if kind == "signed zero":
            i, j = draw(st.sampled_from(list(zip(*np.triu_indices(6, 1)))))
            cov[i, j], cov[j, i] = draw(st.sampled_from([(0.0, -0.0), (-0.0, 0.0)]))
        mean = draw(st.lists(matrix_cells, min_size=6, max_size=6))
        targets.append(TargetState(target_id=tid, mean=mean, cov=cov))
    return targets


@settings(max_examples=300, deadline=None)
@given(written_targets(), st.integers(0, 2**40))
@example([TargetState(target_id=3, mean=np.zeros(6),
                      cov=np.where(np.eye(6, k=1, dtype=bool), -0.0, np.eye(6)))], 1)
def test_write_frame_matches_per_element_oracle(targets, frame_number):
    # -0.0 == 0.0, but their reprs differ: a covariance whose mirrored
    # entries are equal only by == must still be written entry by entry
    by_id = sorted(targets, key=lambda t: t.target_id)
    for given_as in (targets, Targets.of(by_id)):
        buf = io.StringIO()
        w = TrajectoryWriter(buf)
        header = buf.getvalue()
        w.write_frame(frame_number, given_as)
        assert buf.getvalue() == header + trajectory_rows_oracle(frame_number, targets)


# ------------------------------------- frame-level EKF vs the per-target oracle

def assert_same_state(got, want):
    assert (got.target_id, got.frames_since_observation, got.born_at) == \
        (want.target_id, want.frames_since_observation, want.born_at)
    assert got.mean.tobytes() == want.mean.tobytes()
    assert got.cov.tobytes() == want.cov.tobytes()


def oracle_update(priors, observations, om):
    """Per-target updates as the hub ran them: a singular innovation drops
    the update and the target counts a missed frame."""
    posteriors, dropped = [], []
    for prior, obs in zip(priors, observations):
        try:
            posteriors.append(update_oracle(prior, obs, om))
        except SingularInnovation:
            dropped.append(prior.target_id)
            posteriors.append(update_oracle(prior, [], om))
    return posteriors, dropped


EPS = np.finfo(float).eps
# the SVD condition number the gain form computes is off by up to a few eps
# times cond(S) (1.8e-4 relative at the 1e12 limit, over 613 draws of
# ekf_frames within 1% of it, against a 50-digit reference)
ORACLE_COND_ROUNDING = 4 * EPS * 1e12


def innovation_terms(prior, obs, om):
    """The Jacobian rows (2k, 6), predicted pixels (2k,) and measured
    pixels (2k,) of `prior` through the cameras of `obs` that project it."""
    rows, h, y = [], [], []
    for cam, uv in obs:
        try:
            pred = observation_function(prior.mean, [cam])
            C = observation_jacobian(prior.mean, [cam])
        except BehindCamera:
            continue
        rows.append(C)
        h.append(pred)
        y.append(np.asarray(uv, dtype=float))
    if not rows:
        return np.zeros((0, 6)), np.zeros(0), np.zeros(0)
    return np.concatenate(rows), np.concatenate(h), np.concatenate(y)


def reference_drops(priors, observations, om, oracle_dropped):
    """The gain form's drop decisions, except where its SVD condition
    number is within its own rounding of the 1e12 limit: for two cameras
    or more, cond(S) is ``1 + lambda_max(C P C^T) / r_px`` (the other
    eigenvalues of S are r_px), which eigvalsh gives to a few eps, and
    that decides there."""
    dropped = []
    for prior, obs in zip(priors, observations):
        C, _, _ = innovation_terms(prior, obs, om)
        drop = prior.target_id in oracle_dropped
        if len(C) >= 4 and np.isfinite(prior.cov).all():
            S = C @ prior.cov @ C.T + om.r_px * np.eye(len(C))
            if (np.isfinite(S).all()
                    and abs(np.linalg.cond(S) / 1e12 - 1.0) <= ORACLE_COND_ROUNDING):
                drop = not 1.0 + np.linalg.eigvalsh(C @ prior.cov @ C.T)[-1] / om.r_px <= 1e12
        if drop:
            dropped.append(prior.target_id)
    return dropped


def assert_within_oracle_rounding(got, want, prior, obs, om):
    """`got` and `want`, posteriors of `prior` through `obs`, agree as two
    backward-stable updates can: each rounds to within a few eps of
    cond(S) times the prior's scale. The covariances agree to 64 eps
    cond(S) max|P|; the means to 64 eps (cond(S) max|P| max|b| + max|mean|),
    with b = |C|^T |y - h| / r_px the size of the information vector the
    mean step reads."""
    assert (got.target_id, got.frames_since_observation, got.born_at) == \
        (want.target_id, want.frames_since_observation, want.born_at)
    C, h, y = innovation_terms(prior, obs, om)
    if got.frames_since_observation:  # no update: the prior, bit for bit
        assert_same_state(got, want)
        return
    P = prior.cov
    cond = np.linalg.cond(C @ P @ C.T + om.r_px * np.eye(len(C)))
    scale = np.abs(P).max()
    b = np.abs(C).T @ np.abs(y - h) / om.r_px
    assert np.abs(got.cov - want.cov).max() <= 64 * EPS * cond * scale
    assert np.abs(got.mean - want.mean).max() <= 64 * EPS * (
        cond * scale * b.max() + np.abs(prior.mean).max())


def condition_limit_r_px(prior, obs):
    """The pixel variance that puts the innovation covariance of `prior`
    seen through two or more cameras of `obs` at the 1e12 condition limit:
    C P C^T has rank 3 at most, so cond(C P C^T + r I) = 1 + a / r with a
    its largest eigenvalue."""
    C = observation_jacobian(prior.mean, [cam for cam, _ in obs])
    a = np.linalg.eigvalsh(C @ prior.cov @ C.T)[-1]
    return a / (1e12 - 1.0)


@st.composite
def ekf_frames(draw):
    """A random rig, process and observation model, and one frame of
    targets: positions anywhere around the rig (some behind cameras),
    covariances from 1e-12 to 1e2 and sometimes rank-deficient, each
    target seen by any subset of the cameras (none included), and a pixel
    variance either random or at the condition limit of one target."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_cams = draw(st.integers(1, 6))
    ids = rng.permutation(n_cams)
    cams = []
    for k in range(n_cams):
        d = rng.normal(size=3)
        pos = d / np.linalg.norm(d) * rng.uniform(1.5, 3.0)
        cams.append(look_at_camera(pos, rng.uniform(-0.3, 0.3, size=3), cam_id=f"c{ids[k]}"))
    pm = ProcessModel(dt=draw(st.sampled_from([0.01, 1 / 60, 0.2])),
                      q_pos=10.0 ** rng.uniform(-8, -2), q_vel=10.0 ** rng.uniform(-4, 0))
    states, observations = [], []
    for tid in range(draw(st.integers(0, 6))):
        L = rng.normal(size=(6, 6))
        if rng.random() < 0.2:
            L[:, rng.integers(0, 6)] = 0.0  # rank-deficient
        cov = L @ L.T * 10.0 ** rng.uniform(-12, 2)
        mean = np.append(rng.uniform(-3.0, 3.0, size=3), rng.normal(size=3))
        states.append(TargetState(target_id=3 * tid + 1, mean=mean, cov=cov,
                                  frames_since_observation=int(rng.integers(0, 4)),
                                  born_at=int(rng.integers(0, 100))))
        seen = [c for c in cams if rng.random() < draw(st.sampled_from([0.0, 0.5, 1.0]))]
        obs = []
        for c in seen:
            try:
                u, v = project(c, mean[:3])
            except (BehindCamera, PointAtInfinity):
                u, v = rng.uniform(0, 640, size=2)
            obs.append((c, (u + rng.normal() * 3.0, v + rng.normal() * 3.0)))
        observations.append(obs)
    priors = [predict_oracle(s, pm) for s in states]
    r_px = 10.0 ** rng.uniform(-10, 1)
    at_limit = [i for i, obs in enumerate(observations) if len(obs) >= 2]
    if at_limit and draw(st.booleans()):
        i = at_limit[0]
        try:
            r_px = condition_limit_r_px(priors[i], observations[i]) * 10.0 ** rng.uniform(-1e-3, 1e-3)
        except BehindCamera:  # behind one of its cameras: keep the random r_px
            pass
    om = ObservationModel(cameras=cams, r_px=r_px)
    return pm, om, states, observations


@settings(max_examples=300, deadline=None)
@given(ekf_frames())
def test_frame_ekf_matches_per_target_oracle_within_tolerance(frame):
    # the prediction is the oracle's, bit for bit; the update in
    # information form drops what the gain form drops and otherwise agrees
    # with it to the rounding both forms allow
    pm, om, states, observations = frame
    priors = predict(Targets.of(states), pm).states()
    assert len(priors) == len(states)
    for got, s in zip(priors, states):
        assert_same_state(got, predict_oracle(s, pm))
    posteriors, dropped = update_states(priors, observations, om)
    want, want_dropped = oracle_update(priors, observations, om)
    assert dropped == reference_drops(priors, observations, om, want_dropped)
    for got, w, prior, obs in zip(posteriors, want, priors, observations):
        if (prior.target_id in dropped) == (prior.target_id in want_dropped):
            assert_within_oracle_rounding(got, w, prior, obs, om)
    gate = GateConfig(death_covariance_threshold=10.0 ** np.random.default_rng(
        len(states)).uniform(-10, 2))
    kept, removed = cull_targets(Targets.of(posteriors), gate)
    want_kept, want_removed = cull_targets_oracle(posteriors, gate)
    assert kept.ids.tolist() == [t.target_id for t in want_kept]
    assert removed.ids.tolist() == [t.target_id for t in want_removed]


def assert_same_stack(got, want):
    for name in ("ids", "means", "covs", "missed", "born_at"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


GUESSES = ("right", "wrong", "subset", "superset", "none", "all")


def guessed_cameras(kinds, seen, other):
    return np.array([{"right": s, "wrong": o, "subset": s & o, "superset": s | o,
                      "none": np.zeros_like(s), "all": np.ones_like(s)}[kind]
                     for kind, s, o in zip(kinds, seen, other)], dtype=bool).reshape(seen.shape)


def marked(guess):
    """`guess` with every row kept and NaN covariances: a row of it that
    an update uses shows."""
    return Posterior(guess.info, guess.use, np.ones_like(guess.kept),
                     np.full_like(guess.covs, np.nan))


@settings(max_examples=300, deadline=None)
@given(ekf_frames(), st.data())
def test_update_with_a_prepared_guess_matches_update_without(frame, data):
    # the update's covariance half made before the measurements, for any
    # guess of each target's cameras, gives the bits of the update made
    # from nothing; a guess of other terms (the same priors' made again,
    # last frame's, a copy's or another observation model's) is not used
    pm, om, states, observations = frame
    priors = predict(Targets.of(states), pm)
    seen, px = observation_arrays(observations, om)
    info = Information.of(priors, om)
    want, want_dropped = update(info, (seen, px))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kinds = data.draw(st.lists(st.sampled_from(GUESSES), min_size=len(states),
                               max_size=len(states)))
    cameras = guessed_cameras(kinds, seen, rng.random(seen.shape) < 0.5) & info.ok
    got, got_dropped = update(info, (seen, px), posterior(info, cameras))
    assert got_dropped == want_dropped
    assert_same_stack(got, want)
    others = [Information.of(priors, om),
              Information.of(predict(priors, pm), om),  # last frame's
              Information.of(priors.take(slice(None)), om),  # a copy's
              Information.of(priors, ObservationModel(om.cameras, om.r_px * 2))]
    for other in others:
        stale = marked(posterior(other, seen & other.ok))
        got, got_dropped = update(info, (seen, px), stale)
        assert got_dropped == want_dropped
        assert_same_stack(got, want)
    # a right guess is the update's covariance half: nothing is made again
    right = posterior(info, seen & info.ok)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tracker, "posterior", None)
        got, got_dropped = update(info, (seen, px), right)
    assert got_dropped == want_dropped
    assert_same_stack(got, want)


@settings(max_examples=200, deadline=None)
@given(ekf_frames(), st.data())
def test_update_uses_no_row_of_a_guess_wrong_for_any_one_target(frame, data):
    # a guess is taken whole or not at all: with every row of it marked, a
    # guess right for all targets but one changes no bit of the update
    pm, om, states, observations = frame
    info = Information.of(predict(Targets.of(states), pm), om)
    seen, px = observation_arrays(observations, om)
    want, want_dropped = update(info, (seen, px))
    cameras = seen & info.ok
    if len(states):
        wrong = data.draw(st.integers(0, len(states) - 1))
        cameras[wrong, data.draw(st.integers(0, len(om.cameras) - 1))] ^= True
    got, got_dropped = update(info, (seen, px), marked(posterior(info, cameras)))
    assert got_dropped == want_dropped
    assert_same_stack(got, want)


@settings(max_examples=200, deadline=None)
@given(ekf_frames(), st.sampled_from(["prior", "singular", "not finite"]))
def test_information_position_terms_match_the_one_target_reference(frame, first):
    # the pair table's per-target terms, made over the stack, have the
    # bits of np.linalg.cond and np.linalg.inv of each position covariance
    pm, om, states, _ = frame
    priors = predict(Targets.of(states), pm)
    covs = priors.covs.copy()
    if len(covs) and first != "prior":
        covs[0, 2, :] = covs[0, :, 2] = 0.0 if first == "singular" else np.nan
    info = Information.of(Targets(priors.ids, priors.means, covs, priors.missed,
                                  priors.born_at), om)
    for ok, s_inv, c in zip(info.cov_ok.tolist(), info.s_inv, covs[:, :3, :3]):
        want_ok = bool(np.isfinite(c).all()) and bool(np.linalg.cond(c) <= 1e12)
        assert ok == want_ok
        assert s_inv.tobytes() == (np.linalg.inv(c) if want_ok else np.zeros((3, 3))).tobytes()


@settings(max_examples=1000, deadline=None)
@given(ekf_frames())
def test_kept_posterior_covariance_is_symmetric_and_psd_up_to_roundoff(frame):
    # a kept covariance is a symmetrized Gram product (R V) D (R V)^T and
    # nothing clamps it: it mirrors bit for bit, and no eigenvalue is below
    # -8 eps max|P+|
    pm, om, states, observations = frame
    info = Information.of(predict(Targets.of(states), pm), om)
    seen, _ = observation_arrays(observations, om)
    post = posterior(info, seen & info.ok)
    for P in post.covs[post.kept]:
        assert P.tobytes() == P.T.tobytes()
        assert np.linalg.eigvalsh(P)[0] >= -8 * EPS * np.abs(P).max()


@settings(max_examples=200, deadline=None)
@given(ekf_frames())
def test_update_of_a_target_alone_equals_the_same_target_in_a_stack(frame):
    pm, om, states, observations = frame
    priors = predict(Targets.of(states), pm)
    seen, px = observation_arrays(observations, om)
    info = Information.of(priors, om)
    stacked = posterior(info, seen & info.ok)
    posteriors, dropped = update(info, (seen, px))
    for i in range(len(priors)):
        one_info = Information.of(priors.take([i]), om)
        for name in ("ok", "h", "C", "A", "root", "cov_ok", "s_inv"):
            assert getattr(one_info, name).tobytes() == getattr(info, name)[i:i + 1].tobytes()
        one = posterior(one_info, seen[i:i + 1] & one_info.ok)
        assert one.kept.tolist() == stacked.kept[i:i + 1].tolist()
        assert one.covs.tobytes() == stacked.covs[i:i + 1].tobytes()
        got, got_dropped = update(one_info, (seen[i:i + 1], px[i:i + 1]))
        assert_same_stack(got, posteriors.take([i]))
        assert got_dropped == [d for d in dropped if d == priors.ids[i]]


@pytest.mark.parametrize("n_cams", [1, 2, 3])
@pytest.mark.parametrize("prior", ["zero z rows", "rank 3"])
def test_update_of_a_singular_prior_without_process_noise_matches_oracle(n_cams, prior):
    # no process noise keeps a singular covariance singular through
    # predict; the information form never inverts it, and drops and
    # updates as the gain form does
    cams = ring_of_cameras(4)
    pm = ProcessModel(dt=0.01, q_pos=0.0, q_vel=0.0)
    X = np.array([0.05, -0.02, 0.3])
    if prior == "zero z rows":  # z and vz known exactly
        cov = np.diag([1e-4, 4e-4, 0.0, 0.25, 0.09, 0.0])
    else:
        L = np.random.default_rng(61).normal(size=(6, 3)) * 0.01
        cov = L @ L.T
    states = [state(np.append(X, [0.1, 0, 0]), cov, tid=0),
              state(np.append(X + 0.01, [0, 0.1, 0]), cov * 1e-6, tid=1)]
    priors = [predict_one(s, pm) for s in states]
    assert np.linalg.matrix_rank(priors[0].cov) < 6
    obs = [[(c, np.add(project(c, s.mean[:3]), (0.5, -0.3))) for c in cams[:n_cams]]
           for s in priors]
    for r_px in (1.0, 1e-12):
        om = ObservationModel(cameras=cams, r_px=r_px)
        got, dropped = update_states(priors, obs, om)
        want, want_dropped = oracle_update(priors, obs, om)
        assert dropped == want_dropped
        for g, w, p, o in zip(got, want, priors, obs):
            assert_within_oracle_rounding(g, w, p, o, om)
            assert np.isfinite(g.cov).all()


def test_update_singular_rule_at_condition_limit_matches_oracle():
    # r_px just below the limit drops the update, just above keeps it, and
    # in a frame that mixes both targets the frame-level call agrees
    cams = ring_of_cameras(4)
    pm = ProcessModel(dt=0.01)
    X = np.array([0.05, -0.02, 0.3])
    prior = predict_one(state(np.append(X, [0.1, 0, 0]), np.diag([1e-2] * 3 + [1.0] * 3)), pm)
    obs = [(c, project(c, X)) for c in cams[:3]]
    r_limit = condition_limit_r_px(prior, obs)
    far = state(np.append(X, [0, 0, 0]), np.eye(6) * 1e-3, tid=1)
    decisions = []
    for factor in (0.999, 1.001):
        om = ObservationModel(cameras=cams, r_px=r_limit * factor)
        frame = ([prior, far, prior], [obs, obs[:1], []])
        got = update_states(*frame, om)
        want = oracle_update(*frame, om)
        assert got[1] == want[1]
        for g, w, p, o in zip(got[0], want[0], *frame):
            assert_within_oracle_rounding(g, w, p, o, om)
        decisions.append(got[1])
    assert decisions == [[prior.target_id], []]

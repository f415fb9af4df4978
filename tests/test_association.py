import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camtrack3d.association import (
    AssignmentMatrix,
    GateConfig,
    LikelihoodCounters,
    SingularCovariance,
    SpawnStats,
    assign,
    cull_targets,
    feature_likelihood,
    gate_claimed_features,
    mahalanobis_closest_point,
    pair_likelihoods,
    pair_table,
    resolve_shared,
    spawn_targets,
)
from camtrack3d.geometry import BehindCamera, PointAtInfinity, Ray3, project, triangulate
from camtrack3d.tracker import ProcessModel, TargetState, predict
from helpers import (
    bruteforce_assignment,
    feature_rows,
    gate_claimed_features_oracle,
    look_at_camera,
    make_feature,
    ring_of_cameras,
    table_of,
    unclaimed_rows,
)


def target_at(pos, tid=0, sigma=0.02):
    mean = np.append(np.asarray(pos, dtype=float), [0.0, 0.0, 0.0])
    cov = np.diag([sigma**2] * 3 + [0.25] * 3)
    return TargetState(target_id=tid, mean=mean, cov=cov)


# --------------------------------------------------- mahalanobis closest point

def test_mahalanobis_identity_is_euclidean_foot():
    ray = Ray3(origin=np.zeros(3), direction=np.array([1.0, 0.0, 0.0]))
    point, d = mahalanobis_closest_point(ray, [2.0, 3.0, 0.0], np.eye(3))
    assert np.allclose(point, [2.0, 0.0, 0.0])
    assert d == pytest.approx(3.0)


def test_mahalanobis_zero_on_ray():
    ray = Ray3(origin=np.array([1.0, 1.0, 1.0]), direction=np.array([0.0, 0.0, 1.0]))
    _, d = mahalanobis_closest_point(ray, [1.0, 1.0, 4.0], np.diag([1, 2, 3.0]))
    assert d == pytest.approx(0.0, abs=1e-12)


def test_mahalanobis_matches_grid_search_oracle():
    rng = np.random.default_rng(61)
    cov = np.diag([1.0, 1.0, 100.0])
    for _ in range(20):
        origin = rng.uniform(-1, 1, size=3)
        direction = rng.normal(size=3)
        ray = Ray3(origin=origin, direction=direction)
        center = rng.uniform(-2, 2, size=3)
        point, d = mahalanobis_closest_point(ray, center, cov)
        s_grid = np.arange(-20.0, 20.0, 1e-4)
        pts = ray.origin[None, :] + s_grid[:, None] * ray.direction[None, :]
        diff = pts - center
        d2 = np.einsum("ij,ij->i", diff @ np.linalg.inv(cov), diff)
        best = math.sqrt(d2.min())
        assert d == pytest.approx(best, abs=1e-3)


def test_mahalanobis_singular_covariance():
    ray = Ray3(origin=np.zeros(3), direction=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(SingularCovariance):
        mahalanobis_closest_point(ray, np.zeros(3), np.diag([1.0, 1.0, 0.0]))


# ------------------------------------------------------------------ likelihood

def test_likelihood_far_feature_skips_mahalanobis():
    cams = ring_of_cameras(3)
    gate = GateConfig(dist2d_threshold=50.0)
    t = target_at([0.0, 0.0, 0.3])
    u, v = project(cams[0], t.position)
    z = make_feature(u + 500.0, v)
    counters = LikelihoodCounters()
    assert feature_likelihood(z, t, cams[0], gate, counters) == 0.0
    assert counters.dist2d_evals == 1
    assert counters.mahalanobis_evals == 0


def test_likelihood_area_gate_is_strict():
    cams = ring_of_cameras(3)
    gate = GateConfig(area_threshold=7.0)
    t = target_at([0.0, 0.0, 0.3])
    u, v = project(cams[0], t.position)
    z = make_feature(u, v, area=7.0)  # alpha == threshold fails '>' test
    counters = LikelihoodCounters()
    assert feature_likelihood(z, t, cams[0], gate, counters) == 0.0
    assert counters.mahalanobis_evals == 0
    z_ok = make_feature(u, v, area=7.0001)
    assert feature_likelihood(z_ok, t, cams[0], gate) > 0.0


def test_likelihood_on_ray_is_one():
    cams = ring_of_cameras(3)
    gate = GateConfig()
    t = target_at([0.01, -0.02, 0.31])
    u, v = project(cams[1], t.position)
    z = make_feature(u, v)
    assert feature_likelihood(z, t, cams[1], gate) == pytest.approx(1.0, abs=1e-9)


def test_mahalanobis_nonfinite_center_is_gated_out():
    ray = Ray3(origin=np.zeros(3), direction=[0.0, 0.0, 1.0])
    _, d = mahalanobis_closest_point(ray, [np.nan, 0.0, 1.0], np.eye(3))
    assert d == math.inf


# ------------------------------------------------------------------ pair table

GATE = GateConfig()


@st.composite
def association_frames(draw):
    """A random rig, targets and features. Targets may sit behind a camera
    or carry a covariance with condition above 1e12; features include
    zero-area blobs and blobs at the image and ray-distance gate edges."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cams = []
    for k in range(draw(st.integers(1, 4))):
        direction = rng.normal(size=3)
        position = rng.uniform(1.2, 3.0) * direction / np.linalg.norm(direction)
        cams.append(look_at_camera(position, rng.uniform(-0.2, 0.2, size=3),
                                   cam_id=f"c{k}", focal=rng.uniform(400, 1200)))
    targets = []
    for tid in range(draw(st.integers(0, 3))):
        if draw(st.sampled_from(["front", "front", "behind"])) == "behind":
            cam = cams[int(rng.integers(len(cams)))]
            pos = cam.center + 0.3 * (cam.center - rng.uniform(-0.2, 0.2, size=3))
        else:
            pos = rng.uniform(-0.4, 0.4, size=3)
        sigma = rng.uniform(2e-3, 5e-2)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        spread = draw(st.sampled_from(["round", "elongated", "singular"]))
        scale = {"round": [1.0, 1.0, 1.0],
                 "elongated": 10.0 ** rng.uniform(0, 2, size=3),
                 "singular": [1.0, 1.0, 1e-14]}[spread]
        cov = np.eye(6) * 0.25
        cov[:3, :3] = (q * (sigma**2 * np.asarray(scale))) @ q.T
        cov[:3, :3] = 0.5 * (cov[:3, :3] + cov[:3, :3].T)
        targets.append(TargetState(target_id=tid, mean=np.append(pos, [0, 0, 0]),
                                   cov=cov))
    feats = {}
    for cam in cams:
        lst = []
        for _ in range(draw(st.integers(0, 5))):
            kind = draw(st.sampled_from(["near", "image_edge", "ray_edge", "anywhere"]))
            area = draw(st.sampled_from([0.0, GATE.area_threshold, 20.0]))
            anchor = targets[int(rng.integers(len(targets)))] if targets else None
            u, v = rng.uniform(0, 640), rng.uniform(0, 480)
            if anchor is not None and kind != "anywhere":
                point = anchor.position
                if kind == "ray_edge":
                    # a point about the gate's Mahalanobis distance away
                    e = rng.normal(size=3)
                    m = GATE.mahalanobis_gate * rng.uniform(0.97, 1.03)
                    w, vecs = np.linalg.eigh(anchor.cov[:3, :3])
                    point = point + vecs @ (np.sqrt(np.abs(w)) * m * e / np.linalg.norm(e))
                try:
                    u, v = project(cam, point)
                except (BehindCamera, PointAtInfinity):
                    pass
                if kind == "image_edge":
                    r = GATE.dist2d_threshold * (1 + rng.choice([-1e-9, 1e-9]))
                elif kind == "near":
                    r = rng.uniform(0, 40) * rng.choice([0.05, 1.0])
                else:
                    r = 0.0
                a = rng.uniform(0, 2 * math.pi)
                u, v = u + r * math.cos(a), v + r * math.sin(a)
            lst.append(make_feature(u, v, area=area))
        feats[cam.cam_id] = lst
    return cams, targets, feats


@settings(max_examples=300, deadline=None)
@given(association_frames())
def test_pair_table_matches_scalar_likelihood(frame):
    cams, targets, feats = frame
    table = pair_table(feature_rows(feats), targets, cams)
    kernel_counts, scalar_counts = LikelihoodCounters(), LikelihoodCounters()
    likelihood = pair_likelihoods(table, GATE, kernel_counts)
    for i, t in enumerate(targets):
        for cam in sorted(cams, key=lambda c: c.cam_id):
            for j, z in enumerate(feats[cam.cam_id]):
                p = feature_likelihood(z, t, cam, GATE, scalar_counts)
                q = likelihood[i, table.slices[cam.cam_id].start + j]
                assert (q > 0) == (p > 0), (i, cam.cam_id, j, p, q)
                assert q == pytest.approx(p, rel=1e-12, abs=0.0)
    assert kernel_counts == scalar_counts
    assert (gate_claimed_features(table, GATE)
            == gate_claimed_features_oracle(feats, targets, cams, GATE))


def test_pair_table_empty_frame():
    cams = ring_of_cameras(2)
    table = pair_table({}, [target_at([0.0, 0.0, 0.3])], cams)
    assert table.dist2d.shape == (1, 0)
    am = assign(pair_table({}, [target_at([0.0, 0.0, 0.3])], cams), GATE)
    assert am.columns == {0: (None, None)}
    assert gate_claimed_features(pair_table({}, [], cams), GATE) == set()


# ---------------------------------------------------------------------- assign

def test_assign_single_in_gate_feature():
    cams = ring_of_cameras(3)
    gate = GateConfig()
    t = target_at([0.0, 0.0, 0.3])
    feats = {c.cam_id: [make_feature(*project(c, t.position))] for c in cams}
    am = assign(table_of(feats, [t], cams), gate)
    assert am.columns[t.target_id] == (0, 0, 0)


def test_assign_smaller_ray_distance_wins():
    cams = ring_of_cameras(3)
    cam = cams[0]
    gate = GateConfig(dist2d_threshold=100.0)
    t = target_at([0.0, 0.0, 0.3], sigma=0.05)
    u, v = project(cam, t.position)
    z_far = make_feature(u + 8.0, v)   # in gate, off the ray
    z_near = make_feature(u, v)        # on the ray
    feats = {cam.cam_id: [z_far, z_near]}
    am = assign(table_of(feats, [t], [cam]), gate)
    assert am.columns[t.target_id] == (1,)
    # exhaustive check: the chosen feature has the max likelihood
    ps = [feature_likelihood(z, t, cam, gate) for z in feats[cam.cam_id]]
    assert ps[1] == max(ps) and ps[1] > ps[0]


def test_assign_all_out_of_gate_gives_null_column():
    cams = ring_of_cameras(3)
    gate = GateConfig(dist2d_threshold=10.0)
    t = target_at([0.0, 0.0, 0.3])
    feats = {c.cam_id: [make_feature(*(np.array(project(c, t.position)) + 200.0))]
             for c in cams}
    am = assign(table_of(feats, [t], cams), gate)
    assert am.columns[t.target_id] == (None, None, None)


def test_assign_gating_monotonicity():
    # enlarging the 2D gate can only add candidates, never remove them
    rng = np.random.default_rng(67)
    cams = ring_of_cameras(3)
    t = target_at([0.0, 0.0, 0.3], sigma=0.05)
    feats = {}
    for c in cams:
        u, v = project(c, t.position)
        feats[c.cam_id] = [make_feature(u + rng.uniform(-20, 20),
                                        v + rng.uniform(-20, 20))
                           for _ in range(3)]
    small = assign(table_of(feats, [t], cams), GateConfig(dist2d_threshold=15.0))
    large = assign(table_of(feats, [t], cams), GateConfig(dist2d_threshold=60.0))
    for cam_idx, idx in enumerate(small.columns[t.target_id]):
        if idx is not None:
            assert large.columns[t.target_id][cam_idx] is not None


def test_assign_matches_bruteforce_small_instances():
    rng = np.random.default_rng(71)
    cams = ring_of_cameras(3)
    gate = GateConfig()
    agree = 0
    for _ in range(30):
        t1 = target_at(rng.uniform([-0.2, -0.2, 0.15], [0.0, 0.0, 0.3]), tid=0)
        t2 = target_at(rng.uniform([0.05, 0.05, 0.35], [0.2, 0.2, 0.5]), tid=1)
        feats = {}
        for c in cams:
            lst = []
            for t in (t1, t2):
                u, v = project(c, t.position)
                lst.append(make_feature(u + rng.normal(0, 2), v + rng.normal(0, 2)))
            if rng.random() < 0.5:
                lst.append(make_feature(rng.uniform(0, 640), rng.uniform(0, 480)))
            feats[c.cam_id] = lst
        am = assign(table_of(feats, [t1, t2], cams), gate)
        oracle = bruteforce_assignment(feats, [t1, t2], cams, gate)
        if am.columns == oracle:
            agree += 1
    assert agree == 30


# -------------------------------------------------------------- resolve_shared

def test_resolve_shared_closest_prediction_keeps_data():
    cams = ring_of_cameras(2)
    gate = GateConfig(dist2d_threshold=100.0)
    near = target_at([0.0, 0.0, 0.3], tid=0)
    far = target_at([0.0, 0.0, 0.3], tid=1)
    # shift the far target slightly so its prediction is ~10 px away
    far = TargetState(target_id=1, mean=far.mean + np.array([0.01, 0.01, 0, 0, 0, 0]),
                      cov=far.cov)
    feats = {c.cam_id: [make_feature(*project(c, near.position))] for c in cams}
    am = assign(table_of(feats, [near, far], cams), gate)
    assert am.columns[0] == am.columns[1] == (0, 0)
    resolved = resolve_shared(am, table_of(feats, [near, far], cams))
    assert resolved.columns[0] == (0, 0)
    assert resolved.columns[1] == (None, None)


def test_resolve_shared_different_columns_untouched():
    cams = ring_of_cameras(2)
    am = AssignmentMatrix(camera_ids=tuple(c.cam_id for c in cams),
                          columns={0: (0, 1), 1: (1, 0)})
    feats = {c.cam_id: [make_feature(10, 10), make_feature(20, 20)] for c in cams}
    t0, t1 = target_at([0, 0, 0.3], 0), target_at([0.1, 0, 0.3], 1)
    resolved = resolve_shared(am, table_of(feats, [t0, t1], cams))
    assert resolved.columns == am.columns


def test_resolve_shared_only_equal_subset_groups():
    cams = ring_of_cameras(2)
    shared = (0, 0)
    distinct = (1, None)
    t0 = target_at([0.0, 0.0, 0.3], 0)
    t1 = target_at([0.02, 0.0, 0.3], 1)
    t2 = target_at([0.0, 0.15, 0.4], 2)
    feats = {c.cam_id: [make_feature(*project(c, t0.position)),
                        make_feature(*project(c, t2.position))]
             for c in cams}
    am = AssignmentMatrix(camera_ids=tuple(c.cam_id for c in cams),
                          columns={0: shared, 1: shared, 2: distinct})
    resolved = resolve_shared(am, table_of(feats, [t0, t1, t2], cams))
    assert resolved.columns[2] == distinct  # untouched
    nulled = sum(1 for tid in (0, 1)
                 if resolved.columns[tid] == (None, None))
    assert nulled == 1
    assert resolved.columns[0] == shared  # t0 predicts closer


def test_resolve_shared_no_identical_nonnull_subsets_property():
    rng = np.random.default_rng(73)
    cams = ring_of_cameras(3)
    gate = GateConfig(dist2d_threshold=80.0)
    for _ in range(20):
        targets = [target_at(rng.uniform([-0.1, -0.1, 0.2], [0.1, 0.1, 0.4]), tid=i)
                   for i in range(3)]
        feats = {}
        for c in cams:
            feats[c.cam_id] = [make_feature(*(np.array(project(c, t.position))
                                              + rng.normal(0, 3, size=2)))
                               for t in targets[:2]]
        table = table_of(feats, targets, cams)
        am = resolve_shared(assign(table, gate), table)
        nonnull = [col for col in am.columns.values()
                   if any(i is not None for i in col)]
        assert len(nonnull) == len(set(nonnull))


# --------------------------------------------------------------- spawn_targets

def test_spawn_from_consistent_triple():
    cams = ring_of_cameras(3)
    gate = GateConfig()
    X = np.array([0.05, -0.03, 0.35])
    unclaimed = {c.cam_id: [(0, make_feature(*project(c, X)))] for c in cams}
    born, used = spawn_targets(unclaimed_rows(unclaimed), set(), cams, gate,
                               frame_number=12, next_id=5)
    assert len(born) == 1
    t = born[0]
    assert t.target_id == 5 and t.born_at == 12
    assert np.linalg.norm(t.position - X) < 1e-9
    assert np.array_equal(t.velocity, np.zeros(3))
    assert np.array_equal(np.diag(t.cov),
                          [gate.sigma_birth**2] * 3 + [gate.sigma_vbirth**2] * 3)
    assert used == {(c.cam_id, 0) for c in cams}


def test_spawn_enumerates_all_camera_combinations():
    # 3 cameras with mutually inconsistent clutter: C(3,2)+C(3,3) == 4
    # combinations are enumerated in the single pass and nothing spawns
    cams = ring_of_cameras(3)
    gate = GateConfig()
    rng = np.random.default_rng(79)
    unclaimed = {c.cam_id: [(0, make_feature(rng.uniform(0, 640), rng.uniform(0, 480)))]
                 for c in cams}
    # verify the clutter really is inconsistent for every combination
    import itertools
    for size in (2, 3):
        for combo in itertools.combinations(cams, size):
            views = [(c, (unclaimed[c.cam_id][0][1].u, unclaimed[c.cam_id][0][1].v))
                     for c in combo]
            try:
                _, err = triangulate(views)
            except Exception:
                continue
            assert err >= gate.birth_reprojection_threshold
    stats = SpawnStats()
    born, used = spawn_targets(unclaimed_rows(unclaimed), set(), cams, gate, 0, 0, stats)
    assert born == [] and used == set()
    assert stats.passes == 1
    assert stats.camera_combinations == 4


def test_spawn_prefers_maximal_camera_count():
    cams = ring_of_cameras(4)
    gate = GateConfig()
    X = np.array([0.0, 0.05, 0.3])
    unclaimed = {c.cam_id: [(0, make_feature(*project(c, X)))] for c in cams}
    born, used = spawn_targets(unclaimed_rows(unclaimed), set(), cams, gate, 0, 0)
    assert len(born) == 1
    assert len(used) == 4  # all four cameras participate


def exhaustive_spawn_oracle(unclaimed, cams, gate):
    """Reference birth search: enumerate every feature tuple of every
    camera combination without pruning, accept on reprojection error and
    camera-coverage support, select by (max cameras, min error,
    lexicographic choice), extract greedily."""
    import itertools

    from camtrack3d.geometry import BehindCamera, DegenerateGeometry, PointAtInfinity

    cams = sorted(cams, key=lambda c: c.cam_id)
    pool = {c.cam_id: list(unclaimed.get(c.cam_id, ())) for c in cams}

    def viewing(point):
        n = 0
        for cam in cams:
            try:
                u, v = project(cam, point)
            except (BehindCamera, PointAtInfinity):
                continue
            w, h = cam.image_size
            if 0 <= u <= w and 0 <= v <= h:
                n += 1
        return n

    positions = []
    while True:
        candidates = []
        for size in range(len(cams), 1, -1):
            for combo in itertools.combinations(cams, size):
                lists = [pool[c.cam_id] for c in combo]
                for choice in itertools.product(*lists):
                    views = [(c, (z.u, z.v)) for c, (_, z) in zip(combo, choice)]
                    try:
                        point, err = triangulate(views)
                    except DegenerateGeometry:
                        continue
                    if err >= gate.birth_reprojection_threshold:
                        continue
                    if size < viewing(point) - gate.birth_miss_tolerance:
                        continue
                    key = (-size, err,
                           tuple((c.cam_id, i) for c, (i, _) in zip(combo, choice)))
                    candidates.append((key, point))
        if not candidates:
            return positions
        key, point = min(candidates, key=lambda c: c[0])
        positions.append(point)
        for cam_id, i in key[2]:
            pool[cam_id] = [(j, z) for j, z in pool[cam_id] if j != i]


def test_spawn_matches_exhaustive_oracle():
    # the pruned search must spawn exactly what the unpruned oracle spawns,
    # so no spawned target can exceed the reprojection threshold and the
    # maximal acceptable camera set always wins
    rng = np.random.default_rng(83)
    cams = ring_of_cameras(4)
    gate = GateConfig()
    for _ in range(10):
        X = rng.uniform([-0.2, -0.2, 0.15], [0.2, 0.2, 0.45])
        unclaimed = {}
        for c in cams:
            u, v = project(c, X)
            lst = [(0, make_feature(u + rng.normal(0, 0.5), v + rng.normal(0, 0.5)))]
            if rng.random() < 0.5:
                lst.append((1, make_feature(rng.uniform(0, 640), rng.uniform(0, 480))))
            unclaimed[c.cam_id] = lst
        born, used = spawn_targets(unclaimed_rows(unclaimed), set(), cams, gate, 0, 0)
        oracle = exhaustive_spawn_oracle(unclaimed, cams, gate)
        assert len(born) == len(oracle)
        for t, pos in zip(born, oracle):
            assert np.allclose(t.position, pos)


def test_spawn_needs_min_cameras():
    cams = ring_of_cameras(3)
    gate = GateConfig()
    X = np.array([0.0, 0.0, 0.3])
    unclaimed = {cams[0].cam_id: [(0, make_feature(*project(cams[0], X)))]}
    born, used = spawn_targets(unclaimed_rows(unclaimed), set(), cams, gate, 0, 0)
    assert born == []


# ---------------------------------------------------------------- cull_targets

def test_cull_keeps_fresh_birth():
    gate = GateConfig()
    t = target_at([0, 0, 0.3], sigma=gate.sigma_birth)
    kept, removed = cull_targets([t], gate)
    assert kept == [t] and removed == []


def test_cull_crossing_frame_matches_recursion_oracle():
    gate = GateConfig(death_covariance_threshold=0.004)
    pm = ProcessModel(dt=1.0 / 100.0)
    t = target_at([0, 0, 0.3], sigma=0.01)
    # closed-form oracle: iterate A P A^T + Q until the position block's
    # largest eigenvalue exceeds the threshold
    P = t.cov.copy()
    k_oracle = 0
    while True:
        k_oracle += 1
        raw = pm.A @ P @ pm.A.T + pm.Q
        P = 0.5 * (raw + raw.T)
        if np.linalg.eigvalsh(P[:3, :3])[-1] > gate.death_covariance_threshold:
            break
        assert k_oracle < 10_000
    s = t
    for k in range(1, k_oracle + 1):
        s = predict(s, pm)
        kept, removed = cull_targets([s], gate)
        if k < k_oracle:
            assert removed == []
        else:
            assert removed == [s]


def test_cull_infinite_threshold_removes_nothing():
    gate = GateConfig(death_covariance_threshold=math.inf)
    t = target_at([0, 0, 0.3], sigma=100.0)
    kept, removed = cull_targets([t], gate)
    assert removed == []

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camtrack3d.features import BackgroundModel, Feature, Frame, extract_features
from camtrack3d.geometry import BehindCamera, CameraModel, PointAtInfinity, project
from camtrack3d.simharness import (
    PRESETS,
    InfeasibleSpec,
    TruthTrajectory,
    generate_rig,
    preset,
    read_truth_csv,
    render_frame,
    simulate_truth,
    synthesize_observations,
    visible,
    write_truth_csv,
)
from helpers import (
    render_frame_oracle,
    simulate_truth_oracle,
    synthesize_observations_oracle,
)


# ------------------------------------------------------------------------- rig

def test_smalltunnel_preset():
    spec = PRESETS["smalltunnel"]
    assert spec.n_cameras == 5
    assert sorted(spec.arena) == [0.3, 0.3, 1.5]
    assert spec.fps == 100.0
    cams = generate_rig(spec)
    assert len(cams) == 5


def test_bigcyl_preset():
    spec = PRESETS["bigcyl"]
    assert spec.n_cameras == 11
    assert spec.arena == (2.0, 2.0, 0.8)
    assert spec.fps == 60.0
    assert len(generate_rig(spec)) == 11


def test_single_camera_infeasible():
    with pytest.raises(InfeasibleSpec):
        generate_rig(preset("smalltunnel", n_cameras=1))


def test_rig_covers_arena_with_two_cameras():
    spec = PRESETS["smalltunnel"]
    cams = generate_rig(spec)
    rng = np.random.default_rng(1)
    lo, hi = spec.bounds
    for _ in range(50):
        point = rng.uniform(lo, hi)
        assert sum(1 for c in cams if visible(c, point)) >= 2


def test_rig_writes_calibration(tmp_path):
    from camtrack3d.geometry import load_calibration

    path = tmp_path / "rig.cal"
    cams = generate_rig(PRESETS["smalltunnel"], calibration_path=path)
    loaded = load_calibration(path)
    assert [c.cam_id for c in loaded] == [c.cam_id for c in cams]
    assert all((a.projection == b.projection).all() for a, b in zip(cams, loaded))


# ----------------------------------------------------------------------- truth

def test_truth_zero_noise_is_straight_line():
    spec = preset("smalltunnel", seed=3)
    truths = simulate_truth(spec, 1, 50, maneuver_sigma=0.0, speed=0.05)
    tr = truths[0]
    v0 = tr.velocities[0]
    assert np.allclose(tr.velocities, v0)  # no boundary hit at this speed
    steps = np.diff(tr.positions, axis=0)
    assert np.allclose(steps, v0 * spec.dt)


def test_truth_crossing_scenario_gets_close():
    spec = preset("bigcyl", seed=5)
    truths = simulate_truth(spec, 3, 600, crossing=True)
    min_d = np.inf
    for t in range(600):
        ps = [tr.position(t) for tr in truths]
        for i in range(3):
            for j in range(i + 1, 3):
                min_d = min(min_d, float(np.linalg.norm(ps[i] - ps[j])))
    assert min_d < 0.05


def test_truth_same_seed_identical():
    spec = preset("smalltunnel", seed=11)
    a = simulate_truth(spec, 2, 100, maneuver_sigma=0.02)
    b = simulate_truth(spec, 2, 100, maneuver_sigma=0.02)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.positions, tb.positions)
        assert np.array_equal(ta.velocities, tb.velocities)


def test_truth_stays_in_arena():
    spec = preset("smalltunnel", seed=13)
    truths = simulate_truth(spec, 3, 2000, maneuver_sigma=0.02, speed=0.3)
    lo, hi = spec.bounds
    for tr in truths:
        assert np.all(tr.positions >= lo - 1e-9)
        assert np.all(tr.positions <= hi + 1e-9)


def test_truth_csv_round_trip(tmp_path):
    spec = preset("smalltunnel", seed=17)
    truths = simulate_truth(spec, 2, 30, maneuver_sigma=0.01)
    path = tmp_path / "truth.csv"
    write_truth_csv(path, truths)
    loaded = read_truth_csv(path)
    assert len(loaded) == 2
    for a, b in zip(truths, loaded):
        assert a.target_id == b.target_id and a.birth == b.birth
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)


@settings(max_examples=80, deadline=None)
@given(name=st.sampled_from(sorted(PRESETS)),
       n_targets=st.integers(0, 4),
       n_frames=st.integers(0, 120),
       maneuver_sigma=st.sampled_from([0.0, 0.01, 0.3]),
       speed=st.sampled_from([0.0, 0.15, 4.0]),
       crossing=st.booleans(),
       margin=st.sampled_from([0.0, 0.08]),
       seed=st.integers(0, 2**16))
@example(name="smalltunnel", n_targets=3, n_frames=120, maneuver_sigma=0.0, speed=4.0,
         crossing=False, margin=0.08, seed=3)
@example(name="birdroom", n_targets=2, n_frames=0, maneuver_sigma=0.3, speed=0.15,
         crossing=False, margin=0.08, seed=4)
@example(name="bigcyl", n_targets=3, n_frames=1, maneuver_sigma=0.01, speed=0.15,
         crossing=True, margin=0.08, seed=5)
def test_truth_matches_vector_oracle(name, n_targets, n_frames, maneuver_sigma, speed,
                                     crossing, margin, seed):
    spec = preset(name, seed=seed)
    kw = dict(maneuver_sigma=maneuver_sigma, speed=speed, crossing=crossing,
              margin=margin)
    rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    got = simulate_truth(spec, n_targets, n_frames, rng=rng, **kw)
    want = simulate_truth_oracle(spec, n_targets, n_frames, rng=rng_oracle, **kw)
    assert len(got) == len(want) == n_targets
    for a, b in zip(got, want):
        assert (a.target_id, a.birth) == (b.target_id, b.birth)
        assert a.positions.shape == b.positions.shape == (n_frames, 3)
        assert a.positions.tobytes() == b.positions.tobytes()
        assert a.velocities.tobytes() == b.velocities.tobytes()
    # the same number of draws: a shared generator continues identically
    assert rng.bit_generator.state == rng_oracle.bit_generator.state
    # and the seeded default generator gives the same trajectories
    default = simulate_truth(spec, n_targets, n_frames, **kw)
    assert [t.positions.tobytes() for t in default] \
        == [t.positions.tobytes() for t in simulate_truth_oracle(spec, n_targets,
                                                                 n_frames, **kw)]


def test_fast_truth_reflects_off_the_walls():
    # the first explicit example of the oracle property bounces off walls
    spec = preset("smalltunnel", seed=3)
    truths = simulate_truth(spec, 3, 120, speed=4.0)
    flips = sum(int(np.sum(np.diff(np.sign(tr.velocities), axis=0) != 0))
                for tr in truths)
    assert flips > 20


# ---------------------------------------------------------------- observations

def test_noiseless_channel_hits_projection():
    spec = preset("smalltunnel", seed=19, pixel_noise=0.0, clutter_rate=0.0,
                  detection_prob=1.0)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, 1, 20, maneuver_sigma=0.0, speed=0.05)
    frames = synthesize_observations(truths, cams, spec)
    assert len(frames) == 20
    for t, per_cam in enumerate(frames):
        assert len(per_cam) == spec.n_cameras
        for pkt in per_cam:
            cam = next(c for c in cams if c.cam_id == pkt.cam_id)
            expected = project(cam, truths[0].position(t))
            assert pkt.features.shape[0] == 1
            assert np.allclose(pkt.features[0, :2], expected, atol=1e-12)


def test_occlusion_window_blanks_cameras():
    spec = preset("smalltunnel", seed=23, pixel_noise=0.0)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, 1, 10, maneuver_sigma=0.0, speed=0.02)
    keep = cams[0].cam_id
    blank = [c.cam_id for c in cams if c.cam_id != keep]
    frames = synthesize_observations(truths, cams, spec,
                                     occlusions=[(4, 6, blank)])
    for t, per_cam in enumerate(frames):
        for pkt in per_cam:
            if 4 <= t < 6 and pkt.cam_id != keep:
                assert pkt.features.shape[0] == 0
            elif pkt.cam_id == keep:
                assert pkt.features.shape[0] == 1


def test_clutter_rate_statistics():
    spec = preset("smalltunnel", seed=29, clutter_rate=2.0, detection_prob=0.0)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, 0, 1000)
    frames = synthesize_observations(truths, cams, spec, n_frames=1000)
    counts = [pkt.features.shape[0] for per_cam in frames for pkt in per_cam]
    mean = np.mean(counts)
    assert abs(mean - 2.0) / 2.0 < 0.05


def test_observations_deterministic_from_seed():
    spec = preset("smalltunnel", seed=31, pixel_noise=1.0, clutter_rate=1.0)
    cams = generate_rig(spec)
    truths = simulate_truth(spec, 2, 50, maneuver_sigma=0.01)
    a = synthesize_observations(truths, cams, spec)
    b = synthesize_observations(truths, cams, spec)
    for fa, fb in zip(a, b):
        for pa, pb in zip(fa, fb):
            assert pa == pb


# A camera at the origin looking along +z: z = 0 is its principal plane
# (the depth is exactly 0.0 there) and z < 0 lies behind it.
_ORIGIN_CAMERA = CameraModel(projection=[[100.0, 0.0, 320.0, 0.0],
                                         [0.0, 100.0, 240.0, 0.0],
                                         [0.0, 0.0, 1.0, 0.0]],
                             cam_id="zz", image_size=(640, 480))

# (position, velocity) of targets that stand still in the arena; the
# velocity only sets the image axis
_SPECIAL_TARGETS = {
    "still": (None, (0.0, 0.0, 0.0)),
    "creeping": (None, (1e-10, 0.0, 0.0)),                # below the axis's speed floor
    "plane": ((0.1, 0.1, 0.0), (0.1, 0.0, 0.1)),          # on zz's principal plane
    "behind": ((0.05, 0.02, -0.5), (0.0, 0.0, 0.2)),      # behind zz
    "grazing": ((1e-6, 2e-6, 1e-4), (0.0, 0.0, -1.0)),    # seen by zz, 1 mm on is behind it
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(PRESETS)),
       n_targets=st.integers(0, 4),
       detection_prob=st.sampled_from([0.0, 0.6, 1.0]),
       clutter_rate=st.sampled_from([0.0, 0.8]),
       noiseless=st.booleans(),
       specials=st.lists(st.sampled_from(sorted(_SPECIAL_TARGETS)), unique=True),
       birth=st.integers(0, 3),
       n_frames=st.integers(1, 8),
       occlusions=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8),
                                     st.sets(st.integers(0, 11))), max_size=2),
       seed=st.integers(0, 2**16))
@example(name="smalltunnel", n_targets=0, detection_prob=0.0, clutter_rate=0.8,
         noiseless=False, specials=[], birth=0, n_frames=8, occlusions=[], seed=29)
@example(name="bigcyl", n_targets=4, detection_prob=0.6, clutter_rate=0.8,
         noiseless=True, specials=sorted(_SPECIAL_TARGETS), birth=2, n_frames=8,
         occlusions=[(2, 5, {0, 1, 11})], seed=1)
def test_observations_match_scalar_oracle(name, n_targets, detection_prob, clutter_rate,
                                          noiseless, specials, birth, n_frames,
                                          occlusions, seed):
    spec = preset(name, seed=seed, detection_prob=detection_prob,
                  clutter_rate=clutter_rate,
                  **({"pixel_noise": 0.0} if noiseless else {}))
    cams = generate_rig(spec) + ([_ORIGIN_CAMERA] if specials else [])
    truths = simulate_truth(spec, n_targets, n_frames, maneuver_sigma=0.01)
    # the last simulated target, if any, is born late
    if truths and birth:
        last = truths[-1]
        truths[-1] = TruthTrajectory(last.target_id, birth, last.positions[birth:],
                                     last.velocities[birth:])
    for k, kind in enumerate(specials, start=n_targets):
        pos, vel = _SPECIAL_TARGETS[kind]
        pos = spec.center if pos is None else pos
        truths.append(TruthTrajectory(k, 0, np.tile(pos, (n_frames, 1)),
                                      np.tile(vel, (n_frames, 1))))
    ids = sorted(c.cam_id for c in cams)
    windows = [(a, b, [ids[i] for i in sorted(picks) if i < len(ids)])
               for a, b, picks in occlusions]
    got = synthesize_observations(truths, cams, spec, n_frames=n_frames,
                                  occlusions=windows)
    want = synthesize_observations_oracle(truths, cams, spec, n_frames=n_frames,
                                          occlusions=windows)
    assert len(got) == len(want) == n_frames
    for per_got, per_want in zip(got, want):
        assert [(p.cam_id, p.frame, p.timestamp_us) for p in per_got] \
            == [(p.cam_id, p.frame, p.timestamp_us) for p in per_want]
        assert [p.features.tobytes() for p in per_got] \
            == [p.features.tobytes() for p in per_want]


def test_origin_camera_sees_the_special_targets_as_intended():
    # the cases the oracle property relies on actually occur
    cam = _ORIGIN_CAMERA
    with pytest.raises(PointAtInfinity):
        project(cam, _SPECIAL_TARGETS["plane"][0])
    with pytest.raises(BehindCamera):
        project(cam, _SPECIAL_TARGETS["behind"][0])
    pos, vel = _SPECIAL_TARGETS["grazing"]
    assert visible(cam, pos)
    with pytest.raises(BehindCamera):
        project(cam, np.add(pos, 1e-3 * np.asarray(vel)))


def test_visible_matches_scalar_projection():
    spec = preset("birdroom", seed=3)
    cams = generate_rig(spec) + [_ORIGIN_CAMERA]
    rng = np.random.default_rng(5)
    lo, hi = spec.bounds
    points = [*rng.uniform(lo - 1.0, hi + 1.0, size=(200, 3)),
              *(p for p, _ in _SPECIAL_TARGETS.values() if p is not None)]
    for cam in cams:
        w, h = cam.image_size
        for point in points:
            for margin in (0.0, 2.0):
                try:
                    u, v = project(cam, point)
                    want = margin <= u <= w - margin and margin <= v <= h - margin
                except (BehindCamera, PointAtInfinity):
                    want = False
                assert visible(cam, point, margin) == want


# ------------------------------------------------------------------- rendering

def test_rendered_frames_match_synthesized_centroids():
    # extraction on rendered frames reproduces the synthesized feature
    # positions within a tenth of a pixel (couples the image pipeline to
    # the rest of the system)
    spec = preset("smalltunnel", seed=37, pixel_noise=0.0, clutter_rate=0.0,
                  detection_prob=1.0)
    cams = generate_rig(spec)
    # two targets far apart so their rendered blobs never merge in any view
    n = 10
    dt = spec.dt

    def straight(tid, start, vel):
        pos = np.array(start) + np.outer(np.arange(n) * dt, vel)
        return TruthTrajectory(target_id=tid, birth=0, positions=pos,
                               velocities=np.tile(vel, (n, 1)))

    truths = [straight(0, [-0.55, -0.05, 0.1], np.array([0.05, 0.0, 0.0])),
              straight(1, [0.55, 0.05, 0.2], np.array([-0.05, 0.0, 0.01]))]
    frames = synthesize_observations(truths, cams, spec)
    background = BackgroundModel.constant(spec.image_size[::-1], 20.0,
                                          difference_threshold=15.0)
    checked = 0
    for t, per_cam in enumerate(frames):
        for pkt in per_cam:
            img = render_frame(pkt.features, spec.image_size)
            frame = Frame(cam_id=pkt.cam_id, index=t, timestamp=t / spec.fps,
                          pixels=img)
            feats = extract_features(frame, background, max_features=10)
            assert len(feats) == len(pkt.features)
            got = sorted((f.u_raw, f.v_raw) for f in feats)
            want = sorted((row[0], row[1]) for row in pkt.features)
            for (gu, gv), (wu, wv) in zip(got, want):
                assert abs(gu - wu) < 0.1
                assert abs(gv - wv) < 0.1
                checked += 1
    assert checked > 50


def test_render_elongated_blob_orientation():
    from camtrack3d.features import BackgroundModel, Frame, extract_features

    row = np.array([[320.0, 240.0, 20.0, 150.0, 0.5, 4.0]])
    img = render_frame(row, (640, 480), elongated=True)
    model = BackgroundModel.constant((480, 640), 20.0, difference_threshold=15.0)
    f = extract_features(Frame(cam_id="r", index=0, timestamp=0.0, pixels=img),
                         model)[0]
    assert f.theta == pytest.approx(0.5, abs=0.05)
    assert f.ecc > 2.0


@st.composite
def _blob_scenes(draw):
    """An image size and blob rows (u_raw, v_raw, theta, ecc) inside it,
    across its edges and wholly off it."""
    w, h = draw(st.sampled_from([(1, 1), (7, 5), (33, 17), (97, 61), (640, 480)]))
    blob = st.tuples(st.floats(-45.0, w + 45.0), st.floats(-45.0, h + 45.0),
                     st.floats(0.0, math.pi), st.floats(0.5, 8.0))
    blobs = draw(st.lists(blob, max_size=6))
    if blobs and draw(st.booleans()):
        blobs.append(blobs[0])  # two blobs on the same spot
    return (w, h), blobs


@settings(max_examples=150, deadline=None)
@given(scene=_blob_scenes(),
       as_features=st.booleans(),
       background=st.sampled_from([20.0, 0.5, 2.5, 127.5, 254.5, 255.5, -0.5,
                                   -7.0, 300.0, 0.0]),
       amplitude=st.sampled_from([200.0, 0.0, -150.0, 1e6, 37.25]),
       sigma=st.sampled_from([1.5, 0.6, 2.75]),
       elongated=st.booleans())
@example(scene=((640, 480), [(320.0, 240.0, 0.5, 4.0), (323.5, 241.0, 2.0, 2.5),
                             (-20.0, 10.0, 0.0, 3.0), (650.0, 470.5, 1.0, 6.5)]),
         as_features=False, background=20.0, amplitude=200.0, sigma=1.5, elongated=True)
@example(scene=((1, 1), [(0.5, 0.5, 0.0, 1.0)]), as_features=True, background=2.5,
         amplitude=-150.0, sigma=1.5, elongated=False)
def test_render_frame_matches_whole_image_oracle(scene, as_features, background,
                                                 amplitude, sigma, elongated):
    size, blobs = scene
    rows = np.array([[u, v, 20.0, 150.0, theta, ecc] for u, v, theta, ecc in blobs],
                    dtype=float).reshape(-1, 6)
    if as_features:
        # u, v differ from the raw centroid the blob is drawn at
        rows = [Feature(u=u + 3.0, v=v - 2.0, u_raw=u, v_raw=v, area=20.0, peak=150.0,
                        theta=theta, ecc=ecc) for u, v, theta, ecc in blobs]
    kw = dict(background=background, amplitude=amplitude, sigma=sigma,
              elongated=elongated)
    got = render_frame(rows, size, **kw)
    want = render_frame_oracle(rows, size, **kw)
    assert got.dtype == want.dtype == np.uint8
    assert got.shape == want.shape == size[::-1]
    assert got.tobytes() == want.tobytes()

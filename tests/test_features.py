import dataclasses
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import extract_features_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from camtrack3d.features import (
    BackgroundModel,
    DimensionMismatch,
    Frame,
    extract_features,
    feature_from_row,
    feature_record,
    load_pgm_sequence,
    read_features_jsonl,
    read_pgm,
    update_background,
    write_features_jsonl,
    write_pgm,
)
from camtrack3d.geometry import CameraModel


def blank_frame(index=0, level=0, shape=(48, 64), cam="c0"):
    return Frame(cam_id=cam, index=index, timestamp=index / 100.0,
                 pixels=np.full(shape, level, dtype=np.uint8))


def frame_with(pixels, index=0, cam="c0"):
    return Frame(cam_id=cam, index=index, timestamp=index / 100.0, pixels=pixels)


# ----------------------------------------------------------- background update

def test_update_skipped_off_interval():
    model = BackgroundModel.constant((48, 64), 0.0, update_interval=500)
    frame = blank_frame(index=250, level=200)
    assert update_background(model, frame) is model


def test_update_single_blend_step():
    model = BackgroundModel.constant((48, 64), 0.0, learning_rate=0.5)
    frame = blank_frame(index=0, level=255)
    updated = update_background(model, frame)
    assert np.all(updated.mean == 127.5)


def test_update_converges_geometric_series():
    # constant scene, 10 update events at lambda=0.5: error shrinks 2^-10
    model = BackgroundModel.constant((16, 16), 0.0, learning_rate=0.5,
                                     update_interval=500)
    scene = blank_frame(level=200, shape=(16, 16))
    for k in range(10):
        frame = frame_with(scene.pixels, index=500 * k)
        model = update_background(model, frame)
    assert np.abs(model.mean - 200.0).max() < 1.0


def test_update_dimension_mismatch():
    model = BackgroundModel.constant((10, 10), 0.0)
    with pytest.raises(DimensionMismatch):
        update_background(model, blank_frame(shape=(12, 12)))


# --------------------------------------------------------------- blob moments

def test_extract_empty_when_frame_matches_background():
    model = BackgroundModel.constant((48, 64), 37.0)
    assert extract_features(blank_frame(level=37), model) == []


def test_extract_square_blob_analytic():
    px = np.zeros((48, 64), dtype=np.uint8)
    px[10:15, 20:25] = 255  # 5x5 square
    model = BackgroundModel.constant(px.shape, 0.0, difference_threshold=30.0)
    feats = extract_features(frame_with(px), model)
    assert len(feats) == 1
    f = feats[0]
    assert f.area == pytest.approx(25.0)
    assert f.peak == pytest.approx(255.0)
    assert f.u_raw == pytest.approx(22.0)  # center of columns 20..24
    assert f.v_raw == pytest.approx(12.0)


def test_extract_bar_orientation_and_eccentricity():
    px = np.zeros((48, 64), dtype=np.uint8)
    px[20:24, 10:30] = 255  # 20 wide x 4 tall horizontal bar
    model = BackgroundModel.constant(px.shape, 0.0, difference_threshold=30.0)
    feats = extract_features(frame_with(px), model)
    assert len(feats) == 1
    f = feats[0]
    assert f.theta == pytest.approx(0.0, abs=1e-6)
    assert f.ecc == pytest.approx(5.0, abs=1e-6)


def test_moment_fraction_zeroes_dim_pixels():
    # a bright core with a dim skirt: the skirt is below 0.3*peak and must
    # not pull the centroid
    px = np.zeros((32, 32), dtype=np.uint8)
    px[10, 10] = 200
    px[10, 11] = 200
    px[10, 12] = 50  # 50 < 0.3 * 200
    model = BackgroundModel.constant(px.shape, 0.0, difference_threshold=20.0)
    f = extract_features(frame_with(px), model)[0]
    assert f.u_raw == pytest.approx(10.5)
    assert f.area == pytest.approx(2.0)


@pytest.mark.parametrize("fraction", [1.5, -0.1, math.nan])
def test_moment_fraction_outside_unit_interval_is_rejected(fraction):
    # above 1 (or NaN) every region kept no pixel and the moments raised
    # numpy's zero-size reduction error instead of naming the argument
    px = np.zeros((8, 8), dtype=np.uint8)
    px[3:6, 3:6] = 200
    model = BackgroundModel.constant(px.shape, 0.0, difference_threshold=20.0)
    with pytest.raises(ValueError, match="moment_fraction"):
        extract_features(frame_with(px), model, moment_fraction=fraction)


def test_translation_equivariance():
    rng = np.random.default_rng(9)
    for _ in range(100):
        blob = (rng.uniform(0, 1, size=(7, 9)) > 0.4) * rng.integers(80, 255)
        base = np.zeros((64, 64), dtype=np.uint8)
        base[20:27, 20:29] = blob.astype(np.uint8)
        dx, dy = int(rng.integers(-10, 10)), int(rng.integers(-10, 10))
        shifted = np.roll(np.roll(base, dy, axis=0), dx, axis=1)
        model = BackgroundModel.constant(base.shape, 0.0, difference_threshold=40.0)
        fa = extract_features(frame_with(base), model, max_features=50)
        fb = extract_features(frame_with(shifted), model, max_features=50)
        assert len(fa) == len(fb) and len(fa) >= 1
        for a, b in zip(fa, fb):
            assert b.u_raw - a.u_raw == pytest.approx(dx, abs=1e-9)
            assert b.v_raw - a.v_raw == pytest.approx(dy, abs=1e-9)


def test_rotation_90_maps_theta_and_preserves_stats():
    rng = np.random.default_rng(19)
    for _ in range(100):
        base = np.zeros((64, 64), dtype=np.uint8)
        wbar = int(rng.integers(6, 20))
        hbar = int(rng.integers(2, 5))
        val = int(rng.integers(100, 255))
        base[30:30 + hbar, 20:20 + wbar] = val
        rotated = np.rot90(base)  # 90 degrees counter-clockwise
        model = BackgroundModel.constant(base.shape, 0.0, difference_threshold=40.0)
        fa = extract_features(frame_with(base), model)[0]
        fb = extract_features(frame_with(rotated), model)[0]
        assert fb.area == pytest.approx(fa.area, abs=1e-9)
        assert fb.peak == pytest.approx(fa.peak)
        assert fb.ecc == pytest.approx(fa.ecc, rel=1e-9)
        expected = (fa.theta + math.pi / 2.0) % math.pi
        assert fb.theta % math.pi == pytest.approx(expected, abs=1e-9)


def test_determinism_bit_identical():
    rng = np.random.default_rng(3)
    px = (rng.uniform(0, 255, size=(48, 64))).astype(np.uint8)
    model = BackgroundModel.constant(px.shape, 60.0, difference_threshold=30.0)
    a = extract_features(frame_with(px), model, max_features=20)
    b = extract_features(frame_with(px.copy()), model, max_features=20)
    assert a == b


def test_max_features_and_area_ordering():
    px = np.zeros((64, 64), dtype=np.uint8)
    px[5:8, 5:8] = 200      # area 9
    px[20:26, 20:26] = 200  # area 36
    px[40:44, 40:44] = 200  # area 16
    model = BackgroundModel.constant(px.shape, 0.0, difference_threshold=30.0)
    feats = extract_features(frame_with(px), model, max_features=2)
    assert len(feats) == 2
    assert feats[0].area > feats[1].area
    assert feats[0].area == pytest.approx(36.0)


def test_variance_gate_option():
    px = np.zeros((16, 16), dtype=np.uint8)
    px[4, 4] = 40
    var = np.full(px.shape, 4.0)  # sigma = 2, gate 4 sigma = 8
    model = BackgroundModel(mean=np.zeros(px.shape), variance=var,
                            use_variance_gate=True, sigma_gate=4.0)
    feats = extract_features(frame_with(px), model)
    assert len(feats) == 1


def test_distortion_corrected_centroid():
    px = np.zeros((480, 640), dtype=np.uint8)
    px[100:105, 50:55] = 255
    model = BackgroundModel.constant(px.shape, 0.0, difference_threshold=30.0)
    cam = CameraModel(projection=np.hstack([np.eye(3), np.zeros((3, 1))]),
                      cam_id="d", image_size=(640, 480), k1=0.2)
    f = extract_features(frame_with(px), model, camera=cam)[0]
    assert (f.u, f.v) != (f.u_raw, f.v_raw)
    # corrected coordinates re-distort back onto the raw centroid
    from camtrack3d.geometry import apply_distortion
    back = apply_distortion(cam, (f.u, f.v))
    assert math.hypot(back[0] - f.u_raw, back[1] - f.v_raw) < 1e-6


# ----------------------------------------- sparse extraction against the oracle

def exact(feats):
    """Features as tuples of float.hex strings: equal only when bit-identical
    (NaN included)."""
    return [tuple(float(x).hex() for x in dataclasses.astuple(f)) for f in feats]


def outcome(fn, *args, **kw):
    try:
        return exact(fn(*args, **kw))
    except Exception as e:  # both paths must fail the same way
        return type(e)


def draw_ring_and_block(px, y, x, ring, block, background):
    """A 6x6 block inside the boundary of a 10x10 square, both of 36
    uniform pixels: two regions with the same area and centroid that
    differ in peak."""
    px[y:y + 10, x:x + 10] = ring
    px[y + 1:y + 9, x + 1:x + 9] = background
    px[y + 2:y + 8, x + 2:x + 8] = block


DISTORTED = CameraModel(projection=np.hstack([np.eye(3), np.zeros((3, 1))]),
                        cam_id="d", image_size=(640, 480), k1=-0.05)


@st.composite
def extraction_cases(draw):
    h, w = draw(st.sampled_from([(1, 1), (10, 10), (17, 33), (480, 640)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = draw(st.integers(0, 255))
    px = np.full((h, w), base, dtype=np.uint8)
    for _ in range(draw(st.integers(0, 6))):  # ragged blobs of mixed levels
        y, x = rng.integers(h), rng.integers(w)
        patch = px[y:y + rng.integers(1, 12), x:x + rng.integers(1, 12)]
        sel = rng.random(patch.shape) < 0.7
        patch[sel] = rng.integers(0, 256, size=patch.shape)[sel]
    n = int(rng.integers(0, 30))
    px[rng.integers(h, size=n), rng.integers(w, size=n)] = rng.integers(0, 256, size=n)
    if h >= 12 and w >= 12 and draw(st.booleans()):
        for _ in range(draw(st.integers(1, 3))):
            draw_ring_and_block(px, int(rng.integers(h - 11)), int(rng.integers(w - 11)),
                                *rng.integers(0, 256, size=2), base)
    gate = draw(st.booleans())
    if gate:
        sigma = draw(st.sampled_from([0.0, 1.0, 4.0]))
        var = rng.choice([0.0, 0.25, 4.0, 30.0], size=(h, w))
        thr = sigma * np.sqrt(var)
    else:
        thr = draw(st.sampled_from([-5.0, 0.0, 0.5, 15.0, 15.25, 300.0]))
        sigma, var = 4.0, np.full((h, w), 25.0)
    mean = base + draw(st.sampled_from([0.0, 0.5, 0.25, 1.0 / 3.0]))
    mean = np.full((h, w), mean)
    # means at, or within 3e-13 of, p - thr and p + thr
    sel = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.01, 0.3]))
    t = np.broadcast_to(thr, (h, w))
    near = px + rng.choice([-1.0, 1.0], size=(h, w)) * t
    near = near + rng.integers(-3, 4, size=(h, w)) * 1e-13
    mean[sel] = near[sel]
    if draw(st.booleans()):
        mean[rng.random((h, w)) < 0.05] = np.nan
    if draw(st.booleans()):
        mean[:] = np.nan
    model = BackgroundModel(mean=mean, variance=var, use_variance_gate=gate,
                            sigma_gate=sigma,
                            difference_threshold=15.0 if gate else thr)
    kw = dict(max_features=draw(st.integers(0, 20)),
              moment_fraction=draw(st.floats(0.0, 1.0)),
              camera=DISTORTED if draw(st.booleans()) else None)
    return frame_with(px), model, kw


@settings(max_examples=200, deadline=None)
@given(extraction_cases())
def test_extraction_matches_oracle(case):
    frame, model, kw = case
    with np.errstate(invalid="ignore", divide="ignore"):
        assert outcome(extract_features, frame, model, **kw) == \
            outcome(extract_features_oracle, frame, model, **kw)


def test_ring_and_block_tie_keeps_label_order():
    px = np.zeros((40, 40), dtype=np.uint8)
    draw_ring_and_block(px, 5, 5, 200, 100, 0)
    model = BackgroundModel.constant(px.shape, 0.0, difference_threshold=30.0)
    full = extract_features(frame_with(px), model)
    assert [f.area for f in full] == [36.0, 36.0]
    assert (full[0].u_raw, full[0].v_raw) == (full[1].u_raw, full[1].v_raw)
    # the ring's first pixel comes first in raster order
    assert [f.peak for f in full] == [200.0, 100.0]
    assert exact(full) == exact(extract_features_oracle(frame_with(px), model))


def test_tie_across_tile_components_keeps_raster_order():
    # A bar and a U-shape around it with exactly equal area and centroid.
    # The bar's first pixel comes first in raster order, but the U's tile
    # component comes first in tile order (its left arm is in an earlier
    # tile column of the same tile row).
    px = np.zeros((64, 160), dtype=np.uint8)
    px[1:50, 60] = px[1:50, 140] = 1
    px[50, 60:141] = 1
    px[1:3, 60] = px[1:3, 140] = 128
    px[0:32, 100] = [128] + [1] * 10 + [99, 128, 128, 128, 50] + [1] * 16
    model = BackgroundModel.constant(px.shape, 0.0, difference_threshold=0.5)
    feats = extract_features(frame_with(px), model, moment_fraction=0.0)
    assert len(feats) == 2
    assert (feats[0].area, feats[0].u_raw, feats[0].v_raw) == \
        (feats[1].area, feats[1].u_raw, feats[1].v_raw)
    assert feats[0].theta == pytest.approx(math.pi / 2)  # the bar
    assert exact(feats) == exact(extract_features_oracle(frame_with(px), model,
                                                         moment_fraction=0.0))


def test_blob_inside_another_tile_components_box_counted_once():
    px = np.zeros((120, 120), dtype=np.uint8)
    px[10, 10:110] = px[109, 10:110] = 200  # a square ring of tiles
    px[10:110, 10] = px[10:110, 109] = 200
    px[58:62, 58:62] = 90  # its own tile component, inside the ring's box
    model = BackgroundModel.constant(px.shape, 0.0, difference_threshold=30.0)
    feats = extract_features(frame_with(px), model)
    assert sorted(f.peak for f in feats) == [90.0, 200.0]
    assert exact(feats) == exact(extract_features_oracle(frame_with(px), model))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([-5.0, -0.0, 0.0, 1e-300, 0.5, 15.0, 300.0, 1e17,
                        math.inf, math.nan]),
       st.booleans())
def test_mask_bounds_equal_threshold_test_for_every_value(seed, thr, gate):
    rng = np.random.default_rng(seed)
    p = np.arange(256.0)
    mean = np.concatenate([
        rng.uniform(-300.0, 600.0, 200),
        rng.integers(0, 256, 100) + rng.choice([0.0, 0.5, 0.25], 100),
        # within 1e-13 of p +- thr
        rng.integers(0, 256, 100) + rng.choice([-1, 1], 100) * thr
        + rng.integers(-3, 4, 100) * 1e-13,
        [math.nan, math.inf, -math.inf, 1e17, -1e17, 1e17 + 96.0, 1e308, -1e308],
    ])
    if gate:
        var = rng.choice([0.0, 0.25, 25.0, math.inf, math.nan, -1.0], mean.size)
        model = BackgroundModel(mean=mean, variance=var, use_variance_gate=True,
                                sigma_gate=4.0)
    else:
        model = BackgroundModel(mean=mean, variance=np.zeros_like(mean),
                                difference_threshold=thr)
    with np.errstate(invalid="ignore", over="ignore"):
        t = 4.0 * np.sqrt(model.variance) if gate else thr
        gt, lt = model.mask_bounds
        want = np.abs(p[:, None] - mean) > t
    assert gt.dtype == lt.dtype == np.uint8
    got = (p[:, None] > gt) | (p[:, None] < lt)
    assert np.array_equal(got, want)


def test_mask_bounds_are_cached_per_model():
    model = BackgroundModel.constant((8, 8), 10.0)
    assert model.mask_bounds is model.mask_bounds
    updated = update_background(model, blank_frame(index=0, level=50, shape=(8, 8)))
    assert updated.mask_bounds[0][0, 0] != model.mask_bounds[0][0, 0]


def load_bench_scenes():
    """The benchmark's scene builder, imported from its file (read only)."""
    if "bench_scenes" in sys.modules:
        return sys.modules["bench_scenes"]
    path = Path(__file__).resolve().parents[1] / "bench" / "scenes.py"
    if not path.exists():
        pytest.skip("bench/scenes.py not present")
    spec = importlib.util.spec_from_file_location("bench_scenes", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [110, 7001])
def test_camnode_scene_matches_oracle_on_every_frame(seed):
    scenes = load_bench_scenes()
    scene = scenes.camnode(seed, scenes.load_records()["camnode"]["shape"])
    cam = scene.camera
    model = None
    for i, img in enumerate(scene.images):
        frame = Frame(cam_id=cam.cam_id, index=i, timestamp=i / 100.0, pixels=img)
        model = BackgroundModel.from_frame(frame) if model is None else model
        model = update_background(model, frame)
        for kw in ({}, {"max_features": 1000}):
            got = extract_features(frame, model, camera=cam, **kw)
            assert exact(got) == exact(extract_features_oracle(frame, model,
                                                               camera=cam, **kw))


# ------------------------------------------------------------------ PGM + JSONL

def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    px = rng.integers(0, 256, size=(33, 47), dtype=np.uint8)
    path = tmp_path / "f.pgm"
    write_pgm(path, px)
    assert np.array_equal(read_pgm(path), px)


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(ValueError):
        read_pgm(path)


def test_feature_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    recs = []
    for frame in range(3):
        rows = rng.uniform(0, 100, size=(2, 6))
        feats = [feature_from_row(r) for r in rows]
        recs.append(feature_record(frame, "cam0", frame / 100.0, feats))
    path = tmp_path / "features.jsonl"
    write_features_jsonl(path, recs)
    loaded = list(read_features_jsonl(path))
    assert loaded == recs


def test_load_pgm_sequence_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    images = {name: rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
              for name in ("cam_0012", "cam_0003", "cam_0100")}
    for name, px in images.items():
        write_pgm(tmp_path / f"{name}.pgm", px)
    (tmp_path / "notes.txt").write_text("not a frame")
    frames = list(load_pgm_sequence(tmp_path, "c7", fps=50.0))
    assert [f.index for f in frames] == [3, 12, 100]
    assert [f.timestamp for f in frames] == [3 / 50.0, 12 / 50.0, 100 / 50.0]
    assert all(f.cam_id == "c7" for f in frames)
    for f, name in zip(frames, ("cam_0003", "cam_0012", "cam_0100")):
        assert np.array_equal(f.pixels, images[name])


def test_load_pgm_sequence_falls_back_to_listing_position(tmp_path):
    px = [np.full((3, 4), k, dtype=np.uint8) for k in range(3)]
    for name, img in zip(("b_x", "a", "c7d"), px):
        write_pgm(tmp_path / f"{name}.pgm", img)
    frames = list(load_pgm_sequence(tmp_path, "c0"))
    # sorted names a, b_x, c7d: no trailing digits, so the listing position
    assert [f.index for f in frames] == [0, 1, 2]
    assert [f.timestamp for f in frames] == [0.0, 1 / 100.0, 2 / 100.0]
    assert [int(f.pixels[0, 0]) for f in frames] == [1, 0, 2]

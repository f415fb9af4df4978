import dataclasses
import hashlib
import importlib.util
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import _region_moments_oracle, extract_features_oracle, update_background_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from camtrack3d.features import (
    _BLOCK_ROWS,
    BackgroundModel,
    DimensionMismatch,
    Frame,
    _compact,
    _detection_mask,
    _region_moments,
    extract_features,
    feature_from_row,
    load_pgm_sequence,
    read_features_jsonl,
    read_pgm,
    update_background,
    write_features_jsonl,
    write_pgm,
)
from camtrack3d.geometry import CameraModel, Rig
from camtrack3d.netproto import FramePacket
from camtrack3d.simharness import (
    generate_rig,
    preset,
    render_frame,
    simulate_truth,
    synthesize_observations,
)


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


def bits(a):
    """An array's float64 values as integers, every NaN made the same NaN:
    equal only when all other values are bit-identical (signed zeros
    included). The sign of NaN + NaN is not a property of the formula:
    numpy's loops pick one operand or the other by the element's position
    in the array, so the whole-image formula gives both signs in one array."""
    a = np.asarray(a, dtype=np.float64)
    return np.where(np.isnan(a), np.nan, a).view(np.uint64)


@st.composite
def refresh_cases(draw):
    h = draw(st.sampled_from([1, 2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1,
                              2 * _BLOCK_ROWS + 5]))
    w = draw(st.sampled_from([1, 3, 17]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    px = rng.integers(0, 256, size=(h, w)).astype(np.uint8)
    mean = np.where(rng.random((h, w)) < 0.5, rng.uniform(-300.0, 600.0, (h, w)),
                    rng.integers(0, 256, (h, w)) + rng.choice([0.0, 0.5, 1.0 / 3.0], (h, w)))
    var = rng.choice([0.0, 0.25, 25.0, 1e4], size=(h, w))
    for a in (mean, var):  # non-finite values in either array
        if draw(st.booleans()):
            sel = rng.random((h, w)) < 0.2
            a[sel] = rng.choice([math.nan, math.inf, -math.inf], size=(h, w))[sel]
    model = BackgroundModel(
        mean=mean, variance=var,
        update_interval=draw(st.sampled_from([1, 3, 500])),
        difference_threshold=draw(st.sampled_from([-5.0, 0.0, 15.0, 15.25])),
        learning_rate=draw(st.sampled_from([0.0, 1.0 / 3.0, 0.5, 1.0])),
        use_variance_gate=draw(st.booleans()),
        sigma_gate=draw(st.sampled_from([0.0, 1.0, 4.0])))
    return model, frame_with(px, index=draw(st.integers(0, 1000)))


@settings(max_examples=300, deadline=None)
@given(refresh_cases())
def test_refresh_matches_whole_image_oracle(case):
    model, frame = case
    with np.errstate(invalid="ignore", over="ignore"):
        want = update_background_oracle(model, frame)
        got = update_background(model, frame)
        if want is None:
            assert got is model
            return
        mean, var, bounds = want
        assert np.array_equal(bits(got.mean), bits(mean))
        assert np.array_equal(bits(got.variance), bits(var))
        gt, lt = got.mask_bounds
    assert gt.dtype == lt.dtype == np.uint8
    assert np.array_equal(gt, bounds[0]) and np.array_equal(lt, bounds[1])


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


@pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
def test_infinite_model_mean_gives_a_feature_the_hub_drops(fraction):
    # 0 * inf is NaN: a keep test of d >= fraction * peak kept no pixel at
    # fraction 0 and raised, while other fractions gave a NaN feature
    from camtrack3d.hub import RunStats, _frame_features
    from camtrack3d.netproto import AssembledFrame

    px = np.zeros((8, 8), dtype=np.uint8)
    px[3:5, 3:5] = 200
    mean = np.zeros(px.shape)
    mean[3:5, 3:5] = math.inf
    model = BackgroundModel(mean=mean, variance=np.full(px.shape, 25.0),
                            difference_threshold=20.0)
    with np.errstate(invalid="ignore"):
        feats = extract_features(frame_with(px), model, moment_fraction=fraction)
    assert len(feats) == 1 and not np.isfinite(feats[0].as_row()).all()
    cam = CameraModel(projection=np.hstack([np.eye(3), np.zeros((3, 1))]), cam_id="c0",
                      image_size=(8, 8))
    stats = RunStats()
    frame = _frame_features(AssembledFrame(frame=0, features_by_camera={
        "c0": np.array([f.as_row() for f in feats])}, complete=True, latency=0.0,
        timestamp_us=0), Rig([cam]), stats)
    assert len(frame.rows) == 0 and stats.nonfinite_rows == 1


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
    h, w = draw(st.sampled_from([(1, 1), (10, 10), (17, 33), (40, 70), (100, 37),
                                 (33, 200), (480, 640)]))
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


def test_blobs_of_mixed_heights_at_the_edges_on_a_smaller_canvas():
    # 130x200: ten regions from 1 to 59 rows tall, one inside another's
    # box, four at an edge of the frame and one on a diagonal; the
    # compacted canvas is smaller than the mask
    rng = np.random.default_rng(11)
    px = np.zeros((130, 200), dtype=np.uint8)
    px[2:61, 5] = rng.integers(40, 256, size=59)          # 59 rows tall
    px[3:9, 8:16] = 120                                   # a second one, at the box's edge
    px[40:45, 40:46] = rng.integers(40, 256, size=(5, 6))  # a 5x6 block
    px[2:40, 96] = px[39, 96:150] = 150                   # an L at its box's left edge
    px[5:9, 135:139] = 60                                 # inside the L's box
    px[60:71, 194:200] = 200                              # at the right edge
    px[127:130, 185:200] = 90                             # in the bottom-right corner
    px[110:130, 20] = 70                                  # 20 rows tall, at the bottom
    px[129, 60:91] = rng.integers(40, 256, size=31)       # along the bottom edge
    px[np.arange(80, 106), np.arange(80, 106)] = 160      # a diagonal, 26 rows and columns
    mask = px > 30
    assert _compact(mask)[0].size < mask.size
    model = BackgroundModel.constant(px.shape, 0.0, difference_threshold=30.0)
    for camera in (None, DISTORTED):
        feats = extract_features(frame_with(px), model, camera=camera, max_features=100)
        assert len(feats) == 10
        assert exact(feats) == exact(extract_features_oracle(
            frame_with(px), model, camera=camera, max_features=100))


def test_bar_and_stripes_spanning_the_frame_label_no_more_than_the_mask():
    # a full-height bar and full-width stripes: every row is occupied, so
    # the canvas keeps every row
    px = np.zeros((480, 640), dtype=np.uint8)
    px[:, 3] = 200
    px[5::32, 40:] = 120
    mask = px > 30
    assert _compact(mask)[0].size <= mask.size
    model = BackgroundModel.constant(px.shape, 0.0, difference_threshold=30.0)
    feats = extract_features(frame_with(px), model, max_features=100)
    assert len(feats) == 16
    assert exact(feats) == exact(extract_features_oracle(frame_with(px), model,
                                                         max_features=100))


@st.composite
def masks(draw):
    """Boolean masks from 1x1 to 70x90: random speckle, empty, full, a
    ragged single row or column, ragged blobs at the edges, or ragged
    blobs spread along a diagonal."""
    h, w = draw(st.integers(1, 70)), draw(st.integers(1, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["speckle", "empty", "full", "row", "column",
                                 "edges", "diagonal"]))
    mask = np.zeros((h, w), dtype=bool)
    if kind == "speckle":
        mask = rng.random((h, w)) < draw(st.sampled_from([0.02, 0.1, 0.3, 0.6, 0.9]))
    elif kind == "full":
        mask[:] = True
    elif kind == "row":
        mask[rng.integers(h)] = rng.random(w) < 0.8
    elif kind == "column":
        mask[:, rng.integers(w)] = rng.random(h) < 0.8
    else:
        n = draw(st.integers(1, 8))
        for k in range(n):
            bh, bw = rng.integers(1, 6, size=2)
            if kind == "edges":  # flush with the top or bottom and the left or right
                y = rng.choice([0, max(h - bh, 0)])
                x = rng.choice([0, max(w - bw, 0)]) if rng.random() < 0.7 else rng.integers(w)
            else:
                y, x = k * h // n, k * w // n
            patch = mask[y:y + bh, x:x + bw]
            patch |= rng.random(patch.shape) < 0.7
    return mask


@settings(max_examples=300, deadline=None)
@given(masks())
def test_compacted_canvas_has_the_masks_regions(mask):
    from scipy import ndimage

    canvas, rows, cols = _compact(mask)
    # the dropped rows and columns are empty, and the canvas is the mask's
    assert np.count_nonzero(canvas) == np.count_nonzero(mask)
    assert np.array_equal(canvas, mask[np.ix_(rows, cols)])
    want, n_want = ndimage.label(mask, structure=np.ones((3, 3), dtype=bool))
    if canvas.size == 0:
        assert n_want == 0
        return
    got, n_got = ndimage.label(canvas, structure=np.ones((3, 3), dtype=bool))
    # each region's rows and columns are consecutive in the image, so its
    # image box is its canvas box moved to its first row and column
    for ry, rx in ndimage.find_objects(got, n_got):
        assert rows[ry.stop - 1] - rows[ry.start] == ry.stop - ry.start - 1
        assert cols[rx.stop - 1] - cols[rx.start] == rx.stop - rx.start - 1
    # the canvas regions, mapped back to the image, are the mask's regions
    back = np.zeros_like(want)
    back[np.ix_(rows, cols)] = got
    pairs = np.unique(np.stack([back[mask], want[mask]]), axis=1)
    assert n_got == n_want == pairs.shape[1]


@settings(max_examples=60, deadline=None)
@given(masks(), st.integers(0, 2**32 - 1))
def test_extraction_on_compacted_masks_matches_oracle(mask, seed):
    px = np.where(mask, np.random.default_rng(seed).integers(31, 256, size=mask.shape), 0)
    frame = frame_with(px.astype(np.uint8))
    model = BackgroundModel.constant(mask.shape, 0.0, difference_threshold=30.0)
    for camera in (None, DISTORTED):
        assert exact(extract_features(frame, model, camera=camera, max_features=10**4)) == \
            exact(extract_features_oracle(frame, model, camera=camera, max_features=10**4))


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


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from([-5.0, -1e-300, 0.0, 1e-300, 0.5, 15.0, 254.5, 255.0, 300.0,
                        math.inf, math.nan]),
       st.booleans(), st.booleans())
def test_detection_mask_equals_bounds_test_for_every_value(seed, thr, gate, refresh):
    # the coded mask, one subtraction and one compare, passes exactly the
    # values outside lt..gt, including where every value passes (lt > gt)
    # and where none does (gt == 255 and lt == 0); for a model as built
    # and as a refresh derives it
    rng = np.random.default_rng(seed)
    mean = np.concatenate([
        rng.uniform(-300.0, 600.0, 100),
        rng.integers(0, 256, 100) + rng.choice([0.0, 0.5, 0.25], 100),
        rng.integers(0, 256, 50) + rng.choice([-1, 1], 50) * rng.uniform(0.0, 300.0, 50),
        [math.nan, math.inf, -math.inf, 0.0, 255.0, 127.5, 1e308, -1e308],
    ])[None]
    if gate:
        var = rng.choice([0.0, 1e-300, 0.25, 25.0, 4064.0, 1e6, math.inf, math.nan, -1.0],
                         mean.shape)
        model = BackgroundModel(mean=mean, variance=var, use_variance_gate=True,
                                sigma_gate=float(rng.choice([0.0, 1e-9, 4.0, 300.0])))
    else:
        model = BackgroundModel(mean=mean, variance=np.zeros_like(mean),
                                difference_threshold=thr)
    p = np.arange(256, dtype=np.uint8)[:, None]
    with np.errstate(invalid="ignore", over="ignore"):
        if refresh:
            px = rng.integers(0, 256, mean.shape, dtype=np.uint8)
            model = update_background(dataclasses.replace(model, learning_rate=0.25),
                                      frame_with(px))
        gt, lt = model.mask_bounds
        got = _detection_mask(np.repeat(p, mean.size, axis=1), model)
    assert got.dtype == bool
    assert np.array_equal(got, (p > gt) | (p < lt))


def test_detection_mask_codes_every_and_no_value():
    mean = np.array([100.0, 100.0, math.nan, math.inf, 100.0])
    model = BackgroundModel(mean=mean, variance=np.array([0.0, 1e6, 1.0, 1.0, math.nan]),
                            use_variance_gate=True, sigma_gate=1.0)
    with np.errstate(invalid="ignore"):
        gt, lt = model.mask_bounds
    assert (gt[:3].tolist(), lt[:3].tolist()) == ([100, 255, 255], [100, 0, 0])
    assert gt[3] < lt[3]  # every value passes
    got = _detection_mask(np.repeat(np.arange(256, dtype=np.uint8)[:, None], 5, axis=1), model)
    assert got[:, 0].tolist() == [p != 100 for p in range(256)]
    assert not got[:, [1, 2, 4]].any()
    assert got[:, 3].all()
    # a model whose every pixel has some passing value applies no extra mask
    assert BackgroundModel.constant((2, 2), 9.0)._mask_code[2] is None


@pytest.mark.parametrize("kept", [*range(1, 10), 127, 128, 129, 255, 256, 257])
def test_region_moments_bits_at_pairwise_summation_edges(kept):
    # numpy sums 8 elements per unrolled block and 128 per pairwise leaf;
    # the stacked row sums must give the bits of the six 1-D sums there
    rng = np.random.default_rng(kept)
    for shape in [(1, kept), (kept, 1), (17, 31)]:
        if shape[0] * shape[1] < kept:
            continue
        diff = np.abs(rng.integers(0, 256, shape) - rng.uniform(0.0, 255.0, shape))
        keep = np.zeros(shape, dtype=bool)
        keep.reshape(-1)[rng.choice(keep.size, kept, replace=False)] = True
        peak = diff[keep].max()
        got = _region_moments(diff, keep, peak)
        want = _region_moments_oracle(diff, keep)
        assert np.array_equal(np.array(got).view(np.uint64), np.array(want).view(np.uint64))


def test_camera_node_feature_digest_is_recorded_value():
    # Digest of the bits of every feature's 8 fields over a rendered,
    # noisy, cluttered 40-frame smalltunnel sequence seen by camera 0 with
    # radial distortion, under two background settings and two moment
    # fractions; recorded before the mask was coded as one compare and
    # the moments as two stacked sums, which must reproduce it.
    spec = preset("smalltunnel", seed=11, clutter_rate=2.0, pixel_noise=0.0)
    cam = dataclasses.replace(generate_rig(spec)[0], k1=-0.05)
    packets = synthesize_observations(simulate_truth(spec, 3, 40), [cam], spec)
    rng = np.random.default_rng(5)
    images = []
    for per_cam in packets:
        img = render_frame(per_cam[0].features, cam.image_size, elongated=True)
        noise = rng.integers(-3, 4, img.shape)
        images.append(np.clip(img + noise, 0, 255).astype(np.uint8))
    h = hashlib.blake2b(digest_size=8)
    count = 0
    for kw in ({"update_interval": 10},
               {"use_variance_gate": True, "learning_rate": 1.0 / 3.0, "update_interval": 7}):
        model = BackgroundModel.from_frame(frame_with(images[0]), **kw)
        for i, img in enumerate(images):
            frame = frame_with(img, index=i)
            model = update_background(model, frame)
            for fraction in (0.3, 0.0):
                feats = extract_features(frame, model, max_features=1000, camera=cam,
                                         moment_fraction=fraction)
                count += len(feats)
                h.update(np.array([dataclasses.astuple(f) for f in feats],
                                  dtype=float).reshape(-1, 8).view(np.uint64).tobytes())
    assert count == 1204
    assert int.from_bytes(h.digest(), "big") == 14963455540530374087


def test_mask_bounds_are_cached_per_model():
    model = BackgroundModel.constant((8, 8), 10.0)
    assert model.mask_bounds is model.mask_bounds
    updated = update_background(model, blank_frame(index=0, level=50, shape=(8, 8)))
    assert updated.mask_bounds[0][0, 0] != model.mask_bounds[0][0, 0]
    # a refreshed model keeps the bounds its refresh derived, and they are
    # those of a model built from the same arrays
    px = np.random.default_rng(3).integers(0, 256, size=(2 * _BLOCK_ROWS + 3, 9))
    for gate in (False, True):
        model = BackgroundModel.constant(px.shape, 100.0, use_variance_gate=gate,
                                         learning_rate=1.0 / 3.0)
        refreshed = update_background(model, frame_with(px))
        assert refreshed.mask_bounds is refreshed.mask_bounds
        rebuilt = BackgroundModel(mean=refreshed.mean.copy(),
                                  variance=refreshed.variance.copy(), use_variance_gate=gate)
        for got, want in zip(refreshed.mask_bounds, rebuilt.mask_bounds):
            assert np.array_equal(got, want)


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
    packets = [FramePacket(cam_id="cam0", frame=frame, timestamp_us=frame * 10_000,
                           features=[feature_from_row(r).as_row()
                                     for r in rng.uniform(0, 100, size=(2, 6))])
               for frame in range(3)]
    path = tmp_path / "features.jsonl"
    write_features_jsonl(path, packets)
    assert list(read_features_jsonl(path)) == packets
    assert json.loads(path.read_text().splitlines()[1]) == {
        "frame": 1, "cam": "cam0", "t": 0.01, "features": packets[1].features.tolist()}


GOOD_RECORD = {"frame": 3, "cam": "cam0", "t": 0.03, "features": [[1.0, 2.0, 3.0, 4.0, 0.5, 2.0]]}
BAD_LINES = {
    "nan time": json.dumps({**GOOD_RECORD, "t": float("nan")}),
    "infinite time": json.dumps({**GOOD_RECORD, "t": float("inf")}),
    "5-column row": json.dumps({**GOOD_RECORD, "features": [[1.0, 2.0, 3.0, 4.0, 0.5]] * 6}),
    "no frame": json.dumps({k: v for k, v in GOOD_RECORD.items() if k != "frame"}),
    "not json": json.dumps(GOOD_RECORD)[:-1],
    "text frame": json.dumps({**GOOD_RECORD, "frame": "x"}),
    "negative frame": json.dumps({**GOOD_RECORD, "frame": -1}),
    "fractional frame": json.dumps({**GOOD_RECORD, "frame": 3.5}),
    "numeric camera": json.dumps({**GOOD_RECORD, "cam": 7}),
    "long camera id": json.dumps({**GOOD_RECORD, "cam": "c" * 33}),
    "text rows": json.dumps({**GOOD_RECORD, "features": "rows"}),
    "ragged rows": json.dumps({**GOOD_RECORD, "features": [[1.0] * 6, [1.0] * 5]}),
    "a list": json.dumps([GOOD_RECORD]),
    "deep nesting": "[" * 100_000 + "]" * 100_000,
}


@pytest.mark.parametrize("bad", BAD_LINES.values(), ids=BAD_LINES.keys())
def test_feature_jsonl_counts_a_line_that_is_no_record(tmp_path, bad):
    path = tmp_path / "features.jsonl"
    path.write_bytes(json.dumps(GOOD_RECORD).encode() + b"\n" + bad.encode() + b"\n\n"
                     + b"\xff\xfe{}\n" + b"\x80\n")
    drops = {"undecodable": 0}
    packets = list(read_features_jsonl(path, drops))
    assert drops == {"undecodable": 3}
    assert packets == [FramePacket(cam_id="cam0", frame=3, timestamp_us=30_000,
                                   features=GOOD_RECORD["features"])]


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

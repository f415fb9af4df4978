"""2D feature extraction: running-Gaussian background subtraction and
image-moment blob descriptors.

A feature is one connected above-threshold region of the absolute
difference image, summarized as (u, v, area, peak, theta, ecc). Centroids
and second moments are taken over the region after pixels below a fraction
of the regional peak are zeroed; weights are the difference values
normalized by the peak, so a uniform blob has area equal to its pixel
count and a smooth blob gets a sub-pixel centroid.

Extraction touches only the blobs' neighbourhoods. Frame pixels are uint8
and fl(p - mean) is monotone in p, so the detection test
|p - mean| > threshold is exactly ``p > gt or p < lt`` for two uint8
bounds per pixel; the background model derives them once, on first use,
and a frame's mask costs two uint8 compares. The mask is OR-reduced into
16x16 tiles and the tile grid is labelled with 8-connectivity. Every
8-connected pixel region lies inside one tile component, so each tile
component's own tiles are labelled pixel by pixel, and the difference
image is computed only over each region's bounding box.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import ndimage

from .geometry import CameraModel, correct_distortion


class DimensionMismatch(Exception):
    """Frame and background model shapes differ."""


ECC_DEGENERATE = math.inf

# moment support is treated as a union of unit pixel squares
_INTRA_PIXEL_VAR = 1.0 / 12.0

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)

# side of the square tiles the detection mask is reduced to before labelling
_TILE = 16


@dataclass(frozen=True)
class Feature:
    """One extracted blob: distortion-corrected centroid (u, v), raw
    centroid (u_raw, v_raw), area [px^2], peak difference, orientation
    theta in [0, pi) and eccentricity >= 1."""

    u: float
    v: float
    u_raw: float
    v_raw: float
    area: float
    peak: float
    theta: float
    ecc: float

    def as_row(self) -> list[float]:
        return [self.u, self.v, self.area, self.peak, self.theta, self.ecc]


def feature_from_row(row) -> Feature:
    u, v, area, peak, theta, ecc = (float(x) for x in row)
    return Feature(u=u, v=v, u_raw=u, v_raw=v, area=area, peak=peak,
                   theta=theta, ecc=ecc)


@dataclass(frozen=True)
class Frame:
    """One grayscale camera frame."""

    cam_id: str
    index: int
    timestamp: float
    pixels: np.ndarray  # uint8, (height, width)

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.size == 0:
            raise ValueError("pixels must be a non-empty 2D array")
        object.__setattr__(self, "pixels", px.astype(np.uint8, copy=False))


def _first_value(mean: np.ndarray, bound, strict: bool) -> np.ndarray:
    """Per pixel, the smallest uint8 value p with fl(p - mean) > bound
    (strict) or with not fl(p - mean) < bound, or 256 where there is none,
    as float64. fl(p - mean) is monotone in p, so the p that pass are
    those from the result up; a NaN fails the strict test and passes the
    other. The estimate from mean + bound is kept where it passes and the
    integer below it does not; elsewhere (the sum rounded, NaN, values
    beyond 2**53) the answer is bisected."""
    above, below = (np.greater, np.less_equal) if strict else (np.greater_equal, np.less)
    est = np.add(mean, bound)
    if strict:
        np.floor(est, out=est)
        est += 1.0
    else:
        np.ceil(est, out=est)
    tmp = np.subtract(est, mean)
    good = above(tmp, bound)
    np.subtract(est, 1.0, out=tmp)
    tmp -= mean
    good &= below(tmp, bound)
    np.clip(est, 0.0, 256.0, out=est)
    bad = np.flatnonzero(~good)
    if bad.size:
        m = mean.reshape(-1)[bad]
        c = bound if np.ndim(bound) == 0 else np.reshape(bound, -1)[bad]
        lo, hi = np.zeros(bad.size), np.full(bad.size, 256.0)
        for _ in range(9):  # 257 candidates
            mid = np.floor(0.5 * (lo + hi))
            x = mid - m
            ok = (above(x, c) if strict else ~below(x, c)) | (lo >= hi)
            hi = np.where(ok, mid, hi)
            lo = np.where(ok, lo, mid + 1.0)
        est.reshape(-1)[bad] = hi
    return est


@dataclass(frozen=True)
class BackgroundModel:
    """Per-pixel luminance mean/variance, refreshed every Nth frame.

    The model is immutable: its arrays must not be changed in place, since
    the detection bounds derived from them are cached on first use."""

    mean: np.ndarray
    variance: np.ndarray
    update_interval: int = 500
    difference_threshold: float = 15.0
    learning_rate: float = 0.5
    use_variance_gate: bool = False
    sigma_gate: float = 4.0

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        var = np.asarray(self.variance, dtype=float)
        if mean.shape != var.shape:
            raise DimensionMismatch("mean/variance shapes differ")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "variance", var)

    @classmethod
    def from_frame(cls, frame: Frame, initial_variance: float = 25.0, **kw):
        px = frame.pixels.astype(float)
        return cls(mean=px, variance=np.full_like(px, initial_variance), **kw)

    @classmethod
    def constant(cls, shape, level: float = 0.0, initial_variance: float = 25.0, **kw):
        return cls(mean=np.full(shape, float(level)),
                   variance=np.full(shape, initial_variance), **kw)

    @cached_property
    def mask_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """uint8 arrays (gt, lt) such that, for every uint8 pixel value p,
        |p - mean| > threshold exactly when p > gt or p < lt. The threshold
        is difference_threshold, or sigma_gate * sqrt(variance) with the
        variance gate; a NaN mean or threshold never passes."""
        if self.use_variance_gate:
            thr = self.sigma_gate * np.sqrt(self.variance)
        else:
            thr = self.difference_threshold
        hi = _first_value(self.mean, thr, strict=True)    # p >= hi passes
        lo = _first_value(self.mean, -thr, strict=False)  # p < lo passes
        always = lo >= hi
        hi -= 1.0
        hi[always] = 0.0
        lo[always] = 255.0
        return hi.astype(np.uint8), lo.astype(np.uint8)


def update_background(model: BackgroundModel, frame: Frame) -> BackgroundModel:
    """Blend the frame into the background if its number falls on the
    update interval; otherwise return the model unchanged."""
    if frame.pixels.shape != model.mean.shape:
        raise DimensionMismatch(
            f"frame {frame.pixels.shape} vs model {model.mean.shape}")
    if frame.index % model.update_interval != 0:
        return model
    lam = model.learning_rate
    px = frame.pixels.astype(float)
    new_mean = (1.0 - lam) * model.mean + lam * px
    diff2 = (px - model.mean) ** 2
    new_var = (1.0 - lam) * model.variance + lam * diff2
    return replace(model, mean=new_mean, variance=new_var)


def _region_moments(diff, keep):
    """Centroid, area and orientation statistics over the kept pixels,
    weighted by difference value normalized to the regional peak."""
    ys, xs = np.nonzero(keep)
    peak = float(diff[ys, xs].max())
    w = diff[ys, xs] / peak
    wsum = float(w.sum())
    u_raw = float((w * xs).sum() / wsum)
    v_raw = float((w * ys).sum() / wsum)
    dx = xs - u_raw
    dy = ys - v_raw
    mu20 = float((w * dx * dx).sum() / wsum) + _INTRA_PIXEL_VAR
    mu02 = float((w * dy * dy).sum() / wsum) + _INTRA_PIXEL_VAR
    mu11 = float((w * dx * dy).sum() / wsum)
    theta = 0.5 * math.atan2(2.0 * mu11, mu20 - mu02)
    theta %= math.pi
    half_tr = 0.5 * (mu20 + mu02)
    disc = math.sqrt((0.5 * (mu20 - mu02)) ** 2 + mu11 * mu11)
    lam_max = half_tr + disc
    lam_min = half_tr - disc
    ecc = ECC_DEGENERATE if lam_min <= 1e-12 else math.sqrt(lam_max / lam_min)
    return u_raw, v_raw, wsum, peak, theta, ecc


def extract_features(frame: Frame, model: BackgroundModel,
                     max_features: int = 10,
                     camera: CameraModel | None = None,
                     moment_fraction: float = 0.3) -> list[Feature]:
    """Extract blob features from a frame against the background model.

    Pixels whose absolute difference exceeds the detection threshold are
    grouped into 8-connected regions. Per region, pixels below
    ``moment_fraction`` of the regional peak are dropped before moments are
    computed. At most ``max_features`` features are returned, largest area
    first (ties by raw centroid u then v, then by the region's first pixel
    in raster order). Raises ValueError unless 0 <= moment_fraction <= 1.
    """
    if not 0.0 <= moment_fraction <= 1.0:
        raise ValueError(f"moment_fraction must lie in [0, 1], got {moment_fraction!r}")
    pixels = frame.pixels
    if pixels.shape != model.mean.shape:
        raise DimensionMismatch(
            f"frame {pixels.shape} vs model {model.mean.shape}")
    gt, lt = model.mask_bounds
    mask = np.greater(pixels, gt)
    mask |= np.less(pixels, lt)
    h, w = mask.shape
    th, tw = -(-h // _TILE), -(-w // _TILE)
    padded = mask
    if (th * _TILE, tw * _TILE) != (h, w):
        padded = np.zeros((th * _TILE, tw * _TILE), dtype=bool)
        padded[:h, :w] = mask
    tile_rows = np.bitwise_or.reduce(
        padded.view(np.uint8).reshape(th, _TILE, tw * _TILE), axis=1)
    tiles = tile_rows.reshape(th, tw, _TILE).any(axis=2)
    if not tiles.any():
        return []
    tile_labels, n_tiles = ndimage.label(tiles, structure=_EIGHT_CONNECTED)
    found = []  # (first pixel's raster index, feature)
    for k, (ty, tx) in enumerate(ndimage.find_objects(tile_labels, n_tiles), 1):
        y0, x0 = ty.start * _TILE, tx.start * _TILE
        sub = mask[y0:ty.stop * _TILE, x0:tx.stop * _TILE]
        own = np.repeat(np.repeat(tile_labels[ty, tx] == k, _TILE, 0), _TILE, 1)
        labels, count = ndimage.label(sub & own[:sub.shape[0], :sub.shape[1]],
                                      structure=_EIGHT_CONNECTED)
        for i, (ry, rx) in enumerate(ndimage.find_objects(labels, count), 1):
            comp = labels[ry, rx] == i
            # the region's bounding box in image coordinates, as the moments
            # must be taken in the same frame for bit-identical centroids
            ys = slice(ry.start + y0, ry.stop + y0)
            xs = slice(rx.start + x0, rx.stop + x0)
            d = np.abs(pixels[ys, xs].astype(float) - model.mean[ys, xs])
            peak = d[comp].max()
            keep = comp & (d >= moment_fraction * peak)
            u_loc, v_loc, area, peak, theta, ecc = _region_moments(d, keep)
            u_raw = u_loc + xs.start
            v_raw = v_loc + ys.start
            if camera is not None:
                u, v = correct_distortion(camera, (u_raw, v_raw))
            else:
                u, v = u_raw, v_raw
            first = ys.start * w + xs.start + int(np.argmax(comp[0]))
            found.append((first, Feature(u=u, v=v, u_raw=u_raw, v_raw=v_raw,
                                         area=area, peak=peak, theta=theta,
                                         ecc=ecc)))
    found.sort(key=lambda item: item[0])
    out = [f for _, f in found]
    out.sort(key=lambda f: (-f.area, f.u_raw, f.v_raw))
    return out[:max_features]


# ------------------------------------------------------------------ PGM (P5) IO

def write_pgm(path, pixels: np.ndarray) -> None:
    px = np.asarray(pixels)
    if px.dtype != np.uint8 or px.ndim != 2:
        raise ValueError("write_pgm expects a 2D uint8 array")
    h, w = px.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(px.tobytes())


def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5"):
        raise ValueError("not a binary (P5) PGM file")
    # header: magic, width, height, maxval; '#' comments allowed
    tokens = []
    pos = 2
    while len(tokens) < 3:
        m = re.compile(rb"\s*(#[^\n]*\n|\S+)").match(data, pos)
        if m is None:
            raise ValueError("truncated PGM header")
        pos = m.end()
        tok = m.group(1)
        if not tok.startswith(b"#"):
            tokens.append(tok)
    w, h, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise ValueError("only 8-bit PGM supported")
    pos += 1  # single whitespace byte after maxval
    px = np.frombuffer(data[pos: pos + w * h], dtype=np.uint8)
    if px.size != w * h:
        raise ValueError("truncated PGM body")
    return px.reshape(h, w).copy()


def load_pgm_sequence(directory, cam_id: str, fps: float = 100.0) -> Iterator[Frame]:
    """Yield frames from the sorted *.pgm files of a directory. The frame
    number is parsed from trailing digits in the stem when present,
    otherwise it is the position in the listing."""
    from pathlib import Path

    files = sorted(Path(directory).glob("*.pgm"))
    for i, path in enumerate(files):
        m = re.search(r"(\d+)$", path.stem)
        index = int(m.group(1)) if m else i
        yield Frame(cam_id=cam_id, index=index, timestamp=index / fps,
                    pixels=read_pgm(path))


# ------------------------------------------------------------- feature JSONL IO

def feature_record(frame_number: int, cam_id: str, timestamp: float,
                   feats: Sequence[Feature]) -> dict:
    return {"frame": int(frame_number), "cam": cam_id, "t": float(timestamp),
            "features": [f.as_row() for f in feats]}


def write_features_jsonl(path, records: Iterable[dict]) -> None:
    with open(path, "w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def read_features_jsonl(path) -> Iterator[dict]:
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                yield json.loads(line)

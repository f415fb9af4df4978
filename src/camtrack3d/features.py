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
bounds per pixel. The values that fail the test are the run lt..gt, so a
pixel passes exactly when the wrapped uint8 difference p - lt is at least
the run's length gt - lt + 1; the background model derives lt and that
length once, and a frame's mask costs one uint8 subtraction and one
compare (and one AND when some pixel of the model passes no value at
all, a run of length 256). A refresh of the background blends the frame
and derives the new model's bounds in one pass over blocks of rows small
enough that their float64 temporaries stay in cache; a model built any
other way derives its bounds, on first use, through the same blocks.

The mask is compacted to its occupied rows and columns, each run of them
followed by the empty line after it, and that canvas is labelled with
8-connectivity once per frame. The kept empty lines keep apart what the
dropped ones kept apart, and a region's rows and columns are consecutive
in the image, so each region maps back by its first row and column. The
difference image is computed only over each region's bounding box, and a
region's six weighted moment sums are taken as two stacked row sums, each
row summed as its own 1-D array would be.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

from .geometry import CameraModel, correct_distortion
from .netproto import FramePacket, ProtocolError, decode, encode


class DimensionMismatch(Exception):
    """Frame and background model shapes differ."""


ECC_DEGENERATE = math.inf

# moment support is treated as a union of unit pixel squares
_INTRA_PIXEL_VAR = 1.0 / 12.0

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)

# rows per pass of the background refresh: a block's float64 temporaries
# stay in cache
_BLOCK_ROWS = 32


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
    if not good.all():
        bad = np.flatnonzero(~good)
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


def _row_blocks(n: int) -> Iterator[slice]:
    """Slices of _BLOCK_ROWS rows covering n rows."""
    return (slice(y, y + _BLOCK_ROWS) for y in range(0, n, _BLOCK_ROWS))


@dataclass(frozen=True)
class BackgroundModel:
    """Per-pixel luminance mean/variance, refreshed every Nth frame.

    The model is immutable: its arrays must not be changed in place, since
    the detection bounds derived from them are cached, by the refresh that
    made the model or on first use."""

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
        bounds = np.empty((2, *self.mean.shape), dtype=np.uint8)
        for rows in _row_blocks(len(self.mean)):
            self._bounds_into(rows, bounds)
        return bounds[0], bounds[1]

    @cached_property
    def _mask_code(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """mask_bounds coded for _detection_mask: uint8 arrays (lt, width)
        such that a uint8 value p passes exactly when uint8(p - lt) >= width
        (width gt - lt + 1, or 0 where every value passes, lt > gt), and a
        boolean array that is False where no value passes (gt == 255 and
        lt == 0: a width of 256), or None when the model has no such pixel."""
        gt, lt = self.mask_bounds
        width = gt - lt  # uint8: the + 1 wraps a width of 256 to 0
        width += 1
        width[lt > gt] = 0
        never = (gt == 255) & (lt == 0)
        return lt, width, ~never if never.any() else None

    def _bounds_into(self, rows: slice, bounds: np.ndarray) -> None:
        """Write mask_bounds over `rows` into bounds[0] (gt), bounds[1] (lt)."""
        mean = self.mean[rows]
        if self.use_variance_gate:
            thr = self.sigma_gate * np.sqrt(self.variance[rows])
        else:
            thr = self.difference_threshold
        hi = _first_value(mean, thr, strict=True)    # p >= hi passes
        lo = _first_value(mean, -thr, strict=False)  # p < lo passes
        always = lo >= hi
        hi -= 1.0
        hi[always] = 0.0
        lo[always] = 255.0
        bounds[0, rows] = hi  # integers in [0, 255]: the cast is exact
        bounds[1, rows] = lo


def update_background(model: BackgroundModel, frame: Frame) -> BackgroundModel:
    """Blend the frame into the background if its number falls on the
    update interval; otherwise return the model unchanged. The blend and
    the refreshed model's mask_bounds are computed together, one block of
    rows at a time."""
    if frame.pixels.shape != model.mean.shape:
        raise DimensionMismatch(
            f"frame {frame.pixels.shape} vs model {model.mean.shape}")
    if frame.index % model.update_interval != 0:
        return model
    lam = model.learning_rate
    # one allocation for both arrays: numpy asks the system for huge pages
    # for a buffer of 4 MB or more (two 640x480 float64 arrays), so writing
    # it faults far fewer pages than writing two separate arrays
    arrays = np.empty((2, *model.mean.shape))
    new = replace(model, mean=arrays[0], variance=arrays[1])
    bounds = np.empty((2, *new.mean.shape), dtype=np.uint8)
    for rows in _row_blocks(len(new.mean)):
        px = frame.pixels[rows].astype(float)
        mean, var = model.mean[rows], model.variance[rows]
        # (1 - lam) * mean + lam * px and (1 - lam) * var + lam * (px - mean)**2
        new_mean, new_var = new.mean[rows], new.variance[rows]
        np.multiply(1.0 - lam, mean, out=new_mean)
        np.multiply(1.0 - lam, var, out=new_var)
        diff2 = np.subtract(px, mean)
        np.square(diff2, out=diff2)
        np.multiply(lam, diff2, out=diff2)
        new_var += diff2
        np.multiply(lam, px, out=px)
        new_mean += px
        new._bounds_into(rows, bounds)
    new.__dict__["mask_bounds"] = bounds[0], bounds[1]  # as the cached_property stores it
    return new


def _detection_mask(pixels: np.ndarray, model: BackgroundModel) -> np.ndarray:
    """The pixels (uint8) whose value passes the model's detection test:
    ``(pixels > gt) | (pixels < lt)`` of its mask_bounds."""
    lt, width, passable = model._mask_code
    code = np.subtract(pixels, lt)
    # the compare writes the mask over its own input: one array, not two
    mask = np.greater_equal(code, width, out=code.view(bool))
    if passable is not None:
        mask &= passable
    return mask


def _region_moments(diff, keep, peak):
    """Centroid, area and orientation statistics over the kept pixels,
    weighted by difference value normalized to the regional peak (the
    largest kept value). The six weighted sums are two stacked (3, n) row
    sums; numpy sums each contiguous row pairwise, as it sums the row
    alone, so every sum has the bits of its own .sum()."""
    ys, xs = np.nonzero(keep)
    peak = float(peak)
    rows = np.empty((3, len(xs)))
    w = rows[0]
    np.divide(diff[keep], peak, out=w)  # raster order, as ys, xs
    np.multiply(w, xs, out=rows[1])
    np.multiply(w, ys, out=rows[2])
    wsum, wx, wy = rows.sum(axis=1).tolist()  # [w, w*xs, w*ys]
    u_raw = wx / wsum
    v_raw = wy / wsum
    dx = xs - u_raw
    dy = ys - v_raw
    # rows become [wdx*dx, wdy*dy, wdx*dy], with wdx = w*dx and wdy = w*dy
    # (wdx is written over w, so wdy is taken first and wdx*dy before *= dx)
    np.multiply(w, dy, out=rows[1])
    np.multiply(w, dx, out=rows[0])
    np.multiply(rows[0], dy, out=rows[2])
    rows[0] *= dx
    rows[1] *= dy
    s20, s02, s11 = rows.sum(axis=1).tolist()
    mu20 = s20 / wsum + _INTRA_PIXEL_VAR
    mu02 = s02 / wsum + _INTRA_PIXEL_VAR
    mu11 = s11 / wsum
    theta = 0.5 * math.atan2(2.0 * mu11, mu20 - mu02)
    theta %= math.pi
    half_tr = 0.5 * (mu20 + mu02)
    disc = math.sqrt((0.5 * (mu20 - mu02)) ** 2 + mu11 * mu11)
    lam_max = half_tr + disc
    lam_min = half_tr - disc
    ecc = ECC_DEGENERATE if lam_min <= 1e-12 else math.sqrt(lam_max / lam_min)
    return u_raw, v_raw, wsum, peak, theta, ecc


def _compact(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The mask cut down to its occupied rows and columns, each run of them
    followed by the empty line after it, if any: the canvas, and the image
    row and column of each canvas row and column. Two canvas neighbours
    that are not image neighbours always include a pixel of such an empty
    line, so the canvas has the mask's 8-connected regions, each with its
    image shape."""
    keep_rows = mask.any(axis=1)
    keep_rows[1:] |= keep_rows[:-1]  # numpy reads the overlapping input first
    wide = np.compress(keep_rows, mask, axis=0)
    keep_cols = wide.any(axis=0)  # the dropped rows are empty
    keep_cols[1:] |= keep_cols[:-1]
    canvas = np.compress(keep_cols, wide, axis=1)
    return canvas, np.flatnonzero(keep_rows), np.flatnonzero(keep_cols)


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

    ``scipy.ndimage`` is imported here rather than with the module, so a
    process that only synthesizes or ships features never loads it; a
    camera process's first extraction pays that import once.
    """
    from scipy import ndimage

    if not 0.0 <= moment_fraction <= 1.0:
        raise ValueError(f"moment_fraction must lie in [0, 1], got {moment_fraction!r}")
    pixels = frame.pixels
    if pixels.shape != model.mean.shape:
        raise DimensionMismatch(
            f"frame {pixels.shape} vs model {model.mean.shape}")
    canvas, rows, cols = _compact(_detection_mask(pixels, model))
    if canvas.size == 0:
        return []
    labels, count = ndimage.label(canvas, structure=_EIGHT_CONNECTED)
    # labels follow the raster order of the regions' first pixels, and the
    # canvas keeps the image's row and column order: the stable sort below
    # breaks ties by the first pixel
    out = []
    for i, (ry, rx) in enumerate(ndimage.find_objects(labels, count), 1):
        comp = labels[ry, rx] == i
        # the region's bounding box in image coordinates, as the moments
        # must be taken in the same frame for bit-identical centroids; its
        # rows and columns are consecutive in the image
        y0, x0 = int(rows[ry.start]), int(cols[rx.start])
        ys = slice(y0, y0 + ry.stop - ry.start)
        xs = slice(x0, x0 + rx.stop - rx.start)
        d = np.subtract(pixels[ys, xs], model.mean[ys, xs])
        np.abs(d, out=d)
        peak = d[comp].max()
        keep = comp & ~(d < moment_fraction * peak)  # keeps the peak, even if inf
        u_loc, v_loc, area, peak, theta, ecc = _region_moments(d, keep, peak)
        u_raw = u_loc + xs.start
        v_raw = v_loc + ys.start
        if camera is not None:
            u, v = correct_distortion(camera, (u_raw, v_raw))
        else:
            u, v = u_raw, v_raw
        out.append(Feature(u=u, v=v, u_raw=u_raw, v_raw=v_raw,
                           area=area, peak=peak, theta=theta, ecc=ecc))
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

def write_features_jsonl(path, packets: Iterable[FramePacket]) -> None:
    """One JSON line per packet:
    ``{"frame": N, "cam": id, "t": seconds, "features": [[u, v, area, peak, theta, ecc], ...]}``."""
    with open(path, "w") as f:
        for p in packets:
            f.write(json.dumps({"frame": p.frame, "cam": p.cam_id, "t": p.timestamp_us / 1e6,
                                "features": p.features.tolist()}) + "\n")


# what a line that is not a record raises on its way through the codec
_BAD_RECORD = (ValueError, TypeError, KeyError, AttributeError, OverflowError,
               RecursionError, ProtocolError)


def read_features_jsonl(path, drops: dict[str, int] | None = None) -> Iterator[FramePacket]:
    """The packets of a feature JSONL file, in file order. Each record goes
    through the wire codec, so the file obeys the wire's rules; a line that
    is not such a record is skipped and counted in ``drops["undecodable"]``."""
    with open(path, "rb") as f:
        for line in f:
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                rows = np.array(rec.get("features", []), dtype="<f8")
                if rows.size and (rows.ndim != 2 or rows.shape[1] != 6):
                    raise ValueError(f"feature rows of shape {rows.shape}")
                packet = decode(encode(FramePacket(
                    cam_id=rec["cam"], frame=rec["frame"],
                    timestamp_us=round(rec.get("t", 0.0) * 1e6), features=rows)))
            except _BAD_RECORD:
                if drops is not None:
                    drops["undecodable"] = drops.get("undecodable", 0) + 1
                continue
            yield packet

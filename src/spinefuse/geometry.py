"""Affine augmentation applied consistently to an image and its landmarks."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (GrayImage, LandmarkSet, Rng, ValidationError, _box, _finite, _frozen,
                   _positive_finite)
from .preprocess import _round_u8


@dataclass(frozen=True)
class AffineTransform2D:
    """2x3 matrix [[a, b, tx], [c, d, ty]] mapping (x, y) to
    (a*x + b*y + tx, c*x + d*y + ty). Must be invertible."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.shape != (2, 3):
            raise ValidationError(f"affine matrix must be 2x3, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("affine matrix must be finite")
        if abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]) < 1e-12:
            raise ValidationError("singular transform")
        object.__setattr__(self, "matrix", _frozen(m))

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map an (N, 2) array of (x, y) points forward."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.matrix[:, :2].T + self.matrix[:, 2]

    def invert(self) -> "AffineTransform2D":
        lin = self.matrix[:, :2]
        inv = np.linalg.inv(lin)
        return AffineTransform2D(np.hstack([inv, (-inv @ self.matrix[:, 2])[:, None]]))


@dataclass(frozen=True)
class AugmentationRanges:
    """Uniform sampling ranges for translation (px), rotation (deg), scale."""

    tx: tuple[float, float] = (-35.0, 35.0)
    ty: tuple[float, float] = (-8.0, 8.0)
    angle_deg: tuple[float, float] = (-25.0, 25.0)
    scale: tuple[float, float] = (0.7, 1.3)

    def __post_init__(self):
        for name in ("tx", "ty", "angle_deg", "scale"):
            lo, hi = getattr(self, name)
            if not (_finite(lo) and _finite(hi) and lo <= hi):
                raise ValidationError(f"bad {name} range: ({lo}, {hi})")
        if self.scale[0] <= 0:
            raise ValidationError(f"scale must stay positive, got {self.scale}")


def sample_augmentation(rng: Rng, ranges: AugmentationRanges) -> tuple[float, float, float, float]:
    """Draw one (tx, ty, angle_deg, scale) tuple, each component uniform
    over its range.

    Draw order is fixed (tx, ty, angle, scale) so a given stream position
    always yields the same tuple.
    """
    return (
        rng.uniform(*ranges.tx),
        rng.uniform(*ranges.ty),
        rng.uniform(*ranges.angle_deg),
        rng.uniform(*ranges.scale),
    )


def build_transform(tx: float, ty: float, angle_deg: float, scale: float,
                    center: tuple[float, float]) -> AffineTransform2D:
    """Compose scale, then rotation, then translation about ``center``.

    p -> R(angle) * scale * (p - center) + center + (tx, ty), with R in the
    y-down pixel frame: a positive angle turns image content clockwise on
    screen.
    """
    _positive_finite("scale", scale)
    th = math.radians(angle_deg)
    a = scale * math.cos(th)
    b = -scale * math.sin(th)
    c = scale * math.sin(th)
    d = scale * math.cos(th)
    cx, cy = center
    return AffineTransform2D(np.array([
        [a, b, cx + tx - a * cx - b * cy],
        [c, d, cy + ty - c * cx - d * cy],
    ]))


# pixels per strip of warp_image: enough to amortize numpy's call overhead,
# few enough that a strip's float64 temporaries stay in cache
_STRIP_PIXELS = 8192


def _reach(a: float, k: np.ndarray, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row, the bounds of the open interval of real x with
    lo < a * x + k < hi; the interval is empty where they do not ascend."""
    if a == 0:
        inside = (lo < k) & (k < hi)
        return np.where(inside, -np.inf, np.inf), np.where(inside, np.inf, -np.inf)
    with np.errstate(over="ignore"):  # a subnormal slope sends a bound to +-inf
        p, q = (lo - k) / a, (hi - k) / a
    return np.minimum(p, q), np.maximum(p, q)


def _spans(inv: np.ndarray, box: tuple[int, int, int, int], w: int,
           h: int) -> tuple[np.ndarray, np.ndarray]:
    """Per output row, the columns [start, stop) whose sample under ``inv``
    can reach the box (r0, r1, c0, c1); a row that reaches nothing gets
    (w, 0), which widens no union of spans.

    A sample at sx <= c0 - 1 or sx >= c1 (or sy <= r0 - 1 or sy >= r1) has
    each of its four corners outside the box or at weight 0. On a row, the
    samples inside form one open interval of x. Its bounds are widened by
    2^-48 of the magnitudes summed into sx (or sy) and into the bounds,
    which covers the rounding of both.
    """
    r0, r1, c0, c1 = box
    ys = np.arange(h, dtype=np.float64)
    (a, b, e), (c, d, f) = inv
    tol_x = 2.0 ** -48 * (abs(a) * w + abs(b) * h + abs(e) + w + h)
    tol_y = 2.0 ** -48 * (abs(c) * w + abs(d) * h + abs(f) + w + h)
    lo_x, hi_x = _reach(a, b * ys + e, c0 - 1 - tol_x, c1 + tol_x)
    lo_y, hi_y = _reach(c, d * ys + f, r0 - 1 - tol_y, r1 + tol_y)
    start = np.clip(np.floor(np.maximum(lo_x, lo_y)) + 1.0, 0, w).astype(np.intp)
    stop = np.clip(np.ceil(np.minimum(hi_x, hi_y)), 0, w).astype(np.intp)
    empty = start >= stop
    start[empty], stop[empty] = w, 0
    return start, stop


def warp_image(img: GrayImage, t: AffineTransform2D) -> GrayImage:
    """Resample the image through the inverse map with bilinear weights.

    Output pixel p takes the bilinear sample of the input at t^-1(p);
    samples falling outside the input grid contribute intensity 0.
    Dimensions and spacing are unchanged. Only the output pixels whose
    sample can reach the input's nonzero box are computed, in strips of
    rows about ``_STRIP_PIXELS`` pixels each (one row when a row is wider);
    every other pixel is exactly 0. A computed pixel takes the same
    operations as over the whole grid at once, so the bytes depend on
    neither the box nor the strips.
    """
    h, w = img.pixels.shape
    out = np.zeros((h, w), dtype=np.uint8)
    r0, r1, c0, c1 = box = _box(img.pixels.any(axis=1), img.pixels.any(axis=0))
    inv = t.invert().matrix
    start, stop = _spans(inv, box, w, h)
    rows = np.flatnonzero(start < stop)
    if not rows.size:
        return GrayImage(out, img.spacing)

    # the box with a zero border, one pixel before it and two after it
    pw = c1 - c0 + 3
    padded = np.zeros((r1 - r0 + 3, pw), dtype=np.uint8)
    padded[1:-2, 1:-2] = img.pixels[r0:r1, c0:c1]
    flat = padded.ravel()
    top, last = int(rows[0]), int(rows[-1]) + 1
    while top < last:
        # the longest run of rows from top whose union of spans fits a strip
        lo = np.minimum.accumulate(start[top:last])
        hi = np.maximum.accumulate(stop[top:last])
        fits = (hi - lo) * np.arange(1, last + 1 - top) <= _STRIP_PIXELS
        end = top + max(1, int(np.count_nonzero(fits)))
        lo, hi = int(lo[end - top - 1]), int(hi[end - top - 1])
        x = np.arange(lo, hi, dtype=np.float64)
        y = np.arange(top, end, dtype=np.float64)
        sx = inv[0, 0] * x[None, :] + inv[0, 1] * y[:, None] + inv[0, 2]
        sy = inv[1, 0] * x[None, :] + inv[1, 1] * y[:, None] + inv[1, 2]

        # Clipped onto [c0 - 1, c1] x [r0 - 1, r1], a sample outside the box
        # keeps its pixel at 0: each corner reads the zero border or has
        # weight 0. A sample inside is not moved, and reads what it would
        # read from the whole grid. Weights are >= 0, so a corner that
        # reads 0 adds (wx * wy) * 0 = +0, which leaves the sum bitwise
        # unchanged.
        np.clip(sx, c0 - 1.0, c1, out=sx)
        np.clip(sy, r0 - 1.0, r1, out=sy)
        x0 = np.floor(sx)
        y0 = np.floor(sy)
        # the fractional parts, in place of the samples
        fx = np.subtract(sx, x0, out=sx)
        fy = np.subtract(sy, y0, out=sy)
        gx = 1.0 - fx
        gy = 1.0 - fy

        top_left = ((y0 + (1.0 - r0)) * pw + (x0 + (1.0 - c0))).astype(np.intp)
        acc = (gx * gy) * flat.take(top_left)
        acc += (fx * gy) * flat.take(top_left + 1)
        acc += (gx * fy) * flat.take(top_left + pw)
        acc += (fx * fy) * flat.take(top_left + (pw + 1))
        out[top:end, lo:hi] = _round_u8(acc)
        top = end
    return GrayImage(out, img.spacing)


def warp_landmarks(lms: LandmarkSet, t: AffineTransform2D) -> LandmarkSet:
    """Map landmarks forward through the transform, in the same frame.

    Points may leave the frame; ``in_bounds_mask`` of the result tells
    which stayed.
    """
    return LandmarkSet(t.apply(lms.points), lms.frame)


_MAX_TRIES = 100


def sample_valid_augmentation(rng: Rng, ranges: AugmentationRanges,
                              lms: LandmarkSet) -> AffineTransform2D:
    """Sample until the augmentation keeps every landmark in frame; it turns
    and scales about the frame's centre, ((w - 1) / 2, (h - 1) / 2).

    Silently clipping labels would corrupt training targets, so draws that
    push any landmark out are discarded. Raises after ``_MAX_TRIES`` draws.
    """
    center = ((lms.frame.width - 1) / 2, (lms.frame.height - 1) / 2)
    for _ in range(_MAX_TRIES):
        t = build_transform(*sample_augmentation(rng, ranges), center)
        if warp_landmarks(lms, t).in_bounds_mask().all():
            return t
    raise ValidationError(
        f"no augmentation kept all landmarks in frame after {_MAX_TRIES} tries"
    )

"""Affine augmentation applied consistently to an image and its landmarks."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GrayImage, LandmarkSet, Rng, ValidationError, _frozen, _positive_finite
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
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
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


# pixels per row strip of warp_image: enough rows to amortize numpy's call
# overhead, few enough that a strip's float64 temporaries stay in cache
_STRIP_PIXELS = 8192


def warp_image(img: GrayImage, t: AffineTransform2D) -> GrayImage:
    """Resample the image through the inverse map with bilinear weights.

    Output pixel p takes the bilinear sample of the input at t^-1(p);
    samples falling outside the input grid contribute intensity 0.
    Dimensions and spacing are unchanged. The output is computed in strips
    of whole rows, about ``_STRIP_PIXELS`` pixels each (one row when a row
    is wider); every pixel takes the same operations as over the whole
    grid at once, so the bytes do not depend on the strip size.
    """
    h, w = img.pixels.shape
    inv = t.invert().matrix
    pw = w + 3
    padded = np.zeros((h + 3, pw), dtype=np.uint8)
    padded[1:h + 1, 1:w + 1] = img.pixels
    flat = padded.ravel()
    xs = np.arange(w, dtype=np.float64)
    out = np.empty((h, w), dtype=np.uint8)
    rows = max(1, _STRIP_PIXELS // w)
    for top in range(0, h, rows):
        ys = np.arange(top, min(top + rows, h), dtype=np.float64)
        sx = inv[0, 0] * xs[None, :] + inv[0, 1] * ys[:, None] + inv[0, 2]
        sy = inv[1, 0] * xs[None, :] + inv[1, 1] * ys[:, None] + inv[1, 2]

        # A sample beyond [-1, w] x [-1, h] has all four corners outside the
        # grid. Clipped onto that range, each of its corners reads the zero
        # border or has weight 0, and the border (one pixel before the grid,
        # two after it) takes every other outside corner. Weights are >= 0,
        # so an outside corner adds (wx * wy) * 0 = +0, which leaves the sum
        # bitwise unchanged.
        np.clip(sx, -1.0, w, out=sx)
        np.clip(sy, -1.0, h, out=sy)
        x0 = np.floor(sx)
        y0 = np.floor(sy)
        fx = sx - x0
        fy = sy - y0
        gx = 1.0 - fx
        gy = 1.0 - fy

        top_left = ((y0 + 1.0) * pw + (x0 + 1.0)).astype(np.intp)
        acc = (gx * gy) * flat.take(top_left)
        acc += (fx * gy) * flat.take(top_left + 1)
        acc += (gx * fy) * flat.take(top_left + pw)
        acc += (fx * fy) * flat.take(top_left + (pw + 1))
        out[top:top + rows] = _round_u8(acc)
    return GrayImage(out, img.spacing)


def warp_landmarks(lms: LandmarkSet, t: AffineTransform2D) -> LandmarkSet:
    """Map landmarks forward through the transform, in the same frame.

    Points may leave the frame; ``in_bounds_mask`` of the result tells
    which stayed.
    """
    return LandmarkSet(t.apply(lms.points), lms.frame)


_MAX_TRIES = 100


def sample_valid_augmentation(
    rng: Rng,
    ranges: AugmentationRanges,
    lms: LandmarkSet,
    center: tuple[float, float],
) -> AffineTransform2D:
    """Sample until the augmentation keeps every landmark in frame.

    Silently clipping labels would corrupt training targets, so draws that
    push any landmark out are discarded. Raises after ``_MAX_TRIES`` draws.
    """
    for _ in range(_MAX_TRIES):
        t = build_transform(*sample_augmentation(rng, ranges), center)
        if warp_landmarks(lms, t).in_bounds_mask().all():
            return t
    raise ValidationError(
        f"no augmentation kept all landmarks in frame after {_MAX_TRIES} tries"
    )

"""Intensity and geometry normalization applied before any predictor."""
from __future__ import annotations

import numpy as np

from .core import GrayImage, LandmarkSet, PixelFrame


def _round_u8(vals: np.ndarray) -> np.ndarray:
    # round half away from zero, saturating; np.round would round half to even.
    # One temporary, rounded in place; a scalar becomes a 0-d array
    out = np.asarray(vals + 0.5)
    np.floor(out, out=out)
    return np.clip(out, 0, 255, out=out).astype(np.uint8)


def equalize_histogram(img: GrayImage) -> GrayImage:
    """Spread the intensity histogram over the full 8-bit range.

    Output intensity is round((cdf(v) - cdf_min) / (P - cdf_min) * 255) where
    cdf is the cumulative pixel count over 256 bins, cdf_min the smallest
    nonzero cdf value, and P the pixel count. A constant image equalizes to
    itself (the denominator would be zero and any constant output is equally
    uninformative). Dimensions and spacing are unchanged.
    """
    hist = np.bincount(img.pixels.ravel(), minlength=256)
    cdf = hist.cumsum()
    total = int(cdf[-1])
    cdf_min = int(cdf[hist.nonzero()[0][0]])
    if cdf_min == total:
        return img
    lut = _round_u8((cdf - cdf_min) / float(total - cdf_min) * 255.0)
    return GrayImage(lut[img.pixels], img.spacing)


def resize_bilinear(img: GrayImage, frame: PixelFrame) -> GrayImage:
    """Bilinear resample onto the frame's out_w x out_h grid, with
    half-pixel-center alignment and edge clamping.

    Output pixel (x, y) samples the source at
    ((x + 0.5) * width / out_w - 0.5, (y + 0.5) * height / out_h - 0.5).
    Spacing is rescaled by width / out_w. At the input's own frame every
    sample lands on its pixel, so the input is returned as it is.
    """
    if frame == img.frame:
        return img
    src = img.pixels
    h, w = src.shape
    out_w, out_h = frame.width, frame.height

    sx = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    sy = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    sx = np.clip(sx, 0.0, w - 1.0)
    sy = np.clip(sy, 0.0, h - 1.0)

    x0 = np.floor(sx).astype(int)
    y0 = np.floor(sy).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0

    # interpolate along x once per source row, then blend rows y0 and y1 of that
    across = src[:, x0] * (1 - fx) + src[:, x1] * fx
    out = across[y0] * (1 - fy)[:, None] + across[y1] * fy[:, None]
    return GrayImage(_round_u8(out), img.spacing * (w / out_w))


def resize_landmarks(lms: LandmarkSet, frame: PixelFrame) -> LandmarkSet:
    """Scale landmark coordinates from their pixel frame to a new one.

    x is scaled by the ratio of the frames' widths and y by that of their
    heights, so each point keeps its position as a fraction of the frame.
    """
    lms.validate_bounds()
    scale = np.array([frame.width / lms.frame.width, frame.height / lms.frame.height])
    return LandmarkSet(lms.points * scale, frame)

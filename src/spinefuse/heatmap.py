"""Gaussian heatmap synthesis and peak decoding."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LandmarkSet, ValidationError, _frozen


def _usable_sigma(sigma: float) -> bool:
    """Whether a Gaussian of this width can be evaluated: sigma is positive
    and finite, and the denominator 2*sigma*sigma does not underflow to 0
    (below about 1.5e-162 it does, and every exponent turns into -inf or
    NaN)."""
    return math.isfinite(sigma) and sigma > 0 and 2.0 * sigma * sigma > 0


@dataclass(frozen=True)
class GaussianSpec:
    """Center, width, and peak amplitude of one Gaussian spot."""

    center: tuple[float, float]
    sigma: float
    amplitude: float = 1.0

    def __post_init__(self):
        x0, y0 = self.center
        if not (math.isfinite(x0) and math.isfinite(y0)):
            raise ValidationError(f"non-finite center: {self.center}")
        if not _usable_sigma(self.sigma):
            raise ValidationError(
                f"sigma must be positive and finite, and 2*sigma*sigma must not "
                f"underflow to 0, got {self.sigma}")
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValidationError(f"amplitude must be positive and finite, got {self.amplitude}")


@dataclass(frozen=True)
class Heatmap:
    """Dense grid of non-negative finite scores, one value per pixel."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise ValidationError(f"heatmap must be a non-empty 2-D array, got shape {arr.shape}")
        # NaN and +-inf all reach min or max, so two reductions check both
        lo, hi = arr.min(), arr.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("heatmap values must be finite")
        if lo < 0:
            raise ValidationError("heatmap values must be non-negative")
        object.__setattr__(self, "values", _frozen(arr))

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def height(self) -> int:
        return self.values.shape[0]


def render_gaussian(spec: GaussianSpec, width: int, height: int) -> Heatmap:
    """Evaluate the Gaussian at every integer pixel of a width x height grid.

    No truncation radius is applied: every pixel holds the exact product of
    the two 1-D exponentials the 2-D one separates into (fusion in log space
    relies on the tails). Only the region where that product is exactly 0,
    beyond where an exponential underflows, is filled without computing it.
    """
    return Heatmap(_gaussian_grid(spec, width, height))


def _gaussian_grid(spec: GaussianSpec, width: int, height: int) -> np.ndarray:
    """The raw, writable array :func:`render_gaussian` wraps."""
    r0, c0, block = _gaussian_block(spec, width, height)
    vals = np.zeros((height, width))
    vals[r0:r0 + block.shape[0], c0:c0 + block.shape[1]] = block
    return vals


def _gaussian_block(spec: GaussianSpec, width: int,
                    height: int) -> tuple[int, int, np.ndarray]:
    """Top row, left column and values of the block of the rendered grid
    that spans every nonzero pixel; each pixel outside it is exactly 0."""
    if width <= 0 or height <= 0:
        raise ValidationError(f"non-positive grid: {width}x{height}")
    x0, y0 = spec.center
    two_s2 = 2.0 * spec.sigma * spec.sigma
    ex = np.exp(-((np.arange(width, dtype=np.float64) - x0) ** 2) / two_s2)
    ey = np.exp(-((np.arange(height, dtype=np.float64) - y0) ** 2) / two_s2)
    # a pixel is ey[y] * ex[x], so it is 0 unless both factors are nonzero
    cols, rows = np.flatnonzero(ex), np.flatnonzero(ey)
    if not (cols.size and rows.size):
        return 0, 0, np.zeros((0, 0))
    c0, c1, r0, r1 = int(cols[0]), int(cols[-1]) + 1, int(rows[0]), int(rows[-1]) + 1
    block = np.outer(ey[r0:r1], ex[c0:c1])
    if spec.amplitude != 1.0:
        block *= spec.amplitude
    return r0, c0, block


def render_label_stack(lms: LandmarkSet, sigma: float, width: int, height: int) -> list[Heatmap]:
    """One unit-peak heatmap per landmark, channel order matching point order."""
    return [
        render_gaussian(GaussianSpec((float(x), float(y)), sigma), width, height)
        for x, y in lms.points
    ]


def decode_argmax(hm: Heatmap) -> tuple[int, int]:
    """Grid coordinates of the maximum value; row-major first index on ties."""
    vals = hm.values
    top = vals.max()
    # values are non-negative by type, so a zero maximum means an all-zero map
    if top <= 0:
        raise ValidationError("cannot decode an all-zero heatmap")
    # np.argmax copies an array that is not writeable, as a Heatmap's values
    # are; the first pixel equal to the maximum is the same index
    idx = int(np.argmax(vals == top))
    return idx % hm.width, idx // hm.width


def decode_centroid(hm: Heatmap, window: int = 3) -> tuple[float, float]:
    """Intensity-weighted centroid of the window x window patch at the argmax.

    The patch is clamped at the grid border. ``window`` must be odd.
    """
    if window < 1 or window % 2 == 0:
        raise ValidationError(f"window must be odd and positive, got {window}")
    ax, ay = decode_argmax(hm)
    return _centroid_at(hm.values.shape, ax, ay, window, lambda ys, xs: hm.values[ys, xs])


def _centroid_at(shape: tuple[int, int], ax: int, ay: int, window: int,
                 weights) -> tuple[float, float]:
    """Centroid of the window x window patch at (ax, ay) of a grid of
    ``shape``, clamped at the grid border; ``weights(rows, cols)`` gives the
    patch for two slices."""
    half = window // 2
    x0, x1 = max(0, ax - half), min(shape[1] - 1, ax + half)
    y0, y1 = max(0, ay - half), min(shape[0] - 1, ay + half)
    patch = weights(slice(y0, y1 + 1), slice(x0, x1 + 1))
    total = patch.sum()
    # offsets relative to the argmax so mirror terms of a symmetric patch
    # cancel exactly and the centroid of a symmetric peak is the argmax
    dx = np.arange(x0 - ax, x1 - ax + 1, dtype=np.float64)
    dy = np.arange(y0 - ay, y1 - ay + 1, dtype=np.float64)
    return (
        ax + float((patch.sum(axis=0) * dx).sum() / total),
        ay + float((patch.sum(axis=1) * dy).sum() / total),
    )

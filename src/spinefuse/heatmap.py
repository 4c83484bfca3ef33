"""Gaussian heatmap synthesis and peak decoding."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import LandmarkSet, PixelFrame, ValidationError, _frozen, _positive_finite


def _usable_sigma(name: str, sigma: float) -> float:
    """The rule for a Gaussian width: positive and finite, and 2*sigma*sigma
    must not underflow to 0 (below about 1.5e-162 every exponent would be
    -inf or NaN). Returns sigma, or raises a ValidationError naming it."""
    _positive_finite(name, sigma)
    if not 2.0 * sigma * sigma > 0:
        raise ValidationError(f"{name} is so small that 2*sigma*sigma underflows to 0, "
                              f"got {sigma}")
    return sigma


def _gaussian_exponents(center: tuple[float, float], sigma: float, width: int,
                        height: int) -> tuple[np.ndarray, np.ndarray]:
    """-(d*d)/(2*sigma*sigma) for the distance d of each column from the
    center's x and of each row from its y; the Gaussian at pixel (y, x) is
    exp(lx[x]) * exp(ly[y]).

    Overflow is ignored: an overflowing square or quotient means the true
    exponent is below -1.8e308, so -inf is exact (exp gives 0, and a fused
    score of -inf ranks below every finite one) while sigma stays below
    about 1e152.
    """
    x0, y0 = center
    two_s2 = 2.0 * sigma * sigma
    with np.errstate(over="ignore"):
        lx = -((np.arange(width, dtype=np.float64) - x0) ** 2) / two_s2
        ly = -((np.arange(height, dtype=np.float64) - y0) ** 2) / two_s2
    return lx, ly


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
        _usable_sigma("sigma", self.sigma)
        _positive_finite("amplitude", self.amplitude)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Heatmap:
    """Grid of non-negative finite scores, one value per pixel.

    Each map records its support, the rows ``r0:r1`` and columns ``c0:c1``
    outside which every value is exactly 0, and its maximum, and it stores
    only the block of values inside that box, in float64. A rendered map
    gets the box of its Gaussians' nonzero blocks, and a fused product the
    box of its fusion window; any other map (``Heatmap(values)``, an HMAP
    channel) gets the tight box of the given array's nonzero values, or the
    empty box if it has none. The given array is never kept. Values must be
    bool, integer or float; NaN, inf and negative values are nonzero, so
    they lie inside the box, where validation refuses them. Validation,
    decoding, fusion and HMAP writes read only the block, and fusion uses
    the maximum to bound its window.

    ``values`` is a dense float64 grid built from the block the first time
    it is asked for; a -0.0 there reads back as 0.0.
    """

    # the values inside the support
    _block: np.ndarray
    _support: tuple[int, int, int, int]
    # (height, width)
    _shape: tuple[int, int]
    _top: float

    def __init__(self, values: np.ndarray, *, _support=None, _shape=None):
        # _support and _shape are private: passed by _render and fuse_product,
        # which build only the box's float64 block of a (height, width) grid
        self.__post_init__(values, _support, _shape)

    def __post_init__(self, values, support, block_shape):
        # the validating constructor, under the name bench/tracer.py patches
        arr = np.asarray(values)
        if arr.dtype.kind not in "biuf":
            raise ValidationError(f"heatmap values must be bool, integer or float, "
                                  f"got dtype {arr.dtype}")
        shape = block_shape or arr.shape
        if len(shape) != 2 or 0 in shape:
            raise ValidationError(f"heatmap must be a non-empty 2-D array, got shape {shape}")
        block = arr
        if not block_shape:
            # a signalling NaN sets numpy's invalid flag when it is compared
            # or cast; it is refused below like any NaN
            with np.errstate(invalid="ignore"):
                nonzero = arr != 0
                r0, r1, c0, c1 = support = _box(nonzero.any(axis=1), nonzero.any(axis=0))
                # the cast to float64; adding +0.0 also turns -0.0 into 0.0
                block = np.add(arr[r0:r1, c0:c1], 0.0, dtype=np.float64)
        # NaN and +-inf all reach min or max, so two reductions check both;
        # every value outside the box is 0, which passes both checks and
        # raises no maximum of non-negative values
        lo, hi = (block.min(), block.max()) if block.size else (0.0, 0.0)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("heatmap values must be finite")
        if lo < 0:
            raise ValidationError("heatmap values must be non-negative")
        object.__setattr__(self, "_block", _frozen(block))
        object.__setattr__(self, "_shape", shape)
        object.__setattr__(self, "_support", support)
        object.__setattr__(self, "_top", float(hi))

    @cached_property
    def values(self) -> np.ndarray:
        """The dense grid, frozen float64; the same array on every access."""
        return _frozen(self._window(slice(0, self.height), slice(0, self.width)))

    def __repr__(self) -> str:
        return f"Heatmap(values={self.values!r})"

    @property
    def width(self) -> int:
        return self._shape[1]

    @property
    def height(self) -> int:
        return self._shape[0]

    def _window(self, ys: slice, xs: slice) -> np.ndarray:
        """The values in rows ``ys`` and columns ``xs``, two in-grid slices
        of step 1: a view of the block when the support holds the window,
        else a copy, zero outside the support."""
        r0, r1, c0, c1 = self._support
        if r0 <= ys.start and ys.stop <= r1 and c0 <= xs.start and xs.stop <= c1:
            return self._block[ys.start - r0:ys.stop - r0, xs.start - c0:xs.stop - c0]
        out = np.zeros((ys.stop - ys.start, xs.stop - xs.start))
        y0, y1 = max(ys.start, r0), min(ys.stop, r1)
        x0, x1 = max(xs.start, c0), min(xs.stop, c1)
        if y1 > y0 and x1 > x0:
            out[y0 - ys.start:y1 - ys.start, x0 - xs.start:x1 - xs.start] = \
                self._block[y0 - r0:y1 - r0, x0 - c0:x1 - c0]
        return out


def render_gaussian(spec: GaussianSpec, width: int, height: int) -> Heatmap:
    """Evaluate the Gaussian at every integer pixel of a width x height grid.

    No truncation radius is applied: every pixel holds the exact product of
    the two 1-D exponentials the 2-D one separates into (fusion in log space
    relies on the tails). Only the region where that product is exactly 0,
    beyond where an exponential underflows, is filled without computing it.
    """
    return _render((spec,), width, height)


def _render(specs, width: int, height: int) -> Heatmap:
    """The Gaussians of ``specs``, max-combined over the box spanning their
    nonzero blocks.

    Each is computed only over its nonzero block: outside it the rendered
    Gaussian is 0, which max leaves as is. A single block is the map's
    block as it is; several are max-combined into a zeroed array of the box
    that joins them. That box is the map's support.
    """
    PixelFrame(width, height)
    blocks = []
    for spec in specs:
        lx, ly = _gaussian_exponents(spec.center, spec.sigma, width, height)
        ex, ey = np.exp(lx), np.exp(ly)
        # a pixel is ey[y] * ex[x], so it is 0 unless both factors are nonzero
        r0, r1, c0, c1 = box = _box(ey > 0, ex > 0)
        if r1 > r0:
            block = np.outer(ey[r0:r1], ex[c0:c1])
            if spec.amplitude != 1.0:
                block *= spec.amplitude
            blocks.append((box, block))
    if len(blocks) == 1:
        (box, joined), = blocks
    else:
        # a map with no nonzero pixel gets the empty box
        r0s, r1s, c0s, c1s = zip(*(b for b, _ in blocks)) if blocks else ((0,),) * 4
        box = (min(r0s), max(r1s), min(c0s), max(c1s))
        joined = np.zeros((box[1] - box[0], box[3] - box[2]))
        for (r0, r1, c0, c1), block in blocks:
            part = joined[r0 - box[0]:r1 - box[0], c0 - box[2]:c1 - box[2]]
            np.maximum(part, block, out=part)
    return Heatmap(joined, _support=box, _shape=(height, width))


def _box(row_mask: np.ndarray, col_mask: np.ndarray) -> tuple[int, int, int, int]:
    """(r0, r1, c0, c1): the rows and the columns from the first to the last
    True entry of each mask, or the empty box if either mask has none."""
    rows, cols = np.flatnonzero(row_mask), np.flatnonzero(col_mask)
    if not (rows.size and cols.size):
        return 0, 0, 0, 0
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def render_label_stack(lms: LandmarkSet, sigma: float, width: int, height: int) -> list[Heatmap]:
    """One unit-peak heatmap per landmark, channel order matching point order."""
    return [
        render_gaussian(GaussianSpec((float(x), float(y)), sigma), width, height)
        for x, y in lms.points
    ]


def decode_argmax(hm: Heatmap) -> tuple[int, int]:
    """Grid coordinates of the maximum value; row-major first index on ties."""
    # values are non-negative by type, so a zero maximum means an all-zero map
    if hm._top <= 0:
        raise ValidationError("cannot decode an all-zero heatmap")
    # every pixel outside the support is 0, below the maximum, and the box
    # keeps the grid's row-major order, so its first match is the grid's.
    # np.argmax copies an array that is not writeable, as a Heatmap's
    # block is; the first pixel equal to the maximum is the same index
    r0, _, c0, c1 = hm._support
    iy, ix = divmod(int(np.argmax(hm._block == hm._top)), c1 - c0)
    return c0 + ix, r0 + iy


def decode_centroid(hm: Heatmap, window: int = 3) -> tuple[float, float]:
    """Intensity-weighted centroid of the window x window patch at the argmax.

    The patch is clamped at the grid border. ``window`` must be odd.
    """
    _odd_window(window)
    ax, ay = decode_argmax(hm)
    return _centroid_at(hm._shape, ax, ay, window, hm._window)


def _odd_window(window: int) -> int:
    """The rule for a centroid window: a positive, odd number of pixels.
    Returns window, or raises a ValidationError."""
    if window < 1 or window % 2 == 0:
        raise ValidationError(f"window must be odd and positive, got {window}")
    return window


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

"""Gaussian heatmap synthesis and peak decoding."""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (LandmarkSet, PixelFrame, ValidationError, _box, _finite, _frozen, _pair,
                   _positive_finite)


def _usable_sigma(name: str, sigma: float) -> float:
    """The rule for a Gaussian width: positive and finite, and 2*sigma*sigma
    must be neither 0 (below about 1.5e-162) nor inf (above about 9.48e153),
    or an exponent would be NaN. Returns sigma, or raises a ValidationError."""
    s = float(_positive_finite(name, sigma))
    if not 2.0 * s * s > 0:
        raise ValidationError(f"{name} is so small that 2*sigma*sigma underflows to 0, "
                              f"got {sigma}")
    if not math.isfinite(2.0 * s * s):
        raise ValidationError(f"{name} is so large that 2*sigma*sigma overflows, got {sigma}")
    return sigma


def _gaussian_exponents(center: tuple[float, float], sigma: float, width: int,
                        height: int) -> tuple[np.ndarray, np.ndarray]:
    """-(d*d)/(2*sigma*sigma) for the distance d of each column from the
    center's x and of each row from its y; the Gaussian at pixel (y, x) is
    exp(lx[x]) * exp(ly[y]).

    Overflow is ignored: for sigma below about 1e152 an overflowing square
    or quotient means an exponent below -745, where exp gives 0, and a fused
    score of -inf ranks below every finite one; :func:`_usable_sigma` keeps
    the divisor finite. Both rows are views of one array, built in one pass.
    """
    x0, y0 = center
    two_s2 = 2.0 * sigma * sigma
    rows = np.arange(max(width, height), dtype=np.float64) - [[x0], [y0]]
    with np.errstate(over="ignore"):
        np.square(rows, out=rows)
        np.negative(rows, out=rows)
        rows /= two_s2
    return rows[0, :width], rows[1, :height]


@dataclass(frozen=True)
class GaussianSpec:
    """Center, width, and peak amplitude of one Gaussian spot. The width is
    kept as a Python float, so a numpy scalar renders the bytes of its value."""

    center: tuple[float, float]
    sigma: float
    amplitude: float = 1.0

    def __post_init__(self):
        x0, y0 = _pair("center", self.center)
        if not (_finite(x0) and _finite(y0)):
            raise ValidationError(f"non-finite center: {self.center}")
        object.__setattr__(self, "sigma", float(_usable_sigma("sigma", self.sigma)))
        _positive_finite("amplitude", self.amplitude)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class Heatmap:
    """Grid of non-negative finite scores, one value per pixel.

    Each map records its support, the rows ``r0:r1`` and columns ``c0:c1``
    outside which every value is exactly 0, its maximum and the row-major
    index of its first maximum, and it stores only the block of values
    inside that box, in float64. A rendered map
    gets the box of its Gaussians' nonzero blocks, and a fused product the
    box of its fusion window; any other map (``Heatmap(values)``, an HMAP
    channel) gets the tight box of the given array's nonzero values, or the
    empty box if it has none, found by one scan: of every row of ``values``,
    or of an HMAP channel's rows that were read, the rest being holes. The
    given array is never kept. Values must be bool, integer or float; NaN,
    inf and negative values are nonzero, so they lie inside the box, where
    validation refuses them. Validation, decoding, fusion and HMAP writes
    read only the block; argmax decoding reads the recorded first maximum,
    and fusion uses it and the maximum to bound its window.

    ``values`` is a dense float64 grid built from the block the first time
    it is asked for; a -0.0 there reads back as 0.0. ``frame`` is the grid.
    """

    frame: PixelFrame
    # the values inside the support
    _block: np.ndarray
    _support: tuple[int, int, int, int]
    _top: float
    # the row-major grid index of the first maximum, if any value is nonzero
    _argmax: int

    def __init__(self, values: np.ndarray, *, _support=None, _frame=None, _rows=None):
        # _support and _frame are private: passed by _render and fuse_product,
        # which build only the box's float64 block of the frame's grid; _rows,
        # by read_heatmap_stack, holds the rows (y0, y1) it read, the rest 0
        self.__post_init__(values, _support, _frame, _rows)

    def __post_init__(self, values, support, frame, rows):
        # the validating constructor, under the name bench/tracer.py patches
        arr = np.asarray(values)
        if arr.dtype.kind not in "biuf":
            raise ValidationError(f"heatmap values must be bool, integer or float, "
                                  f"got dtype {arr.dtype}")
        block = arr
        if frame is None:
            if arr.ndim != 2:
                raise ValidationError(f"heatmap must be a non-empty 2-D array, "
                                      f"got shape {arr.shape}")
            frame = PixelFrame(arr.shape[1], arr.shape[0])
            y0, y1 = rows or (0, frame.height)
            # a signalling NaN sets numpy's invalid flag when it is compared
            # or cast; it is refused below like any NaN
            with np.errstate(invalid="ignore"):
                nonzero = arr[y0:y1] != 0
                held = np.zeros(frame.height, dtype=bool)
                held[y0:y1] = nonzero.any(axis=1)
                r0, r1, _, _ = _box(held, held)
                # the columns are scanned only over the rows holding a nonzero
                # value; the empty box's r0 - y0 = r1 - y0 slices no row
                r0, r1, c0, c1 = support = _box(held, nonzero[r0 - y0:r1 - y0].any(axis=0))
                # the cast to float64; adding +0.0 also turns -0.0 into 0.0
                block = np.add(arr[r0:r1, c0:c1], 0.0, dtype=np.float64)
        # NaN and +-inf all reach min or the first maximum (argmax stops at
        # the first NaN), so two reductions check both; every value outside
        # the box is 0, which passes both checks and raises no maximum of
        # non-negative values
        first, lo, hi = 0, 0.0, 0.0
        if block.size:
            at = int(block.argmax())
            lo, hi = block.min(), block.flat[at]
            # the box keeps the grid's row-major order and every pixel
            # outside it is 0, so unless every value is 0 the block's first
            # maximum is the grid's
            r0, _, c0, c1 = support
            iy, ix = divmod(at, c1 - c0)
            first = (r0 + iy) * frame.width + c0 + ix
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError("heatmap values must be finite")
        if lo < 0:
            raise ValidationError("heatmap values must be non-negative")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "_block", _frozen(block))
        object.__setattr__(self, "_support", support)
        object.__setattr__(self, "_top", float(hi))
        object.__setattr__(self, "_argmax", first)

    @cached_property
    def values(self) -> np.ndarray:
        """The dense grid, frozen float64; the same array on every access."""
        return _frozen(self._window(slice(0, self.frame.height), slice(0, self.frame.width)))

    def __repr__(self) -> str:
        return f"Heatmap(values={self.values!r})"

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


def render_gaussian(spec: GaussianSpec, frame: PixelFrame) -> Heatmap:
    """Evaluate the Gaussian at every integer pixel of the frame's grid.

    No truncation radius is applied: every pixel holds the exact product of
    the two 1-D exponentials the 2-D one separates into (fusion in log space
    relies on the tails). Only the region where that product is exactly 0,
    beyond where an exponential underflows, is filled without computing it.
    """
    return _render([(spec,)], frame)[0]


def _render(channels, frame: PixelFrame) -> list[Heatmap]:
    """One map per spec sequence of ``channels`` on the frame's grid: its
    Gaussians, each computed only over its nonzero block, outside which it
    is 0.

    Sharing: the whole-numbered centres of one sigma that lie inside the
    grid form one family, since x - c is exact for every pixel index x and
    their blocks are slices of one unit block, the outer product of the
    factors of their last centre on a grid that reaches every one's pixels.
    Every other (center, sigma) is a family of its own. A family's unit
    block is built on its first use and dropped after its last, and an
    amplitude other than 1 scales a new array, so it is never written.

    Combining: a map of one block keeps that block; a joined map
    max-combines every block into the zeroed array of its joined box.
    """
    width, height = frame.width, frame.height
    families = {}
    for key in dict.fromkeys((spec.center, spec.sigma) for specs in channels for spec in specs):
        (x, y), sigma = key
        shared = (0 <= x < width and 0 <= y < height
                  and float(x).is_integer() and float(y).is_integer())
        families.setdefault(sigma if shared else key, []).append(key)
    # pixel (r, c) of a key's Gaussian is element (r + oy, c + ox) of its
    # family's unit block, for (family, oy, ox, box) = place[key], kept for
    # each key with a nonzero pixel in its box (r0, r1, c0, c1); a factor's
    # exponent falls with the distance from its centre, so its nonzero
    # entries form one run
    place, factors = {}, []
    for family in families.values():
        xs, ys = zip(*(center for center, _ in family))
        x1, y1 = max(xs), max(ys)
        lx, ly = _gaussian_exponents((x1, y1), family[0][1], width + int(x1 - min(xs)),
                                     height + int(y1 - min(ys)))
        uy, ux = np.exp(ly, out=ly), np.exp(lx, out=lx)
        a0, a1, b0, b1 = _box(uy > 0, ux > 0)
        for key in family:
            (x, y), _ = key
            dy, dx = int(y1 - y), int(x1 - x)
            r0, r1 = max(a0 - dy, 0), min(a1 - dy, height)
            c0, c1 = max(b0 - dx, 0), min(b1 - dx, width)
            if r1 > r0 and c1 > c0:
                place[key] = (len(factors), dy - a0, dx - b0, (r0, r1, c0, c1))
        factors.append((uy[a0:a1], ux[b0:b1]))
    # each channel's specs with a nonzero pixel, as (place, amplitude); a
    # family's unit block lives until the last of these uses
    placed = [[(place[key], spec.amplitude) for spec in specs
               if (key := (spec.center, spec.sigma)) in place] for specs in channels]
    left = Counter(f for specs in placed for (f, _, _, _), _ in specs)
    units, stack = {}, []
    for specs in placed:
        # a map with no nonzero pixel gets the empty box
        r0s, r1s, c0s, c1s = zip(*(box for (_, _, _, box), _ in specs)) if specs else ((0,),) * 4
        row0, col0 = min(r0s), min(c0s)
        joined = None if len(specs) == 1 else np.zeros((max(r1s) - row0, max(c1s) - col0))
        for (f, oy, ox, (r0, r1, c0, c1)), amplitude in specs:
            unit = units.get(f)
            if unit is None:
                unit = units[f] = np.outer(*factors[f])
            left[f] -= 1
            if not left[f]:
                del units[f]
            block = unit[r0 + oy:r1 + oy, c0 + ox:c1 + ox]
            block = block if amplitude == 1.0 else block * amplitude
            if joined is None:
                joined = block
            else:
                # a block is a non-negative product, never -0 or NaN, so its
                # max with the zeroed array is the block itself, bit for bit
                part = joined[r0 - row0:r1 - row0, c0 - col0:c1 - col0]
                np.maximum(part, block, out=part)
        stack.append(Heatmap(joined, _support=(row0, max(r1s), col0, max(c1s)), _frame=frame))
    return stack


def render_label_stack(lms: LandmarkSet, sigma: float) -> list[Heatmap]:
    """One unit-peak heatmap per landmark on the landmarks' frame, channel
    order matching point order."""
    return _render([(GaussianSpec((float(x), float(y)), sigma),) for x, y in lms.points],
                   lms.frame)


def decode_argmax(hm: Heatmap) -> tuple[int, int]:
    """Grid coordinates of the maximum value; row-major first index on ties."""
    # values are non-negative by type, so a zero maximum means an all-zero map
    if hm._top <= 0:
        raise ValidationError("cannot decode an all-zero heatmap")
    iy, ix = divmod(hm._argmax, hm.frame.width)
    return ix, iy


def decode_centroid(hm: Heatmap) -> tuple[float, float]:
    """Intensity-weighted centroid of the 3x3 patch at the argmax, clamped at
    the grid border: the rule of :func:`_centroid_at`."""
    ax, ay = decode_argmax(hm)
    return _centroid_at(hm.frame, ax, ay, hm._window)


def _centroid_at(frame: PixelFrame, ax: int, ay: int, weights) -> tuple[float, float]:
    """Centroid of the 3x3 patch at (ax, ay) of the frame's grid, clamped at
    the grid border; ``weights(rows, cols)`` gives the patch for two slices.
    The one centroid rule: ``decode_centroid`` and centroid fusion both
    call it."""
    x0, x1 = max(0, ax - 1), min(frame.width - 1, ax + 1)
    y0, y1 = max(0, ay - 1), min(frame.height - 1, ay + 1)
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

"""Fusing a predicted heatmap with a coordinate prediction turned Gaussian prior.

The coordinate prediction is treated as the mean of an isotropic Gaussian
belief; multiplying that prior with the predicted heatmap concentrates mass
where both branches agree, and decoding the product picks the consensus peak.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import astuple, dataclass, replace
from enum import Enum

import numpy as np

from .core import LandmarkSet, PixelFrame, ValidationError, _box, _is_number, _positive_finite
from .heatmap import (GaussianSpec, Heatmap, _centroid_at, _gaussian_exponents, _usable_sigma,
                      render_gaussian)


class DecodeMethod(Enum):
    ARGMAX = "argmax"
    CENTROID = "centroid"


@dataclass(frozen=True)
class FusionConfig:
    """Prior width (px), numeric floor, and decoding method.

    ``prior_sigma`` is either one value for every landmark or a per-landmark
    sequence. Fusion multiplies in log space, where two far-apart narrow
    Gaussians cannot underflow to all zeros; only the predicted map is
    clamped to ``floor_epsilon``.
    """

    prior_sigma: float | tuple[float, ...] = 6.0
    floor_epsilon: float = 1e-12
    decode: DecodeMethod = DecodeMethod.ARGMAX

    def __post_init__(self):
        sigma = self.prior_sigma
        # a string is not a sequence of widths, nor a bool a width
        many = isinstance(sigma, Sequence) and not isinstance(sigma, (str, bytes))
        sigmas = tuple(sigma) if many else (sigma,)
        if not all(_is_number(s) for s in sigmas):
            raise ValidationError(f"prior_sigma must be a number or a sequence of numbers, "
                                  f"got {sigma!r}")
        if not sigmas:
            raise ValidationError("bad per-landmark prior sigmas: ()")
        sigmas = tuple(float(_usable_sigma("prior_sigma", s)) for s in sigmas)
        object.__setattr__(self, "prior_sigma", sigmas if many else sigmas[0])
        object.__setattr__(self, "floor_epsilon",
                           float(_positive_finite("floor_epsilon", self.floor_epsilon)))
        if not isinstance(self.decode, DecodeMethod):
            raise ValidationError(f"unknown decode method: {self.decode!r}")

    def _per_landmark(self, landmarks: int) -> list[FusionConfig]:
        """One config of one width for each of ``landmarks`` landmarks; raises
        a ValidationError if there are per-landmark widths of another count."""
        if not isinstance(self.prior_sigma, tuple):
            return [self] * landmarks
        if len(self.prior_sigma) != landmarks:
            raise ValidationError(f"{len(self.prior_sigma)} prior sigmas for "
                                  f"{landmarks} landmarks")
        return [replace(self, prior_sigma=s) for s in self.prior_sigma]


def coord_to_prior(coord: tuple[float, float], prior_sigma: float,
                   frame: PixelFrame) -> Heatmap:
    """Render the Gaussian belief around a coordinate prediction on the frame's grid.

    Out-of-frame coordinates are allowed: the tail still covers the frame
    and the in-frame maximum sits at the nearest border point.
    """
    return render_gaussian(GaussianSpec((float(coord[0]), float(coord[1])), prior_sigma), frame)


# float32 rounds every value at or below 2^-150 to 0; the fused map is
# flushed one binade lower, where exp is still a normal float64
_LOG_FLUSH = math.log(2.0 ** -151)


def _logsum(lx: np.ndarray, ly: np.ndarray, values: np.ndarray,
            floor_epsilon: float) -> np.ndarray:
    """lx + ly + log(max(values, eps)) over one block of the grid: the log
    of the product of the prior and the map clamped at eps."""
    out = lx[None, :] + ly[:, None]
    clamped = np.maximum(values, floor_epsilon)
    out += np.log(clamped, out=clamped)
    return out


def fuse_product(predicted: Heatmap, coord: tuple[float, float],
                 cfg: FusionConfig) -> tuple[tuple[float, float], Heatmap]:
    """``(point, map)`` from one log-sum L: the point :func:`fuse_and_decode`
    returns, and the fused map exp(L - max L), each value below 2^-151 set to 0.

    The map is the product of the prior and the map clamped at eps. It is 1
    at the argmax pixel of L, and also at an earlier pixel whose L is within
    exp's resolution at 1 of the peak. L is built only over the box of
    pixels able to score ``best + log 2^-151``, the window rule of
    :func:`fuse_and_decode` one offset lower; every pixel outside it scores
    below ``max L + log 2^-151`` and is 0. Every input
    :func:`fuse_and_decode` refuses is refused with its message.
    """
    point, box, logsum = _fuse(predicted, coord, cfg, _LOG_FLUSH)
    logsum -= logsum.max()
    # the flushed entries keep their negative logs, which the maximum zeroes
    np.exp(logsum, out=logsum, where=logsum >= _LOG_FLUSH)
    return point, Heatmap(np.maximum(logsum, 0.0, out=logsum), _support=box,
                          _frame=predicted.frame)


def fuse_and_decode(predicted: Heatmap, coord: tuple[float, float],
                    cfg: FusionConfig) -> tuple[float, float]:
    """Fuse one channel with its coordinate prediction and decode the peak.

    Both methods read the log-domain sum of :func:`fuse_product`,
    lx + ly + log(max(predicted, eps)). Argmax takes its row-major first
    maximum; centroid weights the 3x3 patch around that same index by
    exp(logsum - peak), the values :func:`fuse_product` holds there.

    The sum is built only inside the window of :func:`_fuse` at offset 0.
    It holds every pixel able to reach ``best``, so its first maximum is
    the whole grid's, ties included.
    """
    return _fuse(predicted, coord, cfg, 0.0)[0]


def _fuse(predicted: Heatmap, coord: tuple[float, float], cfg: FusionConfig,
          offset: float):
    """``(point, box, logsum)``: the point :func:`fuse_and_decode`
    returns, decoded from the log-sum over the box of every pixel able to
    score ``best + offset`` or more, with ``best`` the larger score of the
    pixel nearest the coordinate and of the map's first maximum, and
    ``offset`` <= 0.

    Both are scores of pixels, so ``best`` is at most max L. No pixel
    scores more than its prior plus log(max(top, eps)), with top the map's
    maximum, so each pixel outside the box scores strictly less than
    ``best + offset``. A lower offset gives a box that holds the
    offset-0 box, and each value in it is the same sum of the same three
    terms, so its row-major first maximum is the same pixel with the same
    peak. A coordinate so far from the grid that the nearest pixel's prior
    is -inf makes every score -inf, and is refused with a ValidationError
    naming it: the prior cannot rank pixels there.
    """
    if isinstance(cfg.prior_sigma, tuple):
        raise ValidationError("per-landmark prior sigmas are fused by fuse_batch alone")
    eps = cfg.floor_epsilon
    # the log prior's two separable terms; pixel (y, x) sums lx[x] + ly[y]
    frame = predicted.frame
    lx, ly = _gaussian_exponents(coord, cfg.prior_sigma, frame.width, frame.height)
    if predicted._top <= 0:
        raise ValidationError("cannot fuse an all-zero predicted heatmap")
    # the pixel nearest the coordinate, where both prior terms peak; 0 off the support
    nx, ny = int(lx.argmax()), int(ly.argmax())
    r0, r1, c0, c1 = predicted._support
    v = predicted._block[ny - r0, nx - c0] if r0 <= ny < r1 and c0 <= nx < c1 else 0.0
    best = float((lx[nx] + ly[ny]) + np.log(max(v, eps)))
    if not math.isfinite(best):
        raise ValidationError(f"coordinate ({float(coord[0])}, {float(coord[1])}) "
                              "is too far from the grid")
    # any pixel's score is a lower bound on max L, so the map's first
    # maximum may raise best; the margin covers best's log and log top being
    # rounded separately. Float addition is monotone, so a column whose
    # prior falls short of reach on the nearest pixel's row falls short on
    # every row
    log_top = math.log(max(predicted._top, eps))
    py, px = divmod(predicted._argmax, frame.width)
    best = max(best, float(lx[px] + ly[py]) + log_top)
    reach = best + offset - log_top - 1e-12 * (1.0 + abs(best) + abs(log_top) + abs(offset))
    r0, r1, c0, c1 = box = _box(ly + lx[nx] >= reach, lx + ly[ny] >= reach)
    window = _logsum(lx[c0:c1], ly[r0:r1], predicted._window(slice(r0, r1), slice(c0, c1)),
                     eps)
    i = int(np.argmax(window))
    peak = float(window.flat[i])
    iy, ix = divmod(i, window.shape[1])
    ax, ay = c0 + ix, r0 + iy
    if cfg.decode is DecodeMethod.ARGMAX:
        return (float(ax), float(ay)), box, window
    return _centroid_at(
        frame, ax, ay,
        lambda ys, xs: np.exp(_logsum(lx[xs], ly[ys], predicted._window(ys, xs), eps) - peak)
    ), box, window


def fuse_batch(predicted_stack: list[Heatmap], coords: LandmarkSet,
               cfg: FusionConfig, *, _dumps: list[Heatmap] | None = None) -> LandmarkSet:
    """Channelwise fuse-and-decode over a heatmap stack.

    Channel k is fused with coordinate k, under a config that holds
    landmark k's prior width; output order matches input order.
    """
    # _dumps is private: a list that, when given, receives each channel's
    # fuse_product map, fused with its point from one log-sum
    if len(predicted_stack) != len(coords):
        raise ValidationError(
            f"length mismatch: {len(predicted_stack)} heatmap channels "
            f"vs {len(coords)} coordinates"
        )
    cfgs = cfg._per_landmark(len(predicted_stack))
    if not predicted_stack:
        return LandmarkSet(np.empty((0, 2)), coords.frame)
    frame = predicted_stack[0].frame
    out = np.empty((len(predicted_stack), 2))
    for k, (hm, coord, cfg) in enumerate(zip(predicted_stack, coords.points, cfgs)):
        if hm.frame != frame:
            raise ValidationError(
                f"channel {k}: shape {astuple(hm.frame)} differs from "
                f"channel 0 shape {astuple(frame)}"
            )
        coord = (coord[0], coord[1])
        try:
            if _dumps is None:
                out[k] = fuse_and_decode(hm, coord, cfg)
            else:
                out[k], dump = fuse_product(hm, coord, cfg)
                _dumps.append(dump)
        except ValidationError as exc:
            raise ValidationError(f"channel {k}: {exc}") from exc
    return LandmarkSet(out, frame)

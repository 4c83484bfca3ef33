"""Fusing a predicted heatmap with a coordinate prediction turned Gaussian prior.

The coordinate prediction is treated as the mean of an isotropic Gaussian
belief; multiplying that prior with the predicted heatmap concentrates mass
where both branches agree, and decoding the product picks the consensus peak.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import LandmarkSet, PixelFrame, ValidationError, _positive_finite
from .heatmap import (GaussianSpec, Heatmap, _box, _centroid_at, _gaussian_exponents,
                      _usable_sigma, render_gaussian)


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
        scalar = isinstance(self.prior_sigma, (int, float))
        sigmas = (self.prior_sigma,) if scalar else tuple(float(s) for s in self.prior_sigma)
        if not sigmas:
            raise ValidationError("bad per-landmark prior sigmas: ()")
        for sig in sigmas:
            _usable_sigma("prior_sigma", sig)
        if not scalar:
            object.__setattr__(self, "prior_sigma", sigmas)
        _positive_finite("floor_epsilon", self.floor_epsilon)
        if not isinstance(self.decode, DecodeMethod):
            raise ValidationError(f"unknown decode method: {self.decode!r}")

    def _check_landmarks(self, landmarks: int) -> None:
        """The rule that per-landmark prior sigmas cover every landmark:
        raises a ValidationError if there are fewer sigmas than landmarks."""
        if isinstance(self.prior_sigma, tuple) and len(self.prior_sigma) < landmarks:
            raise ValidationError(f"{len(self.prior_sigma)} prior sigmas for "
                                  f"{landmarks} landmarks")

    def sigma_for(self, channel: int | None = None) -> float:
        if isinstance(self.prior_sigma, tuple):
            if channel is None:
                raise ValidationError("per-landmark prior sigmas need a channel index")
            if not 0 <= channel < len(self.prior_sigma):
                raise ValidationError(
                    f"channel {channel} out of range for {len(self.prior_sigma)} prior sigmas"
                )
            return self.prior_sigma[channel]
        return float(self.prior_sigma)


def coord_to_prior(coord: tuple[float, float], prior_sigma: float,
                   width: int, height: int) -> Heatmap:
    """Render the Gaussian belief around a coordinate prediction.

    Out-of-frame coordinates are allowed: the tail still covers the frame
    and the in-frame maximum sits at the nearest border point.
    """
    return render_gaussian(GaussianSpec((float(coord[0]), float(coord[1])), prior_sigma),
                           width, height)


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


def _scored_box(predicted: Heatmap, lx: np.ndarray, ly: np.ndarray, eps: float,
                offset: float, coord: tuple[float, float]):
    """``((r0, r1, c0, c1), logsum)``: the box of every pixel able to score
    ``best + offset`` or more, with ``best`` the score of the pixel nearest
    the coordinate, and the log-sum over it.

    No pixel scores more than its prior plus log(max(top, eps)), with top
    the map's maximum, so each pixel outside the box scores strictly less
    than ``best + offset``. A coordinate so far from the grid that the
    nearest pixel's prior is -inf makes every score -inf, and is refused
    with a ValidationError naming it: the prior cannot rank pixels there.
    """
    # the pixel nearest the coordinate, where both prior terms peak
    nx, ny = int(np.argmax(lx)), int(np.argmax(ly))
    best = float(_logsum(lx[nx:nx + 1], ly[ny:ny + 1],
                         predicted._window(slice(ny, ny + 1), slice(nx, nx + 1)), eps)[0, 0])
    if not math.isfinite(best):
        raise ValidationError(f"coordinate ({float(coord[0])}, {float(coord[1])}) "
                              "is too far from the grid")
    # the margin covers best's log and log top being rounded separately;
    # float addition is monotone, so a column whose prior falls short of
    # reach on the nearest pixel's row falls short on every row
    log_top = math.log(max(predicted._top, eps))
    reach = best + offset - log_top - 1e-12 * (1.0 + abs(best) + abs(log_top) + abs(offset))
    r0, r1, c0, c1 = box = _box(ly + lx[nx] >= reach, lx + ly[ny] >= reach)
    return box, _logsum(lx[c0:c1], ly[r0:r1], predicted._window(slice(r0, r1), slice(c0, c1)),
                        eps)


def fuse_product(predicted: Heatmap, coord: tuple[float, float], cfg: FusionConfig,
                 channel: int | None = None) -> Heatmap:
    """The fused map: exp(L - max L) with L the sum :func:`fuse_and_decode`
    reads, and every value below 2^-151 set to 0.

    That is the product of the prior and the map clamped at eps,
    peak-normalized so its maximum is exactly 1; its row-major first
    maximum is the argmax :func:`fuse_and_decode` returns. L is built only
    over the box of pixels that can score at least ``best + log 2^-151``,
    the window rule of :func:`fuse_and_decode` one offset lower: every
    pixel outside it scores below ``max L + log 2^-151`` and is 0.
    """
    lx, ly = _gaussian_exponents(coord, cfg.sigma_for(channel), predicted.width,
                                 predicted.height)
    box, logsum = _scored_box(predicted, lx, ly, cfg.floor_epsilon, _LOG_FLUSH, coord)
    logsum -= logsum.max()
    # the flushed entries keep their negative logs, which the maximum zeroes
    np.exp(logsum, out=logsum, where=logsum >= _LOG_FLUSH)
    return Heatmap(np.maximum(logsum, 0.0, out=logsum), _support=box,
                   _shape=predicted._shape)


def fuse_and_decode(predicted: Heatmap, coord: tuple[float, float],
                    cfg: FusionConfig, channel: int | None = None) -> tuple[float, float]:
    """Fuse one channel with its coordinate prediction and decode the peak.

    Both methods read the log-domain sum of :func:`fuse_product`,
    lx + ly + log(max(predicted, eps)). Argmax takes its row-major first
    maximum; centroid weights the 3x3 patch around that same index by
    exp(logsum - peak), the values :func:`fuse_product` holds there.

    The sum is built only inside the box of :func:`_scored_box` at offset
    0. It holds every pixel able to reach ``best``, so its first maximum is
    the whole grid's, ties included.
    """
    eps = cfg.floor_epsilon
    # the log prior's two separable terms; pixel (y, x) sums lx[x] + ly[y]
    lx, ly = _gaussian_exponents(coord, cfg.sigma_for(channel), predicted.width,
                                 predicted.height)
    if predicted._top <= 0:
        raise ValidationError("cannot fuse an all-zero predicted heatmap")
    (r0, _, c0, _), window = _scored_box(predicted, lx, ly, eps, 0.0, coord)
    i = int(np.argmax(window))
    peak = float(window.flat[i])
    iy, ix = divmod(i, window.shape[1])
    ax, ay = c0 + ix, r0 + iy
    if cfg.decode is DecodeMethod.ARGMAX:
        return float(ax), float(ay)
    return _centroid_at(
        predicted._shape, ax, ay, 3,
        lambda ys, xs: np.exp(_logsum(lx[xs], ly[ys], predicted._window(ys, xs), eps) - peak))


def fuse_batch(predicted_stack: list[Heatmap], coords: LandmarkSet,
               cfg: FusionConfig) -> LandmarkSet:
    """Channelwise fuse-and-decode over a heatmap stack.

    Channel k is fused with coordinate k; output order matches input order.
    """
    if len(predicted_stack) != len(coords):
        raise ValidationError(
            f"length mismatch: {len(predicted_stack)} heatmap channels "
            f"vs {len(coords)} coordinates"
        )
    cfg._check_landmarks(len(predicted_stack))
    if not predicted_stack:
        return LandmarkSet(np.empty((0, 2)), coords.frame)
    shape = predicted_stack[0]._shape
    out = np.empty((len(predicted_stack), 2))
    for k, (hm, coord) in enumerate(zip(predicted_stack, coords.points)):
        if hm._shape != shape:
            raise ValidationError(
                f"channel {k}: shape {hm._shape[::-1]} differs from "
                f"channel 0 shape {shape[::-1]}"
            )
        try:
            out[k] = fuse_and_decode(hm, (coord[0], coord[1]), cfg, channel=k)
        except ValidationError as exc:
            raise ValidationError(f"channel {k}: {exc}") from exc
    return LandmarkSet(out, PixelFrame(shape[1], shape[0]))

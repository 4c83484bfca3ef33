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
    sequence. The floor keeps the product total: a raw product of two
    far-apart narrow Gaussians underflows to all-zeros, so both factors are
    clamped to ``floor_epsilon`` before multiplying in log space.
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


def _logsum(lx: np.ndarray, ly: np.ndarray, values: np.ndarray,
            floor_epsilon: float) -> np.ndarray:
    """max(lx + ly, log eps) + log(max(values, eps)) over one block of the
    grid: the log of the clamped product of the prior and the map."""
    out = lx[None, :] + ly[:, None]
    np.maximum(out, math.log(floor_epsilon), out=out)
    clamped = np.maximum(values, floor_epsilon)
    out += np.log(clamped, out=clamped)
    return out


def fuse_product(predicted: Heatmap, coord: tuple[float, float], cfg: FusionConfig,
                 channel: int | None = None) -> Heatmap:
    """The fused map: exp(L - max L) with L the sum :func:`fuse_and_decode`
    reads, built over the whole grid.

    That is the clamped product of the predicted map and the coordinate's
    Gaussian prior, peak-normalized so its maximum is exactly 1; its
    row-major first maximum is the argmax :func:`fuse_and_decode` returns.
    """
    lx, ly = _gaussian_exponents(coord, cfg.sigma_for(channel), predicted.width,
                                 predicted.height)
    logsum = _logsum(lx, ly, predicted.values, cfg.floor_epsilon)
    logsum -= logsum.max()
    return Heatmap(np.exp(logsum, out=logsum))


def _outside_can_reach(best: float, top: float, eps: float) -> bool:
    """Whether a pixel outside the prior's window can score ``best`` or more.

    Every outside pixel p <= top scores log eps + log(max(p, eps)), at most
    the ceiling log eps + log(max(top, eps)). The ceiling's log and the
    scores' logs are rounded separately, and a log is not promised to be
    monotone to the last ulp, so only a best that clears the ceiling by a
    margin far above that rounding rules the outside out.
    """
    log_eps, log_top = math.log(eps), math.log(max(top, eps))
    ceiling = log_eps + log_top
    return best <= ceiling + 1e-12 * (1.0 + abs(log_eps) + abs(log_top))


def fuse_and_decode(predicted: Heatmap, coord: tuple[float, float],
                    cfg: FusionConfig, channel: int | None = None) -> tuple[float, float]:
    """Fuse one channel with its coordinate prediction and decode the peak.

    Both methods read the log-domain sum of :func:`fuse_product`,
    max(log prior, log eps) + log(max(predicted, eps)). Argmax takes its
    row-major first maximum; centroid weights the 3x3 patch around that
    same index by exp(logsum - peak), the values :func:`fuse_product`
    holds there.

    The sum is first built only inside the window of rows and columns
    whose prior can rise above log eps. Every pixel outside it scores at
    most the ceiling log eps + log(max(top, eps)), with top the map's
    maximum, so a window best that clears the ceiling is the whole grid's
    first maximum. When the window is empty, or its best does not clear
    the ceiling, the sum is built over the whole grid. Either way the
    result is the argmax of the whole grid's sum, ties included.
    """
    eps = cfg.floor_epsilon
    # the log prior's two separable terms; pixel (y, x) sums lx[x] + ly[y]
    lx, ly = _gaussian_exponents(coord, cfg.sigma_for(channel), predicted.width,
                                 predicted.height)
    if predicted._top <= 0:
        raise ValidationError("cannot fuse an all-zero predicted heatmap")
    log_eps = math.log(eps)
    # float addition is monotone, so a column whose prior cannot beat
    # log eps on the best row cannot beat it on any row
    r0, r1, c0, c1 = _box(ly + lx.max() > log_eps, lx + ly.max() > log_eps)
    if r1 > r0:
        inside = predicted._window(slice(r0, r1), slice(c0, c1))
        window = _logsum(lx[c0:c1], ly[r0:r1], inside, eps)
        i = int(np.argmax(window))
    if r1 <= r0 or _outside_can_reach(float(window.flat[i]), predicted._top, eps):
        # the window is empty, or a pixel outside it could match its best
        r0, c0 = 0, 0
        window = _logsum(lx, ly, predicted.values, eps)
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

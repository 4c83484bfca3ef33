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

from .core import LandmarkSet, PixelFrame, ValidationError
from .heatmap import GaussianSpec, Heatmap, _centroid_at, render_gaussian


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
        sig = self.prior_sigma
        if isinstance(sig, (int, float)):
            if not (math.isfinite(sig) and sig > 0):
                raise ValidationError(f"prior_sigma must be positive, got {sig}")
        else:
            sig = tuple(float(s) for s in sig)
            if not sig or any(not (math.isfinite(s) and s > 0) for s in sig):
                raise ValidationError(f"bad per-landmark prior sigmas: {sig}")
            object.__setattr__(self, "prior_sigma", sig)
        if not (math.isfinite(self.floor_epsilon) and self.floor_epsilon > 0):
            raise ValidationError(f"floor_epsilon must be positive, got {self.floor_epsilon}")
        if not isinstance(self.decode, DecodeMethod):
            raise ValidationError(f"unknown decode method: {self.decode!r}")

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


def _log_clamped(values: np.ndarray, floor: float) -> np.ndarray:
    out = np.maximum(values, floor)
    np.log(out, out=out)
    return out


def fuse_product(predicted: Heatmap, prior: Heatmap,
                 floor_epsilon: float = 1e-12) -> Heatmap:
    """Pointwise product of the two maps, clamped and peak-normalized.

    Computed as exp(log(max(predicted, eps)) + log(max(prior, eps)) - M)
    with M the grid maximum of the log sum, so the output peak is exactly 1
    and the argmax matches the clamped product's.
    """
    if floor_epsilon <= 0:
        raise ValidationError(f"floor_epsilon must be positive, got {floor_epsilon}")
    if predicted.values.shape != prior.values.shape:
        raise ValidationError(
            f"dimension mismatch: predicted {predicted.width}x{predicted.height} "
            f"vs prior {prior.width}x{prior.height}"
        )
    logsum = (_log_clamped(predicted.values, floor_epsilon)
              + _log_clamped(prior.values, floor_epsilon))
    return Heatmap(np.exp(logsum - logsum.max()))


def _log_prior(coord: tuple[float, float], sigma: float, width: int, height: int,
               floor_epsilon: float) -> np.ndarray:
    cx, cy = float(coord[0]), float(coord[1])
    two_s2 = 2.0 * sigma * sigma
    # scale the 1-D vectors so the grid needs only one broadcast pass
    lx = -((np.arange(width, dtype=np.float64) - cx) ** 2) / two_s2
    ly = -((np.arange(height, dtype=np.float64) - cy) ** 2) / two_s2
    out = lx[None, :] + ly[:, None]
    np.maximum(out, math.log(floor_epsilon), out=out)
    return out


def fuse_and_decode(predicted: Heatmap, coord: tuple[float, float],
                    cfg: FusionConfig, channel: int | None = None) -> tuple[float, float]:
    """Fuse one channel with its coordinate prediction and decode the peak.

    Both methods read one log-domain sum. Argmax takes its row-major first
    maximum; centroid weights the 3x3 patch around that same index by
    exp(logsum - peak), the peak-normalized product :func:`fuse_product`
    would give there.
    """
    if predicted.values.max() <= 0:
        raise ValidationError("cannot fuse an all-zero predicted heatmap")
    # exp is monotone and peak normalization is a positive scale, so the
    # argmax can be read off the log-domain sum without materializing
    # the fused map
    logsum = _log_prior(coord, cfg.sigma_for(channel), predicted.width, predicted.height,
                        cfg.floor_epsilon)
    logsum += _log_clamped(predicted.values, cfg.floor_epsilon)
    idx = int(np.argmax(logsum))
    ax, ay = idx % predicted.width, idx // predicted.width
    if cfg.decode is DecodeMethod.ARGMAX:
        return float(ax), float(ay)
    peak = logsum[ay, ax]
    return _centroid_at(logsum, ax, ay, 3, lambda patch: np.exp(patch - peak))


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
    if not predicted_stack:
        return LandmarkSet(np.empty((0, 2)), coords.frame)
    shape = predicted_stack[0].values.shape
    out = np.empty((len(predicted_stack), 2))
    for k, (hm, coord) in enumerate(zip(predicted_stack, coords.points)):
        if hm.values.shape != shape:
            raise ValidationError(
                f"channel {k}: shape {hm.values.shape[::-1]} differs from "
                f"channel 0 shape {shape[::-1]}"
            )
        try:
            out[k] = fuse_and_decode(hm, (coord[0], coord[1]), cfg, channel=k)
        except ValidationError as exc:
            raise ValidationError(f"channel {k}: {exc}") from exc
    return LandmarkSet(out, PixelFrame(shape[1], shape[0]))

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
from .heatmap import GaussianSpec, Heatmap, _centroid_at, _usable_sigma, render_gaussian


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
            if not _usable_sigma(sig):
                raise ValidationError(
                    f"prior_sigma must be positive and finite, and 2*sigma*sigma must "
                    f"not underflow to 0, got {sig}")
        if not scalar:
            object.__setattr__(self, "prior_sigma", sigmas)
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


def _log_axes(coord: tuple[float, float], sigma: float, width: int,
              height: int) -> tuple[np.ndarray, np.ndarray]:
    """The log prior's two separable terms; pixel (y, x) sums lx[x] + ly[y]."""
    cx, cy = float(coord[0]), float(coord[1])
    two_s2 = 2.0 * sigma * sigma
    lx = -((np.arange(width, dtype=np.float64) - cx) ** 2) / two_s2
    ly = -((np.arange(height, dtype=np.float64) - cy) ** 2) / two_s2
    return lx, ly


def _logsum(lx: np.ndarray, ly: np.ndarray, values: np.ndarray,
            floor_epsilon: float) -> np.ndarray:
    """max(lx + ly, log eps) + log(max(values, eps)) over one block of the grid."""
    out = lx[None, :] + ly[:, None]
    np.maximum(out, math.log(floor_epsilon), out=out)
    out += _log_clamped(values, floor_epsilon)
    return out


def _outside_best(blocks, tops, width: int, floor_epsilon: float) -> tuple[float, int]:
    """Best score and flat index of the row-major first pixel that has it,
    over blocks of the grid where the clamped prior is exactly log eps.

    ``blocks`` holds (values, row offset, column offset) and ``tops`` each
    block's maximum. The score log eps + log(max(p, eps)) rises with p, but
    distinct p can round to one score: every p <= eps scores the same floor,
    and values within a few ulps of the maximum can tie with it. Only p
    within 1e-9 (relative) of the maximum can reach its score, so just those
    are scored, or all of them once that bound reaches the floor.
    """
    top = max(tops)
    bound = top * (1.0 - 1e-9)
    scores, flats = [], []
    for (part, y, x), part_top in zip(blocks, tops):
        if top <= floor_epsilon:
            # every pixel scores the floor, so each block's first one is enough
            ys = xs = np.zeros(1, dtype=np.intp)
        elif part_top < bound:
            continue
        else:
            ys, xs = np.nonzero(part >= (bound if bound > floor_epsilon else 0.0))
        scores.append(math.log(floor_epsilon) + _log_clamped(part[ys, xs], floor_epsilon))
        flats.append((ys + y) * width + xs + x)
    scores, flats = np.concatenate(scores), np.concatenate(flats)
    best = scores.max()
    return float(best), int(flats[scores == best].min())


def fuse_and_decode(predicted: Heatmap, coord: tuple[float, float],
                    cfg: FusionConfig, channel: int | None = None) -> tuple[float, float]:
    """Fuse one channel with its coordinate prediction and decode the peak.

    Both methods read one log-domain sum, max(log prior, log eps) +
    log(max(predicted, eps)). Argmax takes its row-major first maximum;
    centroid weights the 3x3 patch around that same index by
    exp(logsum - peak), the peak-normalized product :func:`fuse_product`
    would give there.

    The sum is built only inside the window of rows and columns whose
    prior can rise above log eps. Outside it the clamped prior is exactly
    log eps, so the best pixel there is the raw map's maximum. The result
    equals the argmax of the sum over the whole grid, ties included.
    """
    values, eps, width = predicted.values, cfg.floor_epsilon, predicted.width
    lx, ly = _log_axes(coord, cfg.sigma_for(channel), width, predicted.height)
    log_eps = math.log(eps)
    # float addition is monotone, so a column whose prior cannot beat
    # log eps on the best row cannot beat it on any row
    cols = np.flatnonzero(lx + ly.max() > log_eps)
    rows = np.flatnonzero(ly + lx.max() > log_eps)
    if cols.size and rows.size:
        r0, r1, c0, c1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
    else:
        r0 = r1 = c0 = c1 = 0
    inner = values[r0:r1, c0:c1]
    outer = [(part, y, x) for part, y, x in (
        (values[:r0], 0, 0), (values[r0:r1, :c0], r0, 0),
        (values[r0:r1, c1:], r0, c1), (values[r1:], r1, 0),
    ) if part.size]
    outer_tops = [float(part.max()) for part, _, _ in outer]
    inner_top = float(inner.max()) if inner.size else 0.0
    if max(outer_tops + [inner_top]) <= 0:
        raise ValidationError("cannot fuse an all-zero predicted heatmap")

    candidates = []
    if inner.size:
        window = _logsum(lx[c0:c1], ly[r0:r1], inner, eps)
        i = int(np.argmax(window))
        iy, ix = divmod(i, c1 - c0)
        candidates.append((float(window.flat[i]), (r0 + iy) * width + c0 + ix))
    if outer:
        candidates.append(_outside_best(outer, outer_tops, width, eps))
    # an equal score goes to the row-major first pixel
    peak, idx = max(candidates, key=lambda c: (c[0], -c[1]))
    ay, ax = divmod(idx, width)
    if cfg.decode is DecodeMethod.ARGMAX:
        return float(ax), float(ay)
    return _centroid_at(
        values.shape, ax, ay, 3,
        lambda ys, xs: np.exp(_logsum(lx[xs], ly[ys], values[ys, xs], eps) - peak))


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

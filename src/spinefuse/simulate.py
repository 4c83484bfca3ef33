"""Synthetic predictor models for verifying fusion without trained networks.

The coordinate branch is modeled as ground truth plus isotropic Gaussian
scatter (with optional outliers). The heatmap branch is modeled as a clean
peak that, with some probability, gains a spurious peak at an adjacent
landmark of the chain, the failure mode that makes plain argmax decoding
jump to the wrong vertebra.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (GrayImage, LandmarkSet, PixelFrame, Rng, ValidationError, _finite, _integer,
                   _non_negative_finite, _positive_finite, _probability, _range)
from .evaluate import ComparisonReport, pck
from .fusion import DecodeMethod, FusionConfig, fuse_batch
from .heatmap import GaussianSpec, Heatmap, _render, _usable_sigma, decode_argmax
from .io import _parse_sections, _reader
from .preprocess import _round_u8


@dataclass(frozen=True)
class CoordPredictorModel:
    """Isotropic Gaussian scatter around truth, with an outlier branch."""

    noise_sigma: float
    outlier_rate: float = 0.0
    outlier_sigma: float = 0.0

    def __post_init__(self):
        _non_negative_finite("noise_sigma", self.noise_sigma)
        _probability("outlier_rate", self.outlier_rate)
        _non_negative_finite("outlier_sigma", self.outlier_sigma)


@dataclass(frozen=True)
class HeatmapPredictorModel:
    """True peak with jitter plus an occasional spurious peak at a neighbor."""

    peak_jitter_sigma: float = 0.0
    heatmap_sigma: float = 1.2
    adjacent_confusion_prob: float = 0.0
    spurious_amplitude: tuple[float, float] = (0.9, 1.1)

    def __post_init__(self):
        _non_negative_finite("peak_jitter_sigma", self.peak_jitter_sigma)
        _usable_sigma("heatmap_sigma", self.heatmap_sigma)
        _probability("adjacent_confusion_prob", self.adjacent_confusion_prob)
        lo, hi = _range("spurious_amplitude", self.spurious_amplitude)
        if not lo > 0:
            raise ValidationError(f"bad spurious_amplitude range: ({lo}, {hi})")
        object.__setattr__(self, "spurious_amplitude", (lo, hi))


@dataclass(frozen=True)
class PhantomConfig:
    """Geometry of the synthetic near-vertical landmark chain."""

    landmarks: int = 11
    width: int = 512
    height: int = 512
    spacing_mm_per_px: float = 0.5
    chain_spacing_px: float = 40.0
    wobble_px: float = 6.0

    def __post_init__(self):
        object.__setattr__(self, "landmarks", _integer("landmarks", self.landmarks))
        if self.landmarks < 2:
            raise ValidationError(f"need at least 2 landmarks, got {self.landmarks}")
        frame = PixelFrame(self.width, self.height)
        object.__setattr__(self, "width", frame.width)
        object.__setattr__(self, "height", frame.height)
        # the chain geometry below is float arithmetic on these integers
        if max(self.width, self.height) > 2 ** 53:
            raise ValidationError(f"grid {self.width}x{self.height} has a side above 2**53, "
                                  f"which a float does not hold exactly")
        if self.landmarks > self.height:
            raise ValidationError(f"{self.landmarks} landmarks need as many distinct rows, "
                                  f"but the grid has {self.height}")
        _positive_finite("spacing_mm_per_px", self.spacing_mm_per_px)
        # kept as a Python float, so a numpy scalar places the rows of its value
        object.__setattr__(self, "chain_spacing_px",
                           float(_positive_finite("chain_spacing_px", self.chain_spacing_px)))
        _non_negative_finite("wobble_px", self.wobble_px)
        if (self.landmarks - 1) * self.chain_spacing_px > self.height - 1:
            raise ValidationError(
                f"chain of {self.landmarks} landmarks spaced {self.chain_spacing_px}px "
                f"does not fit a height of {self.height}px"
            )
        cx = (self.width - 1) / 2.0
        if cx - self.wobble_px < 0 or cx + self.wobble_px > self.width - 1:
            raise ValidationError(f"wobble {self.wobble_px}px exceeds the frame")
        # stops at the first collision, which comes within height + 1 rows
        if any(self._row(i) >= self._row(i + 1) for i in range(self.landmarks - 1)):
            raise ValidationError("chain spacing too small: rows collide after rounding")

    @property
    def frame(self) -> PixelFrame:
        return PixelFrame(self.width, self.height)

    def _row(self, i: int) -> int:
        """Row of landmark i, with the chain centred in the height."""
        y0 = (self.height - 1 - (self.landmarks - 1) * self.chain_spacing_px) / 2.0
        return round(y0 + i * self.chain_spacing_px)


def generate_phantom(rng: Rng, config: PhantomConfig) -> LandmarkSet:
    """Draw one ground-truth chain: evenly spaced rows, laterally wobbled x.

    Landmark positions are rounded to integer pixels so rendered label peaks
    hit grid points exactly. y is strictly increasing down the chain, and
    every landmark is in the frame: the config checked both.
    """
    cx = (config.width - 1) / 2.0
    pts = np.empty((config.landmarks, 2))
    for i in range(config.landmarks):
        pts[i, 0] = round(cx + rng.uniform(-config.wobble_px, config.wobble_px))
        pts[i, 1] = config._row(i)
    return LandmarkSet(pts, config.frame)


def phantom_image(lms: LandmarkSet, config: PhantomConfig) -> GrayImage:
    """Render a chain as a displayable raster: bright blobs on a dark bed."""
    frame = config.frame
    blobs = _render([[GaussianSpec((float(x), float(y)), 5.0) for x, y in lms.points]], frame)[0]
    # outside the blobs' support every pixel is the bed, 15 + 220 * 0
    pixels = np.full((frame.height, frame.width), _round_u8(np.float64(15.0)))
    r0, r1, c0, c1 = blobs._support
    shade = 220.0 * blobs._block
    shade += 15.0
    pixels[r0:r1, c0:c1] = _round_u8(shade)
    return GrayImage(pixels, config.spacing_mm_per_px)


def simulate_coords(rng: Rng, gt: LandmarkSet, model: CoordPredictorModel) -> LandmarkSet:
    """Scatter each ground-truth point with the model's Gaussian noise.

    Each point consumes one uniform (outlier gate) and two normals, in that
    order, regardless of parameters, so stream positions stay aligned across
    configurations.
    """
    pts = np.empty_like(gt.points)
    for i, (x, y) in enumerate(gt.points):
        sigma = model.outlier_sigma if rng.random() < model.outlier_rate else model.noise_sigma
        pts[i, 0] = x + rng.normal(0.0, sigma)
        pts[i, 1] = y + rng.normal(0.0, sigma)
    return LandmarkSet(pts, gt.frame)


def simulate_heatmaps(rng: Rng, gt: LandmarkSet, model: HeatmapPredictorModel) -> list[Heatmap]:
    """One channel per landmark: jittered true peak, max-combined with an
    occasional spurious peak at a uniformly chosen chain neighbor.

    Channels come in landmark order on the frame of ``gt``, and each takes
    its draws from the stream in turn: two jitter normals and one
    confusion uniform; a triggered confusion takes one neighbor-choice
    uniform and one amplitude uniform.
    """
    n = len(gt)
    channels = []
    for k, (x, y) in enumerate(gt.points):
        cx = x + rng.normal(0.0, model.peak_jitter_sigma)
        cy = y + rng.normal(0.0, model.peak_jitter_sigma)
        specs = [GaussianSpec((float(cx), float(cy)), model.heatmap_sigma)]
        if rng.random() < model.adjacent_confusion_prob and n > 1:
            pick_next = rng.random() < 0.5
            if k == 0:
                nb = 1
            elif k == n - 1:
                nb = n - 2
            else:
                nb = k + 1 if pick_next else k - 1
            amp = rng.uniform(*model.spurious_amplitude)
            nx, ny = gt.points[nb]
            specs.append(GaussianSpec((float(nx), float(ny)), model.heatmap_sigma, amplitude=amp))
        channels.append(specs)
    # every draw is taken before rendering, which draws nothing
    return _render(channels, gt.frame)


@dataclass(frozen=True)
class TrialConfig:
    """Everything one comparison run needs."""

    phantom: PhantomConfig
    coords: CoordPredictorModel
    heatmaps: HeatmapPredictorModel
    fusion: FusionConfig
    threshold_mm: float
    images: int

    def __post_init__(self):
        _positive_finite("threshold", self.threshold_mm)
        object.__setattr__(self, "images", _integer("images", self.images))
        if self.images < 1:
            raise ValidationError(f"need at least one image, got {self.images}")
        self.fusion._per_landmark(self.phantom.landmarks)


METHOD_COORDS = "coords_only"
METHOD_HEATMAP = "heatmap_argmax"
METHOD_FUSED = "fused"


def run_trial(rng: Rng, config: TrialConfig) -> ComparisonReport:
    """Score coords-only, heatmap-argmax, and fused decoding on shared trials.

    Each image gets its own child stream spawned from the image index, so
    results do not depend on execution order.
    """
    cfg = config.phantom
    gts, coord_preds, heat_preds, fused_preds = [], [], [], []
    for i in range(config.images):
        stream = rng.spawn(i)
        gt = generate_phantom(stream, cfg)
        coords = simulate_coords(stream, gt, config.coords)
        stack = simulate_heatmaps(stream, gt, config.heatmaps)
        heat = np.array([decode_argmax(channel) for channel in stack], dtype=np.float64)
        gts.append(gt)
        coord_preds.append(coords)
        heat_preds.append(LandmarkSet(heat, gt.frame))
        fused_preds.append(fuse_batch(stack, coords, config.fusion))

    spacing = cfg.spacing_mm_per_px
    methods = {
        METHOD_COORDS: pck(coord_preds, gts, config.threshold_mm, spacing),
        METHOD_HEATMAP: pck(heat_preds, gts, config.threshold_mm, spacing),
        METHOD_FUSED: pck(fused_preds, gts, config.threshold_mm, spacing),
    }
    return ComparisonReport(
        images=config.images,
        landmarks_per_image=cfg.landmarks,
        threshold_mm=config.threshold_mm,
        spacing_mm_per_px=spacing,
        methods=methods,
    )


# ---------------------------------------------------------------------------
# calibration helpers
# ---------------------------------------------------------------------------

def noise_sigma_for_accuracy(accuracy: float, threshold_px: float) -> float:
    """Coordinate noise sigma giving the target hit rate at a pixel radius.

    With isotropic Gaussian error the miss probability follows the Rayleigh
    tail P(|e| > r) = exp(-r^2 / (2 sigma^2)); solving for sigma gives
    r / sqrt(-2 ln(1 - accuracy)).
    """
    if not (_finite(accuracy) and 0 < accuracy < 1):
        raise ValidationError(f"accuracy must be in (0, 1), got {accuracy}")
    _positive_finite("threshold_px", threshold_px)
    return threshold_px / math.sqrt(-2.0 * math.log(1.0 - accuracy))


def confusion_prob_for_accuracy(accuracy: float, amplitude_range: tuple[float, float]) -> float:
    """Confusion probability giving the target heatmap-argmax hit rate.

    A spurious peak steals the argmax iff its amplitude exceeds 1, so the
    miss rate is confusion_prob * P(amplitude > 1) under the uniform
    amplitude law. Requires the range to straddle 1.
    """
    lo, hi = _range("amplitude range", amplitude_range)
    if not lo < 1.0 < hi:
        raise ValidationError(f"amplitude range must straddle 1, got ({lo}, {hi})")
    p_win = (hi - 1.0) / (hi - lo)
    prob = (1.0 - accuracy) / p_win
    if not 0.0 <= prob <= 1.0:
        raise ValidationError(
            f"accuracy {accuracy} unreachable with amplitude range ({lo}, {hi})"
        )
    return prob


def calibrated_config(images: int = 4546,
                      phantom: PhantomConfig = PhantomConfig()) -> TrialConfig:
    """The comparison setup tuned to standalone accuracies of 0.713 for the
    coordinate branch and 0.65 for heatmap argmax.

    Defaults give ~50,000 landmark trials (4546 images x 11 landmarks) at
    an 8 mm threshold, which is 16 px at the default 0.5 mm/px spacing.
    The heatmap branch uses zero peak jitter so the analytic amplitude law
    holds exactly on integer-pixel ground truth.
    """
    threshold_mm = 8.0
    amplitude = (0.9, 1.1)
    return TrialConfig(
        phantom=phantom,
        coords=CoordPredictorModel(
            noise_sigma=noise_sigma_for_accuracy(0.713, threshold_mm / phantom.spacing_mm_per_px)
        ),
        heatmaps=HeatmapPredictorModel(
            peak_jitter_sigma=0.0,
            heatmap_sigma=1.2,
            adjacent_confusion_prob=confusion_prob_for_accuracy(0.65, amplitude),
            spurious_amplitude=amplitude,
        ),
        fusion=FusionConfig(prior_sigma=6.0),
        threshold_mm=threshold_mm,
        images=images,
    )


def noiseless_config(images: int = 10) -> TrialConfig:
    """Both branches exact: every method should score 1.0."""
    return TrialConfig(
        phantom=PhantomConfig(),
        coords=CoordPredictorModel(noise_sigma=0.0),
        heatmaps=HeatmapPredictorModel(peak_jitter_sigma=0.0, adjacent_confusion_prob=0.0),
        fusion=FusionConfig(prior_sigma=6.0),
        threshold_mm=8.0,
        images=images,
    )


# ---------------------------------------------------------------------------
# simulation configs
# ---------------------------------------------------------------------------

_SIM_KEYS = {
    "phantom": ("landmarks", "grid", "spacing_mm_per_px", "chain_spacing_px", "wobble_px"),
    "coords_model": ("noise_sigma_px", "outlier_rate", "outlier_sigma_px"),
    "heatmap_model": ("peak_jitter_sigma_px", "heatmap_sigma_px", "adjacent_confusion_prob",
                      "spurious_amplitude"),
    "fusion": ("prior_sigma_px", "floor_epsilon", "decode"),
    "run": ("images", "threshold_mm"),
}


@_reader
def read_sim_config(path: str | Path) -> TrialConfig:
    sections = _parse_sections(Path(path).read_text(encoding="utf-8-sig"), _SIM_KEYS,
                               optional=("outlier_rate", "outlier_sigma_px", "floor_epsilon",
                                         "decode"))
    ph, cm, hm, fu, run = (sections[name] for name in _SIM_KEYS)
    grid = ph["grid"].split()
    if len(grid) != 2:
        raise ValidationError("grid needs two integers")
    amp = hm["spurious_amplitude"].split()
    if len(amp) != 2:
        raise ValidationError("spurious_amplitude needs two values")
    sigma_parts = fu["prior_sigma_px"].split()
    prior_sigma = (float(sigma_parts[0]) if len(sigma_parts) == 1
                   else tuple(float(s) for s in sigma_parts))
    return TrialConfig(
        phantom=PhantomConfig(
            landmarks=int(ph["landmarks"]),
            width=int(grid[0]),
            height=int(grid[1]),
            spacing_mm_per_px=float(ph["spacing_mm_per_px"]),
            chain_spacing_px=float(ph["chain_spacing_px"]),
            wobble_px=float(ph["wobble_px"]),
        ),
        coords=CoordPredictorModel(
            noise_sigma=float(cm["noise_sigma_px"]),
            outlier_rate=float(cm.get("outlier_rate", CoordPredictorModel.outlier_rate)),
            outlier_sigma=float(cm.get("outlier_sigma_px", CoordPredictorModel.outlier_sigma)),
        ),
        heatmaps=HeatmapPredictorModel(
            peak_jitter_sigma=float(hm["peak_jitter_sigma_px"]),
            heatmap_sigma=float(hm["heatmap_sigma_px"]),
            adjacent_confusion_prob=float(hm["adjacent_confusion_prob"]),
            spurious_amplitude=(float(amp[0]), float(amp[1])),
        ),
        fusion=FusionConfig(
            prior_sigma=prior_sigma,
            floor_epsilon=float(fu.get("floor_epsilon", FusionConfig.floor_epsilon)),
            decode=DecodeMethod(fu.get("decode", FusionConfig.decode)),
        ),
        threshold_mm=float(run["threshold_mm"]),
        images=int(run["images"]),
    )

"""Accuracy protocol: fraction of landmarks within a millimetre threshold."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .core import LandmarkSet, ValidationError, _positive_finite


@dataclass(frozen=True)
class LandmarkStats:
    """Hit/miss and error statistics for one landmark index."""

    index: int
    total: int
    hits: int
    mean_error_mm: float
    max_error_mm: float


@dataclass(frozen=True)
class EvalReport:
    """Aggregate and per-landmark hit statistics at a millimetre threshold."""

    total: int
    hits: int
    threshold_mm: float
    spacing_mm_per_px: float
    per_landmark: tuple[LandmarkStats, ...]

    def __post_init__(self):
        if not 0 <= self.hits <= self.total:
            raise ValidationError(f"hits {self.hits} outside [0, {self.total}]")
        if sum(row.hits for row in self.per_landmark) != self.hits:
            raise ValidationError("per-landmark hits do not sum to the aggregate")
        if sum(row.total for row in self.per_landmark) != self.total:
            raise ValidationError("per-landmark totals do not sum to the aggregate")

    @property
    def accuracy(self) -> float:
        return self.hits / self.total


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side accuracy of several decoding methods on identical trials.

    ``methods`` maps method name to its EvalReport; insertion order is the
    reporting order. Improvement deltas of the last method over each earlier
    one are exposed both as absolute accuracy differences and relative gains.
    """

    images: int
    landmarks_per_image: int
    threshold_mm: float
    spacing_mm_per_px: float
    methods: dict[str, EvalReport] = field(default_factory=dict)

    def deltas(self) -> dict[str, tuple[float, float]]:
        names = list(self.methods)
        if len(names) < 2:
            return {}
        last = self.methods[names[-1]].accuracy
        out = {}
        for name in names[:-1]:
            base = self.methods[name].accuracy
            rel = (last / base - 1.0) if base > 0 else math.inf
            out[name] = (last - base, rel)
        return out


def pck(preds: list[LandmarkSet], gts: list[LandmarkSet], threshold_mm: float,
        spacing: float | list[float]) -> EvalReport:
    """Percentage of predictions strictly within ``threshold_mm`` of truth.

    A landmark is a hit iff its error is < threshold (an error exactly at
    the threshold is a miss). ``spacing`` is one mm-per-px value for every
    image or a per-image sequence.

    Raises on empty input: an evaluation over nothing is an error, never a
    silent perfect score.
    """
    if len(preds) != len(gts):
        raise ValidationError(f"{len(preds)} prediction sets vs {len(gts)} ground truths")
    if not preds:
        raise ValidationError("empty evaluation")
    _positive_finite("threshold", threshold_mm)

    if isinstance(spacing, Real):
        spacings = [_positive_finite("spacing", float(spacing))] * len(preds)
    else:
        spacings = [_positive_finite("spacing", float(s)) for s in spacing]
        if len(spacings) != len(preds):
            raise ValidationError(
                f"{len(spacings)} spacings for {len(preds)} images"
            )

    n = len(gts[0])
    if n == 0:
        raise ValidationError("empty evaluation")
    errors = np.empty((len(preds), n))
    for i, (p, g, s) in enumerate(zip(preds, gts, spacings)):
        if len(p) != n or len(g) != n:
            raise ValidationError(
                f"image {i}: {len(p)} predictions vs {len(g)} ground truths "
                f"(expected {n})"
            )
        d = p.points - g.points
        errors[i] = np.hypot(d[:, 0], d[:, 1]) * s

    hit = errors < threshold_mm
    rows = tuple(
        LandmarkStats(
            index=k,
            total=len(preds),
            hits=int(hit[:, k].sum()),
            mean_error_mm=float(errors[:, k].mean()),
            max_error_mm=float(errors[:, k].max()),
        )
        for k in range(n)
    )
    return EvalReport(
        total=errors.size,
        hits=int(hit.sum()),
        threshold_mm=float(threshold_mm),
        spacing_mm_per_px=spacings[0] if len(set(spacings)) == 1 else float("nan"),
        per_landmark=rows,
    )

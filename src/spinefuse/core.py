"""Shared domain types, validation, and deterministic randomness.

All types are immutable after construction: numpy buffers are frozen with
``writeable = False``, since maps share blocks (the renderer's unit blocks
are shared) and no holder may write what another reads.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from numbers import Integral, Rational, Real

import numpy as np


class ValidationError(ValueError):
    """Malformed domain data or file content."""


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _box(row_mask: np.ndarray, col_mask: np.ndarray) -> tuple[int, int, int, int]:
    """(r0, r1, c0, c1): the rows and the columns from the first to the last
    True entry of each mask, or the empty box if either mask has none.
    Neither mask is empty: every grid side is at least 1."""
    # argmax gives the first True, or 0 when there is none
    r0, c0 = int(row_mask.argmax()), int(col_mask.argmax())
    if not (row_mask[r0] and col_mask[c0]):
        return 0, 0, 0, 0
    return (r0, row_mask.size - int(row_mask[::-1].argmax()),
            c0, col_mask.size - int(col_mask[::-1].argmax()))


def _is_number(value) -> bool:
    """The rule for a number setting: a Real that is not a bool. A numpy
    timedelta registers as one but is a duration, so it is refused too. A
    float, the common case, skips the ABC lookup."""
    return type(value) is float or (isinstance(value, Real)
                                    and not isinstance(value, (bool, np.timedelta64)))


def _is_int(value) -> bool:
    """The rule for an integer setting: an Integral, a numpy integer say,
    that is a number as :func:`_is_number` decides."""
    return isinstance(value, Integral) and _is_number(value)


def _integer(name: str, value: int) -> int:
    """The rule for a count: an integer as :func:`_is_int` decides, returned
    as a Python int, or a ValidationError that names the setting."""
    if not _is_int(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _shown(value):
    """A refused value as its message shows it: a number by str, so an int
    or a numpy scalar reads as its digits, and anything else by repr, so the
    string '0.5' does not read as the number 0.5."""
    return value if _is_number(value) else repr(value)


def _finite(value: float) -> bool:
    """A finite number as :func:`_is_number` decides: math.isfinite, but an
    int or fraction beyond the float range is not finite."""
    if type(value) is float:
        return math.isfinite(value)
    if not _is_number(value):
        return False
    if isinstance(value, Rational):
        return -sys.float_info.max <= value <= sys.float_info.max
    return math.isfinite(value)


def _positive_finite(name: str, value: float) -> float:
    """The rule for a setting that must be a positive, finite number: returns
    the value, or raises a ValidationError that names the setting."""
    if not (_finite(value) and value > 0):
        raise ValidationError(f"{name} must be positive and finite, got {_shown(value)}")
    return value


def _non_negative_finite(name: str, value: float) -> float:
    """The rule for a setting that may be 0 but must be finite and not negative."""
    if not (_finite(value) and value >= 0):
        raise ValidationError(f"{name} must be non-negative and finite, got {_shown(value)}")
    return value


def _probability(name: str, value: float) -> float:
    """The rule for a probability: a number in [0, 1]."""
    if not (_finite(value) and 0 <= value <= 1):
        raise ValidationError(f"{name} must be in [0, 1], got {_shown(value)}")
    return value


def _pair(name: str, value) -> tuple:
    """The two items of a pair setting, which a string is not, or a
    ValidationError that names the setting."""
    if not isinstance(value, (str, bytes)):
        try:
            first, second = value
            return first, second
        except (TypeError, ValueError):
            pass
    raise ValidationError(f"{name} must be a pair, got {value!r}")


def _range(name: str, value) -> tuple[float, float]:
    """The rule for a (lo, hi) range: two finite numbers with lo <= hi,
    compared and returned as Python floats."""
    lo, hi = _pair(name, value)
    if not (_finite(lo) and _finite(hi) and float(lo) <= float(hi)):
        raise ValidationError(f"bad {name} range: ({_shown(lo)}, {_shown(hi)})")
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# images
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrayImage:
    """8-bit single-channel raster with isotropic physical pixel spacing.

    ``pixels`` is a read-only (height, width) uint8 array on the grid
    ``frame``; ``spacing`` is millimetres per pixel. Pixel (row i, col j) is
    sampled at the continuous point (x=j, y=i): x grows rightward, y grows downward.
    """

    pixels: np.ndarray
    spacing: float
    frame: PixelFrame = field(init=False)

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        if arr.ndim != 2:
            raise ValidationError(
                f"image pixels must be a non-empty 2-D array, got shape {arr.shape}"
            )
        object.__setattr__(self, "frame", PixelFrame(arr.shape[1], arr.shape[0]))
        if arr.dtype != np.uint8:
            if not (np.issubdtype(arr.dtype, np.integer)
                    and arr.min() >= 0 and arr.max() <= 255):
                raise ValidationError("image pixels must be 8-bit intensities in [0, 255]")
            arr = arr.astype(np.uint8)
        _positive_finite("spacing", self.spacing)
        object.__setattr__(self, "pixels", _frozen(arr))


# ---------------------------------------------------------------------------
# landmark sets and their pixel frames
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PixelFrame:
    """Coordinate frame of a width x height pixel grid. Building one is the
    package's only check that a grid's sides are integers of at least 1;
    they are stored as Python ints."""
    width: int
    height: int

    def __post_init__(self):
        if not (_is_int(self.width) and _is_int(self.height)):
            raise ValidationError(
                f"grid sides must be integers, got {self.width!r}x{self.height!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValidationError(f"non-positive grid: {self.width}x{self.height}")
        object.__setattr__(self, "width", int(self.width))
        object.__setattr__(self, "height", int(self.height))


@dataclass(frozen=True)
class LandmarkSet:
    """Ordered continuous (x, y) landmark coordinates in a declared frame.

    Construction requires finite coordinates only; predictions are allowed to
    fall outside the frame. Use :meth:`validate_bounds` where in-frame data is
    required (labels, resizing, dataset loading).
    """

    points: np.ndarray
    frame: PixelFrame

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValidationError(f"landmarks must have shape (N, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValidationError("landmark coordinates must be finite")
        if not isinstance(self.frame, PixelFrame):
            raise ValidationError(f"unknown frame: {self.frame!r}")
        object.__setattr__(self, "points", _frozen(pts))

    def __len__(self) -> int:
        return self.points.shape[0]

    def in_bounds_mask(self) -> np.ndarray:
        """Boolean mask of points inside the declared frame."""
        x, y = self.points[:, 0], self.points[:, 1]
        return (x >= 0) & (x < self.frame.width) & (y >= 0) & (y < self.frame.height)

    def validate_bounds(self) -> None:
        mask = self.in_bounds_mask()
        if not mask.all():
            bad = int(np.flatnonzero(~mask)[0])
            raise ValidationError(
                f"landmark {bad} at ({self.points[bad, 0]}, {self.points[bad, 1]}) "
                f"is outside frame {self.frame}"
            )


# ---------------------------------------------------------------------------
# deterministic randomness
# ---------------------------------------------------------------------------

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class Rng:
    """Portable deterministic random stream (splitmix64).

    The generator is fixed so the same seed yields bit-identical streams on
    any platform: state advances by the 64-bit golden-ratio increment and the
    output is the standard splitmix64 finalizer. Doubles take the top 53 bits.
    Each :meth:`normal` consumes exactly two uniforms (Box-Muller, second
    variate discarded), keeping stream positions easy to reason about.
    """

    seed: int
    _state: int = field(init=False, repr=False)

    def __post_init__(self):
        if not (_is_int(self.seed) and 0 <= self.seed <= _MASK64):
            raise ValidationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        self.seed = self._state = int(self.seed)

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def random(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    # uniform and normal compute in Python floats, whatever the parameters' type
    def uniform(self, lo: float, hi: float) -> float:
        return float(lo) + (float(hi) - float(lo)) * self.random()

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        # (0,1] for the radius so log never sees zero
        u1 = ((self.next_u64() >> 11) + 1) * (2.0 ** -53)
        u2 = (self.next_u64() >> 11) * (2.0 ** -53)
        r = math.sqrt(-2.0 * math.log(u1))
        return float(mu) + float(sigma) * r * math.cos(2.0 * math.pi * u2)

    def spawn(self, index: int) -> "Rng":
        """Derive an independent child stream from the seed and an index.

        Children depend only on (seed, index), never on this stream's
        position, so parallel or reordered consumers see identical streams.
        """
        return Rng(_mix64((self.seed + (index + 1) * _GAMMA) & _MASK64))

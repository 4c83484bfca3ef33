import struct

import numpy as np
import pytest

from spinefuse import io
from spinefuse.core import (
    GrayImage,
    LandmarkSet,
    PixelFrame,
    Rng,
    ValidationError,
)
from spinefuse.fusion import FusionConfig
from spinefuse.geometry import AugmentationRanges
from spinefuse.heatmap import GaussianSpec, Heatmap, render_gaussian
from spinefuse.preprocess import resize_bilinear, resize_landmarks
from spinefuse.simulate import CoordPredictorModel, HeatmapPredictorModel, PhantomConfig

# an int that no float holds
HUGE = 10 ** 400


def _manifest_with_working_size(tmp_path, size):
    path = tmp_path / "manifest.txt"
    path.write_text(f"working_size = {size}\n[images]\n")
    return io.read_manifest(path)


def _pgm_with_grid(tmp_path, width, height):
    path = tmp_path / "grid.pgm"
    path.write_bytes(b"P5\n%d %d\n255\n" % (width, height))
    return io.read_pgm(path)


def _hmap_with_grid(tmp_path, width, height):
    path = tmp_path / "grid.hmap"
    path.write_bytes(b"HMAP" + struct.pack("<III", 1, height, width))
    return io.read_heatmap_stack(path)


class TestGrayImage:
    def test_minimal_well_formed(self):
        img = GrayImage(np.array([[0, 1], [2, 3]], np.uint8), 0.5)
        assert img.width == 2 and img.height == 2
        assert img.spacing == 0.5

    def test_zero_spacing(self):
        with pytest.raises(ValidationError, match="spacing"):
            GrayImage(np.array([[0, 1], [2, 3]], np.uint8), 0.0)

    def test_negative_spacing(self):
        with pytest.raises(ValidationError, match="spacing"):
            GrayImage(np.array([[0]], np.uint8), -1.0)

    def test_out_of_range_intensity(self):
        with pytest.raises(ValidationError):
            GrayImage(np.array([[300]]), 1.0)

    def test_pixels_are_immutable(self):
        img = GrayImage(np.array([[0, 1], [2, 3]], np.uint8), 1.0)
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 9


class TestPixelFrame:
    @pytest.mark.parametrize("build", [
        lambda tmp: PixelFrame(0, 4),
        lambda tmp: _pgm_with_grid(tmp, 0, 4),
        lambda tmp: render_gaussian(GaussianSpec((1.0, 1.0), 1.0), 0, 4),
        lambda tmp: resize_bilinear(GrayImage(np.array([[0]], np.uint8), 1.0), 0, 4),
        lambda tmp: resize_landmarks(LandmarkSet(np.zeros((1, 2)), PixelFrame(2, 2)), 0, 4),
        lambda tmp: PhantomConfig(landmarks=2, width=0, height=4, chain_spacing_px=1.0),
        lambda tmp: _manifest_with_working_size(tmp, "0 4"),
        lambda tmp: GrayImage(np.zeros((4, 0), np.uint8), 1.0),
        lambda tmp: Heatmap(np.ones((4, 0))),
        lambda tmp: _hmap_with_grid(tmp, 0, 4),
    ], ids=["frame", "image", "heatmap", "resize", "resize-landmarks", "phantom",
            "manifest", "image-array", "heatmap-array", "hmap"])
    def test_every_grid_has_the_one_size_rule(self, tmp_path, build):
        with pytest.raises(ValidationError, match="non-positive grid: 0x4"):
            build(tmp_path)


class TestMalformedArguments:
    @pytest.mark.parametrize("build, message", [
        (lambda: GrayImage(np.zeros(4, np.uint8), 1.0), r"non-empty 2-D array, got shape \(4,\)"),
        (lambda: LandmarkSet(np.zeros((1, 2)), (4, 4)), r"unknown frame: \(4, 4\)"),
    ], ids=["image-1d", "landmarks-frame"])
    def test_refusal_names_its_rule(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    # every finite-number rule compares the value with the largest float,
    # which holds for ints of any size, so none reaches an OverflowError
    @pytest.mark.parametrize("build, message", [
        (lambda: FusionConfig(prior_sigma=HUGE), "^prior_sigma must be positive and finite"),
        (lambda: FusionConfig(prior_sigma=(6.0, HUGE)),
         "^prior_sigma must be positive and finite"),
        (lambda: GaussianSpec((1, 1), HUGE), "^sigma must be positive and finite"),
        (lambda: GaussianSpec((HUGE, 1), 1.0), "^non-finite center"),
        (lambda: AugmentationRanges(tx=(0, HUGE)), "^bad tx range"),
        (lambda: HeatmapPredictorModel(spurious_amplitude=(0.9, HUGE)),
         "^bad spurious_amplitude range"),
        (lambda: CoordPredictorModel(noise_sigma=HUGE), "^noise_sigma must be non-negative"),
        (lambda: PhantomConfig(spacing_mm_per_px=HUGE),
         "^spacing_mm_per_px must be positive and finite"),
    ], ids=["prior-sigma", "prior-sigmas", "sigma", "center", "tx-range", "spurious-amplitude",
            "noise-sigma", "spacing"])
    def test_an_int_beyond_the_float_range_is_refused(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()


class TestLandmarkSet:
    def test_shape_enforced(self):
        with pytest.raises(ValidationError):
            LandmarkSet(np.zeros((3, 3)), PixelFrame(10, 10))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            LandmarkSet(np.array([[np.nan, 1.0]]), PixelFrame(10, 10))

    def test_out_of_frame_is_constructible(self):
        # predictions may land outside the frame; only labels are bounded
        lms = LandmarkSet(np.array([[-4.0, 2.0]]), PixelFrame(10, 10))
        assert not lms.in_bounds_mask()[0]
        with pytest.raises(ValidationError):
            lms.validate_bounds()


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(123), Rng(123)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_known_stream_values(self):
        # frozen splitmix64 outputs for seed 0; any platform must reproduce them
        r = Rng(0)
        assert [r.next_u64() for _ in range(3)] == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_uniform_in_range(self):
        r = Rng(7)
        draws = [r.uniform(-2.0, 3.0) for _ in range(1000)]
        assert min(draws) >= -2.0 and max(draws) < 3.0

    def test_normal_moments(self):
        r = Rng(7)
        draws = np.array([r.normal(1.0, 2.0) for _ in range(20000)])
        assert abs(draws.mean() - 1.0) < 0.05
        assert abs(draws.std() - 2.0) < 0.05

    def test_spawn_independent_of_parent_position(self):
        a, b = Rng(9), Rng(9)
        a.random()  # advance one stream
        assert a.spawn(4).next_u64() == b.spawn(4).next_u64()

    def test_spawn_streams_differ(self):
        r = Rng(9)
        assert r.spawn(0).next_u64() != r.spawn(1).next_u64()

    def test_bad_seed(self):
        with pytest.raises(ValidationError):
            Rng(-1)
        with pytest.raises(ValidationError):
            Rng(1 << 64)

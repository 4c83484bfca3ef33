import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import from_dtype

from spinefuse import io
from spinefuse.core import (
    GrayImage,
    LandmarkSet,
    PixelFrame,
    Rng,
    ValidationError,
)
from spinefuse.evaluate import pck
from spinefuse.fusion import DecodeMethod, FusionConfig, fuse_and_decode
from spinefuse.geometry import AugmentationRanges, sample_valid_augmentation
from spinefuse.heatmap import GaussianSpec, Heatmap, render_gaussian
from spinefuse.preprocess import resize_bilinear, resize_landmarks
from spinefuse.simulate import (CoordPredictorModel, HeatmapPredictorModel, PhantomConfig,
                                generate_phantom, noiseless_config, simulate_coords,
                                simulate_heatmaps)

# an int that no float holds
HUGE = 10 ** 400


def _manifest_with_working_size(tmp_path, size):
    path = tmp_path / "manifest.txt"
    path.write_text(f"landmark_count = 1\nworking_size = {size}\n[images]\n")
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
        assert img.frame.width == 2 and img.frame.height == 2
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
        lambda tmp: render_gaussian(GaussianSpec((1.0, 1.0), 1.0), PixelFrame(0, 4)),
        lambda tmp: resize_bilinear(GrayImage(np.array([[0]], np.uint8), 1.0), PixelFrame(0, 4)),
        lambda tmp: resize_landmarks(LandmarkSet(np.zeros((1, 2)), PixelFrame(2, 2)),
                                     PixelFrame(0, 4)),
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

    @pytest.mark.parametrize("build", [
        lambda: PixelFrame(10.5, 10),
        lambda: PixelFrame(4, np.float64(4.0)),
        lambda: PixelFrame(True, True),
        lambda: PixelFrame("3", 4),
        lambda: PhantomConfig(width=512.0),
    ], ids=["float", "numpy-float", "bool", "string", "phantom-float"])
    def test_a_side_that_is_not_an_integer_is_refused(self, build):
        with pytest.raises(ValidationError, match="grid sides must be integers"):
            build()

    @pytest.mark.parametrize("side", [np.int64(512), np.uint16(512)], ids=["int64", "uint16"])
    def test_a_numpy_integer_side_is_stored_as_int(self, side):
        frame = PixelFrame(side, side)
        assert type(frame.width) is int and type(frame.height) is int
        assert repr(frame) == repr(PixelFrame(512, 512)) and frame == PixelFrame(512, 512)


PX = np.zeros((4, 4), np.uint8)
TRIAL = noiseless_config(images=1)


class TestMalformedArguments:
    # each setting of a wrong type is refused by the rule of its kind, not
    # by a TypeError or ValueError from the code that first uses it
    @pytest.mark.parametrize("build, message", [
        (lambda: GrayImage(np.zeros(4, np.uint8), 1.0), r"non-empty 2-D array, got shape \(4,\)"),
        (lambda: LandmarkSet(np.zeros((1, 2)), (4, 4)), r"unknown frame: \(4, 4\)"),
        (lambda: PhantomConfig(landmarks=11.0), r"^landmarks must be an integer, got 11\.0$"),
        (lambda: io.Manifest((), 1, (64, 64)),
         r"^working_size must be a PixelFrame, got \(64, 64\)$"),
        (lambda: replace(TRIAL, images=2.5), r"^images must be an integer, got 2\.5$"),
        (lambda: replace(TRIAL, images=True), r"^images must be an integer, got True$"),
        (lambda: HeatmapPredictorModel(spurious_amplitude=(1.0,)),
         r"^spurious_amplitude must be a pair, got \(1\.0,\)$"),
        (lambda: AugmentationRanges(tx=(1.0,)), r"^tx must be a pair, got \(1\.0,\)$"),
        (lambda: AugmentationRanges(tx="ab"), r"^tx must be a pair, got 'ab'$"),
        # a value that is not a number is shown by repr, a number as str shows it
        (lambda: CoordPredictorModel(1.0, outlier_rate="0.5"),
         r"^outlier_rate must be in \[0, 1\], got '0\.5'$"),
        (lambda: CoordPredictorModel(1.0, outlier_rate=None),
         r"^outlier_rate must be in \[0, 1\], got None$"),
        (lambda: CoordPredictorModel(1.0, outlier_rate=np.float64(1.5)),
         r"^outlier_rate must be in \[0, 1\], got 1\.5$"),
        (lambda: GrayImage(PX, np.int64(-2)), "^spacing must be positive and finite, got -2$"),
        (lambda: CoordPredictorModel(noise_sigma="1"),
         "^noise_sigma must be non-negative and finite, got '1'$"),
        (lambda: AugmentationRanges(tx=("0", 1)), r"^bad tx range: \('0', 1\)$"),
        (lambda: AugmentationRanges(tx=(np.float32(2), 1)), r"^bad tx range: \(2\.0, 1\)$"),
        (lambda: GrayImage(PX, "1"), "^spacing must be positive and finite"),
        (lambda: FusionConfig(floor_epsilon="1e-12"), "^floor_epsilon must be positive and finite"),
        (lambda: Rng(True), "^seed must be a 64-bit unsigned integer, got True$"),
        (lambda: GaussianSpec(None, 1.0), "^center must be a pair, got None$"),
    ], ids=["image-1d", "landmarks-frame", "phantom-float-landmarks", "manifest-tuple-size",
            "trial-float-images", "trial-bool-images", "spurious-amplitude-one-value",
            "tx-one-value", "tx-string", "outlier-rate-string", "outlier-rate-none",
            "outlier-rate-numpy", "image-spacing-numpy", "noise-sigma-string", "tx-string-end",
            "tx-numpy-ends", "image-spacing-string",
            "floor-epsilon-string", "rng-bool-seed", "center-none"])
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


# three landmarks on a 48 x 64 frame, and a map whose maximum lies below
# the fusion floor
GT = LandmarkSet(np.array([[20.0, 10.0], [24.0, 30.0], [22.0, 50.0]]), PixelFrame(48, 64))
FAINT = np.zeros((12, 12))
FAINT[3, 4] = 6.5e-12


def _fused(decode):
    return lambda eps: fuse_and_decode(Heatmap(FAINT), (8.5, 2.6),
                                       FusionConfig(prior_sigma=5.9, floor_epsilon=eps,
                                                    decode=decode))


def _simulated(model):
    return lambda value: [hm.values.tobytes()
                          for hm in simulate_heatmaps(Rng(5), GT, model(value))]


def _augmented(ranges):
    return lambda value: sample_valid_augmentation(Rng(5), ranges(value), GT).matrix.tobytes()


class TestNumpyScalarSettings:
    # under numpy 2 arithmetic on a np.float32 stays in float32: a width
    # that renders other bytes or overflows, a fusion floor whose log
    # exceeds the true score, draws of other numbers; and pck took only
    # int or float as one spacing
    @pytest.mark.parametrize("run, value", [
        (lambda s: render_gaussian(GaussianSpec((3.0, 3.0), s), PixelFrame(8, 8)).values.tobytes(),
         np.float32(1.2)),
        (lambda s: render_gaussian(GaussianSpec((1e30, 1.0), s), PixelFrame(8, 8)).values.tobytes(),
         np.float32(1e20)),
        (_fused(DecodeMethod.ARGMAX), np.float32(9.2e-12)),
        (_fused(DecodeMethod.CENTROID), np.float32(9.2e-12)),
        (lambda s: simulate_coords(Rng(5), GT, CoordPredictorModel(s)).points.tobytes(),
         np.float32(3.3)),
        (_simulated(lambda s: HeatmapPredictorModel(peak_jitter_sigma=s)), np.float32(0.7)),
        (_simulated(lambda a: HeatmapPredictorModel(adjacent_confusion_prob=1.0,
                                                    spurious_amplitude=(a, 1.1))),
         np.float32(0.9)),
        (_augmented(lambda t: AugmentationRanges(tx=(t, 3.0))), np.float32(-2.7)),
        (_augmented(lambda a: AugmentationRanges(angle_deg=(a, 25.0))), np.float32(-24.3)),
        (lambda s: pck([GT], [GT], 8.0, s), np.float32(0.5)),
        (lambda s: pck([GT], [GT], 8.0, s), np.int64(1)),
        # the rows of an 11-landmark chain on 512 x 512: landmark 8 moved
        # from row 333 to 332 when the spacing stayed a float32
        (lambda s: generate_phantom(Rng(1), PhantomConfig(chain_spacing_px=s)).points.tobytes(),
         np.float32(25.666672)),
    ], ids=["sigma-bytes", "sigma-overflow", "floor-epsilon-argmax", "floor-epsilon-centroid",
            "noise-sigma", "peak-jitter", "spurious-amplitude", "tx", "angle", "spacing-float32",
            "spacing-int64", "chain-spacing"])
    def test_a_numpy_scalar_setting_gives_the_result_of_its_float(self, run, value):
        assert run(value) == run(float(value))


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

    @pytest.mark.parametrize("seed", [np.uint64(5), np.int8(5)], ids=["uint64", "int8"])
    def test_a_numpy_integer_seed_is_stored_as_int(self, seed):
        assert Rng(seed) == Rng(5) and repr(Rng(seed)) == "Rng(seed=5)"

    def test_bad_seed(self):
        with pytest.raises(ValidationError):
            Rng(-1)
        with pytest.raises(ValidationError):
            Rng(1 << 64)


# Every checked setting of a public constructor, as (build, kind): a COUNT
# is an integer stored as an int; a NUMBER is any real number but a bool; a
# PAIR is a whole (lo, hi) or (x, y) field, or a PixelFrame, which no drawn
# value is
COUNT, NUMBER, PAIR = "count", "number", "pair"


def _range_settings(model, name, lo, hi):
    """The rows of one (lo, hi) field: the whole pair, then each end."""
    key = name.replace("_", "-")
    return {key: (lambda v: model(**{name: v}), PAIR),
            f"{key}-lo": (lambda v: model(**{name: (v, hi)}), NUMBER),
            f"{key}-hi": (lambda v: model(**{name: (lo, v)}), NUMBER)}


SETTINGS = {
    "image-spacing": (lambda v: GrayImage(PX, v), NUMBER),
    "frame-width": (lambda v: PixelFrame(v, 4), COUNT),
    "frame-height": (lambda v: PixelFrame(4, v), COUNT),
    "rng-seed": (Rng, COUNT),
    "gaussian-center": (lambda v: GaussianSpec(v, 1.0), PAIR),
    "gaussian-x": (lambda v: GaussianSpec((v, 1.0), 1.0), NUMBER),
    "gaussian-y": (lambda v: GaussianSpec((1.0, v), 1.0), NUMBER),
    "gaussian-sigma": (lambda v: GaussianSpec((1.0, 1.0), v), NUMBER),
    "gaussian-amplitude": (lambda v: GaussianSpec((1.0, 1.0), 1.0, v), NUMBER),
    "prior-sigma": (lambda v: FusionConfig(prior_sigma=v), NUMBER),
    "prior-sigmas": (lambda v: FusionConfig(prior_sigma=(6.0, v)), NUMBER),
    "floor-epsilon": (lambda v: FusionConfig(floor_epsilon=v), NUMBER),
    "noise-sigma": (CoordPredictorModel, NUMBER),
    "outlier-rate": (lambda v: CoordPredictorModel(1.0, outlier_rate=v), NUMBER),
    "outlier-sigma": (lambda v: CoordPredictorModel(1.0, outlier_sigma=v), NUMBER),
    "peak-jitter-sigma": (lambda v: HeatmapPredictorModel(peak_jitter_sigma=v), NUMBER),
    "heatmap-sigma": (lambda v: HeatmapPredictorModel(heatmap_sigma=v), NUMBER),
    "confusion-prob": (lambda v: HeatmapPredictorModel(adjacent_confusion_prob=v), NUMBER),
    "phantom-landmarks": (lambda v: PhantomConfig(landmarks=v), COUNT),
    "phantom-width": (lambda v: PhantomConfig(width=v), COUNT),
    "phantom-height": (lambda v: PhantomConfig(height=v), COUNT),
    "phantom-spacing": (lambda v: PhantomConfig(spacing_mm_per_px=v), NUMBER),
    "chain-spacing": (lambda v: PhantomConfig(chain_spacing_px=v), NUMBER),
    "wobble": (lambda v: PhantomConfig(wobble_px=v), NUMBER),
    "trial-threshold": (lambda v: replace(TRIAL, threshold_mm=v), NUMBER),
    "trial-images": (lambda v: replace(TRIAL, images=v), COUNT),
    "manifest-landmark-count": (lambda v: io.Manifest((), v, PixelFrame(4, 4)), COUNT),
    "manifest-working-size": (lambda v: io.Manifest((), 1, v), PAIR),
    **_range_settings(HeatmapPredictorModel, "spurious_amplitude", 1e-6, 1e6),
    **_range_settings(AugmentationRanges, "tx", -1e6, 1e6),
    **_range_settings(AugmentationRanges, "ty", -1e6, 1e6),
    **_range_settings(AugmentationRanges, "angle_deg", -1e6, 1e6),
    **_range_settings(AugmentationRanges, "scale", 1e-6, 1e6),
}

_DTYPES = ["bool", "int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64",
           "float16", "float32", "float64", "longdouble", "complex64", "complex128",
           "datetime64[s]", "timedelta64[s]", "U3", "S3"]
SETTING_VALUES = st.one_of(
    st.booleans(),
    st.sampled_from(_DTYPES).flatmap(lambda dtype: from_dtype(np.dtype(dtype))),
    st.integers(-3, 600), st.integers(), st.floats(), st.text(max_size=3), st.none(),
    st.tuples() | st.tuples(st.floats()),
    st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 400]),
)
# types that no count, number or pair setting takes, whatever the value
NOT_A_NUMBER = (bool, np.bool_, str, bytes, type(None), complex, np.complexfloating,
                np.datetime64, np.timedelta64)


class TestSettingTypes:
    @pytest.mark.parametrize("build, kind", list(SETTINGS.values()), ids=list(SETTINGS))
    @settings(max_examples=25, deadline=None)
    @given(value=SETTING_VALUES)
    def test_a_setting_is_refused_or_builds_what_its_python_value_builds(self, build, kind,
                                                                         value):
        try:
            built = build(value)
        except ValidationError:
            return
        assert kind != PAIR
        assert not isinstance(value, NOT_A_NUMBER)
        if kind == COUNT:
            assert not isinstance(value, (float, np.floating))
        native = build(value.item() if isinstance(value, np.generic) else value)
        assert built == native
        if kind == COUNT:
            assert repr(built) == repr(native)

import math
import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinefuse import fusion
from spinefuse.core import LandmarkSet, PixelFrame, Rng, ValidationError, _box
from spinefuse.fusion import (
    DecodeMethod,
    FusionConfig,
    coord_to_prior,
    fuse_and_decode,
    fuse_batch,
    fuse_product,
)
from spinefuse.heatmap import (GaussianSpec, Heatmap, decode_argmax, decode_centroid,
                               render_gaussian)
from spinefuse.simulate import (calibrated_config, generate_phantom, simulate_coords,
                                simulate_heatmaps)


def brute_force_fused_argmax(predicted: Heatmap, coord, sigma: float, eps: float = 1e-12):
    """Scalar-loop oracle for the argmax of the Gaussian prior around
    ``coord`` times the predicted map clamped at eps, in the log domain."""
    best, bx, by = -math.inf, -1, -1
    for y in range(predicted.frame.height):
        for x in range(predicted.frame.width):
            v = (-((x - coord[0]) ** 2 + (y - coord[1]) ** 2) / (2.0 * sigma * sigma)
                 + math.log(max(predicted.values[y, x], eps)))
            if v > best:
                best, bx, by = v, x, y
    return bx, by


def bimodal(t, a, sigma=1.2, size=64, amp_a=1.0):
    peak_t = render_gaussian(GaussianSpec(t, sigma), PixelFrame(size, size))
    peak_a = render_gaussian(GaussianSpec(a, sigma, amplitude=amp_a), PixelFrame(size, size))
    return Heatmap(np.maximum(peak_t.values, peak_a.values))


class TestCoordToPrior:
    def test_max_at_coordinate(self):
        prior = coord_to_prior((10, 10), 6.0, PixelFrame(64, 64))
        assert decode_argmax(prior) == (10, 10)
        assert prior.values[10, 10] == pytest.approx(1.0)

    def test_value_at_one_sigma(self):
        prior = coord_to_prior((10, 10), 6.0, PixelFrame(64, 64))
        assert prior.values[10, 16] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_out_of_frame_coordinate(self):
        prior = coord_to_prior((-5, -5), 6.0, PixelFrame(64, 64))
        assert decode_argmax(prior) == (0, 0)
        assert prior.values[0, 0] < 1.0


class TestFuseProduct:
    def test_uniform_map_is_identity(self):
        prior = coord_to_prior((20, 30), 4.0, PixelFrame(64, 64))
        ones = Heatmap(np.ones((64, 64)))
        _, fused = fuse_product(ones, (20, 30), FusionConfig(prior_sigma=4.0))
        assert decode_argmax(fused) == (20, 30)
        # only the map is clamped, so the identity holds on the deep tail too
        np.testing.assert_allclose(fused.values, prior.values, rtol=1e-12)

    def test_equal_sigmas_meet_at_midpoint(self):
        a = render_gaussian(GaussianSpec((10, 10), 2.0), PixelFrame(64, 64))
        _, fused = fuse_product(a, (14, 10), FusionConfig(prior_sigma=2.0))
        assert decode_argmax(fused) == (12, 10)

    def test_closed_form_mean(self):
        # precision-weighted mean: (sb^2*10 + sa^2*20) / (sa^2 + sb^2) = 12
        a = render_gaussian(GaussianSpec((10, 10), 2.0), PixelFrame(64, 64))
        _, fused = fuse_product(a, (20, 10), FusionConfig(prior_sigma=4.0))
        assert decode_argmax(fused) == (12, 10)
        assert brute_force_fused_argmax(a, (20, 10), 4.0) == (12, 10)

    def test_output_peak_is_one(self):
        a = render_gaussian(GaussianSpec((10, 10), 2.0), PixelFrame(32, 32))
        assert fuse_product(a, (20, 20), FusionConfig(prior_sigma=3.0))[1].values.max() == 1.0

    def test_symmetric_in_arguments(self):
        # which Gaussian is the map and which the prior does not matter where
        # neither map is clamped, that is, where both exceed eps
        a = render_gaussian(GaussianSpec((10, 12), 2.0), PixelFrame(32, 32))
        b = render_gaussian(GaussianSpec((17, 20), 3.0), PixelFrame(32, 32))
        both = (a.values > 1e-12) & (b.values > 1e-12)
        ab = fuse_product(a, (17, 20), FusionConfig(prior_sigma=3.0))[1].values
        ba = fuse_product(b, (10, 12), FusionConfig(prior_sigma=2.0))[1].values
        assert ab[both].max() == ba[both].max() == 1.0
        np.testing.assert_allclose(ab[both], ba[both], atol=1e-12)

    def test_builds_only_the_box_a_float32_dump_can_see(self):
        # a whole 512 x 512 float64 grid is 2 MiB; the fused box of a sigma
        # 1.2 map under a sigma 6 prior is about 190 x 190
        grid = 512 * 512 * 8
        hm = render_gaussian(GaussianSpec((200.0, 300.0), 1.2), PixelFrame(512, 512))
        cfg = FusionConfig(prior_sigma=6.0)
        tracemalloc.start()
        try:
            _, fused = fuse_product(hm, (205.0, 296.0), cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < grid // 2
        assert fused._block.nbytes < grid // 4
        assert decode_argmax(fused) == tuple(map(int, fuse_and_decode(hm, (205.0, 296.0), cfg)))

    def test_the_map_is_1_at_the_decoders_argmax_and_at_an_earlier_near_tie(self):
        # the two log-sums differ by less than exp's resolution at 1, so both
        # fused values are exactly 1 and the map's first maximum comes first
        values = np.zeros((1, 300))
        values[0, 100] = values[0, 101] = 1.0
        hm, coord = Heatmap(values), (float(np.nextafter(100.5, 200.0)), 0.0)
        cfg = FusionConfig(prior_sigma=60.0)
        assert fuse_and_decode(hm, coord, cfg) == (101.0, 0.0)
        _, fused = fuse_product(hm, coord, cfg)
        assert decode_argmax(fused) == (100, 0)
        assert fused.values[0, 100] == fused.values[0, 101] == 1.0

    def test_far_apart_narrow_peaks_do_not_underflow(self):
        # the raw product of these maps is all zeros in float64
        a = render_gaussian(GaussianSpec((10, 10), 1.0), PixelFrame(128, 128))
        b = render_gaussian(GaussianSpec((120, 120), 1.0), PixelFrame(128, 128))
        assert (a.values * b.values).max() == 0.0
        _, fused = fuse_product(a, (120, 120), FusionConfig(prior_sigma=1.0))
        assert fused.values.max() == 1.0


    # every exponent overflows to -inf there; the dense sum must not reach
    # numpy's invalid-value warning first (-inf - -inf)
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("coord", [(1e160, 0.0), (3.0, -1e160)])
    def test_a_coordinate_too_far_from_the_grid_is_refused(self, coord):
        values = np.zeros((8, 8))
        values[2, 6] = 1.0
        hm, cfg = Heatmap(values), FusionConfig()
        message = f"^{re.escape(f'coordinate {coord} is too far from the grid')}$"
        with pytest.raises(ValidationError, match=message):
            fuse_product(hm, coord, cfg)
        with pytest.raises(ValidationError, match=message):
            fuse_and_decode(hm, coord, cfg)


class TestFuseAndDecode:
    def test_unimodal_pull_stays_on_segment(self):
        hm = render_gaussian(GaussianSpec((30, 30), 2.0), PixelFrame(64, 64))
        cfg = FusionConfig(prior_sigma=4.0)
        x, y = fuse_and_decode(hm, (31, 30), cfg)
        assert 30 <= x <= 31 and y == 30

    def test_bimodal_resolved_toward_nearer_coord(self):
        hm = bimodal((20, 20), (20, 32))
        cfg = FusionConfig(prior_sigma=6.0)
        assert fuse_and_decode(hm, (21, 22), cfg) == (20.0, 20.0)

    def test_bimodal_prior_dominates_peak_selection(self):
        hm = bimodal((20, 20), (20, 32))
        cfg = FusionConfig(prior_sigma=6.0)
        assert fuse_and_decode(hm, (20, 31), cfg) == (20.0, 32.0)

    def test_matches_explicit_product_path(self):
        rng = np.random.default_rng(21)
        cfg = FusionConfig(prior_sigma=5.0)
        for _ in range(30):
            hm = bimodal(
                (rng.integers(8, 56), rng.integers(8, 56)),
                (rng.integers(8, 56), rng.integers(8, 56)),
                sigma=rng.uniform(1.0, 3.0),
                amp_a=rng.uniform(0.8, 1.2),
            )
            coord = (rng.uniform(4, 60), rng.uniform(4, 60))
            fast = fuse_and_decode(hm, coord, cfg)
            _, fused = fuse_product(hm, coord, cfg)
            assert fast == tuple(float(c) for c in decode_argmax(fused))

    def test_scale_invariance(self):
        hm = bimodal((20, 20), (40, 44), amp_a=0.95)
        cfg = FusionConfig(prior_sigma=6.0)
        base = fuse_and_decode(hm, (22, 21), cfg)
        for c in (0.001, 0.3, 250.0):
            scaled = Heatmap(hm.values * c)
            assert fuse_and_decode(scaled, (22, 21), cfg) == base

    def test_unimodal_pull_bounded_by_segment(self):
        # the fused peak of two Gaussians lies between their centers, so the
        # decoded point may leave the segment [predicted argmax, coord] only
        # by grid rounding
        def dist_to_segment(p, a, b):
            ab = np.subtract(b, a)
            denom = float(ab @ ab)
            t = 0.0 if denom == 0 else float(np.clip((np.subtract(p, a) @ ab) / denom, 0, 1))
            return float(np.hypot(*(np.subtract(p, a) - t * ab)))

        rng = np.random.default_rng(41)
        for _ in range(100):
            sp = float(rng.uniform(1.0, 4.0))
            sc = float(rng.uniform(3.0, 9.0))
            center = (int(rng.integers(20, 108)), int(rng.integers(20, 108)))
            hm = render_gaussian(GaussianSpec(center, sp), PixelFrame(128, 128))
            reach = 0.8 * math.sqrt(2.0 * (sp * sp + sc * sc) * -math.log(1e-12))
            theta = float(rng.uniform(0, 2 * math.pi))
            r = float(rng.uniform(0, reach))
            coord = (
                float(np.clip(center[0] + r * math.cos(theta), 0, 127)),
                float(np.clip(center[1] + r * math.sin(theta), 0, 127)),
            )
            fused = fuse_and_decode(hm, coord, FusionConfig(prior_sigma=sc))
            assert dist_to_segment(fused, decode_argmax(hm), coord) <= 1.0

    def test_centroid_decode(self):
        hm = render_gaussian(GaussianSpec((30, 30), 2.0), PixelFrame(64, 64))
        cfg = FusionConfig(prior_sigma=6.0, decode=DecodeMethod.CENTROID)
        x, y = fuse_and_decode(hm, (30, 30), cfg)
        assert (x, y) == (30.0, 30.0)

    # -(d*d)/(2*sigma*sigma) overflows in the divide (2*sigma*sigma is
    # subnormal) or in the square; -inf is the exact exponent either way, and
    # the suite turns numpy's overflow warning into an error. Dividing leaves
    # the coordinate's own pixel at exponent 0, the only finite score; when
    # the square overflows every exponent is -inf and nothing can be ranked
    @pytest.mark.parametrize("sigma, coord, expected",
                             [(1e-160, (3, 4), (3, 4)), (6.0, (1e160, 0), None)],
                             ids=["divide-overflows", "square-overflows"])
    @pytest.mark.parametrize("decode", list(DecodeMethod))
    def test_overflowing_exponent_is_exact(self, sigma, coord, expected, decode):
        values = np.zeros((8, 8))
        values[2, 6] = 1.0
        cfg = FusionConfig(prior_sigma=sigma, decode=decode)
        if expected:
            assert fuse_and_decode(Heatmap(values), coord, cfg) == expected
        else:
            with pytest.raises(ValidationError,
                               match=r"^coordinate \(1e\+160, 0\.0\) is too far from the grid$"):
                fuse_and_decode(Heatmap(values), coord, cfg)

    # a sigma 1.2 peak at (400, 400) and prior sigma 6: both coordinates lie
    # 304 px from the peak, beyond the floor horizon sqrt(2 (1.2^2 + 6^2)
    # ln(1/eps)) of about 45.5 px, where the map's clamp erases the peak's
    # tail and the prior alone ranks pixels, in either raster direction
    @pytest.mark.parametrize("coord", [(100.0, 450.0), (450.0, 100.0)])
    @pytest.mark.parametrize("decode", list(DecodeMethod))
    def test_beyond_the_floor_horizon_the_coordinate_wins(self, coord, decode):
        hm = render_gaussian(GaussianSpec((400, 400), 1.2), PixelFrame(512, 512))
        cfg = FusionConfig(prior_sigma=6.0, decode=decode)
        assert fuse_and_decode(hm, coord, cfg) == coord

    def test_all_zero_predicted_rejected(self):
        cfg = FusionConfig()
        with pytest.raises(ValidationError, match="all-zero"):
            fuse_and_decode(Heatmap(np.zeros((8, 8))), (4, 4), cfg)


class TestFuseBatch:
    def test_empty_batch(self):
        coords = LandmarkSet(np.empty((0, 2)), PixelFrame(32, 32))
        out = fuse_batch([], coords, FusionConfig())
        assert len(out) == 0

    def test_unimodal_channels_decode_to_coords(self):
        pts = np.array([[10.0, 10.0], [20.0, 30.0], [40.0, 50.0]])
        stack = [render_gaussian(GaussianSpec(tuple(p), 1.2), PixelFrame(64, 64)) for p in pts]
        coords = LandmarkSet(pts, PixelFrame(64, 64))
        out = fuse_batch(stack, coords, FusionConfig(prior_sigma=6.0))
        np.testing.assert_array_equal(out.points, pts)

    def test_length_mismatch(self):
        stack = [render_gaussian(GaussianSpec((5, 5), 1.2), PixelFrame(32, 32))]
        coords = LandmarkSet(np.array([[5.0, 5.0], [6.0, 6.0]]), PixelFrame(32, 32))
        with pytest.raises(ValidationError, match="length mismatch"):
            fuse_batch(stack, coords, FusionConfig())

    def test_channel_shape_mismatch_names_channel(self):
        stack = [
            render_gaussian(GaussianSpec((5, 5), 1.2), PixelFrame(32, 32)),
            render_gaussian(GaussianSpec((5, 5), 1.2), PixelFrame(16, 16)),
        ]
        coords = LandmarkSet(np.array([[5.0, 5.0], [5.0, 5.0]]), PixelFrame(32, 32))
        with pytest.raises(ValidationError, match="channel 1"):
            fuse_batch(stack, coords, FusionConfig())

    @pytest.mark.parametrize("size", [(24, 24), (40, 40)], ids=["columns", "rows"])
    def test_one_side_differing_is_a_shape_mismatch(self, size):
        stack = [render_gaussian(GaussianSpec((5, 5), 1.2), PixelFrame(40, 24)),
                 render_gaussian(GaussianSpec((5, 5), 1.2), PixelFrame(*size))]
        coords = LandmarkSet(np.array([[5.0, 5.0], [5.0, 5.0]]), PixelFrame(40, 24))
        with pytest.raises(ValidationError, match=fr"^channel 1: shape \({size[0]}, {size[1]}\) "
                                                  r"differs from channel 0 shape \(40, 24\)$"):
            fuse_batch(stack, coords, FusionConfig())

    def test_a_coordinate_too_far_from_the_grid_names_its_channel(self):
        pts = np.array([[10.0, 10.0], [1e160, 20.0]])
        stack = [render_gaussian(GaussianSpec((10.0, 10.0), 1.2), PixelFrame(48, 48))] * 2
        coords = LandmarkSet(pts, PixelFrame(48, 48))
        with pytest.raises(ValidationError, match=r"^channel 1: coordinate \(1e\+160, 20\.0\) "
                                                  r"is too far from the grid$"):
            fuse_batch(stack, coords, FusionConfig())

    def test_per_landmark_sigma_override(self):
        pts = np.array([[10.0, 10.0], [20.0, 20.0]])
        stack = [render_gaussian(GaussianSpec(tuple(p), 1.2), PixelFrame(48, 48)) for p in pts]
        coords = LandmarkSet(pts, PixelFrame(48, 48))
        out = fuse_batch(stack, coords, FusionConfig(prior_sigma=(3.0, 9.0)))
        np.testing.assert_array_equal(out.points, pts)

    @pytest.mark.parametrize("fuse", [fuse_and_decode, fuse_product])
    def test_one_channel_refuses_per_landmark_sigmas(self, fuse):
        # only fuse_batch knows which landmark a map is
        hm = render_gaussian(GaussianSpec((10.0, 10.0), 1.2), PixelFrame(48, 48))
        with pytest.raises(ValidationError, match="^per-landmark prior sigmas are fused by "
                                                  "fuse_batch"):
            fuse(hm, (10.0, 10.0), FusionConfig(prior_sigma=(3.0, 9.0)))

    # a width that no landmark reads is refused, as a missing one is
    @pytest.mark.parametrize("landmarks, widths", [(3, 2), (11, 12), (0, 2)])
    def test_another_count_of_per_landmark_sigmas_fails_before_any_channel(
            self, monkeypatch, landmarks, widths):
        pts = np.array([[10.0, 4.0 * k] for k in range(landmarks)]).reshape(-1, 2)
        stack = [render_gaussian(GaussianSpec(tuple(p), 1.2), PixelFrame(48, 48)) for p in pts]
        coords = LandmarkSet(pts, PixelFrame(48, 48))
        fused = []
        monkeypatch.setattr(fusion, "fuse_and_decode", lambda *args, **kw: fused.append(args))
        with pytest.raises(ValidationError,
                           match=f"^{widths} prior sigmas for {landmarks} landmarks$"):
            fuse_batch(stack, coords, FusionConfig(prior_sigma=(6.0,) * widths))
        assert fused == []


class TestFusionConfig:
    # 2*sigma*sigma underflows to 0 below about 1.5e-162
    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, 1e-170, 5e-324])
    @pytest.mark.parametrize("per_landmark", [False, True])
    def test_unusable_prior_sigma_is_named(self, sigma, per_landmark):
        prior = (6.0, sigma) if per_landmark else sigma
        with pytest.raises(ValidationError, match=f"got {sigma}$"):
            FusionConfig(prior_sigma=prior)

    @pytest.mark.parametrize("per_landmark", [False, True])
    def test_a_sigma_whose_square_overflows_is_refused_without_a_warning(self, per_landmark):
        # 2*sigma*sigma is finite up to about 9.48e153
        largest = math.sqrt(sys.float_info.max / 2.0)
        assert FusionConfig(prior_sigma=largest).prior_sigma == largest
        message = r"^prior_sigma is so large that 2\*sigma\*sigma overflows, got 1e\+200$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=message):
                fuse_and_decode(Heatmap(np.ones((8, 8))), (1e160, 0.0),
                                FusionConfig(prior_sigma=(6.0, 1e200) if per_landmark else 1e200))

    @pytest.mark.parametrize("build, message", [
        (lambda: FusionConfig(prior_sigma=()), r"^bad per-landmark prior sigmas: \(\)$"),
        (lambda: FusionConfig(decode="argmax"), "^unknown decode method: 'argmax'$"),
    ], ids=["no-sigmas", "decode-string"])
    def test_malformed_config_names_its_rule(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    # a string is not iterated into per-landmark sigmas, nor a bool taken
    # as 1.0; a 0-d array is not a number
    @pytest.mark.parametrize("sigma", ["12", b"12", True, (6.0, True), ("6",), None, {6.0},
                                       np.array(6.0), np.array([6.0, 3.0])],
                             ids=["str", "bytes", "bool", "bool-item", "str-item", "none",
                                  "set", "array-0d", "array"])
    def test_a_prior_sigma_that_is_not_numbers_is_refused(self, sigma):
        message = f"prior_sigma must be a number or a sequence of numbers, got {sigma!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            FusionConfig(prior_sigma=sigma)

    # numpy scalars are real numbers; the config holds plain floats
    @pytest.mark.parametrize("sigma, expected", [
        (np.float32(6.0), 6.0), (np.int64(6), 6.0), (6, 6.0), (np.float64(2.5), 2.5),
        ([3, np.float32(4.5)], (3.0, 4.5)), ((np.int64(2), 7.0), (2.0, 7.0)),
    ], ids=["float32", "int64", "int", "float64", "list", "tuple"])
    def test_real_numbers_are_widths(self, sigma, expected):
        cfg = FusionConfig(prior_sigma=sigma)
        assert cfg.prior_sigma == expected
        got = cfg.prior_sigma if isinstance(expected, tuple) else (cfg.prior_sigma,)
        assert all(type(s) is float for s in got)


class TestPeakSelectionRule:
    """With equal-amplitude peaks, the prior picks whichever peak it is
    strictly closer to; sampled here, enumerated exhaustively in acceptance."""

    def test_sampled_grid(self):
        rng = np.random.default_rng(31)
        cfg = FusionConfig(prior_sigma=6.0)
        t, a = (32, 24), (32, 40)
        hm = bimodal(t, a)
        for _ in range(200):
            c = (int(rng.integers(8, 56)), int(rng.integers(8, 56)))
            dt = (c[0] - t[0]) ** 2 + (c[1] - t[1]) ** 2
            da = (c[0] - a[0]) ** 2 + (c[1] - a[1]) ** 2
            if dt == da:
                continue
            x, y = fuse_and_decode(hm, c, cfg)
            gt = (x - t[0]) ** 2 + (y - t[1]) ** 2
            ga = (x - a[0]) ** 2 + (y - a[1]) ** 2
            assert (dt < da) == (gt < ga)


EPS = FusionConfig().floor_epsilon
# below it exp(x) is not a normal float64
LOG_TINY = math.log(np.finfo(np.float64).tiny)
# float32 rounds every value at or below 2^-150 to 0
LOG_FLUSH = math.log(2.0 ** -151)


def log_prior(coord, sigma: float, width: int, height: int) -> np.ndarray:
    two_s2 = 2.0 * sigma * sigma
    lx = -((np.arange(width, dtype=np.float64) - coord[0]) ** 2) / two_s2
    ly = -((np.arange(height, dtype=np.float64) - coord[1]) ** 2) / two_s2
    return lx[None, :] + ly[:, None]


def dense_logsum(hm: Heatmap, coord, sigma: float, eps: float) -> np.ndarray:
    """The log prior plus the log of the map clamped at eps over the whole
    grid, summed in the decoder's operation order so ties break identically."""
    prior = log_prior(coord, sigma, hm.frame.width, hm.frame.height)
    return prior + np.log(np.maximum(hm.values, eps))


@st.composite
def fusion_inputs(draw, size=None):
    """A map on a grid of up to 96 x 96, or of ``size`` (width, height) when
    given, a prior width, and a coordinate
    that may lie outside the frame, beyond the floor horizon
    sigma * sqrt(2 ln(1/eps)) of every pixel, or up to 1e4 grid widths away.

    Besides constant, bimodal and random maps there is ``sharp``: one peak
    of sigma at most 1.5 and a coordinate 5 to 40 px from it, inside the
    floor horizon, where the peak's score, not the nearest pixel's, bounds
    the window. And there are two tie-heavy kinds:
    ``near_tie`` mixes values one ulp apart, values just above and at or
    below eps, and zeros; ``floor_ring`` puts one value above 1 on every
    pixel whose prior is at or below log eps and zero elsewhere, so the best
    pixels lie beyond the floor horizon, and, with the coordinate on the
    half-pixel lattice, tie in mirrored pairs.
    """
    w, h = size or (draw(st.integers(1, 96)), draw(st.integers(1, 96)))
    sigma = draw(st.floats(0.3, 20.0))
    span = draw(st.sampled_from(["frame", "horizon", "far"]))

    def axis(n):
        margin = {"frame": 0.0, "far": 1e4 * n,
                  "horizon": 2.0 * sigma * math.sqrt(-2.0 * math.log(EPS))}[span]
        return draw(st.floats(-n - margin, 2 * n + margin))

    coord = (axis(w), axis(h))
    kind = draw(st.sampled_from(["constant", "bimodal", "random", "sharp", "near_tie",
                                 "floor_ring"]))
    if kind == "constant":
        values = np.full((h, w), draw(st.floats(1e-6, 1e3)))
    elif kind == "bimodal":
        def spot():
            center = (draw(st.floats(0, w - 1)), draw(st.floats(0, h - 1)))
            spec = GaussianSpec(center, draw(st.floats(0.5, 4.0)),
                                amplitude=draw(st.floats(0.5, 1.5)))
            return render_gaussian(spec, PixelFrame(w, h)).values
        values = np.maximum(spot(), spot())
    elif kind == "random":
        values = draw(arrays(np.float64, (h, w), elements=st.floats(0, 1)))
        assume(values.max() > 0)
    elif kind == "sharp":
        centre = (draw(st.floats(0, w - 1)), draw(st.floats(0, h - 1)))
        peak_sigma = draw(st.floats(0.3, 1.5))
        horizon = math.sqrt(2.0 * (peak_sigma ** 2 + sigma ** 2) * -math.log(EPS))
        assume(horizon > 5.0)
        r = draw(st.floats(5.0, min(40.0, horizon), exclude_max=True))
        theta = draw(st.floats(0.0, 2.0 * math.pi))
        coord = (centre[0] + r * math.cos(theta), centre[1] + r * math.sin(theta))
        values = render_gaussian(GaussianSpec(centre, peak_sigma), PixelFrame(w, h)).values
    elif kind == "near_tie":
        base = draw(st.sampled_from([1.0, 3e-7, np.nextafter(EPS, 1.0)]))
        pool = np.array([base, np.nextafter(base, 2.0), np.nextafter(base, 0.0),
                         base * (1.0 - 1e-9), np.nextafter(EPS, 1.0), EPS, EPS / 2, 0.0])
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = pool[rng.integers(0, draw(st.integers(1, len(pool))), (h, w))]
        assume(values.max() > 0)
    else:
        coord = (round(2.0 * coord[0]) / 2.0, round(2.0 * coord[1]) / 2.0)
        ring = log_prior(coord, sigma, w, h) <= math.log(EPS)
        assume(ring.any())
        values = np.where(ring, draw(st.floats(1.5, 1e3)), 0.0)
    return Heatmap(values), coord, sigma


class TestSingleDecodePath:
    @settings(max_examples=400, deadline=None)
    @given(fusion_inputs())
    def test_both_decoders_read_the_dense_log_sum(self, inputs):
        hm, coord, sigma = inputs
        argmax_cfg = FusionConfig(prior_sigma=sigma)
        centroid_cfg = FusionConfig(prior_sigma=sigma, decode=DecodeMethod.CENTROID)
        logsum = dense_logsum(hm, coord, sigma, argmax_cfg.floor_epsilon)
        idx = int(np.argmax(logsum))
        ax, ay = fuse_and_decode(hm, coord, argmax_cfg)
        assert (ax, ay) == (idx % hm.frame.width, idx // hm.frame.width)

        cx, cy = fuse_and_decode(hm, coord, centroid_cfg)
        assert abs(cx - ax) <= 1 and abs(cy - ay) <= 1
        shifted = logsum - logsum.max()
        # the fused map flushes every value below 2^-151 to 0, which a
        # float32 dump cannot tell from a flush at the smallest normal
        fused = np.where(shifted >= LOG_FLUSH, np.exp(shifted), 0.0)
        _, product = fuse_product(hm, coord, argmax_cfg)
        assert product.values.tobytes() == fused.tobytes()
        normal = np.where(shifted >= LOG_TINY, np.exp(shifted), 0.0)
        assert (product.values.astype(np.float32).tobytes()
                == normal.astype(np.float32).tobytes())
        if int(np.argmax(fused)) == idx:
            ref = decode_centroid(Heatmap(fused))
            assert abs(cx - ref[0]) <= 1e-12 and abs(cy - ref[1]) <= 1e-12
        else:
            # exp rounded a log-domain near-tie to the same peak value, so the
            # product map's first maximum sits before the log-domain one
            assert fused.flat[int(np.argmax(fused))] == fused.flat[idx] == 1.0

    @pytest.mark.parametrize("case", ["ulp_apart", "below_eps", "ring_inside_first",
                                      "ring_outside_first"])
    def test_near_ties_match_the_dense_argmax(self, case):
        sigma, eps = 1.0, EPS
        if case == "ulp_apart":
            # at mirrored pixels, 1 - ulp and 1 round to one score: the
            # earlier pixel wins although its raw value is smaller
            values = np.zeros((64, 64))
            values[32, 30], values[32, 34] = np.nextafter(1.0, 0.0), 1.0
            hm, coord, expected = Heatmap(values), (32.0, 32.0), (30, 32)
        elif case == "below_eps":
            # far beyond the horizon every value at or below eps scores the
            # same floor, so the prior alone decides: the pixel nearest the
            # coordinate wins, not the earliest one
            values = np.zeros((16, 16))
            values[3, 7], values[9, 2] = EPS / 2, EPS
            hm, coord, expected = Heatmap(values), (-500.0, 8.0), (0, 8)
        else:
            # every log here is exact: eps = e^-28, a prior of -(dx^2 + dy^2)/2,
            # and maps of 1 and e^29. The coordinate's own pixel (10, 10)
            # scores 0 + 0; a pixel beyond the floor horizon, (17, 13) after
            # it or (7, 3) before it, scores -29 + 29, the same, and the
            # earlier wins. (7, 3) sits on the window's first row
            eps = math.exp(-28.0)
            far = (17, 13) if case == "ring_inside_first" else (7, 3)
            values = np.zeros((24, 24))
            values[10, 10], values[far[1], far[0]] = 1.0, math.exp(29.0)
            hm, coord = Heatmap(values), (10.0, 10.0)
            expected = (10, 10) if case == "ring_inside_first" else far
            assert dense_logsum(hm, coord, sigma, eps)[far[1], far[0]] == 0.0
        idx = int(np.argmax(dense_logsum(hm, coord, sigma, eps)))
        assert (idx % hm.frame.width, idx // hm.frame.width) == expected
        cfg = FusionConfig(prior_sigma=sigma, floor_epsilon=eps)
        assert fuse_and_decode(hm, coord, cfg) == expected

    def test_a_score_rounded_up_to_best_is_in_the_window(self):
        # the coordinate's pixel (2, 1) holds a value just below the top and
        # scores best = log(value); its left neighbour holds the top, and its
        # prior lies just below best - log top, so its score is rounded up
        # to best, a tie that the earlier pixel wins. The window's margin
        # keeps that neighbour in; without it only (2, 1) would be read
        top = 1e300
        log_top = math.log(top)
        values = np.zeros((4, 4))
        values[1, 1], values[1, 2] = top, top * math.exp(-1e-3)
        best = float(np.log(values[1, 2]))
        # a prior 2e-14 below best - log top, well inside half an ulp of log top
        sigma = math.sqrt(0.5 / (log_top - best + 2e-14))
        prior = log_prior((2.0, 1.0), sigma, 4, 4)[1, 1]
        assert prior < best - log_top and prior + log_top == best
        hm = Heatmap(values)
        idx = int(np.argmax(dense_logsum(hm, (2.0, 1.0), sigma, EPS)))
        assert (idx % 4, idx // 4) == (1, 1)
        assert fuse_and_decode(hm, (2.0, 1.0), FusionConfig(prior_sigma=sigma)) == (1.0, 1.0)


class TestPeakBoundedWindow:
    def test_the_window_holds_the_nearest_pixel_and_the_peak_inside_the_old_box(self):
        # the old window took best from the nearest pixel alone; on a
        # calibrated image that pixel mostly sits on the map's eps floor.
        # The map's peak lies in the new window whenever it scores at least
        # what the nearest pixel does, so at least best
        config = calibrated_config(images=1)
        stream = Rng(4).spawn(0)
        gt = generate_phantom(stream, config.phantom)
        coords = simulate_coords(stream, gt, config.coords)
        stack = simulate_heatmaps(stream, gt, config.heatmaps)
        eps, held, shrunk = config.fusion.floor_epsilon, 0, 0
        for k, (hm, coord) in enumerate(zip(stack, coords.points)):
            _, (r0, r1, c0, c1), _ = fusion._fuse(hm, tuple(coord), config.fusion, 0.0)
            prior = log_prior(coord, config.fusion.prior_sigma, 512, 512)
            scores = dense_logsum(hm, coord, config.fusion.prior_sigma, eps)
            ny, nx = np.unravel_index(np.argmax(prior), prior.shape)
            px, py = decode_argmax(hm)
            assert r0 <= ny < r1 and c0 <= nx < c1
            if scores[py, px] >= scores[ny, nx]:
                assert r0 <= py < r1 and c0 <= px < c1
                held += 1
            best = float(scores[ny, nx])
            log_top = math.log(max(hm._top, eps))
            reach = best - log_top - 1e-12 * (1.0 + abs(best) + abs(log_top))
            o0, o1, p0, p1 = _box(prior[:, nx] >= reach, prior[ny] >= reach)
            assert o0 <= r0 <= r1 <= o1 and p0 <= c0 <= c1 <= p1
            shrunk += (r1 - r0) * (c1 - c0) < (o1 - o0) * (p1 - p0)
        assert held > len(stack) // 2 and shrunk > len(stack) // 2


def dense_point(hm: Heatmap, coord, sigma: float, decode: DecodeMethod):
    """The decoded point of one channel from the whole grid's log-sum: its
    row-major first maximum, or the centroid of exp(logsum - peak) over the
    3x3 patch there, clamped at the border."""
    logsum = dense_logsum(hm, coord, sigma, EPS)
    iy, ix = divmod(int(np.argmax(logsum)), hm.frame.width)
    if decode is DecodeMethod.ARGMAX:
        return float(ix), float(iy)
    x0, x1 = max(0, ix - 1), min(hm.frame.width, ix + 2)
    y0, y1 = max(0, iy - 1), min(hm.frame.height, iy + 2)
    patch = np.exp(logsum[y0:y1, x0:x1] - logsum[iy, ix])
    dx = np.arange(x0 - ix, x1 - ix, dtype=np.float64)
    dy = np.arange(y0 - iy, y1 - iy, dtype=np.float64)
    total = patch.sum()
    return (ix + float((patch.sum(axis=0) * dx).sum() / total),
            iy + float((patch.sum(axis=1) * dy).sum() / total))


@st.composite
def fusion_stacks(draw):
    """One to four channels of :func:`fusion_inputs` on one grid, not always
    square, with their coordinates and either one prior width for every
    channel or each channel's own. A ``sharp`` channel puts a narrow peak
    5 to 40 px from its coordinate, so the pixel nearest the coordinate
    often lies outside the map's support."""
    w, h = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    channels = draw(st.lists(fusion_inputs(size=(w, h)), min_size=1, max_size=4))
    maps, coords, sigmas = zip(*channels)
    return list(maps), np.array(coords), sigmas if draw(st.booleans()) else sigmas[0]


class TestFuseBatchIsChannelwise:
    """``fuse_batch`` decodes each channel as the dense oracle does, and it
    decodes a channel by one call of ``fuse_and_decode``, the call the
    benchmark's per-layer counts are taken from."""

    @settings(max_examples=200, deadline=None)
    @given(fusion_stacks())
    # a one-row grid, a half-pixel coordinate between two equal values, and
    # a coordinate beyond the floor horizon whose nearest pixel (0, 0) lies
    # outside the support of the map's only nonzero pixel
    @example(([Heatmap(np.array([[0.0, 1.0, 1.0, 0.0, 0.0, 0.0]])),
               Heatmap(np.array([[0.0, 0.0, 0.0, 0.0, 0.0, 2.0]]))],
              np.array([[1.5, 0.0], [-300.0, 0.0]]), (1.0, 2.0)))
    def test_points_are_the_dense_oracles(self, stack):
        maps, coords, sigma = stack
        frame = maps[0].frame
        sigmas = sigma if isinstance(sigma, tuple) else (sigma,) * len(maps)
        for decode in DecodeMethod:
            cfg = FusionConfig(prior_sigma=sigma, decode=decode)
            points = fuse_batch(maps, LandmarkSet(coords, frame), cfg).points
            for k, (hm, coord) in enumerate(zip(maps, coords)):
                assert tuple(points[k]) == dense_point(hm, coord, sigmas[k], decode)

    @settings(max_examples=100, deadline=None)
    @given(fusion_stacks(), st.sampled_from(list(DecodeMethod)))
    def test_per_landmark_widths_are_one_width_configs(self, stack, decode):
        # channel k of a per-landmark config is fused as one channel under a
        # config of channel k's width alone, points and dumped maps alike
        maps, coords, sigma = stack
        sigmas = sigma if isinstance(sigma, tuple) else (sigma,) * len(maps)
        coords = LandmarkSet(coords, maps[0].frame)
        ones = [FusionConfig(prior_sigma=s, decode=decode) for s in sigmas]
        dumps = []
        points = fuse_batch(maps, coords, FusionConfig(prior_sigma=sigmas, decode=decode),
                            _dumps=dumps).points
        for k, (hm, coord, one) in enumerate(zip(maps, coords.points, ones)):
            coord = (coord[0], coord[1])
            assert tuple(points[k]) == fuse_and_decode(hm, coord, one)
            _, product = fuse_product(hm, coord, one)
            assert dumps[k]._support == product._support
            assert dumps[k]._block.tobytes() == product._block.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(fusion_stacks(), st.sampled_from(list(DecodeMethod)), st.booleans())
    def test_equal_widths_are_the_one_width(self, stack, decode, dump):
        maps, coords, sigma = stack
        s = sigma[0] if isinstance(sigma, tuple) else sigma
        coords = LandmarkSet(coords, maps[0].frame)
        outs = []
        for width in (s, (s,) * len(maps)):
            dumps = [] if dump else None
            points = fuse_batch(maps, coords, FusionConfig(prior_sigma=width, decode=decode),
                                _dumps=dumps).points
            outs.append((points.tobytes(), [d._block.tobytes() for d in dumps or []]))
        assert outs[0] == outs[1]

    def test_each_channel_is_one_fuse_and_decode_call(self, monkeypatch):
        pts = np.array([[10.0, 10.0], [20.5, 30.0], [40.0, 50.25], [1e3, -4.0]])
        specs = [GaussianSpec((x + 1.5, y - 2.0), 1.2) for x, y in pts[:3]]
        stack = [render_gaussian(spec, PixelFrame(64, 48))
                 for spec in specs + [GaussianSpec((5.0, 5.0), 0.3)]]
        coords = LandmarkSet(pts, PixelFrame(64, 48))
        cfg = FusionConfig(prior_sigma=(6.0, 3.0, 9.0, 6.0), decode=DecodeMethod.CENTROID)
        expected = fuse_batch(stack, coords, cfg).points
        calls, decode = [], fusion.fuse_and_decode
        monkeypatch.setattr(fusion, "fuse_and_decode",
                            lambda *args: calls.append((args[0], args[2])) or decode(*args))
        assert fuse_batch(stack, coords, cfg).points.tobytes() == expected.tobytes()
        # each channel's call gets a config of its landmark's width alone
        assert [(hm, c.prior_sigma, c.decode) for hm, c in calls] == [
            (hm, s, DecodeMethod.CENTROID) for hm, s in zip(stack, cfg.prior_sigma)]


class TestDumpsShareTheLogSum:
    """``fuse --dump-heatmaps`` fuses each channel once: ``fuse_batch`` with
    a ``_dumps`` list decodes the point from the log-sum over
    ``fuse_product``'s box and exponentiates that same sum for the map."""

    @staticmethod
    def outcome(fuse):
        try:
            return fuse()
        except ValidationError as exc:
            return str(exc)

    @settings(max_examples=300, deadline=None)
    @given(fusion_inputs(), st.sampled_from(list(DecodeMethod)), st.booleans())
    def test_points_and_maps_are_fuse_batchs_and_fuse_products(self, inputs, decode, zero):
        hm, coord, sigma = inputs
        if zero:
            # refused by the decoder, so by fuse_product too, with its message
            hm = Heatmap(np.zeros((hm.frame.height, hm.frame.width)))
        cfg = FusionConfig(prior_sigma=sigma, decode=decode)
        coords = LandmarkSet(np.array([coord, coord]), hm.frame)
        points = self.outcome(lambda: fuse_batch([hm, hm], coords, cfg).points.tobytes())
        product = self.outcome(lambda: fuse_product(hm, coord, cfg)[1])
        dumps = []
        fused = self.outcome(lambda: fuse_batch([hm, hm], coords, cfg, _dumps=dumps))
        if isinstance(fused, str):
            assert fused == points == f"channel 0: {product}"
            return
        assert fused.points.tobytes() == points and len(dumps) == 2
        for dump in dumps:
            assert dump._support == product._support and dump.frame == product.frame
            assert dump._block.tobytes() == product._block.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(fusion_inputs(), st.sampled_from(list(DecodeMethod)), st.booleans())
    def test_the_point_is_fuse_and_decodes(self, inputs, decode, zero):
        # fuse_product's point is fuse_and_decode's, and each refuses what
        # the other does, with its message
        hm, coord, sigma = inputs
        if zero:
            hm = Heatmap(np.zeros((hm.frame.height, hm.frame.width)))
        cfg = FusionConfig(prior_sigma=sigma, decode=decode)
        point = self.outcome(lambda: fuse_product(hm, coord, cfg)[0])
        assert point == self.outcome(lambda: fuse_and_decode(hm, coord, cfg))

    def test_each_channel_builds_one_log_sum(self, monkeypatch):
        pts = np.array([[10.0, 10.0], [20.0, 30.0], [40.0, 50.0]])
        stack = [render_gaussian(GaussianSpec((x + 1.5, y - 2.0), 1.2), PixelFrame(64, 64))
                 for x, y in pts]
        coords = LandmarkSet(pts, PixelFrame(64, 64))
        cfg = FusionConfig(prior_sigma=6.0, decode=DecodeMethod.CENTROID)
        expected = fuse_batch(stack, coords, cfg).points
        offsets, dumps = [], []
        fuse = fusion._fuse
        monkeypatch.setattr(fusion, "_fuse",
                            lambda *args: offsets.append(args[3]) or fuse(*args))
        monkeypatch.setattr(fusion, "fuse_and_decode", None)
        fused = fuse_batch(stack, coords, cfg, _dumps=dumps)
        assert offsets == [fusion._LOG_FLUSH] * 3
        assert fused.points.tobytes() == expected.tobytes() and len(dumps) == 3

    @pytest.mark.parametrize("case", ["length", "sigmas", "shape", "length_and_sigmas",
                                      "sigmas_and_shape", "far_then_zero", "zero_then_far"])
    def test_errors_and_their_order_are_fuse_batchs(self, case):
        stack = [render_gaussian(GaussianSpec((10.0, 10.0), 1.2), PixelFrame(48, 48))] * 3
        pts = np.array([[10.0, 10.0]] * 3)
        cfg = FusionConfig(prior_sigma=6.0)
        if "length" in case:
            pts = pts[:2]
        if "sigmas" in case:
            cfg = FusionConfig(prior_sigma=(6.0, 6.0))
        if "shape" in case:
            stack = stack[:2] + [render_gaussian(GaussianSpec((5, 5), 1.2), PixelFrame(40, 48))]
        if "then" in case:
            far, zero = (1, 2) if case == "far_then_zero" else (2, 1)
            pts[far] = (1e160, 20.0)
            stack = list(stack)
            stack[zero] = Heatmap(np.zeros((48, 48)))
        coords = LandmarkSet(pts, PixelFrame(48, 48))
        with pytest.raises(ValidationError) as batch:
            fuse_batch(stack, coords, cfg)
        with pytest.raises(ValidationError) as dumped:
            fuse_batch(stack, coords, cfg, _dumps=[])
        assert str(dumped.value) == str(batch.value)
        if case.endswith("zero"):
            assert str(batch.value).startswith("channel 1: coordinate (1e+160, 20.0)")
        elif case.endswith("far"):
            assert str(batch.value) == "channel 1: cannot fuse an all-zero predicted heatmap"
        elif case == "length_and_sigmas":
            assert str(batch.value).startswith("length mismatch")
        elif case == "sigmas_and_shape":
            assert str(batch.value) == "2 prior sigmas for 3 landmarks"

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinefuse.core import LandmarkSet, PixelFrame, ValidationError
from spinefuse.fusion import (
    DecodeMethod,
    FusionConfig,
    coord_to_prior,
    fuse_and_decode,
    fuse_batch,
    fuse_product,
)
from spinefuse.heatmap import GaussianSpec, Heatmap, decode_argmax, decode_centroid, render_gaussian


def brute_force_fused_argmax(predicted: Heatmap, prior: Heatmap, eps: float = 1e-12):
    """Scalar-loop oracle for the clamped-product argmax."""
    best, bx, by = -math.inf, -1, -1
    for y in range(predicted.height):
        for x in range(predicted.width):
            v = (math.log(max(predicted.values[y, x], eps))
                 + math.log(max(prior.values[y, x], eps)))
            if v > best:
                best, bx, by = v, x, y
    return bx, by


def bimodal(t, a, sigma=1.2, size=64, amp_a=1.0):
    peak_t = render_gaussian(GaussianSpec(t, sigma), size, size)
    peak_a = render_gaussian(GaussianSpec(a, sigma, amplitude=amp_a), size, size)
    return Heatmap(np.maximum(peak_t.values, peak_a.values))


class TestCoordToPrior:
    def test_max_at_coordinate(self):
        prior = coord_to_prior((10, 10), 6.0, 64, 64)
        assert decode_argmax(prior) == (10, 10)
        assert prior.values[10, 10] == pytest.approx(1.0)

    def test_value_at_one_sigma(self):
        prior = coord_to_prior((10, 10), 6.0, 64, 64)
        assert prior.values[10, 16] == pytest.approx(math.exp(-0.5), rel=1e-12)

    def test_out_of_frame_coordinate(self):
        prior = coord_to_prior((-5, -5), 6.0, 64, 64)
        assert decode_argmax(prior) == (0, 0)
        assert prior.values[0, 0] < 1.0


class TestFuseProduct:
    def test_uniform_map_is_identity(self):
        prior = coord_to_prior((20, 30), 4.0, 64, 64)
        ones = Heatmap(np.ones((64, 64)))
        fused = fuse_product(ones, prior)
        assert decode_argmax(fused) == (20, 30)
        # identity up to the documented floor on the deep tail
        np.testing.assert_allclose(
            fused.values, np.maximum(prior.values, 1e-12), rtol=1e-12
        )

    def test_equal_sigmas_meet_at_midpoint(self):
        a = render_gaussian(GaussianSpec((10, 10), 2.0), 64, 64)
        b = render_gaussian(GaussianSpec((14, 10), 2.0), 64, 64)
        assert decode_argmax(fuse_product(a, b)) == (12, 10)

    def test_closed_form_mean(self):
        # precision-weighted mean: (sb^2*10 + sa^2*20) / (sa^2 + sb^2) = 12
        a = render_gaussian(GaussianSpec((10, 10), 2.0), 64, 64)
        b = render_gaussian(GaussianSpec((20, 10), 4.0), 64, 64)
        fused = fuse_product(a, b)
        assert decode_argmax(fused) == (12, 10)
        assert brute_force_fused_argmax(a, b) == (12, 10)

    def test_output_peak_is_one(self):
        a = render_gaussian(GaussianSpec((10, 10), 2.0), 32, 32)
        b = render_gaussian(GaussianSpec((20, 20), 3.0), 32, 32)
        assert fuse_product(a, b).values.max() == 1.0

    def test_symmetric_in_arguments(self):
        a = render_gaussian(GaussianSpec((10, 12), 2.0), 32, 32)
        b = render_gaussian(GaussianSpec((17, 20), 3.0), 32, 32)
        np.testing.assert_allclose(
            fuse_product(a, b).values, fuse_product(b, a).values, atol=1e-12
        )

    def test_far_apart_narrow_peaks_do_not_underflow(self):
        # the raw product of these maps is all zeros in float64
        a = render_gaussian(GaussianSpec((10, 10), 1.0), 128, 128)
        b = render_gaussian(GaussianSpec((120, 120), 1.0), 128, 128)
        assert (a.values * b.values).max() == 0.0
        fused = fuse_product(a, b)
        assert fused.values.max() == 1.0

    def test_dimension_mismatch(self):
        a = render_gaussian(GaussianSpec((5, 5), 2.0), 32, 32)
        b = render_gaussian(GaussianSpec((5, 5), 2.0), 16, 16)
        with pytest.raises(ValidationError, match="dimension mismatch"):
            fuse_product(a, b)


class TestFuseAndDecode:
    def test_unimodal_pull_stays_on_segment(self):
        hm = render_gaussian(GaussianSpec((30, 30), 2.0), 64, 64)
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
            fused = fuse_product(
                hm, coord_to_prior(coord, 5.0, hm.width, hm.height), cfg.floor_epsilon
            )
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
            hm = render_gaussian(GaussianSpec(center, sp), 128, 128)
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
        hm = render_gaussian(GaussianSpec((30, 30), 2.0), 64, 64)
        cfg = FusionConfig(prior_sigma=6.0, decode=DecodeMethod.CENTROID)
        x, y = fuse_and_decode(hm, (30, 30), cfg)
        assert (x, y) == (30.0, 30.0)

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
        stack = [render_gaussian(GaussianSpec(tuple(p), 1.2), 64, 64) for p in pts]
        coords = LandmarkSet(pts, PixelFrame(64, 64))
        out = fuse_batch(stack, coords, FusionConfig(prior_sigma=6.0))
        np.testing.assert_array_equal(out.points, pts)

    def test_length_mismatch(self):
        stack = [render_gaussian(GaussianSpec((5, 5), 1.2), 32, 32)]
        coords = LandmarkSet(np.array([[5.0, 5.0], [6.0, 6.0]]), PixelFrame(32, 32))
        with pytest.raises(ValidationError, match="length mismatch"):
            fuse_batch(stack, coords, FusionConfig())

    def test_channel_shape_mismatch_names_channel(self):
        stack = [
            render_gaussian(GaussianSpec((5, 5), 1.2), 32, 32),
            render_gaussian(GaussianSpec((5, 5), 1.2), 16, 16),
        ]
        coords = LandmarkSet(np.array([[5.0, 5.0], [5.0, 5.0]]), PixelFrame(32, 32))
        with pytest.raises(ValidationError, match="channel 1"):
            fuse_batch(stack, coords, FusionConfig())

    def test_per_landmark_sigma_override(self):
        pts = np.array([[10.0, 10.0], [20.0, 20.0]])
        stack = [render_gaussian(GaussianSpec(tuple(p), 1.2), 48, 48) for p in pts]
        coords = LandmarkSet(pts, PixelFrame(48, 48))
        out = fuse_batch(stack, coords, FusionConfig(prior_sigma=(3.0, 9.0)))
        np.testing.assert_array_equal(out.points, pts)
        with pytest.raises(ValidationError, match="channel"):
            FusionConfig(prior_sigma=(3.0,)).sigma_for(2)


class TestFusionConfig:
    # 2*sigma*sigma underflows to 0 below about 1.5e-162
    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf, 1e-170, 5e-324])
    @pytest.mark.parametrize("per_landmark", [False, True])
    def test_unusable_prior_sigma_is_named(self, sigma, per_landmark):
        prior = (6.0, sigma) if per_landmark else sigma
        with pytest.raises(ValidationError, match=f"got {sigma}$"):
            FusionConfig(prior_sigma=prior)


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


def clamped_log_prior(coord, sigma: float, width: int, height: int, eps: float) -> np.ndarray:
    two_s2 = 2.0 * sigma * sigma
    lx = -((np.arange(width, dtype=np.float64) - coord[0]) ** 2) / two_s2
    ly = -((np.arange(height, dtype=np.float64) - coord[1]) ** 2) / two_s2
    return np.maximum(lx[None, :] + ly[:, None], math.log(eps))


def dense_logsum(hm: Heatmap, coord, sigma: float, eps: float) -> np.ndarray:
    """The clamped log prior plus the clamped log map over the whole grid,
    summed in the decoder's operation order so ties break identically."""
    return (clamped_log_prior(coord, sigma, hm.width, hm.height, eps)
            + np.log(np.maximum(hm.values, eps)))


@st.composite
def fusion_inputs(draw):
    """A map on a grid of up to 96 x 96, a prior width, and a coordinate
    that may lie outside the frame, or beyond the floor horizon
    sigma * sqrt(2 ln(1/eps)) of every pixel.

    Besides constant, bimodal and random maps there are two tie-heavy kinds:
    ``near_tie`` mixes values one ulp apart, values just above and at or
    below eps, and zeros; ``floor_ring`` puts one value above 1 on every
    pixel whose clamped prior is exactly log eps and zero elsewhere, so the
    best scores inside and outside the prior's window are equal.
    """
    w, h = draw(st.integers(1, 96)), draw(st.integers(1, 96))
    sigma = draw(st.floats(0.3, 20.0))
    margin = draw(st.sampled_from([0.0, 2.0 * sigma * math.sqrt(-2.0 * math.log(EPS))]))
    coord = (draw(st.floats(-w - margin, 2 * w + margin)),
             draw(st.floats(-h - margin, 2 * h + margin)))
    kind = draw(st.sampled_from(["constant", "bimodal", "random", "near_tie", "floor_ring"]))
    if kind == "constant":
        values = np.full((h, w), draw(st.floats(1e-6, 1e3)))
    elif kind == "bimodal":
        def spot():
            center = (draw(st.floats(0, w - 1)), draw(st.floats(0, h - 1)))
            spec = GaussianSpec(center, draw(st.floats(0.5, 4.0)),
                                amplitude=draw(st.floats(0.5, 1.5)))
            return render_gaussian(spec, w, h).values
        values = np.maximum(spot(), spot())
    elif kind == "random":
        values = draw(arrays(np.float64, (h, w), elements=st.floats(0, 1)))
        assume(values.max() > 0)
    elif kind == "near_tie":
        base = draw(st.sampled_from([1.0, 3e-7, np.nextafter(EPS, 1.0)]))
        pool = np.array([base, np.nextafter(base, 2.0), np.nextafter(base, 0.0),
                         base * (1.0 - 1e-9), np.nextafter(EPS, 1.0), EPS, EPS / 2, 0.0])
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        values = pool[rng.integers(0, draw(st.integers(1, len(pool))), (h, w))]
        assume(values.max() > 0)
    else:
        ring = clamped_log_prior(coord, sigma, w, h, EPS) == math.log(EPS)
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
        assert (ax, ay) == (idx % hm.width, idx // hm.width)

        cx, cy = fuse_and_decode(hm, coord, centroid_cfg)
        assert abs(cx - ax) <= 1 and abs(cy - ay) <= 1
        fused = np.exp(logsum - logsum.max())
        if int(np.argmax(fused)) == idx:
            ref = decode_centroid(Heatmap(fused))
            assert abs(cx - ref[0]) <= 1e-12 and abs(cy - ref[1]) <= 1e-12
        else:
            # exp rounded a log-domain near-tie to the same peak value, so the
            # product map's first maximum sits before the log-domain one
            assert fused.flat[int(np.argmax(fused))] == fused.flat[idx] == 1.0

    @staticmethod
    def _ring(coord, sigma, size):
        """10 on every pixel whose clamped prior is exactly log eps, else 0."""
        ring = clamped_log_prior(coord, sigma, size, size, EPS) == math.log(EPS)
        return Heatmap(np.where(ring, 10.0, 0.0))

    @pytest.mark.parametrize("case", ["ulp_apart", "below_eps", "ring_inside_first",
                                      "ring_outside_first"])
    def test_near_ties_match_the_dense_argmax(self, case):
        sigma = 1.0
        if case == "ulp_apart":
            # far from the prior, 1 - ulp and 1 round to one score: the
            # earlier pixel wins although its raw value is smaller
            values = np.zeros((64, 64))
            values[0, 5], values[0, 10] = np.nextafter(1.0, 0.0), 1.0
            hm, coord, expected = Heatmap(values), (32.0, 32.0), (5, 0)
        elif case == "below_eps":
            # beyond the horizon every pixel is outside the window, and every
            # value at or below eps scores the same floor
            values = np.zeros((16, 16))
            values[3, 7], values[9, 2] = EPS / 2, EPS
            hm, coord, expected = Heatmap(values), (-500.0, 8.0), (0, 0)
        elif case == "ring_inside_first":
            # the window's clamped corner (0, 0) ties with later outside pixels
            hm, coord, expected = self._ring((6.0, 6.0), sigma, 32), (6.0, 6.0), (0, 0)
        else:
            # the outside pixel (0, 0) ties with the window's clamped corners
            hm, coord, expected = self._ring((20.0, 20.0), sigma, 48), (20.0, 20.0), (0, 0)
        idx = int(np.argmax(dense_logsum(hm, coord, sigma, EPS)))
        assert (idx % hm.width, idx // hm.width) == expected
        assert fuse_and_decode(hm, coord, FusionConfig(prior_sigma=sigma)) == expected

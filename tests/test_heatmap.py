import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinefuse.core import LandmarkSet, PixelFrame, ValidationError
from spinefuse.heatmap import (
    GaussianSpec,
    Heatmap,
    decode_argmax,
    decode_centroid,
    render_gaussian,
    render_label_stack,
)


def dense_gaussian(spec: GaussianSpec, width: int, height: int) -> np.ndarray:
    """Reference render: the outer product over the whole grid, then the amplitude."""
    x0, y0 = spec.center
    two_s2 = 2.0 * spec.sigma * spec.sigma
    ex = np.exp(-((np.arange(width, dtype=np.float64) - x0) ** 2) / two_s2)
    ey = np.exp(-((np.arange(height, dtype=np.float64) - y0) ** 2) / two_s2)
    return np.outer(ey, ex) * spec.amplitude


class TestHeatmapValidation:
    @pytest.mark.parametrize("bad, message", [
        (np.nan, "heatmap values must be finite"),
        (np.inf, "heatmap values must be finite"),
        (-np.inf, "heatmap values must be finite"),
        (-1e-300, "heatmap values must be non-negative"),
    ])
    def test_messages(self, bad, message):
        vals = np.ones((3, 4))
        vals[1, 2] = bad
        with pytest.raises(ValidationError) as exc:
            Heatmap(vals)
        assert str(exc.value) == message

    def test_non_finite_is_reported_before_negative(self):
        vals = np.full((2, 2), -1.0)
        vals[1, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            Heatmap(vals)

    @pytest.mark.parametrize("shape", [(0, 3), (4,), (2, 2, 2)])
    def test_shape(self, shape):
        with pytest.raises(ValidationError, match="non-empty 2-D"):
            Heatmap(np.ones(shape))


class TestRenderGaussian:
    def test_center_value_is_one(self):
        hm = render_gaussian(GaussianSpec((5, 5), 1.2), 16, 16)
        assert hm.values[5, 5] == pytest.approx(1.0, abs=1e-15)

    def test_value_at_one_sigma(self):
        hm = render_gaussian(GaussianSpec((5, 5), 1.2), 16, 16)
        # continuous point 5 + 1.2 is off-grid; evaluate analytically instead
        x = 5 + 1.2
        expected = math.exp(-((x - 5) ** 2) / (2 * 1.2 ** 2))
        assert expected == pytest.approx(0.6065306597126334)
        # nearest representable check: grid point at distance exactly sigma=2
        hm2 = render_gaussian(GaussianSpec((5, 5), 2.0), 16, 16)
        assert hm2.values[5, 7] == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_matches_scalar_evaluation(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            w, h = int(rng.integers(8, 64)), int(rng.integers(8, 64))
            x0, y0 = rng.uniform(0, w - 1), rng.uniform(0, h - 1)
            sigma = rng.uniform(0.8, 8.0)
            hm = render_gaussian(GaussianSpec((x0, y0), sigma), w, h)
            x, y = int(rng.integers(0, w)), int(rng.integers(0, h))
            expected = math.exp(-(((x - x0) ** 2) + ((y - y0) ** 2)) / (2 * sigma * sigma))
            assert hm.values[y, x] == pytest.approx(expected, rel=1e-12)

    def test_symmetric_about_center(self):
        hm = render_gaussian(GaussianSpec((16, 16), 2.5), 33, 33)
        np.testing.assert_allclose(hm.values, hm.values[::-1, :], atol=1e-12)
        np.testing.assert_allclose(hm.values, hm.values[:, ::-1], atol=1e-12)

    def test_no_truncation(self):
        hm = render_gaussian(GaussianSpec((0, 0), 3.0), 40, 40)
        assert hm.values[39, 39] > 0

    def test_bad_spec(self):
        with pytest.raises(ValidationError):
            GaussianSpec((1, 1), sigma=0.0)
        with pytest.raises(ValidationError):
            GaussianSpec((1, 1), sigma=1.0, amplitude=-2.0)

    @pytest.mark.parametrize("sigma", [1e-170, 5e-324])
    def test_underflowing_sigma_is_named(self, sigma):
        # 2*sigma*sigma is 0 here, so every exponent would be -inf or NaN
        with pytest.raises(ValidationError, match=f"got {sigma}$"):
            GaussianSpec((1, 1), sigma=sigma)

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 300), height=st.integers(1, 300),
           sigma=st.floats(0.05, 1e3), fx=st.floats(-3.0, 4.0), fy=st.floats(-3.0, 4.0),
           amplitude=st.floats(1e-3, 1e3))
    def test_equals_the_dense_outer_product(self, width, height, sigma, fx, fy, amplitude):
        # centres up to three grid widths outside the frame, so some maps are all zero
        spec = GaussianSpec((fx * width, fy * height), sigma, amplitude)
        got = render_gaussian(spec, width, height).values
        assert got.tobytes() == dense_gaussian(spec, width, height).tobytes()


class TestRenderLabelStack:
    def test_channel_count_and_order(self):
        pts = np.array([[10.0, 10.0], [10.0, 20.0], [10.0, 30.0]])
        stack = render_label_stack(LandmarkSet(pts, PixelFrame(64, 64)), 1.2, 64, 64)
        assert len(stack) == 3
        for hm, (x, y) in zip(stack, pts):
            assert decode_argmax(hm) == (int(x), int(y))
            assert hm.values[int(y), int(x)] == pytest.approx(1.0)

    def test_empty_stack(self):
        stack = render_label_stack(
            LandmarkSet(np.empty((0, 2)), PixelFrame(64, 64)), 1.2, 64, 64
        )
        assert stack == []

    def test_cross_channel_leakage(self):
        # neighbor 3 px away contributes exp(-9 / (2 * 1.44))
        pts = np.array([[10.0, 10.0], [10.0, 13.0]])
        stack = render_label_stack(LandmarkSet(pts, PixelFrame(32, 32)), 1.2, 32, 32)
        assert stack[0].values[13, 10] == pytest.approx(0.04393693362340742, rel=1e-12)


class TestDecodeArgmax:
    def test_integer_center_recovered(self):
        hm = render_gaussian(GaussianSpec((7, 3), 1.2), 16, 16)
        assert decode_argmax(hm) == (7, 3)

    def test_tie_breaks_to_first_row_major(self):
        vals = np.zeros((10, 10))
        vals[2, 2] = 1.0
        vals[8, 8] = 1.0
        assert decode_argmax(Heatmap(vals)) == (2, 2)

    def test_mixture_picks_higher_peak(self):
        a = render_gaussian(GaussianSpec((10, 10), 2.0), 64, 64)
        b = render_gaussian(GaussianSpec((40, 40), 2.0, amplitude=0.9), 64, 64)
        assert decode_argmax(Heatmap(np.maximum(a.values, b.values))) == (10, 10)

    def test_all_zero_rejected(self):
        with pytest.raises(ValidationError, match="all-zero"):
            decode_argmax(Heatmap(np.zeros((4, 4))))

    def test_invariant_under_monotone_rescale(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            vals = rng.uniform(0.01, 1.0, (24, 24))
            hm = Heatmap(vals)
            base = decode_argmax(hm)
            assert decode_argmax(Heatmap(vals * 37.0)) == base
            assert decode_argmax(Heatmap(vals ** 2.5)) == base

    def test_integer_center_sweep(self):
        for x0 in range(2, 14, 3):
            for y0 in range(2, 14, 4):
                hm = render_gaussian(GaussianSpec((x0, y0), 1.2), 16, 16)
                assert decode_argmax(hm) == (x0, y0)


class TestDecodeCentroid:
    def test_symmetric_gaussian_equals_argmax(self):
        hm = render_gaussian(GaussianSpec((8, 8), 2.0), 17, 17)
        assert decode_centroid(hm) == (8.0, 8.0)

    def test_delta_map(self):
        vals = np.zeros((8, 8))
        vals[5, 2] = 3.0
        assert decode_centroid(Heatmap(vals)) == (2.0, 5.0)

    def test_subpixel_center_pull(self):
        # frozen from the brute-force window centroid of this exact rendering
        hm = render_gaussian(GaussianSpec((7.4, 3.0), 2.0), 32, 32)
        x, y = decode_centroid(hm, window=5)
        assert x == pytest.approx(7.1658492742187105, rel=1e-12)
        assert abs(x - 7.4) < 0.25
        assert y == pytest.approx(3.0, abs=1e-9)

    def test_even_window_rejected(self):
        hm = render_gaussian(GaussianSpec((4, 4), 1.0), 9, 9)
        with pytest.raises(ValidationError):
            decode_centroid(hm, window=4)

    def test_border_clamping(self):
        hm = render_gaussian(GaussianSpec((0, 0), 1.5), 12, 12)
        x, y = decode_centroid(hm, window=3)
        assert 0 <= x < 1 and 0 <= y < 1


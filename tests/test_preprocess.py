import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinefuse.core import GrayImage, LandmarkSet, PixelFrame, ValidationError
from spinefuse.preprocess import _round_u8, equalize_histogram, resize_bilinear, resize_landmarks


def gathered_resize(img, out_w, out_h):
    """Reference: bilinear resize that gathers the four corners of every
    output pixel with np.ix_."""
    src = img.pixels.astype(np.float64)
    h, w = src.shape

    sx = (np.arange(out_w, dtype=np.float64) + 0.5) * (w / out_w) - 0.5
    sy = (np.arange(out_h, dtype=np.float64) + 0.5) * (h / out_h) - 0.5
    sx = np.clip(sx, 0.0, w - 1.0)
    sy = np.clip(sy, 0.0, h - 1.0)

    x0 = np.floor(sx).astype(int)
    y0 = np.floor(sy).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = sx - x0
    fy = sy - y0

    top = src[np.ix_(y0, x0)] * (1 - fx) + src[np.ix_(y0, x1)] * fx
    bot = src[np.ix_(y1, x0)] * (1 - fx) + src[np.ix_(y1, x1)] * fx
    out = top * (1 - fy)[:, None] + bot * fy[:, None]
    return GrayImage(_round_u8(out), img.spacing * (w / out_w))


class TestEqualizeHistogram:
    def test_constant_image_unchanged(self):
        img = GrayImage(np.full((3, 3), 77, np.uint8), 1.0)
        out = equalize_histogram(img)
        np.testing.assert_array_equal(out.pixels, img.pixels)

    def test_two_level_image(self):
        # cdf(0)=2, cdf(255)=4, cdf_min=2 -> extremes stay put
        img = GrayImage(np.array([[0, 0], [255, 255]], np.uint8), 1.0)
        out = equalize_histogram(img)
        np.testing.assert_array_equal(out.pixels.ravel(), [0, 0, 255, 255])

    def test_hand_derived_three_levels(self):
        # cdf = {10: 1, 20: 3, 30: 4}, cdf_min = 1
        # -> round(0/3*255)=0, round(2/3*255)=170, round(3/3*255)=255
        img = GrayImage(np.array([[10, 20], [20, 30]], np.uint8), 1.0)
        out = equalize_histogram(img)
        np.testing.assert_array_equal(out.pixels.ravel(), [0, 170, 170, 255])

    def test_dimensions_and_spacing_preserved(self):
        rng = np.random.default_rng(0)
        img = GrayImage(rng.integers(0, 256, (17, 9), dtype=np.uint8), 0.7)
        out = equalize_histogram(img)
        assert (out.frame.width, out.frame.height, out.spacing) == (9, 17, 0.7)

    def test_idempotent_on_two_bin_images(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            lo, hi = sorted(rng.choice(256, size=2, replace=False))
            pix = rng.choice([lo, hi], size=(8, 8)).astype(np.uint8)
            img = GrayImage(pix, 1.0)
            once = equalize_histogram(img)
            twice = equalize_histogram(once)
            np.testing.assert_array_equal(once.pixels, twice.pixels)

    def test_preserves_intensity_ordering(self):
        rng = np.random.default_rng(2)
        img = GrayImage(rng.integers(0, 256, (32, 32), dtype=np.uint8), 1.0)
        out = equalize_histogram(img)
        flat_in = img.pixels.ravel().astype(int)
        flat_out = out.pixels.ravel().astype(int)
        order = np.argsort(flat_in, kind="stable")
        assert np.all(np.diff(flat_out[order]) >= 0)


class TestResizeBilinear:
    def test_identity_resize(self):
        # the same size keeps pixels and spacing exactly, as resampling would
        rng = np.random.default_rng(3)
        img = GrayImage(rng.integers(0, 256, (12, 7), dtype=np.uint8), 0.3)
        out = resize_bilinear(img, PixelFrame(7, 12))
        np.testing.assert_array_equal(out.pixels, img.pixels)
        want = gathered_resize(img, 7, 12)
        assert out.pixels.tobytes() == want.pixels.tobytes()
        assert out.spacing == want.spacing == 0.3

    def test_single_pixel_extends_constant(self):
        img = GrayImage(np.array([[42]], np.uint8), 1.0)
        out = resize_bilinear(img, PixelFrame(3, 3))
        np.testing.assert_array_equal(out.pixels, np.full((3, 3), 42))

    def test_half_pixel_center_alignment(self):
        # sample coords for 2->4 upscale are -0.25, 0.25, 0.75, 1.25
        img = GrayImage(np.array([[0, 100]], np.uint8), 1.0)
        out = resize_bilinear(img, PixelFrame(4, 1))
        np.testing.assert_array_equal(out.pixels.ravel(), [0, 25, 75, 100])

    def test_output_within_input_range(self):
        rng = np.random.default_rng(4)
        img = GrayImage(rng.integers(30, 200, (20, 20), dtype=np.uint8), 1.0)
        for w, h in [(7, 7), (33, 15), (40, 40)]:
            out = resize_bilinear(img, PixelFrame(w, h))
            assert out.pixels.min() >= img.pixels.min()
            assert out.pixels.max() <= img.pixels.max()

    def test_spacing_rescaled(self):
        img = GrayImage(np.zeros((512, 512), dtype=np.uint8), 0.5)
        out = resize_bilinear(img, PixelFrame(256, 256))
        assert out.spacing == pytest.approx(1.0)

    def test_bad_size(self):
        img = GrayImage(np.array([[0, 0], [0, 0]], np.uint8), 1.0)
        with pytest.raises(ValidationError):
            resize_bilinear(img, PixelFrame(0, 4))

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 60), height=st.integers(1, 60), out_w=st.integers(1, 60),
           out_h=st.integers(1, 60), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_gathered_reference(self, width, height, out_w, out_h, seed):
        # up, down and same sizes on each axis independently
        pix = np.random.default_rng(seed).integers(0, 256, (height, width), dtype=np.uint8)
        img = GrayImage(pix, 0.5)
        got = resize_bilinear(img, PixelFrame(out_w, out_h))
        want = gathered_resize(img, out_w, out_h)
        assert got.pixels.tobytes() == want.pixels.tobytes()
        assert got.spacing == want.spacing


class TestResizeLandmarks:
    def test_center_maps_to_center(self):
        lms = LandmarkSet(np.array([[256.0, 256.0]]), PixelFrame(512, 512))
        out = resize_landmarks(lms, PixelFrame(299, 299))
        np.testing.assert_allclose(out.points, [[149.5, 149.5]])

    def test_origin_fixed(self):
        lms = LandmarkSet(np.array([[0.0, 0.0]]), PixelFrame(512, 512))
        out = resize_landmarks(lms, PixelFrame(299, 299))
        np.testing.assert_array_equal(out.points, [[0.0, 0.0]])

    def test_halving(self):
        lms = LandmarkSet(np.array([[100.0, 400.0]]), PixelFrame(512, 512))
        out = resize_landmarks(lms, PixelFrame(256, 256))
        np.testing.assert_allclose(out.points, [[50.0, 200.0]])

    def test_out_of_bounds_input_rejected(self):
        lms = LandmarkSet(np.array([[600.0, 10.0]]), PixelFrame(512, 512))
        with pytest.raises(ValidationError):
            resize_landmarks(lms, PixelFrame(256, 256))

    def test_commutes_with_frame_conversion(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 511.9, (50, 2))
        lms = LandmarkSet(pts, PixelFrame(512, 512))
        # each point keeps its position as a fraction of the frame
        out = resize_landmarks(lms, PixelFrame(299, 299))
        np.testing.assert_allclose(out.points / 299.0, pts / 512.0, atol=1e-9)

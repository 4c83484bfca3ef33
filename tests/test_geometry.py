import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinefuse.core import GrayImage, LandmarkSet, PixelFrame, Rng, ValidationError
from spinefuse.geometry import (
    _STRIP_PIXELS,
    AffineTransform2D,
    AugmentationRanges,
    build_transform,
    sample_augmentation,
    sample_valid_augmentation,
    warp_image,
    warp_landmarks,
)
from spinefuse.preprocess import _round_u8, equalize_histogram
from spinefuse.simulate import PhantomConfig, generate_phantom, phantom_image


def masked_warp(img, t):
    """Reference: bilinear inverse-map resampling that masks out each corner
    falling outside the grid."""
    h, w = img.pixels.shape
    inv = t.invert().matrix
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    sx = inv[0, 0] * xs[None, :] + inv[0, 1] * ys[:, None] + inv[0, 2]
    sy = inv[1, 0] * xs[None, :] + inv[1, 1] * ys[:, None] + inv[1, 2]

    x0 = np.floor(sx).astype(int)
    y0 = np.floor(sy).astype(int)
    fx = sx - x0
    fy = sy - y0

    src = img.pixels.astype(np.float64)
    out = np.zeros((h, w))
    for dy in (0, 1):
        wy = fy if dy else 1.0 - fy
        yy = y0 + dy
        for dx in (0, 1):
            wx = fx if dx else 1.0 - fx
            xx = x0 + dx
            valid = (xx >= 0) & (xx < w) & (yy >= 0) & (yy < h)
            out[valid] += (wx * wy)[valid] * src[yy[valid], xx[valid]]
    return GrayImage(_round_u8(out), img.spacing)


def whole_grid_warp(img, t):
    """Reference: the padded gather of warp_image computed over the whole
    grid at once, without row strips."""
    h, w = img.pixels.shape
    inv = t.invert().matrix
    xs = np.arange(w, dtype=np.float64)
    ys = np.arange(h, dtype=np.float64)
    sx = inv[0, 0] * xs[None, :] + inv[0, 1] * ys[:, None] + inv[0, 2]
    sy = inv[1, 0] * xs[None, :] + inv[1, 1] * ys[:, None] + inv[1, 2]
    np.clip(sx, -1.0, w, out=sx)
    np.clip(sy, -1.0, h, out=sy)
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    gx = 1.0 - fx
    gy = 1.0 - fy
    pw = w + 3
    padded = np.zeros((h + 3, pw), dtype=np.uint8)
    padded[1:h + 1, 1:w + 1] = img.pixels
    flat = padded.ravel()
    top_left = ((y0 + 1.0) * pw + (x0 + 1.0)).astype(np.intp)
    out = (gx * gy) * flat.take(top_left)
    out += (fx * gy) * flat.take(top_left + 1)
    out += (gx * fy) * flat.take(top_left + pw)
    out += (fx * fy) * flat.take(top_left + (pw + 1))
    return GrayImage(_round_u8(out), img.spacing)


# (width, height) of images that cut the row strips of warp_image in every way
strip_shapes = st.one_of(
    # rows wider than a strip: one row per strip
    st.tuples(st.integers(_STRIP_PIXELS + 1, _STRIP_PIXELS + 64), st.integers(1, 3)),
    # several rows per strip, mostly with a partial last strip
    st.tuples(st.integers(2, 400), st.integers(1, 200)),
    # 1 x N and N x 1
    st.tuples(st.just(1), st.integers(1, 3 * _STRIP_PIXELS)),
    st.tuples(st.integers(1, 3 * _STRIP_PIXELS), st.just(1)),
)


# linear parts (a, b, c, d) with exact-zero coefficients: quarter turns, a
# flip, an axis swap and axis scales; and one with subnormal coefficients,
# whose inverse sends a naive span division to overflow
SPECIAL_LINEAR = [
    (0.0, 1.0, -1.0, 0.0), (0.0, -1.0, 1.0, 0.0), (0.0, 1.0, 1.0, 0.0),
    (-1.0, 0.0, 0.0, 1.0), (2.0, 0.0, 0.0, 0.5),
    tuple(build_transform(0, 0, 2.225073858507e-311, 1, (0, 0)).matrix[:, :2].ravel()),
]


@st.composite
def sparse_images(draw):
    """A grid that is 0 outside a random box: the box may touch each border
    in turn, be a single pixel at a corner, or be empty."""
    w, h = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    pix = np.zeros((h, w), dtype=np.uint8)
    kind = draw(st.sampled_from(["inside", "top", "bottom", "left", "right", "corner", "zero"]))
    if kind == "corner":
        pix[draw(st.sampled_from([0, h - 1])), draw(st.sampled_from([0, w - 1]))] = 255
    elif kind != "zero":
        r0 = 0 if kind == "top" else draw(st.integers(0, h - 1))
        r1 = h if kind == "bottom" else draw(st.integers(r0 + 1, h))
        c0 = 0 if kind == "left" else draw(st.integers(0, w - 1))
        c1 = w if kind == "right" else draw(st.integers(c0 + 1, w))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pix[r0:r1, c0:c1] = rng.integers(1, 256, (r1 - r0, c1 - c0))
    return GrayImage(pix, 0.5)


class TestSampleAugmentation:
    def test_degenerate_ranges(self):
        ranges = AugmentationRanges(tx=(0, 0), ty=(0, 0), angle_deg=(0, 0), scale=(1, 1))
        params = sample_augmentation(Rng(5), ranges)
        assert params == (0.0, 0.0, 0.0, 1.0)

    def test_deterministic_given_seed(self):
        ranges = AugmentationRanges()
        assert sample_augmentation(Rng(11), ranges) == sample_augmentation(Rng(11), ranges)

    def test_uniform_law_over_many_draws(self):
        ranges = AugmentationRanges()
        rng = Rng(2024)
        draws = np.array([sample_augmentation(rng, ranges) for _ in range(10000)])
        for col, (lo, hi) in enumerate([ranges.tx, ranges.ty, ranges.angle_deg, ranges.scale]):
            assert draws[:, col].min() >= lo
            assert draws[:, col].max() <= hi
        assert abs(draws[:, 2].mean()) < 1.0  # angle mean near 0

    def test_bad_ranges(self):
        with pytest.raises(ValidationError):
            AugmentationRanges(tx=(5, -5))
        with pytest.raises(ValidationError):
            AugmentationRanges(scale=(0.0, 1.0))


class TestBuildTransform:
    def test_identity(self):
        t = build_transform(0, 0, 0, 1.0, (10, 10))
        np.testing.assert_allclose(t.matrix, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], atol=1e-15)

    def test_pure_translation(self):
        t = build_transform(5, -3, 0, 1.0, (50, 50))
        np.testing.assert_allclose(t.apply(np.array([[10.0, 10.0]])), [[15.0, 7.0]])

    def test_quarter_turn_y_down(self):
        # positive angle turns content clockwise on screen
        t = build_transform(0, 0, 90, 1.0, (50, 50))
        np.testing.assert_allclose(t.apply(np.array([[75.0, 50.0]])), [[50.0, 75.0]], atol=1e-12)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValidationError):
            build_transform(0, 0, 0, 0.0, (0, 0))


class TestAffineTransform:
    def test_singular_rejected(self):
        with pytest.raises(ValidationError, match="singular"):
            AffineTransform2D(np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]))

    @pytest.mark.parametrize("matrix, message", [
        (np.eye(2), r"^affine matrix must be 2x3, got \(2, 2\)$"),
        (np.array([[1.0, 0.0, np.nan], [0.0, 1.0, 0.0]]), "^affine matrix must be finite$"),
    ], ids=["shape", "nan"])
    def test_malformed_matrix_names_its_rule(self, matrix, message):
        with pytest.raises(ValidationError, match=message):
            AffineTransform2D(matrix)

    def test_invert_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            t = build_transform(
                rng.uniform(-30, 30), rng.uniform(-8, 8),
                rng.uniform(-25, 25), rng.uniform(0.7, 1.3), (64, 64),
            )
            pts = rng.uniform(0, 128, (10, 2))
            back = t.invert().apply(t.apply(pts))
            np.testing.assert_allclose(back, pts, atol=1e-6)


class TestWarpImage:
    def test_identity_is_bit_identical(self):
        rng = np.random.default_rng(8)
        img = GrayImage(rng.integers(0, 256, (16, 16), dtype=np.uint8), 1.0)
        out = warp_image(img, build_transform(0, 0, 0, 1, (0, 0)))
        np.testing.assert_array_equal(out.pixels, img.pixels)

    def test_translation_shifts_and_zero_fills(self):
        pix = np.zeros((3, 3), dtype=np.uint8)
        pix[1, 1] = 200
        img = GrayImage(pix, 1.0)
        t = build_transform(1, 0, 0, 1.0, (1, 1))
        out = warp_image(img, t)
        expected = np.zeros((3, 3), dtype=np.uint8)
        expected[1, 2] = 200
        np.testing.assert_array_equal(out.pixels, expected)
        assert out.pixels[:, 0].max() == 0

    def test_quarter_turn_matches_rot90(self):
        pix = np.array([[10, 20, 30], [40, 50, 60], [70, 80, 90]], dtype=np.uint8)
        img = GrayImage(pix, 1.0)
        t = build_transform(0, 0, 90, 1.0, (1.0, 1.0))
        out = warp_image(img, t)
        np.testing.assert_array_equal(out.pixels, np.rot90(pix, k=-1))

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 40), height=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           tx=st.floats(-3.0, 3.0), ty=st.floats(-3.0, 3.0), angle=st.floats(-180.0, 180.0),
           scale=st.floats(0.1, 5.0), cx=st.floats(-1.0, 2.0), cy=st.floats(-1.0, 2.0))
    def test_equals_the_masked_reference(self, width, height, seed, tx, ty, angle, scale,
                                         cx, cy):
        # translations up to three grid sizes, so some outputs are all zero
        pix = np.random.default_rng(seed).integers(0, 256, (height, width), dtype=np.uint8)
        img = GrayImage(pix, 0.5)
        t = build_transform(tx * width, ty * height, angle, scale, (cx * width, cy * height))
        got = warp_image(img, t)
        assert got.pixels.tobytes() == masked_warp(img, t).pixels.tobytes()
        assert got.spacing == img.spacing

    @settings(max_examples=150, deadline=None)
    @given(shape=strip_shapes, seed=st.integers(0, 2**32 - 1),
           linear=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
           shift=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))
    # 300 x 200: 27 rows per strip and a partial last strip of 11 rows
    @example(shape=(300, 200), seed=7, linear=(0.9, -0.3, 0.3, 0.9), shift=(0.1, -0.05))
    @example(shape=(_STRIP_PIXELS, 3), seed=1, linear=(1.0, 0.0, 0.0, 1.0), shift=(0.0, 0.0))
    def test_row_strips_equal_the_whole_grid(self, shape, seed, linear, shift):
        # any invertible linear part, shear included, and shifts of up to two
        # grid sizes, so that some samples, or all, fall outside the grid
        a, b, c, d = linear
        assume(abs(a * d - b * c) > 1e-3)
        w, h = shape
        t = AffineTransform2D(np.array([[a, b, shift[0] * w], [c, d, shift[1] * h]]))
        pix = np.random.default_rng(seed).integers(0, 256, (h, w), dtype=np.uint8)
        img = GrayImage(pix, 0.5)
        got = warp_image(img, t)
        assert got.pixels.tobytes() == whole_grid_warp(img, t).pixels.tobytes()
        assert got.spacing == img.spacing

    @settings(max_examples=400, deadline=None)
    @given(img=sparse_images(),
           linear=st.one_of(st.sampled_from(SPECIAL_LINEAR),
                            st.tuples(*[st.floats(-3.0, 3.0)] * 4)),
           shift=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
           whole=st.booleans())
    # a quarter turn onto whole pixels puts samples on the box's edges
    @example(img=GrayImage(np.pad(np.full((3, 4), 9, np.uint8), ((2, 1), (3, 2))), 0.5),
             linear=(0.0, 1.0, -1.0, 0.0), shift=(0.5, 0.0), whole=True)
    # subnormal coefficients
    @example(img=GrayImage(np.pad(np.full((3, 4), 9, np.uint8), ((2, 1), (3, 2))), 0.5),
             linear=SPECIAL_LINEAR[-1], shift=(0.1, -0.2), whole=False)
    # shifted fully off the grid
    @example(img=GrayImage(np.full((5, 7), 200, np.uint8), 0.5),
             linear=(1.0, 0.0, 0.0, 1.0), shift=(1.5, 0.0), whole=False)
    # an all-zero image
    @example(img=GrayImage(np.zeros((6, 9), np.uint8), 0.5),
             linear=(0.8, -0.5, 0.5, 0.8), shift=(0.1, 0.2), whole=False)
    def test_sparse_images_equal_the_whole_grid(self, img, linear, shift, whole):
        # only the pixels that can reach the nonzero box are computed
        a, b, c, d = linear
        assume(abs(a * d - b * c) > 1e-3)
        h, w = img.pixels.shape
        tx, ty = shift[0] * w, shift[1] * h
        if whole:
            tx, ty = round(tx), round(ty)
        t = AffineTransform2D(np.array([[a, b, tx], [c, d, ty]]))
        got = warp_image(img, t)
        assert got.pixels.tobytes() == whole_grid_warp(img, t).pixels.tobytes()
        assert got.spacing == img.spacing

    def test_equalized_phantoms_equal_the_whole_grid(self):
        # the images and the transforms of `augment` on default phantoms,
        # which are about 96% exact zeros once equalized
        config = PhantomConfig()
        ranges = AugmentationRanges()
        for i in range(3):
            lms = generate_phantom(Rng(7).spawn(i), config)
            img = equalize_histogram(phantom_image(lms, config))
            assert np.count_nonzero(img.pixels) < img.pixels.size // 10
            for j in range(3):
                t = sample_valid_augmentation(Rng(8).spawn(3 * i + j), ranges, lms)
                got = warp_image(img, t)
                assert got.pixels.tobytes() == whole_grid_warp(img, t).pixels.tobytes()

    @pytest.mark.parametrize("transpose", [False, True], ids=["x", "y"])
    def test_a_sample_within_rounding_of_the_box_edge(self, transpose):
        # the inverse map scales x by about 1e14, so sx at column 5 is a sum
        # of terms near 5e14 that cancel to within their rounding (1/16 px)
        # of the box's left edge; its pixels are 16, not 0. With the input
        # transposed and x and y swapped in the map, the same holds for sy
        pix = np.zeros((10, 10), np.uint8)
        pix[0:2, 1:5] = 255
        m = np.array([[9.713083088255842e-15, 0.0, 4.999999999999952],
                      [0.0, 113.7814968264549, 2.6883511266545135]])
        if transpose:
            pix, m = pix.T, m[:, [1, 0, 2]]
        img, t = GrayImage(pix, 0.5), AffineTransform2D(m)
        got = warp_image(img, t).pixels
        assert got.tobytes() == whole_grid_warp(img, t).pixels.tobytes()
        assert got[:, 5].tolist() == [16] * 10

    def test_memory_peak_of_a_dense_grid(self):
        # every row of a dense image spans the whole grid; row strips over
        # the whole grid peak at 1,362.8 KiB here, and one index array over
        # every pixel of the image at about 11.4 MiB
        img = GrayImage(np.random.default_rng(1).integers(1, 256, (512, 512), np.uint8), 0.5)
        t = build_transform(3.5, -2.25, 7.0, 1.1, (255.5, 255.5))
        tracemalloc.start()
        try:
            warp_image(img, t)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1362.8 * 1024


class TestWarpLandmarks:
    def test_identity(self):
        lms = LandmarkSet(np.array([[3.0, 4.0]]), PixelFrame(10, 10))
        out = warp_landmarks(lms, build_transform(0, 0, 0, 1, (0, 0)))
        np.testing.assert_array_equal(out.points, lms.points)
        assert out.in_bounds_mask().all()

    def test_translation(self):
        lms = LandmarkSet(np.array([[10.0, 10.0]]), PixelFrame(64, 64))
        out = warp_landmarks(lms, build_transform(5, -3, 0, 1.0, (0, 0)))
        np.testing.assert_allclose(out.points, [[15.0, 7.0]])

    def test_quarter_turn_matches_build_transform_example(self):
        lms = LandmarkSet(np.array([[75.0, 50.0]]), PixelFrame(100, 100))
        out = warp_landmarks(lms, build_transform(0, 0, 90, 1.0, (50, 50)))
        np.testing.assert_allclose(out.points, [[50.0, 75.0]], atol=1e-12)

    def test_out_of_frame_flagged(self):
        lms = LandmarkSet(np.array([[1.0, 1.0], [30.0, 30.0]]), PixelFrame(64, 64))
        out = warp_landmarks(lms, build_transform(-10, 0, 0, 1.0, (0, 0)))
        assert list(out.in_bounds_mask()) == [False, True]

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(9)
        lms = LandmarkSet(rng.uniform(20, 100, (11, 2)), PixelFrame(128, 128))
        for _ in range(25):
            t = build_transform(rng.uniform(-10, 10), rng.uniform(-5, 5),
                                rng.uniform(-25, 25), rng.uniform(0.7, 1.3), (64, 64))
            fwd = warp_landmarks(lms, t)
            back = t.invert().apply(fwd.points)
            np.testing.assert_allclose(back, lms.points, atol=1e-6)

    def test_composition_property(self):
        rng = np.random.default_rng(10)
        lms = LandmarkSet(rng.uniform(30, 90, (6, 2)), PixelFrame(128, 128))
        t1 = build_transform(4, 2, 10, 1.1, (64, 64))
        t2 = build_transform(-6, 1, -15, 0.9, (64, 64))
        mid = warp_landmarks(lms, t1)
        seq = warp_landmarks(mid, t2)
        np.testing.assert_allclose(seq.points, t2.apply(t1.apply(lms.points)), atol=1e-6)


class TestImageLabelConsistency:
    """A bright one-pixel dot must track its landmark through any warp."""

    def test_bright_dot_round_trip(self):
        master = Rng(991)
        ranges = AugmentationRanges()
        size = 160
        failures = 0
        for trial in range(200):
            stream = master.spawn(trial)
            px = int(stream.uniform(50, size - 50))
            py = int(stream.uniform(50, size - 50))
            lms = LandmarkSet(np.array([[float(px), float(py)]]), PixelFrame(size, size))
            t = sample_valid_augmentation(stream, ranges, lms)
            pix = np.zeros((size, size), dtype=np.uint8)
            pix[py, px] = 255
            warped_img = warp_image(GrayImage(pix, 1.0), t)
            warped_lms = warp_landmarks(lms, t)
            idx = int(np.argmax(warped_img.pixels))
            ax, ay = idx % size, idx // size
            wx, wy = warped_lms.points[0]
            if math.hypot(ax - wx, ay - wy) > 1.0:
                failures += 1
        assert failures == 0

    def test_rejection_exhaustion_raises(self):
        # a landmark pinned at the border cannot survive the translation range
        lms = LandmarkSet(np.array([[0.0, 0.0]]), PixelFrame(8, 8))
        ranges = AugmentationRanges(tx=(50, 60), ty=(0, 0), angle_deg=(0, 0), scale=(1, 1))
        with pytest.raises(ValidationError, match="tries"):
            sample_valid_augmentation(Rng(1), ranges, lms)

import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinefuse.core import LandmarkSet, PixelFrame, Rng, ValidationError, _box
from spinefuse.fusion import DecodeMethod, FusionConfig, fuse_and_decode
from spinefuse.heatmap import (
    GaussianSpec,
    Heatmap,
    _gaussian_exponents,
    _render,
    decode_argmax,
    decode_centroid,
    render_gaussian,
    render_label_stack,
)
from spinefuse.io import read_heatmap_stack, write_heatmap_stack
from spinefuse.simulate import HeatmapPredictorModel, simulate_heatmaps


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
        # a 2-D grid with a side of 0 meets the one grid-size rule
        message = "non-positive grid: 3x0" if len(shape) == 2 else "non-empty 2-D"
        with pytest.raises(ValidationError, match=message):
            Heatmap(np.ones(shape))

    # a complex value is not cast to its real part, nor a string parsed
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("values", [np.array([[1 + 2j, 0]]), np.array([["1.5", "0"]]),
                                        np.array([[1.5, 0.0]], dtype=object)],
                             ids=["complex", "str", "object"])
    def test_a_dtype_that_is_not_a_number_is_refused(self, values):
        message = f"heatmap values must be bool, integer or float, got dtype {values.dtype}"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            Heatmap(values)

    def test_values_is_the_keyword_and_the_repr(self):
        vals = np.arange(6.0).reshape(2, 3)
        hm = Heatmap(values=vals)
        assert hm.values.tobytes() == Heatmap(vals).values.tobytes() == vals.tobytes()
        assert repr(hm) == f"Heatmap(values={vals!r})"
        with pytest.raises(ValidationError, match="non-negative"):
            Heatmap(values=-vals)


class TestGaussianExponents:
    # centres on and off the grid, whole and fractional, and 1e160, whose
    # square overflows to an exponent of -inf; sigma 1e-160, where the
    # divide overflows. The suite turns a numpy overflow warning into an error
    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 80), height=st.integers(1, 80),
           centre=st.tuples(*[st.one_of(st.integers(-100, 200).map(float),
                                        st.floats(-100.0, 200.0),
                                        st.sampled_from([1e160, -1e160]))] * 2),
           sigma=st.one_of(st.floats(0.05, 1e3), st.just(1e-160)))
    @example(width=1, height=1, centre=(0.0, 0.0), sigma=1e-160)
    @example(width=1, height=40, centre=(0.5, 1e160), sigma=1.2)
    @example(width=40, height=1, centre=(1e160, 3.0), sigma=6.0)
    def test_rows_equal_the_per_axis_reference(self, width, height, centre, sigma):
        lx, ly = _gaussian_exponents(centre, sigma, width, height)
        two_s2 = 2.0 * sigma * sigma
        with np.errstate(over="ignore"):
            ref = [-((np.arange(n, dtype=np.float64) - c) ** 2) / two_s2
                   for n, c in ((width, centre[0]), (height, centre[1]))]
        assert lx.shape == (width,) and ly.shape == (height,)
        assert lx.tobytes() == ref[0].tobytes() and ly.tobytes() == ref[1].tobytes()


class TestRenderGaussian:
    @pytest.mark.parametrize("center", [(math.nan, 1.0), (1.0, math.inf)], ids=["nan", "inf"])
    def test_non_finite_center_is_refused(self, center):
        with pytest.raises(ValidationError, match=r"^non-finite center: \("):
            GaussianSpec(center, 1.2)

    def test_center_value_is_one(self):
        hm = render_gaussian(GaussianSpec((5, 5), 1.2), PixelFrame(16, 16))
        assert hm.values[5, 5] == pytest.approx(1.0, abs=1e-15)

    def test_value_at_one_sigma(self):
        hm = render_gaussian(GaussianSpec((5, 5), 1.2), PixelFrame(16, 16))
        # continuous point 5 + 1.2 is off-grid; evaluate analytically instead
        x = 5 + 1.2
        expected = math.exp(-((x - 5) ** 2) / (2 * 1.2 ** 2))
        assert expected == pytest.approx(0.6065306597126334)
        # nearest representable check: grid point at distance exactly sigma=2
        hm2 = render_gaussian(GaussianSpec((5, 5), 2.0), PixelFrame(16, 16))
        assert hm2.values[5, 7] == pytest.approx(math.exp(-0.5), rel=1e-14)

    def test_matches_scalar_evaluation(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            w, h = int(rng.integers(8, 64)), int(rng.integers(8, 64))
            x0, y0 = rng.uniform(0, w - 1), rng.uniform(0, h - 1)
            sigma = rng.uniform(0.8, 8.0)
            hm = render_gaussian(GaussianSpec((x0, y0), sigma), PixelFrame(w, h))
            x, y = int(rng.integers(0, w)), int(rng.integers(0, h))
            expected = math.exp(-(((x - x0) ** 2) + ((y - y0) ** 2)) / (2 * sigma * sigma))
            assert hm.values[y, x] == pytest.approx(expected, rel=1e-12)

    def test_symmetric_about_center(self):
        hm = render_gaussian(GaussianSpec((16, 16), 2.5), PixelFrame(33, 33))
        np.testing.assert_allclose(hm.values, hm.values[::-1, :], atol=1e-12)
        np.testing.assert_allclose(hm.values, hm.values[:, ::-1], atol=1e-12)

    def test_no_truncation(self):
        hm = render_gaussian(GaussianSpec((0, 0), 3.0), PixelFrame(40, 40))
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

    # -(d*d)/(2*sigma*sigma) overflows in the divide (2*sigma*sigma is
    # subnormal) or in the square; exp(-inf) = 0 is the exact value either
    # way, and the suite turns numpy's overflow warning into an error
    @pytest.mark.parametrize("sigma, center, hot", [(1e-160, (3, 4), (4, 3)),
                                                    (6.0, (1e160, 0), None)],
                             ids=["divide-overflows", "square-overflows"])
    def test_overflowing_exponent_is_exact(self, sigma, center, hot):
        expected = np.zeros((8, 8))
        if hot:
            expected[hot] = 1.0
        got = render_gaussian(GaussianSpec(center, sigma), PixelFrame(8, 8)).values
        assert got.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 300), height=st.integers(1, 300),
           sigma=st.floats(0.05, 1e3), fx=st.floats(-3.0, 4.0), fy=st.floats(-3.0, 4.0),
           amplitude=st.floats(1e-3, 1e3))
    # an out-of-frame whole-numbered centre whose in-grid offsets (-2 here)
    # reach beyond the grid's side
    @example(width=1, height=1, sigma=1.0, fx=0.0, fy=2.0, amplitude=1.0)
    def test_equals_the_dense_outer_product(self, width, height, sigma, fx, fy, amplitude):
        # centres up to three grid widths outside the frame, so some maps are all zero
        spec = GaussianSpec((fx * width, fy * height), sigma, amplitude)
        got = render_gaussian(spec, PixelFrame(width, height)).values
        assert got.tobytes() == dense_gaussian(spec, width, height).tobytes()


class TestRenderLabelStack:
    def test_channel_count_and_order(self):
        pts = np.array([[10.0, 10.0], [10.0, 20.0], [10.0, 30.0]])
        stack = render_label_stack(LandmarkSet(pts, PixelFrame(64, 64)), 1.2)
        assert len(stack) == 3
        for hm, (x, y) in zip(stack, pts):
            assert decode_argmax(hm) == (int(x), int(y))
            assert hm.values[int(y), int(x)] == pytest.approx(1.0)

    def test_empty_stack(self):
        stack = render_label_stack(LandmarkSet(np.empty((0, 2)), PixelFrame(64, 64)), 1.2)
        assert stack == []

    def test_cross_channel_leakage(self):
        # neighbor 3 px away contributes exp(-9 / (2 * 1.44))
        pts = np.array([[10.0, 10.0], [10.0, 13.0]])
        stack = render_label_stack(LandmarkSet(pts, PixelFrame(32, 32)), 1.2)
        assert stack[0].values[13, 10] == pytest.approx(0.04393693362340742, rel=1e-12)


@st.composite
def spec_batches(draw):
    """A grid and a batch of spec sequences drawn from a few (center, sigma)
    keys of one or two sigmas, so keys repeat within and across channels.
    Centres are whole numbers, at the frame or up to three grid sizes
    outside it, so that keys of one sigma share a block or lie too far
    apart to, or any fraction of the grid size that far out. Far out, a
    narrow Gaussian's block is empty; amplitudes are 1 or not, and a
    channel may hold no spec."""
    w, h = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    sigmas = draw(st.lists(st.one_of(st.sampled_from([0.05, 1.2]), st.floats(0.05, 50.0)),
                           min_size=1, max_size=2))
    # whole-numbered centres near the frame twice as often as far out
    near = st.tuples(st.integers(-1, w), st.integers(-1, h))
    far = st.tuples(st.integers(-3 * w, 4 * w), st.integers(-3 * h, 4 * h))
    whole = [c.map(lambda c: (float(c[0]), float(c[1]))) for c in (near, near, far)]
    fraction = st.tuples(st.floats(-3.0, 4.0), st.floats(-3.0, 4.0)).map(
        lambda f: (f[0] * w, f[1] * h))
    centre = st.one_of(*whole, fraction)
    keys = draw(st.lists(st.tuples(centre, st.sampled_from(sigmas)), min_size=1, max_size=8))
    amplitude = st.one_of(st.just(1.0), st.floats(1e-3, 1e3))
    channels = draw(st.lists(st.lists(st.tuples(st.sampled_from(keys), amplitude), max_size=4),
                             max_size=5))
    return w, h, [[GaussianSpec(centre, sigma, amp) for (centre, sigma), amp in specs]
                  for specs in channels]


class TestBatchedRender:
    @settings(max_examples=300, deadline=None)
    @given(spec_batches(), spec_batches())
    def test_a_batch_equals_each_channel_alone_and_the_dense_reference(self, batch, other):
        w, h, channels = batch
        got = _render(channels, PixelFrame(w, h))
        assert len(got) == len(channels)
        for hm, specs in zip(got, channels):
            alone = _render([specs], PixelFrame(w, h))[0]
            dense = np.max([dense_gaussian(spec, w, h) for spec in specs] or [np.zeros((h, w))],
                           axis=0)
            assert hm._support == alone._support
            assert hm._block.tobytes() == alone._block.tobytes()
            assert hm.values.tobytes() == alone.values.tobytes() == dense.tobytes()
            assert not hm._block.flags.writeable
        # blocks shared within a batch are never written, by this batch or
        # by a later one
        before = [hm._block.tobytes() for hm in got]
        ow, oh, more = other
        _render(more + channels, PixelFrame(ow, oh))
        _render(channels[::-1], PixelFrame(w, h))
        assert [hm._block.tobytes() for hm in got] == before

    def test_whole_numbered_centres_of_one_sigma_share_one_block(self):
        # inside the grid, so every block is a slice of one unit block; a
        # fractional centre, or another sigma, gets its own
        pts = np.array([[10.0, 3.0], [30.0, 20.0], [0.0, 39.0], [17.5, 9.0]])
        labels = render_label_stack(LandmarkSet(pts, PixelFrame(40, 40)), 1.2)
        a, b, c, fractional = labels
        other = _render([(GaussianSpec((20.0, 20.0), 2.0),)], PixelFrame(40, 40))[0]
        assert np.shares_memory(a._block, b._block) and np.shares_memory(a._block, c._block)
        assert not np.shares_memory(a._block, fractional._block)
        assert not np.shares_memory(a._block, other._block)
        for hm, (x, y) in zip(labels, pts):
            assert hm.values.tobytes() == dense_gaussian(GaussianSpec((x, y), 1.2),
                                                         40, 40).tobytes()
        # a whole-numbered centre outside the grid is a family of its own,
        # so its block shares no memory with an in-grid centre's, however
        # near the two are
        specs = [GaussianSpec((2.0, 20.0), 1.2), GaussianSpec((43.0, 20.0), 1.2)]
        near, far = _render([(spec,) for spec in specs], PixelFrame(40, 40))
        assert near._block.size and far._block.size
        assert not np.may_share_memory(near._block, far._block)
        past = GaussianSpec((41.0, 20.0), 1.2)
        beside, off = _render([(GaussianSpec((10.0, 3.0), 1.2),), (past,)], PixelFrame(40, 40))
        assert off._block.size
        assert not np.may_share_memory(beside._block, off._block)
        assert off.values.tobytes() == dense_gaussian(past, 40, 40).tobytes()
        # a fractional key used by two channels builds one block
        specs += [GaussianSpec((17.5, 9.25), 1.2)] * 2
        first, second = _render([(specs[2],), (specs[3],)], PixelFrame(40, 40))
        assert np.shares_memory(first._block, second._block)
        # sigma 0.05 is nonzero only within one pixel of its centre, so the
        # whole-numbered centre three columns past the frame, a family of its
        # own, renders the empty box, and the in-frame centre of that sigma
        # renders as it does alone
        specs += [GaussianSpec((10.0, 10.0), 0.05), GaussianSpec((42.0, 12.0), 0.05)]
        inside, outside = _render([(specs[4],), (specs[5],)], PixelFrame(40, 40))
        alone = render_gaussian(specs[4], PixelFrame(40, 40))
        assert inside._support == alone._support != (0, 0, 0, 0)
        assert inside._block.tobytes() == alone._block.tobytes()
        assert outside._support == (0, 0, 0, 0)
        for hm, spec in zip([near, far, first, second, inside, outside], specs):
            assert hm.values.tobytes() == dense_gaussian(spec, 40, 40).tobytes()

    def test_a_family_block_is_dropped_after_its_last_use(self):
        # each channel's fractional peak is a family used once, so its unit
        # block must not outlive the channel; eight such blocks alive at once
        # would read about eight map blocks above what the maps hold
        channels = [(GaussianSpec((50.0 * i + 20.5, 50.0 * i + 20.25), 3.0),
                     GaussianSpec((50.0 * i + 21.0, 50.0 * i + 20.0), 3.0, amplitude=0.5))
                    for i in range(8)]
        # a first call, so one-time allocations are not counted
        _render(channels, PixelFrame(400, 400))
        tracemalloc.start()
        try:
            maps = _render(channels, PixelFrame(400, 400))
            now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        for hm, specs in zip(maps, channels):
            want = np.max([dense_gaussian(spec, 400, 400) for spec in specs], axis=0)
            assert hm.values.tobytes() == want.tobytes()
        largest = max(hm._block.nbytes for hm in maps)
        assert peak - now < 4 * largest, (peak - now) / largest


class TestJoinedMaps:
    """A map of several Gaussians max-combines every block into the zeroed
    array of their joined box."""

    # sigma 0.25 is nonzero within 9 px of its centre; a box clipped by the
    # grid's corner lies inside the box of a centre three pixels in, and a
    # sigma 4 Gaussian covers the whole grid
    LAYOUTS = {
        "disjoint": [((10.0, 10.0), 0.25), ((40.0, 30.0), 0.25), ((60.0, 5.0), 0.25)],
        "overlapping": [((20.0, 20.0), 0.25), ((28.0, 24.0), 0.25), ((14.5, 27.25), 0.25)],
        "nested": [((0.0, 0.0), 0.25), ((3.0, 3.0), 0.25), ((30.0, 20.0), 4.0)],
        "nested-first": [((30.0, 20.0), 4.0), ((25.5, 18.25), 0.25), ((33.0, 21.0), 0.25)],
    }

    @pytest.mark.parametrize("amplitudes", [(0.5, 1.0), (1.0, 0.7), (2.0, 1.0, 0.25),
                                            (1.0, 1.0, 3.0)],
                             ids=["first-scaled", "second-scaled", "first-and-third-scaled",
                                  "third-scaled"])
    @pytest.mark.parametrize("layout", list(LAYOUTS))
    def test_equals_the_pointwise_max_and_leaves_the_unit_blocks(self, layout, amplitudes):
        keys = self.LAYOUTS[layout][:len(amplitudes)]
        specs = [GaussianSpec(centre, sigma, a) for (centre, sigma), a in zip(keys, amplitudes)]
        # each unit-amplitude single keeps a slice of its family's unit
        # block, alive from before the joined maps to after them
        singles = [(GaussianSpec(centre, sigma),) for centre, sigma in keys]
        n = len(singles)
        maps = _render(singles + [specs, specs[::-1]] + singles, PixelFrame(64, 48))
        dense = np.max([render_gaussian(spec, PixelFrame(64, 48)).values for spec in specs], axis=0)
        for joined in maps[n:n + 2]:
            assert joined.values.tobytes() == dense.tobytes()
        for single, (spec,) in zip(maps[:n] + maps[n + 2:], singles * 2):
            alone = render_gaussian(spec, PixelFrame(64, 48))
            assert single._block.tobytes() == alone._block.tobytes()


class TestDecodeArgmax:
    def test_integer_center_recovered(self):
        hm = render_gaussian(GaussianSpec((7, 3), 1.2), PixelFrame(16, 16))
        assert decode_argmax(hm) == (7, 3)

    def test_tie_breaks_to_first_row_major(self):
        vals = np.zeros((10, 10))
        vals[2, 2] = 1.0
        vals[8, 8] = 1.0
        assert decode_argmax(Heatmap(vals)) == (2, 2)

    def test_mixture_picks_higher_peak(self):
        a = render_gaussian(GaussianSpec((10, 10), 2.0), PixelFrame(64, 64))
        b = render_gaussian(GaussianSpec((40, 40), 2.0, amplitude=0.9), PixelFrame(64, 64))
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
                hm = render_gaussian(GaussianSpec((x0, y0), 1.2), PixelFrame(16, 16))
                assert decode_argmax(hm) == (x0, y0)


def first_maximum(grid: np.ndarray) -> tuple[int, int]:
    """Brute-force reference: the row-major first pixel equal to the maximum, as (x, y)."""
    y, x = np.unravel_index(np.argmax(grid == grid.max()), grid.shape)
    return int(x), int(y)


@st.composite
def maps_and_grids(draw):
    """Maps with the grids they hold: ``Heatmap(values)`` of a bool, int or
    float array of a few values, so maxima tie; such a float grid read back
    as an HMAP channel; rendered batches; package-rendered maps; and a
    confused simulated stack whose spurious peaks have amplitude exactly 1,
    so each channel's two unit peaks tie."""
    kind = draw(st.sampled_from(["given", "hmap", "rendered", "package", "tied_confusion"]))
    if kind in ("given", "hmap"):
        h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        dtype, pool = draw(st.sampled_from([(np.bool_, [False, True]), (np.int64, [0, 2, 5]),
                                            (np.float64, [0.0, 0.25, 1.5])]))
        if kind == "hmap":
            dtype = np.float32
        grid = draw(arrays(dtype, (h, w), elements=st.sampled_from(pool)))
        if kind == "given":
            return [(Heatmap(grid), grid)]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "stack.hmap"
            write_heatmap_stack(path, [Heatmap(grid)] * 2)
            return [(hm, grid) for hm in read_heatmap_stack(path)]
    if kind == "rendered":
        w, h, channels = draw(spec_batches())
        maps = _render(channels, PixelFrame(w, h))
    elif kind == "package":
        maps = draw(package_maps())
    else:
        w, h = draw(st.integers(1, 60)), draw(st.integers(1, 60))
        points = draw(st.lists(st.tuples(st.integers(0, w - 1), st.integers(0, h - 1)),
                               min_size=2, max_size=5))
        gt = LandmarkSet(np.array(points, dtype=np.float64), PixelFrame(w, h))
        model = HeatmapPredictorModel(peak_jitter_sigma=0.0, heatmap_sigma=draw(st.floats(0.3, 5.0)),
                                      adjacent_confusion_prob=1.0, spurious_amplitude=(1.0, 1.0))
        maps = simulate_heatmaps(Rng(draw(st.integers(0, 2**32 - 1))), gt, model)
    return [(hm, hm.values) for hm in maps]


class TestRecordedMaximum:
    @settings(max_examples=300, deadline=None)
    @given(maps_and_grids())
    def test_decode_argmax_is_the_brute_force_first_maximum(self, maps):
        for hm, grid in maps:
            if not grid.any():
                with pytest.raises(ValidationError, match="^cannot decode an all-zero heatmap$"):
                    decode_argmax(hm)
            else:
                assert decode_argmax(hm) == first_maximum(grid)

    def test_a_spurious_peak_of_amplitude_one_ties_and_the_earlier_row_wins(self):
        gt = LandmarkSet(np.array([[60.0, 140.0], [64.0, 100.0], [58.0, 180.0]]),
                         PixelFrame(128, 256))
        model = HeatmapPredictorModel(adjacent_confusion_prob=1.0, spurious_amplitude=(1.0, 1.0))
        for hm in simulate_heatmaps(Rng(3), gt, model):
            peaks = [(int(x), int(y)) for x, y in gt.points if hm.values[int(y), int(x)] == 1.0]
            assert len(peaks) == 2
            assert decode_argmax(hm) == min(peaks, key=lambda p: p[1]) == first_maximum(hm.values)


class TestDecodeCentroid:
    def test_symmetric_gaussian_equals_argmax(self):
        hm = render_gaussian(GaussianSpec((8, 8), 2.0), PixelFrame(17, 17))
        assert decode_centroid(hm) == (8.0, 8.0)

    def test_delta_map(self):
        vals = np.zeros((8, 8))
        vals[5, 2] = 3.0
        assert decode_centroid(Heatmap(vals)) == (2.0, 5.0)

    def test_subpixel_center_pull(self):
        # frozen from a brute-force sum of x * value over the 3x3 patch of
        # hm.values at the argmax (7, 3), divided by the patch's sum
        hm = render_gaussian(GaussianSpec((7.4, 3.0), 2.0), PixelFrame(32, 32))
        x, y = decode_centroid(hm)
        assert x == pytest.approx(7.063736400528734, rel=1e-12)
        assert 7.0 < x < 7.4
        assert y == pytest.approx(3.0, abs=1e-9)

    def test_border_clamping(self):
        hm = render_gaussian(GaussianSpec((0, 0), 1.5), PixelFrame(12, 12))
        x, y = decode_centroid(hm)
        assert 0 <= x < 1 and 0 <= y < 1

    # the patch is the 3x3 at the first maximum, cut at the grid's border, on
    # a 12 x 9 grid where a swapped row and column would show
    @pytest.mark.parametrize("centre", [(5.3, 4.6), (0.2, 0.1), (10.7, 7.8), (0.3, 4.4),
                                        (6.6, 8.0)],
                             ids=["interior", "top-left", "bottom-right", "left-edge",
                                  "bottom-edge"])
    def test_the_patch_is_the_clamped_3x3_at_the_argmax(self, centre):
        hm = render_gaussian(GaussianSpec(centre, 1.5), PixelFrame(12, 9))
        values = hm.values
        ay, ax = np.unravel_index(np.argmax(values), values.shape)
        assert (ax, ay) == tuple(round(c) for c in centre)
        cells = [(x, y) for y in range(ay - 1, ay + 2) for x in range(ax - 1, ax + 2)
                 if 0 <= x < 12 and 0 <= y < 9]
        total = sum(float(values[y, x]) for x, y in cells)
        want = (sum(x * float(values[y, x]) for x, y in cells) / total,
                sum(y * float(values[y, x]) for x, y in cells) / total)
        assert decode_centroid(hm) == pytest.approx(want, rel=0, abs=1e-12)


class TestBlockStorage:
    """A rendered map stores its support block and the grid shape, on a
    300 x 200 grid where a swapped row and column would show."""

    @pytest.mark.parametrize("centres, cuts", [
        ([(2.0, 100.0)], (False, False, True, False)),     # left edge
        ([(297.5, 100.0)], (False, False, False, True)),   # right edge
        ([(150.0, 1.0)], (True, False, False, False)),     # top edge
        ([(150.0, 198.0)], (False, True, False, False)),   # bottom edge
        ([(280.0, 190.0), (260.0, 150.0)], (False, True, False, True)),
    ], ids=["left", "right", "top", "bottom", "two-at-a-corner"])
    def test_a_block_cut_by_an_edge(self, centres, cuts):
        specs = [GaussianSpec(c, 1.2, 1.0 - 0.25 * i) for i, c in enumerate(centres)]
        hm = _render([specs], PixelFrame(300, 200))[0]
        r0, r1, c0, c1 = hm._support
        assert (r0 == 0, r1 == 200, c0 == 0, c1 == 300) == cuts
        assert hm._block.shape == (r1 - r0, c1 - c0) and "values" not in vars(hm)
        assert hm.frame == PixelFrame(300, 200)
        want = np.max([dense_gaussian(spec, 300, 200) for spec in specs], axis=0)

        def clip(y0, y1, x0, x1):
            return slice(max(y0, 0), min(y1, 200)), slice(max(x0, 0), min(x1, 300))
        for ys, xs in [clip(r0, r1, c0, c1),                          # the block
                       clip(r0 + 1, r0 + 4, c0 + 1, c0 + 4),          # inside it
                       clip(r0 - 5, r1 + 5, c0 - 5, c1 + 5),          # across its edges
                       clip(0, 200, 0, 300),                          # the grid
                       clip(0, 200, c1, 300) if c1 < 300 else clip(0, 200, 0, c0)]:  # beside it
            assert hm._window(ys, xs).tobytes() == want[ys, xs].tobytes()
        assert "values" not in vars(hm)
        whole = Heatmap(want)
        assert decode_argmax(hm) == decode_argmax(whole)
        assert decode_centroid(hm) == decode_centroid(whole)
        for decode in DecodeMethod:
            cfg = FusionConfig(decode=decode)
            for coord in [(c0 + 10.0, r0 + 20.0), (c1 + 30.0, r1 - 4.0), (-500.0, 100.0)]:
                assert fuse_and_decode(hm, coord, cfg) == fuse_and_decode(whole, coord, cfg)
        assert hm.values is hm.values
        assert hm.values.dtype == np.float64 and not hm.values.flags.writeable
        assert hm.values.tobytes() == want.tobytes()


@st.composite
def package_maps(draw):
    """Maps built by the package's renderers, which record a tight support
    box: one Gaussian, a label stack, or a simulated stack with confusion on.
    Centres reach up to three grid sizes outside the frame, so some maps
    are all zero, and sigma spans 0.05 to 1e3, so some boxes are the grid."""
    w, h = draw(st.integers(1, 120)), draw(st.integers(1, 120))
    sigma = draw(st.floats(0.05, 1e3))

    def centre():
        return draw(st.floats(-3.0, 4.0)) * w, draw(st.floats(-3.0, 4.0)) * h

    kind = draw(st.sampled_from(["gaussian", "label_stack", "simulated"]))
    if kind == "gaussian":
        return [render_gaussian(GaussianSpec(centre(), sigma, draw(st.floats(1e-3, 1e3))),
                                PixelFrame(w, h))]
    points = LandmarkSet(np.array([centre() for _ in range(draw(st.integers(2, 5)))]),
                         PixelFrame(w, h))
    if kind == "label_stack":
        return render_label_stack(points, sigma)
    lo = draw(st.floats(1e-3, 10.0))
    model = HeatmapPredictorModel(peak_jitter_sigma=draw(st.floats(0.0, 20.0)),
                                  heatmap_sigma=sigma,
                                  adjacent_confusion_prob=draw(st.sampled_from([0.5, 1.0])),
                                  spurious_amplitude=(lo, lo * draw(st.floats(1.0, 10.0))))
    rng = Rng(draw(st.integers(0, 2**32 - 1)))
    return simulate_heatmaps(rng, points, model)


class TestSupport:
    @settings(max_examples=300, deadline=None)
    @given(package_maps())
    def test_every_pixel_outside_the_box_is_zero(self, maps):
        for hm in maps:
            r0, r1, c0, c1 = hm._support
            assert 0 <= r0 <= r1 <= hm.frame.height and 0 <= c0 <= c1 <= hm.frame.width
            outside = hm.values.copy()
            outside[r0:r1, c0:c1] = 0.0
            assert not outside.any()
            assert hm._top == hm.values.max()

    def test_a_confused_map_spans_both_peaks(self):
        # the spurious peak's block reaches past the true peak's, so the
        # support is their join, and it is tight: its edges hold nonzeros
        gt = LandmarkSet(np.array([[60.0, 60.0], [180.0, 190.0]]), PixelFrame(256, 256))
        model = HeatmapPredictorModel(adjacent_confusion_prob=1.0)
        hm = simulate_heatmaps(Rng(0), gt, model)[0]
        rows = np.flatnonzero(hm.values.any(axis=1))
        cols = np.flatnonzero(hm.values.any(axis=0))
        assert hm._support == (rows[0], rows[-1] + 1, cols[0], cols[-1] + 1)
        assert hm._support != (0, 256, 0, 256)

    def test_an_all_zero_grid_gets_the_empty_box(self):
        for dtype in (np.float64, np.float32, np.int64):
            hm = Heatmap(np.zeros((5, 7), dtype=dtype))
            assert (hm._support, hm._top) == ((0, 0, 0, 0), 0.0)
            assert hm.values.shape == (5, 7) and not hm.values.any()

    @settings(max_examples=300, deadline=None)
    # a grid may be much wider than tall, and a -0.0 spot is a zero, which
    # does not widen the box
    @given(st.integers(1, 12), st.integers(1, 12) | st.integers(100, 300),
           st.sampled_from([np.float64, np.float32]),
           st.lists(st.tuples(st.integers(0, 11), st.integers(0, 299),
                              st.floats(0.0, 2.0 ** 100, exclude_min=True, width=32)
                              | st.just(-0.0)),
                    max_size=4))
    def test_a_given_grid_gets_its_tight_nonzero_box(self, h, w, dtype, spots):
        grid = np.zeros((h, w), dtype=dtype)
        for y, x, value in spots:
            grid[y % h, x % w] = value
        hm = Heatmap(grid)
        rows, cols = np.flatnonzero(grid.any(axis=1)), np.flatnonzero(grid.any(axis=0))
        tight = (rows[0], rows[-1] + 1, cols[0], cols[-1] + 1) if rows.size else (0, 0, 0, 0)
        assert hm._support == tight
        assert hm._top == grid.max()
        # no given grid is kept: values is rebuilt from the block
        assert hm.values is not grid and hm.values is hm.values
        assert hm.values.dtype == np.float64
        assert np.array_equal(hm.values, grid)


def bool_masks():
    """Masks of 1 to 40 entries: all False, one True, or a few, with True
    often at either end."""
    @st.composite
    def draw_mask(draw):
        n = draw(st.integers(1, 40))
        on = draw(st.sets(st.integers(0, n - 1), max_size=3))
        on |= draw(st.sets(st.sampled_from([0, n - 1])))
        mask = np.zeros(n, dtype=bool)
        mask[sorted(on)] = True
        return mask
    return draw_mask()


class TestBox:
    @settings(max_examples=300, deadline=None)
    @given(bool_masks(), bool_masks())
    @example(np.zeros(3, dtype=bool), np.ones(2, dtype=bool))
    @example(np.array([False, True, False]), np.array([True]))
    @example(np.array([True, False, False]), np.array([False, False, True]))
    def test_matches_the_flatnonzero_reference(self, row_mask, col_mask):
        rows, cols = np.flatnonzero(row_mask), np.flatnonzero(col_mask)
        want = ((rows[0], rows[-1] + 1, cols[0], cols[-1] + 1) if rows.size and cols.size
                else (0, 0, 0, 0))
        got = _box(row_mask, col_mask)
        assert got == want and all(type(v) is int for v in got)


class TestSupportDecodes:
    """The box-built map and the same values with the whole grid as box
    decode alike, including fused decodes that read the outside."""

    @settings(max_examples=300, deadline=None)
    @given(package_maps(), st.floats(0.3, 20.0), st.floats(-1.0, 2.0), st.floats(-1.0, 2.0),
           st.booleans())
    def test_box_and_whole_grid_decode_alike(self, maps, sigma, fx, fy, beyond):
        for hm in maps:
            if hm._top == 0:
                continue
            # the same grid with the whole grid as its box
            whole = Heatmap(hm.values.copy(), _support=(0, hm.frame.height, 0, hm.frame.width),
                            _frame=hm.frame)
            assert decode_argmax(hm) == decode_argmax(whole)
            assert decode_centroid(hm) == decode_centroid(whole)
            x, y = fx * hm.frame.width, fy * hm.frame.height
            if beyond:
                # past the prior's floor horizon of every column
                horizon = sigma * math.sqrt(-2.0 * math.log(FusionConfig().floor_epsilon))
                x = (min(x, 0.0) - horizon - 1.0 if fx < 0.5
                     else max(x, hm.frame.width - 1.0) + horizon + 1.0)
            for decode in DecodeMethod:
                cfg = FusionConfig(prior_sigma=sigma, decode=decode)
                assert fuse_and_decode(hm, (x, y), cfg) == fuse_and_decode(whole, (x, y), cfg)

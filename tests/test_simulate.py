import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from spinefuse import io
from spinefuse.core import LandmarkSet, Rng, ValidationError
from spinefuse.evaluate import ComparisonReport, pck
from spinefuse.fusion import DecodeMethod, FusionConfig, fuse_and_decode
from spinefuse.heatmap import Heatmap, decode_argmax
from spinefuse.preprocess import _round_u8
from spinefuse.simulate import (
    METHOD_COORDS,
    METHOD_FUSED,
    METHOD_HEATMAP,
    CoordPredictorModel,
    HeatmapPredictorModel,
    PhantomConfig,
    calibrated_config,
    confusion_prob_for_accuracy,
    generate_phantom,
    noise_sigma_for_accuracy,
    noiseless_config,
    phantom_image,
    run_trial,
    simulate_coords,
    simulate_heatmaps,
)

# a small grid keeps these statistical checks quick; the threshold stays
# 16 px (8 mm at 0.5 mm/px) and the chain spacing stays beyond it
SMALL = PhantomConfig(landmarks=11, width=256, height=256,
                      spacing_mm_per_px=0.5, chain_spacing_px=20.0, wobble_px=4.0)


def dense_gaussian(center, sigma, amplitude, width, height):
    """Reference render: the outer product over the whole grid, then the amplitude."""
    two_s2 = 2.0 * sigma * sigma
    ex = np.exp(-((np.arange(width, dtype=np.float64) - center[0]) ** 2) / two_s2)
    ey = np.exp(-((np.arange(height, dtype=np.float64) - center[1]) ** 2) / two_s2)
    return np.outer(ey, ex) * amplitude


def channel_at_a_time_trial(rng, config):
    """Reference for run_trial: each channel is decoded and fused alone, by
    fuse_and_decode with its landmark's prior sigma."""
    cfg = config.phantom
    gts, coord_preds, heat_preds, fused_preds = [], [], [], []
    for i in range(config.images):
        stream = rng.spawn(i)
        gt = generate_phantom(stream, cfg)
        coords = simulate_coords(stream, gt, config.coords)
        heat, fused = np.empty((cfg.landmarks, 2)), np.empty((cfg.landmarks, 2))
        channels = simulate_heatmaps(stream, gt, config.heatmaps)
        for k, channel in enumerate(channels):
            heat[k] = decode_argmax(channel)
            x, y = coords.points[k]
            sigma = config.fusion.prior_sigma[k]
            fused[k] = fuse_and_decode(channel, (x, y),
                                       dataclasses.replace(config.fusion, prior_sigma=sigma))
        gts.append(gt)
        coord_preds.append(coords)
        heat_preds.append(LandmarkSet(heat, gt.frame))
        fused_preds.append(LandmarkSet(fused, gt.frame))
    spacing = cfg.spacing_mm_per_px
    return ComparisonReport(
        images=config.images,
        landmarks_per_image=cfg.landmarks,
        threshold_mm=config.threshold_mm,
        spacing_mm_per_px=spacing,
        methods={
            METHOD_COORDS: pck(coord_preds, gts, config.threshold_mm, spacing),
            METHOD_HEATMAP: pck(heat_preds, gts, config.threshold_mm, spacing),
            METHOD_FUSED: pck(fused_preds, gts, config.threshold_mm, spacing),
        },
    )


class TestGeneratePhantom:
    def test_chain_construction(self):
        lms = generate_phantom(Rng(1), PhantomConfig())
        assert len(lms) == 11
        assert lms.in_bounds_mask().all()
        assert np.all(np.diff(lms.points[:, 1]) > 0)

    def test_integer_positions(self):
        lms = generate_phantom(Rng(2), PhantomConfig())
        assert np.array_equal(lms.points, np.round(lms.points))

    def test_zero_wobble_aligns_x(self):
        lms = generate_phantom(Rng(3), PhantomConfig(wobble_px=0.0))
        assert np.unique(lms.points[:, 0]).size == 1

    def test_deterministic(self):
        a = generate_phantom(Rng(4), PhantomConfig())
        b = generate_phantom(Rng(4), PhantomConfig())
        np.testing.assert_array_equal(a.points, b.points)

    def test_infeasible_chain(self):
        with pytest.raises(ValidationError, match="fit"):
            generate_phantom(Rng(5), PhantomConfig(landmarks=20, height=256,
                                                   chain_spacing_px=40.0))

    def test_phantom_image_renders_landmarks(self):
        lms = generate_phantom(Rng(6), SMALL)
        img = phantom_image(lms, SMALL)
        assert (img.frame.width, img.frame.height) == (SMALL.width, SMALL.height)
        x, y = lms.points[0].astype(int)
        assert img.pixels[y, x] > 200

    @pytest.mark.parametrize("config", [PhantomConfig(), SMALL], ids=["512", "small"])
    def test_phantom_image_equals_the_dense_reference(self, config):
        lms = generate_phantom(Rng(6), config)
        blobs = np.max([dense_gaussian(p, 5.0, 1.0, config.width, config.height)
                        for p in lms.points], axis=0)
        img = phantom_image(lms, config)
        assert img.spacing == config.spacing_mm_per_px
        assert np.array_equal(img.pixels, _round_u8(15.0 + 220.0 * blobs))

    def test_phantom_image_folds_one_blob_at_a_time(self):
        # 11 sigma 5 blobs at 512 x 512, each a ~1.2 MB nonzero block: all
        # of them held at once peaked at 12.4 MiB; folded into the joined box
        # as each is computed, the peak is that box (~1.6 MB), one block and
        # the raster's shading and rounding arrays of the box, about 5.1 MiB
        config = PhantomConfig()
        lms = generate_phantom(Rng(6), config)
        tracemalloc.start()
        try:
            phantom_image(lms, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * 2 ** 20


class TestSimulateCoords:
    def test_noiseless_is_exact(self):
        gt = generate_phantom(Rng(7), SMALL)
        out = simulate_coords(Rng(8), gt, CoordPredictorModel(noise_sigma=0.0))
        np.testing.assert_array_equal(out.points, gt.points)

    def test_noise_standard_deviation(self):
        gt = generate_phantom(Rng(9), PhantomConfig())
        model = CoordPredictorModel(noise_sigma=3.0)
        rng = Rng(10)
        draws = np.concatenate(
            [simulate_coords(rng, gt, model).points - gt.points for _ in range(9091)]
        )
        assert draws.shape[0] >= 100_000
        for axis in range(2):
            assert abs(draws[:, axis].std() / 3.0 - 1.0) < 0.02

    def test_outlier_branch_standard_deviation(self):
        gt = generate_phantom(Rng(11), PhantomConfig())
        model = CoordPredictorModel(noise_sigma=1.0, outlier_rate=1.0, outlier_sigma=50.0)
        rng = Rng(12)
        draws = np.concatenate(
            [simulate_coords(rng, gt, model).points - gt.points for _ in range(9091)]
        )
        for axis in range(2):
            assert abs(draws[:, axis].std() / 50.0 - 1.0) < 0.02

    def test_model_validation(self):
        with pytest.raises(ValidationError):
            CoordPredictorModel(noise_sigma=-1.0)
        with pytest.raises(ValidationError):
            CoordPredictorModel(noise_sigma=1.0, outlier_rate=1.5)


class TestSimulateHeatmaps:
    @pytest.mark.parametrize("sigma", [0.0, math.nan, 1e-170])
    def test_unusable_heatmap_sigma_is_named(self, sigma):
        # 2*sigma*sigma underflows to 0 below about 1.5e-162
        with pytest.raises(ValidationError, match=f"got {sigma}$"):
            HeatmapPredictorModel(heatmap_sigma=sigma)

    def test_clean_channels_decode_to_gt(self):
        gt = generate_phantom(Rng(13), SMALL)
        model = HeatmapPredictorModel(peak_jitter_sigma=0.0, adjacent_confusion_prob=0.0)
        stack = simulate_heatmaps(Rng(14), gt, model)
        for hm, (x, y) in zip(stack, gt.points):
            assert decode_argmax(hm) == (int(x), int(y))

    def test_certain_confusion_with_dominant_amplitude(self):
        gt = generate_phantom(Rng(15), SMALL)
        model = HeatmapPredictorModel(peak_jitter_sigma=0.0, adjacent_confusion_prob=1.0,
                                      spurious_amplitude=(1.1, 1.1))
        stack = simulate_heatmaps(Rng(16), gt, model)
        n = len(gt)
        for k, hm in enumerate(stack):
            x, y = decode_argmax(hm)
            neighbors = {k - 1, k + 1} & set(range(n))
            assert any(
                (x, y) == (int(gt.points[nb, 0]), int(gt.points[nb, 1]))
                for nb in neighbors
            )

    # at jitter 0 a spurious peak has its neighbour's (center, sigma), so
    # the two share one block
    @pytest.mark.parametrize("jitter", [0.7, 0.0])
    def test_matches_rendered_and_max_combined_reference(self, jitter):
        def reference(rng, gt, model, width, height):
            # one whole-grid map per Gaussian, combined with np.maximum
            n, out = len(gt), []
            for k, (x, y) in enumerate(gt.points):
                cx = x + rng.normal(0.0, model.peak_jitter_sigma)
                cy = y + rng.normal(0.0, model.peak_jitter_sigma)
                peak = dense_gaussian((float(cx), float(cy)), model.heatmap_sigma, 1.0,
                                      width, height)
                if rng.random() < model.adjacent_confusion_prob and n > 1:
                    pick_next = rng.random() < 0.5
                    nb = 1 if k == 0 else n - 2 if k == n - 1 else k + 1 if pick_next else k - 1
                    amp = rng.uniform(*model.spurious_amplitude)
                    nx, ny = gt.points[nb]
                    spur = dense_gaussian((float(nx), float(ny)), model.heatmap_sigma, amp,
                                          width, height)
                    peak = np.maximum(peak, spur)
                out.append(peak)
            return out

        gt = generate_phantom(Rng(18), SMALL)
        model = HeatmapPredictorModel(peak_jitter_sigma=jitter, adjacent_confusion_prob=0.6,
                                      spurious_amplitude=(0.8, 1.3))
        got = simulate_heatmaps(Rng(19), gt, model)
        want = reference(Rng(19), gt, model, SMALL.width, SMALL.height)
        assert len(got) == len(want) == len(gt)
        for hm, ref in zip(got, want):
            # a simulated map stores its support block and no dense grid
            r0, r1, c0, c1 = hm._support
            assert hm._block.shape == (r1 - r0, c1 - c0) and "values" not in vars(hm)
            assert hm._block.nbytes < ref.nbytes // 4
            # values is built on first use, then the same frozen array
            assert hm.values is hm.values
            assert hm.values.dtype == np.float64 and not hm.values.flags.writeable
            assert hm.values.tobytes() == ref.tobytes()

    def test_confusion_rate_matches_analytic_law(self):
        # miss rate = confusion_prob * P(amplitude > 1) = 0.3 * 0.5 = 15%
        model = HeatmapPredictorModel(peak_jitter_sigma=0.0, adjacent_confusion_prob=0.3,
                                      spurious_amplitude=(0.9, 1.1))
        master = Rng(17)
        wrong = total = 0
        for i in range(10_000 // 11 + 1):
            stream = master.spawn(i)
            gt = generate_phantom(stream, SMALL)
            stack = simulate_heatmaps(stream, gt, model)
            for hm, (x, y) in zip(stack, gt.points):
                wrong += decode_argmax(hm) != (int(x), int(y))
                total += 1
        assert total >= 10_000
        assert abs(wrong / total - 0.15) < 0.02


class TestRunTrial:
    def test_noiseless_all_methods_perfect(self):
        report = run_trial(Rng(18), noiseless_config(images=5))
        for rep in report.methods.values():
            assert rep.accuracy == 1.0

    def test_bit_identical_reports(self):
        config = calibrated_config(images=40, phantom=SMALL)
        a = run_trial(Rng(19), config)
        b = run_trial(Rng(19), config)
        assert a == b

    def test_coords_accuracy_matches_rayleigh_target(self):
        config = calibrated_config(images=500, phantom=SMALL)
        master = Rng(20)
        preds, gts = [], []
        for i in range(config.images):
            stream = master.spawn(i)
            gt = generate_phantom(stream, SMALL)
            preds.append(simulate_coords(stream, gt, config.coords))
            gts.append(gt)
        acc = pck(preds, gts, 8.0, SMALL.spacing_mm_per_px).accuracy
        assert abs(acc - 0.713) < 0.03

    def test_monotone_in_coordinate_noise(self):
        # coords-only accuracy never rises as scatter grows
        master = Rng(21)
        accs = []
        for sigma in (4.0, 8.0, 12.0, 16.0, 20.0):
            preds, gts = [], []
            model = CoordPredictorModel(noise_sigma=sigma)
            for i in range(910):
                stream = master.spawn(i)
                gt = generate_phantom(stream, SMALL)
                preds.append(simulate_coords(stream, gt, model))
                gts.append(gt)
            accs.append(pck(preds, gts, 8.0, SMALL.spacing_mm_per_px).accuracy)
        assert all(a >= b for a, b in zip(accs, accs[1:]))

    def test_fusion_dominates_at_small_scale(self):
        report = run_trial(Rng(22), calibrated_config(images=200, phantom=SMALL))
        fused = report.methods["fused"].accuracy
        coords = report.methods["coords_only"].accuracy
        heat = report.methods["heatmap_argmax"].accuracy
        assert fused > max(coords, heat)

    @pytest.mark.parametrize("method", list(DecodeMethod))
    def test_matches_fusing_one_channel_at_a_time(self, method):
        # per-landmark prior sigmas, peak jitter and confusion all on
        config = dataclasses.replace(
            calibrated_config(images=12, phantom=SMALL),
            heatmaps=HeatmapPredictorModel(peak_jitter_sigma=0.7, adjacent_confusion_prob=0.6,
                                           spurious_amplitude=(0.8, 1.3)),
            fusion=FusionConfig(prior_sigma=tuple(3.0 + k for k in range(SMALL.landmarks)),
                                decode=method),
        )
        assert run_trial(Rng(24), config) == channel_at_a_time_trial(Rng(24), config)

    def test_calibrated_run_never_builds_a_dense_map(self, monkeypatch):
        # decoding and fusing read a rendered map's support block only
        def refuse(hm):
            raise AssertionError("a dense heatmap was built")
        monkeypatch.setattr(Heatmap, "values", property(refuse))
        assert run_trial(Rng(25), calibrated_config(images=3)).images == 3

    def test_calibrated_report_bytes_are_pinned(self):
        # any change to the report's bytes fails here, not only in bench digests
        text = io.format_comparison(run_trial(Rng(2020), calibrated_config(images=30)))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "189be8b8b81ad88ff6ca555f89ff46f10eb93adf1e35655d4748338cb21d4977")

    def test_memory_stays_flat(self):
        # whole 11-channel stacks of dense 512x512 maps peaked at about 24 MiB;
        # a stack of block-held maps peaks at about 1.2 MiB
        config = calibrated_config(images=1)
        tracemalloc.start()
        try:
            run_trial(Rng(1), config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * 512 * 512 * 8

    def test_execution_order_does_not_change_results(self):
        config = calibrated_config(images=30, phantom=SMALL)
        master = Rng(23)
        def one_image(i):
            stream = master.spawn(i)
            gt = generate_phantom(stream, config.phantom)
            coords = simulate_coords(stream, gt, config.coords)
            return gt.points.copy(), coords.points.copy()
        forward = [one_image(i) for i in range(config.images)]
        backward = [one_image(i) for i in reversed(range(config.images))]
        for (g1, c1), (g2, c2) in zip(forward, reversed(backward)):
            np.testing.assert_array_equal(g1, g2)
            np.testing.assert_array_equal(c1, c2)


class TestCalibration:
    @pytest.mark.parametrize("threshold", [0.0, float("nan"), float("inf")])
    def test_trial_threshold_must_be_positive_and_finite(self, threshold):
        with pytest.raises(ValidationError, match="threshold"):
            dataclasses.replace(calibrated_config(images=1), threshold_mm=threshold)

    def test_per_landmark_prior_sigmas_cover_every_landmark(self):
        config = calibrated_config(images=1)
        ok = FusionConfig(prior_sigma=(6.0,) * config.phantom.landmarks)
        assert dataclasses.replace(config, fusion=ok).fusion == ok
        with pytest.raises(ValidationError, match="^10 prior sigmas for 11 landmarks$"):
            dataclasses.replace(config, fusion=FusionConfig(prior_sigma=(6.0,) * 10))

    @pytest.mark.parametrize("accuracy", [0.0, 1.0, "0.5", None])
    def test_accuracy_outside_the_open_unit_interval_is_refused(self, accuracy):
        with pytest.raises(ValidationError,
                           match=rf"^accuracy must be in \(0, 1\), got {accuracy}$"):
            noise_sigma_for_accuracy(accuracy, 16.0)

    def test_rayleigh_inversion(self):
        sigma = noise_sigma_for_accuracy(0.713, 16.0)
        assert sigma == pytest.approx(10.12628591241215, rel=1e-12)
        # forward check through the tail law
        assert 1.0 - math.exp(-(16.0 ** 2) / (2 * sigma * sigma)) == pytest.approx(0.713)

    def test_confusion_inversion(self):
        prob = confusion_prob_for_accuracy(0.65, (0.9, 1.1))
        assert prob == pytest.approx(0.7)
        with pytest.raises(ValidationError):
            confusion_prob_for_accuracy(0.65, (1.05, 1.1))
        with pytest.raises(ValidationError):
            confusion_prob_for_accuracy(0.2, (0.9, 1.1))
        with pytest.raises(ValidationError, match=r"^amplitude range must be a pair"):
            confusion_prob_for_accuracy(0.65, (0.9,))

    def test_calibrated_config_defaults(self):
        config = calibrated_config()
        assert config.images * config.phantom.landmarks >= 50_000
        assert config.heatmaps.peak_jitter_sigma == 0.0
        assert config.fusion.prior_sigma == 6.0
        # the calibration law reads the model's own amplitude range
        assert config.heatmaps.adjacent_confusion_prob == confusion_prob_for_accuracy(
            0.65, config.heatmaps.spurious_amplitude)

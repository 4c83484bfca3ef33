import dataclasses
import math

import numpy as np
import pytest

from spinefuse.core import LandmarkSet, PixelFrame, ValidationError
from spinefuse.evaluate import ComparisonReport, EvalReport, LandmarkStats, pck


def make_sets(n_images, n_landmarks, offsets_px, spacing_note=None):
    """Ground truth on a grid plus per-landmark pixel offsets for predictions."""
    frame = PixelFrame(512, 512)
    gts, preds = [], []
    for i in range(n_images):
        gt = np.column_stack([
            np.full(n_landmarks, 100.0 + i),
            50.0 + 30.0 * np.arange(n_landmarks),
        ])
        gts.append(LandmarkSet(gt, frame))
        preds.append(LandmarkSet(gt + offsets_px[i], frame))
    return preds, gts


def landmark_error_mm(pred, gt, spacing):
    """The error pck reports for one predicted landmark."""
    frame = PixelFrame(64, 64)
    report = pck([LandmarkSet(np.array([pred], dtype=float), frame)],
                 [LandmarkSet(np.array([gt], dtype=float), frame)], 8.0, spacing)
    return report.per_landmark[0].mean_error_mm


class TestLandmarkError:
    def test_exact_match(self):
        assert landmark_error_mm((10, 10), (10, 10), 0.5) == 0.0

    def test_three_four_five(self):
        assert landmark_error_mm((13, 14), (10, 10), 1.0) == pytest.approx(5.0)

    def test_spacing_scales(self):
        assert landmark_error_mm((16, 0), (0, 0), 0.5) == pytest.approx(8.0)

    def test_bad_spacing(self):
        with pytest.raises(ValidationError):
            landmark_error_mm((0, 0), (0, 0), 0.0)


class TestPck:
    def test_two_misses_in_550(self):
        # 550 landmarks, 2 pushed past the threshold
        offsets = np.zeros((50, 11, 2))
        offsets[0, 0] = (40, 0)
        offsets[7, 3] = (0, -40)
        preds, gts = make_sets(50, 11, offsets)
        report = pck(preds, gts, 8.0, 0.5)
        assert report.total == 550 and report.hits == 548
        assert report.accuracy == pytest.approx(0.9963636363636363, abs=1e-4)

    def test_158_misses_in_550(self):
        offsets = np.zeros((50, 11, 2))
        miss = 0
        for i in range(50):
            for k in range(11):
                if miss < 158:
                    offsets[i, k] = (0, 30)
                    miss += 1
        preds, gts = make_sets(50, 11, offsets)
        report = pck(preds, gts, 8.0, 0.5)
        assert report.hits == 392
        assert report.accuracy == pytest.approx(0.7127272727272728, abs=1e-4)

    def test_threshold_is_strict(self):
        # 16 px at 0.5 mm/px is exactly 8 mm: a miss, not a hit
        offsets = np.zeros((1, 11, 2))
        offsets[0, 0] = (16, 0)
        offsets[0, 1] = (15.99, 0)
        preds, gts = make_sets(1, 11, offsets)
        report = pck(preds, gts, 8.0, 0.5)
        assert report.hits == 10
        assert report.per_landmark[0].hits == 0
        assert report.per_landmark[1].hits == 1

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf"),
                                           float("-inf")])
    def test_threshold_must_be_positive_and_finite(self, threshold):
        preds, gts = make_sets(1, 3, np.zeros((1, 3, 2)))
        with pytest.raises(ValidationError, match="threshold"):
            pck(preds, gts, threshold, 0.5)

    @pytest.mark.parametrize("spacing", [float("nan"), float("inf"), [0.5, float("nan")]],
                             ids=["nan", "inf", "per-image-nan"])
    def test_spacing_must_be_positive_and_finite(self, spacing):
        preds, gts = make_sets(2, 3, np.zeros((2, 3, 2)))
        with pytest.raises(ValidationError, match="spacing must be positive and finite"):
            pck(preds, gts, 8.0, spacing)

    @pytest.mark.parametrize("build, message", [
        (lambda: pck(*make_sets(2, 3, np.zeros((2, 3, 2))), 8.0, [0.5]),
         "^1 spacings for 2 images$"),
        (lambda: pck(*make_sets(1, 0, np.zeros((1, 0, 2))), 8.0, 0.5), "^empty evaluation$"),
    ], ids=["spacing-count", "no-landmarks"])
    def test_inconsistent_input_names_its_rule(self, build, message):
        with pytest.raises(ValidationError, match=message):
            build()

    def test_empty_inputs_are_error(self):
        with pytest.raises(ValidationError, match="empty"):
            pck([], [], 8.0, 0.5)

    def test_shape_mismatch(self):
        preds, gts = make_sets(2, 5, np.zeros((2, 5, 2)))
        with pytest.raises(ValidationError):
            pck(preds[:1], gts, 8.0, 0.5)
        short = [LandmarkSet(preds[0].points[:3], preds[0].frame), preds[1]]
        with pytest.raises(ValidationError):
            pck(short, gts, 8.0, 0.5)

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(17)
        offsets = rng.normal(0, 10, (20, 11, 2))
        preds, gts = make_sets(20, 11, offsets)
        accs = [pck(preds, gts, t, 0.5).accuracy for t in (2.0, 4.0, 8.0, 16.0, 32.0)]
        assert all(a <= b for a, b in zip(accs, accs[1:]))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(18)
        offsets = rng.normal(0, 8, (10, 7, 2))
        preds, gts = make_sets(10, 7, offsets)
        base = pck(preds, gts, 8.0, 0.5)
        order = rng.permutation(10)
        shuffled = pck([preds[i] for i in order], [gts[i] for i in order], 8.0, 0.5)
        assert shuffled.total == base.total and shuffled.hits == base.hits
        assert shuffled.accuracy == base.accuracy

    def test_per_landmark_sums(self):
        rng = np.random.default_rng(19)
        offsets = rng.normal(0, 12, (15, 9, 2))
        preds, gts = make_sets(15, 9, offsets)
        report = pck(preds, gts, 8.0, 0.5)
        assert sum(r.hits for r in report.per_landmark) == report.hits
        assert sum(r.total for r in report.per_landmark) == report.total

    def test_per_image_spacing(self):
        offsets = np.zeros((2, 3, 2))
        offsets[0, 0] = (10, 0)   # 10 mm at 1.0, miss
        offsets[1, 0] = (10, 0)   # 5 mm at 0.5, hit
        preds, gts = make_sets(2, 3, offsets)
        report = pck(preds, gts, 8.0, [1.0, 0.5])
        assert report.hits == 5

    # under the suite's error::RuntimeWarning filter, an overflow warning
    # would raise: an error beyond the float range reads inf, and a mean
    # whose sum alone is beyond it is never above the largest error
    @pytest.mark.parametrize("spacing", [0.5, 10.0])
    def test_errors_beyond_the_float_range_warn_nothing(self, spacing):
        frame = PixelFrame(128, 128)
        gts = [LandmarkSet(np.array([[10.0, 20.0], [30.0, 40.0]]), frame)] * 3
        preds = [LandmarkSet(np.array([[1e308, 1e308], [-1e308, 1e308]]), frame)] * 3
        report = pck(preds, gts, 8.0, spacing)
        assert report.hits == 0
        for row in report.per_landmark:
            assert row.mean_error_mm == row.max_error_mm
            assert math.isinf(row.max_error_mm) == (spacing == 10.0)

    def test_a_mean_whose_sum_overflows_stays_within_the_errors(self):
        frame = PixelFrame(128, 128)
        gts = [LandmarkSet(np.array([[0.0, 0.0]]), frame)] * 3
        preds = [LandmarkSet(np.array([[x, 0.0]]), frame) for x in (1.5e308, 1e308, 2.0)]
        row = pck(preds, gts, 8.0, 1.0).per_landmark[0]
        assert row.max_error_mm == 1.5e308
        assert row.mean_error_mm == pytest.approx(1.5e308 / 3 + 1e308 / 3, rel=1e-15)


class TestReports:
    def test_report_invariants_enforced(self):
        with pytest.raises(ValidationError):
            EvalReport(total=10, hits=11, threshold_mm=8.0, spacing_mm_per_px=0.5,
                       per_landmark=(LandmarkStats(0, 10, 11, 0.0, 0.0),))
        with pytest.raises(ValidationError):
            EvalReport(total=10, hits=5, threshold_mm=8.0, spacing_mm_per_px=0.5,
                       per_landmark=(LandmarkStats(0, 10, 4, 0.0, 0.0),))
        with pytest.raises(ValidationError, match="^per-landmark totals do not sum"):
            EvalReport(total=10, hits=4, threshold_mm=8.0, spacing_mm_per_px=0.5,
                       per_landmark=(LandmarkStats(0, 9, 4, 0.0, 0.0),))

    def test_comparison_deltas(self):
        def report(hits):
            return EvalReport(total=100, hits=hits, threshold_mm=8.0,
                              spacing_mm_per_px=0.5,
                              per_landmark=(LandmarkStats(0, 100, hits, 1.0, 2.0),))
        comp = ComparisonReport(
            images=10, landmarks_per_image=10, threshold_mm=8.0, spacing_mm_per_px=0.5,
            methods={"a": report(70), "b": report(60), "fused": report(95)},
        )
        deltas = comp.deltas()
        assert deltas["a"][0] == pytest.approx(0.25)
        assert deltas["a"][1] == pytest.approx(95 / 70 - 1)
        assert deltas["b"][0] == pytest.approx(0.35)
        # one method has nothing to be compared with
        assert dataclasses.replace(comp, methods={"fused": report(95)}).deltas() == {}

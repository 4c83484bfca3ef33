"""Acceptance criteria, one test per criterion, each timed and printed.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Every tolerance is pinned here, not deferred.
"""
import math
import time

import numpy as np

from spinefuse import io
from spinefuse.cli import main
from spinefuse.core import GrayImage, LandmarkSet, PixelFrame, Rng
from spinefuse.fusion import FusionConfig, fuse_and_decode, fuse_product
from spinefuse.geometry import AugmentationRanges, sample_valid_augmentation, warp_image, warp_landmarks
from spinefuse.heatmap import GaussianSpec, Heatmap, decode_argmax, render_gaussian
from spinefuse.preprocess import equalize_histogram, resize_bilinear
from spinefuse.simulate import calibrated_config, run_trial


def report_line(name: str, started: float, budget_s: float, detail: str):
    elapsed = time.perf_counter() - started
    print(f"\nPASS {name}: {detail} [{elapsed:.1f}s < {budget_s:.0f}s]")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget ({elapsed:.1f}s)"


def write_eval_fixture(root, n_images, n_landmarks, miss_count, spacing=0.5):
    """A corpus whose predictions miss exactly ``miss_count`` landmarks."""
    gt_dir = root / "gt"
    pred_dir = root / "pred"
    gt_dir.mkdir(parents=True)
    pred_dir.mkdir(parents=True)
    frame = PixelFrame(512, 512)
    records = []
    missed = 0
    for i in range(n_images):
        pts = np.column_stack([
            np.full(n_landmarks, 200.0),
            40.0 + 40.0 * np.arange(n_landmarks),
        ])
        pred = pts.copy()
        for k in range(n_landmarks):
            if missed < miss_count:
                pred[k, 0] += 30.0  # 15 mm at 0.5 mm/px, past any 8 mm threshold
                missed += 1
        img_path = gt_dir / f"case_{i:03d}.pgm"
        io.write_pgm(img_path, GrayImage(np.array([[0, 50], [100, 150]], np.uint8), spacing))
        io.write_landmarks(gt_dir / f"case_{i:03d}.txt", LandmarkSet(pts, frame))
        io.write_landmarks(pred_dir / f"case_{i:03d}.txt", LandmarkSet(pred, frame))
        records.append(io.ManifestRecord(img_path, gt_dir / f"case_{i:03d}.txt", spacing))
    manifest = gt_dir / "manifest.txt"
    io.write_manifest(manifest, io.Manifest(tuple(records), landmark_count=n_landmarks,
                                            working_size=frame))
    return manifest, pred_dir


def test_criterion_1_metric_fixtures(tmp_path):
    """pck reproduces the 548/550 and 392/550 fixtures through cmd_eval."""
    started = time.perf_counter()
    results = {}
    for name, misses, accuracy in (("hi", 2, "0.996364"), ("lo", 158, "0.712727")):
        manifest, pred_dir = write_eval_fixture(tmp_path / name, 50, 11, misses)
        out = tmp_path / f"report_{name}.txt"
        code = main(["eval", "--manifest", str(manifest), "--pred-dir", str(pred_dir),
                     "--threshold-mm", "8", "--out", str(out)])
        assert code == 0
        summary = ["total = 550", f"hits = {550 - misses}", f"accuracy = {accuracy}"]
        assert out.read_text().splitlines()[2:5] == summary
        results[name] = accuracy
    report_line("criterion 1 (metric fixtures)", started, 1.0,
                f"548/550 -> {results['hi']}, 392/550 -> {results['lo']}")


def test_criterion_2_gaussian_rendering_oracle():
    """Rendered values match direct scalar evaluation at 10,000 triples."""
    started = time.perf_counter()
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(10_000):
        w = int(rng.integers(16, 96))
        h = int(rng.integers(16, 96))
        sigma = float(rng.uniform(0.8, 10.0))
        x0 = float(rng.uniform(0, w - 1))
        y0 = float(rng.uniform(0, h - 1))
        hm = render_gaussian(GaussianSpec((x0, y0), sigma), PixelFrame(w, h))
        # probe point within 20 sigma of the center keeps the value in the
        # normal float range where relative error is meaningful; clipping
        # only ever moves the probe closer to the center
        r = 20.0 * sigma / math.sqrt(2.0)
        x = int(np.clip(round(x0 + rng.uniform(-r, r)), 0, w - 1))
        y = int(np.clip(round(y0 + rng.uniform(-r, r)), 0, h - 1))
        expected = math.exp(-(((x - x0) ** 2) + ((y - y0) ** 2)) / (2.0 * sigma * sigma))
        rel = abs(hm.values[y, x] - expected) / expected
        worst = max(worst, rel)
        assert rel < 1e-12
    report_line("criterion 2 (rendering oracle)", started, 5.0,
                f"10000 triples, worst relative error {worst:.2e}")


def test_criterion_3_product_closed_form():
    """Fused argmax lands on the grid point nearest the closed-form mean."""
    started = time.perf_counter()
    rng = np.random.default_rng(31337)
    size = 128
    eps = 1e-12
    checked = 0
    while checked < 1000:
        sa = float(rng.uniform(1.0, 8.0))
        sb = float(rng.uniform(1.0, 8.0))
        margin = int(math.ceil(3.0 * max(sa, sb)))
        if 2 * margin >= size - 2:
            continue
        ax = int(rng.integers(margin, size - margin))
        ay = int(rng.integers(margin, size - margin))
        # keep the pair inside the floor horizon, |mu_a - mu_b| <
        # sqrt(2(sa^2+sb^2) ln(1/eps)): beyond it the map's clamp at eps has
        # erased the tail under the mean, and the pixel nearest the
        # coordinate wins instead
        horizon = 0.9 * math.sqrt(2.0 * (sa * sa + sb * sb) * -math.log(eps))
        theta = float(rng.uniform(0, 2 * math.pi))
        radius = float(rng.uniform(1.0, horizon))
        bx = int(round(ax + radius * math.cos(theta)))
        by = int(round(ay + radius * math.sin(theta)))
        if not (margin <= bx < size - margin and margin <= by < size - margin):
            continue
        if (ax, ay) == (bx, by):
            continue
        wa, wb = sb * sb, sa * sa
        mx = (wa * ax + wb * bx) / (wa + wb)
        my = (wa * ay + wb * by) / (wa + wb)
        # exclude rounding ties
        if min(abs(mx - math.floor(mx) - 0.5), abs(my - math.floor(my) - 0.5)) < 1e-6:
            continue
        ha = render_gaussian(GaussianSpec((ax, ay), sa), PixelFrame(size, size))
        cfg = FusionConfig(prior_sigma=sb, floor_epsilon=eps)
        got = decode_argmax(fuse_product(ha, (bx, by), cfg)[1])
        assert got == (round(mx), round(my)), (
            f"pair ({ax},{ay},s={sa:.3f}) x ({bx},{by},s={sb:.3f}): "
            f"got {got}, closed form ({mx:.3f},{my:.3f})"
        )
        checked += 1
    report_line("criterion 3 (product closed form)", started, 30.0,
                "1000/1000 pairs agree with the precision-weighted mean")


# Peak geometries for the exhaustive disambiguation sweep: axis-aligned and
# diagonal separations of 8 to 24 px, centered so that every grid point stays
# inside the prior's informative radius of its nearer peak.
PEAK_PAIRS = [
    ((32, 28), (32, 36)),
    ((32, 24), (32, 40)),
    ((28, 32), (36, 32)),
    ((24, 32), (40, 32)),
    ((32, 20), (32, 44)),
    ((31, 31), (39, 39)),
    ((28, 20), (36, 44)),
    ((36, 20), (28, 44)),
]


def test_criterion_4_adjacent_peak_disambiguation():
    """The prior resolves a two-peak ambiguity to the strictly nearer peak,
    exhaustively over every valid prior position on a 64x64 grid."""
    started = time.perf_counter()
    size = 64
    sigma_h = 1.2
    cfg = FusionConfig(prior_sigma=6.0, floor_epsilon=1e-12)
    horizon2 = -2.0 * 6.0 * 6.0 * math.log(cfg.floor_epsilon)
    ys, xs = np.mgrid[0:size, 0:size].astype(float)
    cases = 0
    for t, a in PEAK_PAIRS:
        sep = math.hypot(t[0] - a[0], t[1] - a[1])
        assert sep >= 8.0
        d2t = (xs - t[0]) ** 2 + (ys - t[1]) ** 2
        d2a = (xs - a[0]) ** 2 + (ys - a[1]) ** 2
        # precondition: no grid point beyond the prior's floor horizon of its
        # nearer peak (inside the fused horizon sqrt(2(sh^2+sp^2) ln(1/eps))),
        # otherwise the map's clamp hides both peaks and the coordinate's own
        # pixel wins
        assert np.minimum(d2t, d2a).max() < horizon2
        hm = Heatmap(np.maximum(
            render_gaussian(GaussianSpec(t, sigma_h), PixelFrame(size, size)).values,
            render_gaussian(GaussianSpec(a, sigma_h), PixelFrame(size, size)).values,
        ))
        for cy in range(size):
            for cx in range(size):
                dt2 = (cx - t[0]) ** 2 + (cy - t[1]) ** 2
                da2 = (cx - a[0]) ** 2 + (cy - a[1]) ** 2
                if dt2 == da2:
                    continue
                gx, gy = fuse_and_decode(hm, (cx, cy), cfg)
                g2t = (gx - t[0]) ** 2 + (gy - t[1]) ** 2
                g2a = (gx - a[0]) ** 2 + (gy - a[1]) ** 2
                assert (g2t < g2a) == (dt2 < da2), (
                    f"peaks {t}/{a}, prior ({cx},{cy}): decoded ({gx},{gy})"
                )
                cases += 1
    report_line("criterion 4 (adjacent-peak disambiguation)", started, 120.0,
                f"{cases} enumerated priors across {len(PEAK_PAIRS)} geometries, all correct")


def test_criterion_5_fusion_dominance():
    """Calibrated simulator: fused beats both branches by >= 15 points and
    clears 95% absolute over >= 50,000 landmark trials."""
    started = time.perf_counter()
    config = calibrated_config()
    trials = config.images * config.phantom.landmarks
    assert trials >= 50_000

    report = run_trial(Rng(20260808), config)
    coords = report.methods["coords_only"].accuracy
    heat = report.methods["heatmap_argmax"].accuracy
    fused = report.methods["fused"].accuracy

    assert abs(coords - 0.713) < 0.015, f"coords branch off target: {coords:.4f}"
    assert abs(heat - 0.65) < 0.02, f"heatmap branch off target: {heat:.4f}"
    assert fused > 0.95, f"fused accuracy too low: {fused:.4f}"
    assert fused - max(coords, heat) >= 0.15, (
        f"dominance margin {fused - max(coords, heat):.4f} below 15 points"
    )

    # seed stability of the exact figures, demonstrated on a subsample
    # (full-run determinism is unit-tested bit-for-bit)
    small = calibrated_config(images=50)
    assert run_trial(Rng(7), small) == run_trial(Rng(7), small)

    report_line(
        "criterion 5 (fusion dominance)", started, 300.0,
        f"{trials} trials: coords {coords:.4f}, heatmap {heat:.4f}, fused {fused:.4f}",
    )


def test_criterion_6_geometry_consistency():
    """A one-pixel dot and its landmark stay within 1 px through 1,000
    random augmentations."""
    started = time.perf_counter()
    master = Rng(424242)
    ranges = AugmentationRanges()
    size = 160
    failures = 0
    for trial in range(1000):
        stream = master.spawn(trial)
        px = int(stream.uniform(50, size - 50))
        py = int(stream.uniform(50, size - 50))
        lms = LandmarkSet(np.array([[float(px), float(py)]]), PixelFrame(size, size))
        t = sample_valid_augmentation(stream, ranges, lms)
        pix = np.zeros((size, size), dtype=np.uint8)
        pix[py, px] = 255
        warped = warp_image(GrayImage(pix, 1.0), t)
        moved = warp_landmarks(lms, t)
        idx = int(np.argmax(warped.pixels))
        ax, ay = idx % size, idx // size
        wx, wy = moved.points[0]
        if math.hypot(ax - wx, ay - wy) > 1.0:
            failures += 1
    assert failures == 0
    report_line("criterion 6 (geometry consistency)", started, 60.0,
                "1000 augmentations, 0 failures at 1 px")


def test_criterion_7_preprocessing_fixtures():
    """Hand-derived equalization and bilinear fixtures reproduce exactly."""
    started = time.perf_counter()
    eq1 = equalize_histogram(GrayImage(np.array([[0, 0], [255, 255]], np.uint8), 1.0))
    assert eq1.pixels.ravel().tolist() == [0, 0, 255, 255]
    eq2 = equalize_histogram(GrayImage(np.array([[10, 20], [20, 30]], np.uint8), 1.0))
    assert eq2.pixels.ravel().tolist() == [0, 170, 170, 255]
    rz = resize_bilinear(GrayImage(np.array([[0, 100]], np.uint8), 1.0), PixelFrame(4, 1))
    assert rz.pixels.ravel().tolist() == [0, 25, 75, 100]
    report_line("criterion 7 (preprocessing fixtures)", started, 1.0,
                "equalization and bilinear fixtures exact")


def run_pipeline(root, seed=33):
    root.mkdir(parents=True)
    steps = [
        ["phantom", "--out-dir", str(root / "corpus"), "--count", "4", "--seed", str(seed)],
        ["equalize", "--manifest", str(root / "corpus/manifest.txt"),
         "--out-dir", str(root / "eq")],
        ["augment", "--manifest", str(root / "eq/manifest.txt"),
         "--out-dir", str(root / "aug"), "--count", "3", "--seed", str(seed)],
        ["gen-heatmaps", "--manifest", str(root / "aug/manifest.txt"),
         "--out-dir", str(root / "hmaps"), "--sigma", "1.2"],
        ["fuse", "--heatmaps-dir", str(root / "hmaps"), "--coords-dir", str(root / "aug"),
         "--out-dir", str(root / "fused"), "--prior-sigma", "6.0"],
        ["eval", "--manifest", str(root / "aug/manifest.txt"),
         "--pred-dir", str(root / "fused"), "--threshold-mm", "8",
         "--out", str(root / "report.txt")],
    ]
    for argv in steps:
        assert main(argv) == 0, f"pipeline step failed: {argv[0]}"


def test_criterion_8_pipeline_round_trip(tmp_path):
    """phantom -> equalize -> augment -> gen-heatmaps -> fuse -> eval runs
    end to end, writes a report of 132 hits in 132, and repeats byte-identically."""
    started = time.perf_counter()
    run_pipeline(tmp_path / "run1")
    run_pipeline(tmp_path / "run2")

    summary = (tmp_path / "run1/report.txt").read_text().splitlines()[2:5]
    assert summary == ["total = 132", "hits = 132", "accuracy = 1.000000"]

    compared = 0
    for f1 in sorted((tmp_path / "run1").rglob("*")):
        if not f1.is_file():
            continue
        f2 = tmp_path / "run2" / f1.relative_to(tmp_path / "run1")
        assert f2.is_file(), f"missing on rerun: {f2}"
        assert f1.read_bytes() == f2.read_bytes(), f"differs across reruns: {f1.name}"
        compared += 1
    assert compared > 50
    report_line("criterion 8 (pipeline round trip)", started, 120.0,
                f"two runs, {compared} files byte-identical, report accuracy 1.0")

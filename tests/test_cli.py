import numpy as np
import pytest

from spinefuse import cli, io
from spinefuse.cli import EXIT_INTERNAL, EXIT_IO, EXIT_OK, EXIT_VALIDATION, build_parser, main
from spinefuse.core import LandmarkSet, PixelFrame
from spinefuse.simulate import noiseless_config, write_sim_config

GRID = PixelFrame(128, 128)


def run(*argv):
    return main([str(a) for a in argv])


def make_corpus(tmp_path, count=2, seed=7):
    out = tmp_path / "corpus"
    assert run("phantom", "--out-dir", out, "--count", count, "--seed", seed,
               "--grid", 128, 128, "--chain-spacing", 10, "--wobble", 3) == EXIT_OK
    return out / "manifest.txt"


class TestPhantom:
    def test_generates_parseable_corpus(self, tmp_path):
        manifest = io.read_manifest(make_corpus(tmp_path))
        assert len(manifest.records) == 2
        img = io.read_pgm(manifest.records[0].image_path)
        assert (img.width, img.height) == (128, 128)
        lms = io.read_landmarks(manifest.records[0].landmarks_path, GRID)
        assert len(lms) == 11

    @pytest.mark.parametrize("flag, rule", [("--chain-spacing", "positive and finite"),
                                            ("--wobble", "non-negative and finite")],
                             ids=["chain-spacing", "wobble"])
    def test_non_finite_geometry_is_validation_error(self, tmp_path, capsys, flag, rule):
        assert run("phantom", "--out-dir", tmp_path, flag, "nan") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"must be {rule}, got nan" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [("--landmarks", "1" + "0" * 400),
                                       ("--grid", "512", "1" + "0" * 400)],
                             ids=["landmarks", "grid"])
    def test_huge_integer_is_validation_error(self, tmp_path, capsys, flags):
        assert run("phantom", "--out-dir", tmp_path, *flags) == EXIT_VALIDATION
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (("--landmarks", "1"), "need at least 2 landmarks, got 1"),
        (("--grid", "0", "512"), "non-positive grid: 0x512"),
    ], ids=["landmarks", "grid"])
    def test_bad_geometry_writes_nothing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        assert run("phantom", "--out-dir", out, "--count", 1, *flags) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_seed_reproducibility(self, tmp_path):
        m1 = make_corpus(tmp_path / "a")
        m2 = make_corpus(tmp_path / "b")
        r1 = io.read_manifest(m1).records[0]
        r2 = io.read_manifest(m2).records[0]
        assert r1.image_path.read_bytes() == r2.image_path.read_bytes()
        assert r1.landmarks_path.read_bytes() == r2.landmarks_path.read_bytes()


class TestEqualize:
    def test_empty_manifest_succeeds(self, tmp_path):
        src = tmp_path / "manifest.txt"
        io.write_manifest(src, io.Manifest(records=()))
        assert run("equalize", "--manifest", src, "--out-dir", tmp_path / "eq") == EXIT_OK

    def test_processes_images(self, tmp_path):
        manifest = make_corpus(tmp_path)
        out = tmp_path / "eq"
        assert run("equalize", "--manifest", manifest, "--out-dir", out) == EXIT_OK
        eq = io.read_manifest(out / "manifest.txt")
        assert len(eq.records) == 2
        img = io.read_pgm(eq.records[0].image_path)
        assert (img.width, img.height) == (128, 128)

    def test_missing_image_is_io_error(self, tmp_path):
        manifest_path = make_corpus(tmp_path)
        manifest = io.read_manifest(manifest_path)
        manifest.records[0].image_path.unlink()
        assert run("equalize", "--manifest", manifest_path,
                   "--out-dir", tmp_path / "eq") == EXIT_IO


class TestAugment:
    def test_no_copies_is_ok(self, tmp_path):
        manifest = make_corpus(tmp_path)
        out = tmp_path / "aug"
        assert run("augment", "--manifest", manifest, "--out-dir", out,
                   "--count", 0, "--seed", 3) == EXIT_OK
        assert io.read_manifest(out / "manifest.txt").records == ()

    def test_bad_ranges_write_nothing(self, tmp_path):
        manifest = make_corpus(tmp_path)
        out = tmp_path / "aug"
        assert run("augment", "--manifest", manifest, "--out-dir", out,
                   "--scale-range", 0, 1) == EXIT_VALIDATION
        assert not out.exists()

    def test_byte_identical_across_runs(self, tmp_path):
        manifest = make_corpus(tmp_path)
        args = ["augment", "--manifest", manifest, "--count", 2, "--seed", 11,
                "--ty-range", -4, 4, "--tx-range", -8, 8,
                "--angle-range", -10, 10, "--scale-range", 0.9, 1.1,
                "--working-size", 128, 128]
        assert run(*args, "--out-dir", tmp_path / "a1") == EXIT_OK
        assert run(*args, "--out-dir", tmp_path / "a2") == EXIT_OK
        for p1 in sorted((tmp_path / "a1").iterdir()):
            p2 = tmp_path / "a2" / p1.name
            if p1.name == "manifest.txt":
                continue
            assert p1.read_bytes() == p2.read_bytes()

    def test_outputs_keep_landmarks_in_frame(self, tmp_path):
        manifest = make_corpus(tmp_path)
        out = tmp_path / "aug"
        assert run("augment", "--manifest", manifest, "--out-dir", out,
                   "--count", 10, "--seed", 5, "--working-size", 128, 128,
                   "--ty-range", -4, 4, "--tx-range", -8, 8,
                   "--angle-range", -10, 10, "--scale-range", 0.9, 1.1) == EXIT_OK
        for rec in io.read_manifest(out / "manifest.txt").records:
            lms = io.read_landmarks(rec.landmarks_path, PixelFrame(128, 128))
            lms.validate_bounds()


class TestGenHeatmaps:
    def test_channel_argmax_matches_rounded_landmarks(self, tmp_path):
        manifest_path = make_corpus(tmp_path)
        out = tmp_path / "hm"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", out,
                   "--sigma", 1.2) == EXIT_OK
        from spinefuse.heatmap import decode_argmax
        for rec in io.read_manifest(manifest_path).records:
            stack = io.read_heatmap_stack(out / f"{rec.image_path.stem}.hmap")
            lms = io.read_landmarks(rec.landmarks_path, GRID)
            assert len(stack) == len(lms)
            for hm, (x, y) in zip(stack, lms.points):
                assert decode_argmax(hm) == (round(x), round(y))


class TestFuse:
    def test_priors_at_peaks_return_peaks(self, tmp_path):
        manifest_path = make_corpus(tmp_path)
        hm_dir, out = tmp_path / "hm", tmp_path / "fused"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        coords_dir = tmp_path / "corpus"
        assert run("fuse", "--heatmaps-dir", hm_dir, "--coords-dir", coords_dir,
                   "--out-dir", out, "--prior-sigma", "6.0") == EXIT_OK
        for rec in io.read_manifest(manifest_path).records:
            fused = io.read_landmarks(out / f"{rec.image_path.stem}.txt", GRID)
            gt = io.read_landmarks(rec.landmarks_path, GRID)
            np.testing.assert_allclose(fused.points, np.round(gt.points), atol=0)

    def test_channel_count_mismatch_names_both(self, tmp_path, capsys):
        manifest_path = make_corpus(tmp_path)
        hm_dir = tmp_path / "hm"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        coords_dir = tmp_path / "badcoords"
        coords_dir.mkdir()
        for rec in io.read_manifest(manifest_path).records:
            io.write_landmarks(coords_dir / f"{rec.image_path.stem}.txt",
                               LandmarkSet(np.array([[5.0, 5.0]]), PixelFrame(128, 128)))
        assert run("fuse", "--heatmaps-dir", hm_dir, "--coords-dir", coords_dir,
                   "--out-dir", tmp_path / "f") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "11" in err and "1" in err

    def test_batch_exits_with_first_failure_class(self, tmp_path, capsys):
        # stack a fails validation, stack b then fails on I/O; a comes first
        manifest_path = make_corpus(tmp_path)
        hm_dir = tmp_path / "hm"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        stacks = sorted(hm_dir.glob("*.hmap"))
        stacks[0].rename(hm_dir / "a.hmap")
        stacks[1].rename(hm_dir / "b.hmap")
        coords_dir = tmp_path / "coords"
        coords_dir.mkdir()
        io.write_landmarks(coords_dir / "a.txt", LandmarkSet(np.array([[5.0, 5.0]]), GRID))
        assert run("fuse", "--heatmaps-dir", hm_dir, "--coords-dir", coords_dir,
                   "--out-dir", tmp_path / "f") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "a.hmap" in err and "b.txt" in err

    def test_too_few_prior_sigmas_fail_each_stack_once(self, tmp_path, capsys):
        manifest_path = make_corpus(tmp_path)
        hm_dir, out = tmp_path / "hm", tmp_path / "fused"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        capsys.readouterr()
        assert run("fuse", "--heatmaps-dir", hm_dir, "--coords-dir", tmp_path / "corpus",
                   "--out-dir", out, "--prior-sigma", "6,6") == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"error: {stack}: 2 prior sigmas for 11 landmarks"
            for stack in sorted(hm_dir.glob("*.hmap"))]
        assert not list(out.iterdir())

    def test_a_coordinate_too_far_from_the_grid_fails_its_stack(self, tmp_path, capsys):
        manifest_path = make_corpus(tmp_path, count=1)
        hm_dir, out = tmp_path / "hm", tmp_path / "fused"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        (stack,) = hm_dir.glob("*.hmap")
        coords_dir = tmp_path / "coords"
        coords_dir.mkdir()
        pts = np.full((11, 2), 5.0)
        pts[3] = (5.0, 1e160)
        io.write_landmarks(coords_dir / f"{stack.stem}.txt", LandmarkSet(pts, GRID))
        capsys.readouterr()
        assert run("fuse", "--heatmaps-dir", hm_dir, "--coords-dir", coords_dir,
                   "--out-dir", out) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"error: {stack}: channel 3: coordinate (5.0, 1e+160) is too far from the grid"]
        assert not list(out.iterdir())

    def test_dump_heatmaps(self, tmp_path):
        manifest_path = make_corpus(tmp_path, count=1)
        hm_dir, out = tmp_path / "hm", tmp_path / "fused"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        assert run("fuse", "--heatmaps-dir", hm_dir, "--coords-dir", tmp_path / "corpus",
                   "--out-dir", out, "--dump-heatmaps") == EXIT_OK
        dumps = list(out.glob("*.fused.hmap"))
        assert len(dumps) == 1
        stack = io.read_heatmap_stack(dumps[0])
        assert len(stack) == 11


class TestDecode:
    def test_argmax_decode(self, tmp_path):
        manifest_path = make_corpus(tmp_path, count=1)
        hm_dir, out = tmp_path / "hm", tmp_path / "dec"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        assert run("decode", "--heatmaps-dir", hm_dir, "--out-dir", out) == EXIT_OK
        rec = io.read_manifest(manifest_path).records[0]
        decoded = io.read_landmarks(out / f"{rec.image_path.stem}.txt", GRID)
        gt = io.read_landmarks(rec.landmarks_path, GRID)
        np.testing.assert_allclose(decoded.points, np.round(gt.points))


class TestEval:
    def test_perfect_predictions(self, tmp_path, capsys):
        manifest_path = make_corpus(tmp_path)
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        for rec in io.read_manifest(manifest_path).records:
            pred_dir.joinpath(rec.landmarks_path.name).write_bytes(
                rec.landmarks_path.read_bytes()
            )
        out = tmp_path / "report.txt"
        assert run("eval", "--manifest", manifest_path, "--pred-dir", pred_dir,
                   "--threshold-mm", 8, "--out", out) == EXIT_OK
        summary = ["total = 22", "hits = 22", "accuracy = 1.000000"]
        assert out.read_text().splitlines()[2:5] == summary
        assert "accuracy = 1.000000" in capsys.readouterr().out

    def test_missing_prediction_is_io_error(self, tmp_path):
        manifest_path = make_corpus(tmp_path)
        empty = tmp_path / "nopreds"
        empty.mkdir()
        assert run("eval", "--manifest", manifest_path, "--pred-dir", empty) == EXIT_IO

    def test_empty_manifest_is_validation_error(self, tmp_path):
        src = tmp_path / "manifest.txt"
        io.write_manifest(src, io.Manifest(records=()))
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        assert run("eval", "--manifest", src, "--pred-dir", pred_dir) == EXIT_VALIDATION


class TestSimulate:
    def test_noiseless_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sim.txt"
        write_sim_config(cfg, noiseless_config(images=3))
        assert run("simulate", "--config", cfg, "--seed", 9) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("accuracy = 1.000000") == 3

    def test_same_seed_same_report(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        write_sim_config(cfg, noiseless_config(images=3))
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert run("simulate", "--config", cfg, "--seed", 9, "--out", out1) == EXIT_OK
        assert run("simulate", "--config", cfg, "--seed", 9, "--out", out2) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_preset_noiseless(self, capsys):
        assert run("simulate", "--preset", "noiseless", "--seed", 1) == EXIT_OK
        assert "fused" in capsys.readouterr().out


def _sim_config(tmp_path, old, new):
    path = tmp_path / "sim.txt"
    write_sim_config(path, noiseless_config(images=1))
    path.write_bytes(path.read_bytes().replace(old, new))
    return ["simulate", "--config", path], path


def _bad_prediction(tmp_path):
    manifest_path = make_corpus(tmp_path)
    pred_dir = tmp_path / "preds"
    pred_dir.mkdir()
    for rec in io.read_manifest(manifest_path).records:
        pred_dir.joinpath(rec.landmarks_path.name).write_bytes(rec.landmarks_path.read_bytes())
    bad = pred_dir / "phantom_001.txt"
    bad.write_bytes(bad.read_bytes() + b"# \xc3\xa9\n")
    return ["eval", "--manifest", manifest_path, "--pred-dir", pred_dir], bad


def _bad_manifest(tmp_path, old, new):
    manifest_path = make_corpus(tmp_path)
    manifest_path.write_bytes(manifest_path.read_bytes().replace(old, new, 1))
    return ["equalize", "--manifest", manifest_path, "--out-dir", tmp_path / "eq"], manifest_path


def _bad_coords(tmp_path):
    manifest_path = make_corpus(tmp_path, count=1)
    hm_dir = tmp_path / "hm"
    assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
    coords = tmp_path / "corpus" / "phantom_000.txt"
    coords.write_bytes(coords.read_bytes() + b"# \xff\n")
    return ["fuse", "--heatmaps-dir", hm_dir, "--coords-dir", tmp_path / "corpus",
            "--out-dir", tmp_path / "f"], coords


def _corrupt_stack(tmp_path):
    manifest_path = make_corpus(tmp_path, count=1)
    hm_dir = tmp_path / "hm"
    assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
    stack = next(hm_dir.glob("*.hmap"))
    stack.write_bytes(b"not a stack")
    return ["decode", "--heatmaps-dir", hm_dir, "--out-dir", tmp_path / "d"], stack


def _truncated_pgm(tmp_path):
    manifest_path = make_corpus(tmp_path, count=1)
    image = io.read_manifest(manifest_path).records[0].image_path
    image.write_bytes(image.read_bytes()[:100])
    return ["equalize", "--manifest", manifest_path, "--out-dir", tmp_path / "eq"], image


class TestMalformedInput:
    """A malformed file exits 4 and names itself, without a traceback."""

    @pytest.mark.parametrize("case", [
        lambda t: _sim_config(t, b"landmarks = 11", b"landmarks = abc"),
        lambda t: _sim_config(t, b"images = 1", b"images = x"),
        lambda t: _sim_config(t, b"[run]", b"# \xff\n[run]"),
        _bad_prediction,
        lambda t: _bad_manifest(t, b"[images]", b"# \xff\n[images]"),
        lambda t: _bad_manifest(t, b"phantom_000.pgm", b"phantom_\x00000.pgm"),
        _bad_coords,
        lambda t: _sim_config(t, b"chain_spacing_px = 40.0", b"chain_spacing_px = nan"),
        lambda t: _sim_config(t, b"wobble_px = 6.0", b"wobble_px = nan"),
        lambda t: _sim_config(t, b"spacing_mm_per_px = 0.5", b"spacing_mm_per_px = nan"),
        lambda t: _sim_config(t, b"spacing_mm_per_px = 0.5", b"spacing_mm_per_px = inf"),
        # 1000 landmarks 40 px apart do not fit the 512 px grid
        lambda t: _sim_config(t, b"landmarks = 11", b"landmarks = 1000"),
        # integers too large for a float
        lambda t: _sim_config(t, b"landmarks = 11", b"landmarks = 1" + b"0" * 400),
        lambda t: _sim_config(t, b"grid = 512 512", b"grid = 512 1" + b"0" * 400),
        lambda t: _sim_config(t, b"grid = 512 512", b"grid = 1" + b"0" * 400 + b" 512"),
    ], ids=["sim-int", "sim-images", "sim-not-utf8", "eval-non-ascii",
            "manifest-not-utf8", "manifest-nul-path", "fuse-coords-non-ascii",
            "sim-chain-spacing-nan", "sim-wobble-nan", "sim-spacing-nan", "sim-spacing-inf",
            "sim-chain-does-not-fit", "sim-landmarks-huge", "sim-height-huge",
            "sim-width-huge"])
    def test_exits_validation_naming_the_file(self, tmp_path, capsys, case):
        argv, bad = case(tmp_path)
        capsys.readouterr()
        assert run(*argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", [_corrupt_stack, _truncated_pgm],
                             ids=["decode", "equalize"])
    def test_batch_error_names_the_file_once(self, tmp_path, capsys, case):
        argv, bad = case(tmp_path)
        capsys.readouterr()
        assert run(*argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.count(str(bad)) == 1

    def test_internal_error_in_batch_item_exits_internal(self, tmp_path, capsys, monkeypatch):
        manifest_path = make_corpus(tmp_path, count=1)
        hm_dir = tmp_path / "hm"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK

        def broken(hm):
            raise IndexError("broken decoder")
        monkeypatch.setattr(cli, "decode_argmax", broken)
        assert run("decode", "--heatmaps-dir", hm_dir, "--out-dir", tmp_path / "d") == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "IndexError" in next(ln for ln in err.splitlines() if ln.startswith("error:"))

    @pytest.mark.parametrize("command", [["fuse", "--coords-dir", "c"], ["decode"]],
                             ids=["fuse", "decode"])
    def test_no_stacks_writes_nothing(self, tmp_path, capsys, command):
        empty, out = tmp_path / "empty", tmp_path / "out"
        empty.mkdir()
        assert run(*command, "--heatmaps-dir", empty, "--out-dir", out) == EXIT_VALIDATION
        assert f"error: no .hmap files in {empty}" in capsys.readouterr().err
        assert not out.exists()


class TestJobsFlag:
    def test_parallel_equalize_matches_serial(self, tmp_path):
        manifest = make_corpus(tmp_path, count=4)
        assert run("equalize", "--manifest", manifest, "--out-dir", tmp_path / "s") == EXIT_OK
        assert run("equalize", "--manifest", manifest, "--out-dir", tmp_path / "p",
                   "--jobs", 4) == EXIT_OK
        for f in sorted((tmp_path / "s").iterdir()):
            if f.name == "manifest.txt":
                continue
            assert f.read_bytes() == (tmp_path / "p" / f.name).read_bytes()

    def test_the_whole_chain_writes_the_same_bytes_at_any_jobs(self, tmp_path):
        # phantom, then every --jobs stage; manifests hold relative paths, so
        # two trees built under different roots compare file for file
        trees = []
        for jobs in (1, 2):
            root = tmp_path / f"jobs{jobs}"
            manifest = make_corpus(root, count=2)
            for step in [
                ["equalize", "--manifest", manifest, "--out-dir", root / "eq"],
                ["augment", "--manifest", root / "eq" / "manifest.txt", "--out-dir", root / "aug",
                 "--count", 2, "--seed", 7, "--working-size", 128, 128, "--ty-range", -4, 4,
                 "--tx-range", -8, 8, "--angle-range", -10, 10, "--scale-range", 0.9, 1.1],
                ["gen-heatmaps", "--manifest", root / "aug" / "manifest.txt",
                 "--out-dir", root / "hmaps", "--sigma", 1.2],
                ["fuse", "--heatmaps-dir", root / "hmaps", "--coords-dir", root / "aug",
                 "--out-dir", root / "fused", "--prior-sigma", 6, "--decode", "centroid",
                 "--dump-heatmaps"],
                ["decode", "--heatmaps-dir", root / "fused", "--out-dir", root / "decoded",
                 "--method", "centroid"],
            ]:
                assert run(*step, "--jobs", jobs) == EXIT_OK
            trees.append({p.relative_to(root): p.read_bytes()
                          for p in sorted(root.rglob("*")) if p.is_file()})
        serial, parallel = trees
        assert sorted(serial) == sorted(parallel)
        assert len([p for p in serial if p.name.endswith(".fused.hmap")]) == 4
        for path, data in serial.items():
            assert data == parallel[path], path


class TestFlags:
    REQUIRED = {
        "phantom": ["--out-dir", "o"],
        "equalize": ["--manifest", "m", "--out-dir", "o"],
        "augment": ["--manifest", "m", "--out-dir", "o"],
        "gen-heatmaps": ["--manifest", "m", "--out-dir", "o"],
        "fuse": ["--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o"],
        "decode": ["--heatmaps-dir", "h", "--out-dir", "o"],
        "eval": ["--manifest", "m", "--pred-dir", "p"],
        "simulate": [],
    }
    TAKEN_BY = {
        "--seed": {"phantom", "augment", "simulate"},
        "--jobs": {"equalize", "augment", "gen-heatmaps", "fuse", "decode"},
        "--config": {"simulate"},
    }

    @pytest.mark.parametrize("argv", [
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--prior-sigma", "abc"],
        ["decode", "--heatmaps-dir", "h", "--out-dir", "o", "--method", "centroid",
         "--window", "2"],
        ["decode", "--heatmaps-dir", "h", "--out-dir", "o", "--method", "centroid",
         "--window", "0"],
        ["eval", "--manifest", "m", "--pred-dir", "p", "--threshold-mm", "nan"],
        ["eval", "--manifest", "m", "--pred-dir", "p", "--threshold-mm", "inf"],
        ["eval", "--manifest", "m", "--pred-dir", "p", "--threshold-mm", "-1"],
        ["eval", "--manifest", "m", "--pred-dir", "p", "--threshold-mm", "0"],
        ["gen-heatmaps", "--manifest", "m", "--out-dir", "o", "--sigma", "0"],
        ["gen-heatmaps", "--manifest", "m", "--out-dir", "o", "--sigma", "nan"],
        # 2*sigma*sigma underflows to 0 below about 1.5e-162
        ["gen-heatmaps", "--manifest", "m", "--out-dir", "o", "--sigma", "1e-170"],
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--prior-sigma", "1e-170"],
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--prior-sigma", "6,1e-170"],
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--floor-epsilon", "0"],
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--floor-epsilon", "-1"],
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--floor-epsilon", "nan"],
        ["phantom", "--out-dir", "o", "--count", "-3"],
        ["augment", "--manifest", "m", "--out-dir", "o", "--count", "-2"],
        # an integer too large for the float check
        ["phantom", "--out-dir", "o", "--count", "1" + "0" * 400],
        ["equalize", "--manifest", "m", "--out-dir", "o", "--jobs", "0"],
        ["augment", "--manifest", "m", "--out-dir", "o", "--jobs", "-4"],
        ["gen-heatmaps", "--manifest", "m", "--out-dir", "o", "--jobs", "0"],
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--jobs", "-4"],
        ["decode", "--heatmaps-dir", "h", "--out-dir", "o", "--jobs", "0"],
        ["augment", "--manifest", "m", "--out-dir", "o", "--working-size", "0", "0"],
        ["augment", "--manifest", "m", "--out-dir", "o", "--working-size", "64", "-1"],
        # seeds outside Rng's 64-bit unsigned range
        ["phantom", "--out-dir", "o", "--seed", "-1"],
        ["phantom", "--out-dir", "o", "--seed", "18446744073709551616"],
        ["augment", "--manifest", "m", "--out-dir", "o", "--seed", "-1"],
        ["augment", "--manifest", "m", "--out-dir", "o", "--seed", "18446744073709551616"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--seed", "18446744073709551616"],
        # no prior sigma at all
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--prior-sigma", ","],
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--prior-sigma", ""],
        # an empty entry in a per-landmark list
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--prior-sigma", ",6"],
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--prior-sigma", "6,,7"],
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--prior-sigma", "6,7,"],
        # a flag the command would ignore
        ["simulate", "--config", "f", "--preset", "noiseless"],
        ["simulate", "--preset", "calibrated", "--config", "f"],
        ["decode", "--heatmaps-dir", "h", "--out-dir", "o", "--window", "5"],
        ["decode", "--heatmaps-dir", "h", "--out-dir", "o", "--method", "argmax",
         "--window", "3"],
    ])
    def test_bad_flag_value_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        flag = next(a for a in reversed(argv) if a.startswith("--"))
        assert f"argument {flag}" in capsys.readouterr().err

    def test_window_message_is_the_library_rule(self, capsys):
        with pytest.raises(SystemExit):
            main(["decode", "--heatmaps-dir", "h", "--out-dir", "o", "--window", "4"])
        err = capsys.readouterr().err
        assert "argument --window: window must be odd and positive, got 4" in err

    @pytest.mark.parametrize("flag", sorted(TAKEN_BY))
    @pytest.mark.parametrize("command", sorted(REQUIRED))
    def test_subcommand_rejects_flags_it_ignores(self, command, flag, capsys):
        argv = [command, *self.REQUIRED[command], flag, "1"]
        if command in self.TAKEN_BY[flag]:
            assert build_parser().parse_args(argv).command == command
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

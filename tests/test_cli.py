import errno
import hashlib
import os
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spinefuse import cli, fusion, io
from spinefuse.cli import EXIT_INTERNAL, EXIT_IO, EXIT_OK, EXIT_VALIDATION, build_parser, main
from spinefuse.core import LandmarkSet, PixelFrame
from spinefuse.fusion import FusionConfig
from spinefuse.geometry import AugmentationRanges
from spinefuse.heatmap import Heatmap
from spinefuse.simulate import PhantomConfig, calibrated_config, noiseless_config
from sim_config import SIM_CONFIG

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
        assert (img.frame.width, img.frame.height) == (128, 128)
        lms = io.read_landmarks(manifest.records[0].landmarks_path, GRID, 11)
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
        (("--wobble", "300"), "wobble 300.0px exceeds the frame"),
        (("--chain-spacing", "0.4"), "chain spacing too small: rows collide after rounding"),
    ], ids=["landmarks", "grid", "wobble", "chain-spacing"])
    def test_bad_geometry_writes_nothing(self, tmp_path, capsys, flags, message):
        out = tmp_path / "o"
        assert run("phantom", "--out-dir", out, "--count", 1, *flags) == EXIT_VALIDATION
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_no_geometry_flags_build_the_default_config(self, tmp_path, monkeypatch):
        configs, generate = [], cli.generate_phantom
        monkeypatch.setattr(cli, "generate_phantom", lambda rng, config:
                            configs.append(config) or generate(rng, config))
        assert run("phantom", "--out-dir", tmp_path, "--count", 1) == EXIT_OK
        assert configs == [PhantomConfig()]

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
        io.write_manifest(src, io.Manifest(records=(), landmark_count=11,
                                           working_size=PixelFrame(512, 512)))
        assert run("equalize", "--manifest", src, "--out-dir", tmp_path / "eq") == EXIT_OK

    def test_processes_images(self, tmp_path):
        manifest = make_corpus(tmp_path)
        out = tmp_path / "eq"
        assert run("equalize", "--manifest", manifest, "--out-dir", out) == EXIT_OK
        eq = io.read_manifest(out / "manifest.txt")
        assert len(eq.records) == 2
        img = io.read_pgm(eq.records[0].image_path)
        assert (img.frame.width, img.frame.height) == (128, 128)

    # a record whose path holds '=' is a row of [images], not a key
    def test_a_record_path_holding_equals_is_processed(self, tmp_path, capsys):
        manifest = io.read_manifest(make_corpus(tmp_path))
        rec = manifest.records[1]
        renamed = io.ManifestRecord(rec.image_path.rename(rec.image_path.with_name("ph=1.pgm")),
                                    rec.landmarks_path.rename(
                                        rec.landmarks_path.with_name("ph=1.txt")),
                                    rec.spacing_mm_per_px)
        src = tmp_path / "manifest.txt"
        io.write_manifest(src, replace(manifest, records=(manifest.records[0], renamed)))
        capsys.readouterr()
        assert run("equalize", "--manifest", src, "--out-dir", tmp_path / "eq") == EXIT_OK
        assert "equalized 2/2 images" in capsys.readouterr().out
        assert len(io.read_manifest(tmp_path / "eq" / "manifest.txt").records) == 2

    # a malformed landmark file fails its item, named by that file, before
    # the item's image is written; the other item's files are copied as is
    @pytest.mark.parametrize("text, message", [
        ("#count=2\n0,1.0,2.0\n1,x,4\n", "line 3: '1,x,4'"),
        ("#count=2\n0,1.0,2.0\n1,3.0,4.0\n", "2 landmarks, expected 11"),
    ], ids=["bad-line", "other-count"])
    def test_a_malformed_landmark_file_fails_its_item(self, tmp_path, capsys, text, message):
        manifest_path = make_corpus(tmp_path)
        first, second = io.read_manifest(manifest_path).records
        first.landmarks_path.write_text(text)
        out = tmp_path / "eq"
        capsys.readouterr()
        assert run("equalize", "--manifest", manifest_path, "--out-dir", out) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {first.landmarks_path}: {message}\n"
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.txt", second.image_path.name, second.landmarks_path.name]
        assert ((out / second.landmarks_path.name).read_bytes()
                == second.landmarks_path.read_bytes())

    def test_missing_image_is_io_error(self, tmp_path):
        manifest_path = make_corpus(tmp_path)
        manifest = io.read_manifest(manifest_path)
        manifest.records[0].image_path.unlink()
        assert run("equalize", "--manifest", manifest_path,
                   "--out-dir", tmp_path / "eq") == EXIT_IO

    # an I/O error that names no file is named by its item's image; the other
    # item is still written, and the failed write leaves no temp file
    def test_an_io_error_naming_no_file_starts_with_its_item(self, tmp_path, capsys,
                                                             monkeypatch):
        manifest_path = make_corpus(tmp_path)
        first, second = io.read_manifest(manifest_path).records
        out = tmp_path / "eq"
        write = io.atomic_write

        def full_disk(path, data):
            if path != out / first.image_path.name:
                return write(path, data)
            with io._atomic_file(path) as f:
                f.write(data[:4])
                raise OSError(errno.ENOSPC, "No space left on device")
        monkeypatch.setattr(io, "atomic_write", full_disk)
        capsys.readouterr()
        assert run("equalize", "--manifest", manifest_path, "--out-dir", out) == EXIT_IO
        assert capsys.readouterr().err == (f"error: {first.image_path}: "
                                           f"[Errno {errno.ENOSPC}] No space left on device\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.txt", second.image_path.name, second.landmarks_path.name]
        assert [r.image_path.name for r in io.read_manifest(out / "manifest.txt").records] == [
            second.image_path.name]
        assert not list(tmp_path.rglob("*.tmp"))


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

    def test_no_range_flags_build_the_default_ranges(self, tmp_path, monkeypatch):
        assert run("phantom", "--out-dir", tmp_path / "corpus", "--count", 1) == EXIT_OK
        ranges, sample = [], cli.sample_valid_augmentation
        monkeypatch.setattr(cli, "sample_valid_augmentation", lambda rng, r, *rest:
                            ranges.append(r) or sample(rng, r, *rest))
        assert run("augment", "--manifest", tmp_path / "corpus" / "manifest.txt",
                   "--out-dir", tmp_path / "aug") == EXIT_OK
        assert ranges == [AugmentationRanges()]

    # a manifest states its grid: augment does not resample to a default one
    def test_a_manifest_without_its_working_size_is_refused(self, tmp_path, capsys):
        manifest = make_corpus(tmp_path)
        manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                    if not line.startswith("working_size")))
        out = tmp_path / "aug"
        capsys.readouterr()
        assert run("augment", "--manifest", manifest, "--out-dir", out) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {manifest}: missing key 'working_size'\n"
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

    def test_default_pipeline_bytes_are_pinned(self, tmp_path):
        # any inexact warp or resample fails here, not only in bench digests
        assert run("phantom", "--out-dir", tmp_path / "corpus", "--count", 2,
                   "--seed", 7) == EXIT_OK
        assert run("equalize", "--manifest", tmp_path / "corpus" / "manifest.txt",
                   "--out-dir", tmp_path / "eq") == EXIT_OK
        assert run("augment", "--manifest", tmp_path / "eq" / "manifest.txt",
                   "--out-dir", tmp_path / "aug", "--count", 4, "--seed", 7) == EXIT_OK
        pgms = sorted((tmp_path / "aug").glob("*.pgm"))
        assert len(pgms) == 8
        assert hashlib.sha256(b"".join(p.read_bytes() for p in pgms)).hexdigest() == (
            "1ceb11b096685f4863b601dc1b42e3efe624d7747652faa372352cdacd258d6f")

    # an overflowing determinant warns nothing, which CI's warning filter
    # would turn into exit 5: the sampler gives up, or the matrix is refused
    @pytest.mark.parametrize("scale, message", [
        (1e100, "no augmentation kept all landmarks in frame after 100 tries"),
        (1e200, "no augmentation kept all landmarks in frame after 100 tries"),
        (1e307, "affine matrix must be finite"),
    ])
    def test_a_huge_scale_fails_each_item_without_a_warning(self, tmp_path, capsys, scale,
                                                            message):
        manifest = make_corpus(tmp_path, count=1)
        image = io.read_manifest(manifest).records[0].image_path
        capsys.readouterr()
        assert run("augment", "--manifest", manifest, "--out-dir", tmp_path / "aug",
                   "--scale-range", scale, scale) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == f"error: {image}: {message}\n" and "Warning" not in err

    def test_outputs_keep_landmarks_in_frame(self, tmp_path):
        manifest = make_corpus(tmp_path)
        out = tmp_path / "aug"
        assert run("augment", "--manifest", manifest, "--out-dir", out,
                   "--count", 10, "--seed", 5, "--working-size", 128, 128,
                   "--ty-range", -4, 4, "--tx-range", -8, 8,
                   "--angle-range", -10, 10, "--scale-range", 0.9, 1.1) == EXIT_OK
        for rec in io.read_manifest(out / "manifest.txt").records:
            lms = io.read_landmarks(rec.landmarks_path, PixelFrame(128, 128), 11)
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
            lms = io.read_landmarks(rec.landmarks_path, GRID, 11)
            assert len(stack) == len(lms)
            for hm, (x, y) in zip(stack, lms.points):
                assert decode_argmax(hm) == (round(x), round(y))


    def test_labels_take_the_image_grid_not_the_working_size(self, tmp_path):
        corpus = tmp_path / "corpus"
        assert run("phantom", "--out-dir", corpus, "--count", 2, "--seed", 7,
                   "--grid", 128, 96, "--chain-spacing", 8, "--wobble", 2) == EXIT_OK
        manifest_path = corpus / "manifest.txt"
        manifest = io.read_manifest(manifest_path)
        io.write_manifest(manifest_path, replace(manifest, working_size=PixelFrame(512, 512)))
        out = tmp_path / "hm"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", out) == EXIT_OK
        for rec in manifest.records:
            stack = io.read_heatmap_stack(out / f"{rec.image_path.stem}.hmap")
            assert {hm.frame for hm in stack} == {PixelFrame(128, 96)}

    def test_a_missing_image_fails_only_its_item(self, tmp_path, capsys):
        manifest_path = make_corpus(tmp_path)
        first, second = io.read_manifest(manifest_path).records
        first.image_path.unlink()
        out = tmp_path / "hm"
        capsys.readouterr()
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", out) == EXIT_IO
        assert capsys.readouterr().err == (
            f"error: {first.image_path}: [Errno 2] No such file or directory\n")
        assert [p.name for p in out.iterdir()] == [f"{second.image_path.stem}.hmap"]


class TestFuse:
    def test_priors_at_peaks_return_peaks(self, tmp_path):
        manifest_path = make_corpus(tmp_path)
        hm_dir, out = tmp_path / "hm", tmp_path / "fused"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        coords_dir = tmp_path / "corpus"
        assert run("fuse", "--heatmaps-dir", hm_dir, "--coords-dir", coords_dir,
                   "--out-dir", out, "--prior-sigma", "6.0") == EXIT_OK
        for rec in io.read_manifest(manifest_path).records:
            fused = io.read_landmarks(out / f"{rec.image_path.stem}.txt", GRID, 11)
            gt = io.read_landmarks(rec.landmarks_path, GRID, 11)
            np.testing.assert_allclose(fused.points, np.round(gt.points), atol=0)

    def test_channel_count_mismatch_names_both(self, tmp_path, capsys):
        manifest_path = make_corpus(tmp_path)
        hm_dir = tmp_path / "hm"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        coords_dir = tmp_path / "badcoords"
        coords_dir.mkdir()
        for rec in io.read_manifest(manifest_path).records:
            io.write_landmarks(coords_dir / f"{rec.image_path.stem}.txt",
                               LandmarkSet(np.full((10, 2), 5.0), PixelFrame(128, 128)))
        capsys.readouterr()
        assert run("fuse", "--heatmaps-dir", hm_dir, "--coords-dir", coords_dir,
                   "--out-dir", tmp_path / "f") == EXIT_VALIDATION
        # the line starts with the coordinate file, which holds the wrong count
        assert capsys.readouterr().err.splitlines() == [
            f"error: {coords_dir / stack.stem}.txt: 10 landmarks, expected 11"
            for stack in sorted(hm_dir.glob("*.hmap"))]

    def test_no_fusion_flags_build_the_default_config(self, tmp_path, monkeypatch):
        manifest_path = make_corpus(tmp_path, count=1)
        hm_dir = tmp_path / "hm"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        configs, fuse_batch = [], cli.fuse_batch
        monkeypatch.setattr(cli, "fuse_batch", lambda stack, coords, cfg, **kw:
                            configs.append(cfg) or fuse_batch(stack, coords, cfg, **kw))
        assert run("fuse", "--heatmaps-dir", hm_dir, "--coords-dir", tmp_path / "corpus",
                   "--out-dir", tmp_path / "f") == EXIT_OK
        assert configs == [FusionConfig()]

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
        assert "a.txt" in err and "b.txt" in err

    @pytest.mark.parametrize("widths", [2, 12])
    def test_another_count_of_prior_sigmas_fails_each_stack_once(self, tmp_path, capsys,
                                                                  widths):
        manifest_path = make_corpus(tmp_path)
        hm_dir, out = tmp_path / "hm", tmp_path / "fused"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        capsys.readouterr()
        assert run("fuse", "--heatmaps-dir", hm_dir, "--coords-dir", tmp_path / "corpus",
                   "--out-dir", out, "--prior-sigma", ",".join(["6"] * widths)) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"error: {stack}: {widths} prior sigmas for 11 landmarks"
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


    @pytest.mark.parametrize("decode", ["argmax", "centroid"])
    def test_dumps_and_points_come_from_one_fusion(self, tmp_path, monkeypatch, decode):
        # the landmarks written with dumps are those written without, and
        # no channel is fused a second time through fuse_and_decode
        manifest_path = make_corpus(tmp_path, count=2)
        hm_dir = tmp_path / "hm"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        fuse = ("fuse", "--heatmaps-dir", hm_dir, "--coords-dir", tmp_path / "corpus",
                "--decode", decode)
        assert run(*fuse, "--out-dir", tmp_path / "plain") == EXIT_OK
        monkeypatch.setattr(fusion, "fuse_and_decode", None)
        assert run(*fuse, "--out-dir", tmp_path / "dumped", "--dump-heatmaps") == EXIT_OK
        for txt in (tmp_path / "plain").iterdir():
            assert (tmp_path / "dumped" / txt.name).read_bytes() == txt.read_bytes()
        assert len(list((tmp_path / "dumped").glob("*.fused.hmap"))) == 2

class TestDecode:
    def test_argmax_decode(self, tmp_path):
        manifest_path = make_corpus(tmp_path, count=1)
        hm_dir, out = tmp_path / "hm", tmp_path / "dec"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        assert run("decode", "--heatmaps-dir", hm_dir, "--out-dir", out) == EXIT_OK
        rec = io.read_manifest(manifest_path).records[0]
        decoded = io.read_landmarks(out / f"{rec.image_path.stem}.txt", GRID, 11)
        gt = io.read_landmarks(rec.landmarks_path, GRID, 11)
        np.testing.assert_allclose(decoded.points, np.round(gt.points))

    # one centroid rule: decode --method centroid of fuse's dump X.fused.hmap
    # gives fuse --decode centroid's points, within the bench's 1e-3 px. The
    # coordinates are the true landmarks, or a second augmentation's, which
    # share the stems and move the fused points off the label peaks
    @pytest.mark.parametrize("coord_seed", [7, 8], ids=["true-landmarks", "second-augment"])
    def test_a_fused_dump_decodes_to_the_fused_points(self, tmp_path, coord_seed):
        manifest = make_corpus(tmp_path, count=2)
        augment = ["augment", "--manifest", manifest, "--count", 2, "--working-size", 128, 128,
                   "--ty-range", -4, 4, "--tx-range", -8, 8, "--angle-range", -10, 10]
        for seed in {7, coord_seed}:
            assert run(*augment, "--out-dir", tmp_path / f"aug{seed}", "--seed", seed) == EXIT_OK
        fused, decoded = tmp_path / "fused", tmp_path / "decoded"
        for step in [
            ["gen-heatmaps", "--manifest", tmp_path / "aug7" / "manifest.txt",
             "--out-dir", tmp_path / "hmaps"],
            ["fuse", "--heatmaps-dir", tmp_path / "hmaps", "--coords-dir",
             tmp_path / f"aug{coord_seed}", "--out-dir", fused, "--decode", "centroid",
             "--dump-heatmaps"],
            ["decode", "--heatmaps-dir", fused, "--out-dir", decoded, "--method", "centroid"],
        ]:
            assert run(*step) == EXIT_OK
        points = sorted(fused.glob("*.txt"))
        assert len(points) == 4
        moved = 0
        for path in points:
            want = io.read_landmarks(path, GRID, 11).points
            got = io.read_landmarks(decoded / f"{path.stem}.fused.txt", GRID, 11).points
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-3, err_msg=path.name)
            truth = io.read_landmarks(tmp_path / "aug7" / path.name, GRID, 11).points
            moved += int(np.sum(np.hypot(*(want - truth).T) > 0.5))
        assert (moved > 0) == (coord_seed != 7), moved

    # as fuse does, decode names the channel it cannot decode
    @pytest.mark.parametrize("method", ["argmax", "centroid"])
    def test_an_all_zero_channel_is_named(self, tmp_path, capsys, method):
        hm_dir, out = tmp_path / "hm", tmp_path / "dec"
        hm_dir.mkdir()
        stack = hm_dir / "s.hmap"
        peak = np.zeros((8, 8))
        peak[2, 3] = 1.0
        io.write_heatmap_stack(stack, [Heatmap(peak), Heatmap(np.zeros((8, 8))), Heatmap(peak)])
        capsys.readouterr()
        assert run("decode", "--heatmaps-dir", hm_dir, "--out-dir", out,
                   "--method", method) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"error: {stack}: channel 1: cannot decode an all-zero heatmap"]
        assert not list(out.iterdir())


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

    # eval reads no image, so a corpus without them scores as it did with them
    def test_a_corpus_without_its_images_gives_the_same_report(self, tmp_path, capsys):
        manifest_path = make_corpus(tmp_path)
        argv = ["eval", "--manifest", manifest_path, "--pred-dir", manifest_path.parent]
        assert run(*argv, "--out", tmp_path / "with.txt") == EXIT_OK
        for rec in io.read_manifest(manifest_path).records:
            rec.image_path.unlink()
        assert run(*argv, "--out", tmp_path / "without.txt") == EXIT_OK
        assert (tmp_path / "without.txt").read_bytes() == (tmp_path / "with.txt").read_bytes()
        assert capsys.readouterr().err == ""

    def test_missing_prediction_is_io_error(self, tmp_path):
        manifest_path = make_corpus(tmp_path)
        empty = tmp_path / "nopreds"
        empty.mkdir()
        assert run("eval", "--manifest", manifest_path, "--pred-dir", empty) == EXIT_IO

    def test_empty_manifest_is_validation_error(self, tmp_path, capsys):
        src = tmp_path / "manifest.txt"
        io.write_manifest(src, io.Manifest(records=(), landmark_count=11,
                                           working_size=PixelFrame(512, 512)))
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        assert run("eval", "--manifest", src, "--pred-dir", pred_dir) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {src}: no landmarks to evaluate\n"

    def test_zero_landmark_manifest_is_validation_error(self, tmp_path, capsys):
        manifest_path = make_corpus(tmp_path, count=1)
        # the file agrees with the manifest, so only the empty score can fail
        manifest_path.write_text(manifest_path.read_text().replace(
            "landmark_count = 11", "landmark_count = 0"))
        manifest_path.with_name("phantom_000.txt").write_text("#count=0\n")
        capsys.readouterr()
        assert run("eval", "--manifest", manifest_path,
                   "--pred-dir", manifest_path.parent) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {manifest_path}: no landmarks to evaluate\n"

    @pytest.mark.parametrize("short", ["prediction", "ground truth"])
    def test_short_landmark_file_fails_with_its_path(self, tmp_path, capsys, short):
        manifest_path = make_corpus(tmp_path)
        pred_dir = tmp_path / "preds"
        pred_dir.mkdir()
        records = io.read_manifest(manifest_path).records
        for rec in records:
            pred_dir.joinpath(rec.landmarks_path.name).write_bytes(rec.landmarks_path.read_bytes())
        gt_path = records[1].landmarks_path
        lms = io.read_landmarks(gt_path, GRID, 11)
        # a short ground truth with its copy as the prediction pairs up, so
        # only the manifest's count can tell
        cut = [pred_dir / gt_path.name] + ([gt_path] if short == "ground truth" else [])
        for path in cut:
            io.write_landmarks(path, LandmarkSet(lms.points[:10], GRID))
        assert run("eval", "--manifest", manifest_path, "--pred-dir", pred_dir) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {cut[-1]}: 10 landmarks, expected 11\n"


    # under CI's error::RuntimeWarning filter an overflow warning exits 5
    @pytest.mark.parametrize("spacing", [0.5, 10.0])
    def test_predictions_beyond_the_float_range_warn_nothing(self, tmp_path, capsys, spacing):
        manifest_path = make_corpus(tmp_path, count=3)
        manifest = io.read_manifest(manifest_path)
        io.write_manifest(manifest_path, replace(manifest, records=tuple(
            replace(rec, spacing_mm_per_px=spacing) for rec in manifest.records)))
        pred_dir = tmp_path / "far"
        pred_dir.mkdir()
        far = np.array([[(-1.0) ** k * 1e308, 1e308] for k in range(11)])
        for rec in manifest.records:
            io.write_landmarks(pred_dir / rec.landmarks_path.name, LandmarkSet(far, GRID))
        capsys.readouterr()
        assert run("eval", "--manifest", manifest_path, "--pred-dir", pred_dir) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        assert (", inf, inf" in out) == (spacing == 10.0)


class TestSimulate:
    def test_noiseless_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG.format(images=3))
        assert run("simulate", "--config", cfg, "--seed", 9) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("accuracy = 1.000000") == 3

    def test_same_seed_same_report(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG.format(images=3))
        out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
        assert run("simulate", "--config", cfg, "--seed", 9, "--out", out1) == EXIT_OK
        assert run("simulate", "--config", cfg, "--seed", 9, "--out", out2) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_preset_noiseless(self, capsys):
        assert run("simulate", "--preset", "noiseless", "--seed", 1) == EXIT_OK
        assert "fused" in capsys.readouterr().out

    def test_no_source_flags_build_the_default_config(self, monkeypatch):
        # the calibrated trial is recorded, and a one-image noiseless one is run
        configs, run_trial = [], cli.run_trial
        monkeypatch.setattr(cli, "run_trial", lambda rng, config:
                            configs.append(config) or run_trial(rng, noiseless_config(images=1)))
        assert run("simulate") == EXIT_OK
        assert configs == [calibrated_config()]


def _sim_config(tmp_path, old, new):
    path = tmp_path / "sim.txt"
    data = SIM_CONFIG.format(images=1).encode()
    assert old in data
    path.write_bytes(data.replace(old, new))
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


def _short_ground_truth(command):
    def case(tmp_path):
        manifest_path = make_corpus(tmp_path, count=1)
        gt = io.read_manifest(manifest_path).records[0].landmarks_path
        io.write_landmarks(gt, LandmarkSet(io.read_landmarks(gt, GRID, 11).points[:3], GRID))
        return [command, "--manifest", manifest_path, "--out-dir", tmp_path / "out"], gt
    return case


def _bad_landmark_line(tmp_path):
    manifest_path = make_corpus(tmp_path, count=1)
    lms = io.read_manifest(manifest_path).records[0].landmarks_path
    lms.write_text("#count=2\n0,1.0,2.0\n1,x,4\n")
    return ["equalize", "--manifest", manifest_path, "--out-dir", tmp_path / "eq"], lms


def _bad_coordinate_line(tmp_path):
    manifest_path = make_corpus(tmp_path, count=1)
    hm_dir = tmp_path / "hm"
    assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
    coords = tmp_path / "corpus" / "phantom_000.txt"
    lines = coords.read_text().splitlines()
    lines[2] = "1,x,4"
    coords.write_text("\n".join(lines) + "\n")
    return ["fuse", "--heatmaps-dir", hm_dir, "--coords-dir", tmp_path / "corpus",
            "--out-dir", tmp_path / "f"], coords


def _missing_coords(tmp_path):
    manifest_path = make_corpus(tmp_path, count=1)
    hm_dir, coords_dir = tmp_path / "hm", tmp_path / "e"
    assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
    coords_dir.mkdir()
    return (["fuse", "--heatmaps-dir", hm_dir, "--coords-dir", coords_dir,
             "--out-dir", tmp_path / "f"], coords_dir / "phantom_000.txt", errno.ENOENT)


def _directory_stack(tmp_path):
    stack = tmp_path / "h2" / "dir.hmap"
    stack.mkdir(parents=True)
    return (["decode", "--heatmaps-dir", stack.parent, "--out-dir", tmp_path / "d"],
            stack, errno.EISDIR)


def _missing_prediction(tmp_path):
    manifest_path = make_corpus(tmp_path, count=1)
    pred_dir = tmp_path / "e"
    pred_dir.mkdir()
    return (["eval", "--manifest", manifest_path, "--pred-dir", pred_dir],
            pred_dir / "phantom_000.txt", errno.ENOENT)


def _report_onto_directory(tmp_path):
    manifest_path = make_corpus(tmp_path, count=1)
    out = tmp_path / "isdir"
    out.mkdir()
    return (["eval", "--manifest", manifest_path, "--pred-dir", manifest_path.parent,
             "--out", out], out, errno.EISDIR)


def _simulate_into_missing_directory(tmp_path):
    out = tmp_path / "nodir" / "r.txt"
    return (["simulate", "--preset", "noiseless", "--seed", 7, "--out", out], out,
            errno.ENOENT)


def _report_into_missing_directory(tmp_path):
    manifest_path = make_corpus(tmp_path, count=1)
    out = tmp_path / "nodir" / "r.txt"
    return (["eval", "--manifest", manifest_path, "--pred-dir", manifest_path.parent,
             "--out", out], out, errno.ENOENT)


def _missing_image(tmp_path):
    manifest_path = make_corpus(tmp_path)
    image = io.read_manifest(manifest_path).records[0].image_path
    image.unlink()
    return (["equalize", "--manifest", manifest_path, "--out-dir", tmp_path / "eq"], image,
            errno.ENOENT)


def _missing_ground_truth(tmp_path):
    manifest_path = make_corpus(tmp_path)
    truth = io.read_manifest(manifest_path).records[1].landmarks_path
    truth.unlink()
    return (["eval", "--manifest", manifest_path, "--pred-dir", manifest_path.parent], truth,
            errno.ENOENT)


def _missing_manifest(tmp_path):
    manifest_path = tmp_path / "nope.txt"
    return (["eval", "--manifest", manifest_path, "--pred-dir", tmp_path],
            manifest_path, errno.ENOENT)


class TestLandmarkCount:
    """Every reader of a landmark file holds it to the count its caller
    expects, and a file of another count fails with its path and both."""

    @pytest.mark.parametrize("reader", ["equalize", "augment", "gen-heatmaps", "eval-truth",
                                        "eval-prediction", "fuse-coordinates"])
    def test_a_wrong_count_exits_validation_naming_the_file(self, tmp_path, capsys, reader):
        manifest_path = make_corpus(tmp_path, count=1)
        truth = io.read_manifest(manifest_path).records[0].landmarks_path
        hm_dir, preds = tmp_path / "hm", tmp_path / "preds"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        preds.mkdir()
        (preds / truth.name).write_bytes(truth.read_bytes())
        out = ["--out-dir", tmp_path / "out"]
        argv, bad = {
            "equalize": (["equalize", "--manifest", manifest_path, *out], truth),
            "augment": (["augment", "--manifest", manifest_path, *out], truth),
            "gen-heatmaps": (["gen-heatmaps", "--manifest", manifest_path, *out], truth),
            "eval-truth": (["eval", "--manifest", manifest_path, "--pred-dir", preds], truth),
            "eval-prediction": (["eval", "--manifest", manifest_path, "--pred-dir", preds],
                                preds / truth.name),
            "fuse-coordinates": (["fuse", "--heatmaps-dir", hm_dir, "--coords-dir", preds, *out],
                                 preds / truth.name),
        }[reader]
        io.write_landmarks(bad, LandmarkSet(io.read_landmarks(bad, GRID, 11).points[:3], GRID))
        capsys.readouterr()
        assert run(*argv) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {bad}: 3 landmarks, expected 11\n"


class TestMalformedInput:
    """A malformed file exits 4 and a file that cannot be read exits 3; either
    names itself, without a traceback."""

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
        lambda t: _sim_config(t, b"grid = 512 512", b"grid = 512"),
        lambda t: _sim_config(t, b"spurious_amplitude = 0.9 1.1", b"spurious_amplitude = 0.9"),
        lambda t: _sim_config(t, b"spurious_amplitude = 0.9 1.1",
                              b"spurious_amplitude = 1.1 0.9"),
        lambda t: _sim_config(t, b"images = 1", b"images = 0"),
        lambda t: _sim_config(t, b"adjacent_confusion_prob = 0.0",
                              b"adjacent_confusion_prob = 1.5"),
        lambda t: _bad_manifest(t, b"[images]", b"[images]\n[images]"),
        lambda t: _bad_manifest(t, b"landmark_count = 11", b"landmark_count = -1"),
        lambda t: _bad_manifest(t, b"landmark_count = 11",
                                b"landmark_count = 11\nlandmark_count = 11"),
        # a sim config line that sets nothing read_sim_config reads
        lambda t: _sim_config(t, b"floor_epsilon = ", b"floor_eps = "),
        lambda t: _sim_config(t, b"decode = argmax", b"decode = argmax\nprior_sigma_px = 3.0"),
        lambda t: _sim_config(t, b"[run]", b"[runn]\n[run]"),
        lambda t: _sim_config(t, b"[run]", b"[run]\n1, 2, 3"),
        # a manifest line that sets nothing read_manifest reads
        lambda t: _bad_manifest(t, b"landmark_count", b"landmark_cout"),
        lambda t: _bad_manifest(t, b"[images]", b"[extra]\n[images]"),
        lambda t: _sim_config(t, b"prior_sigma_px = 6.0", b"prior_sigma_px =" + b" 6.0" * 12),
        # equalize reads each landmark file before it copies it
        _bad_landmark_line,
        _short_ground_truth("equalize"),
    ], ids=["sim-int", "sim-images", "sim-not-utf8", "eval-non-ascii",
            "manifest-not-utf8", "manifest-nul-path", "fuse-coords-non-ascii",
            "sim-chain-spacing-nan", "sim-wobble-nan", "sim-spacing-nan", "sim-spacing-inf",
            "sim-chain-does-not-fit", "sim-landmarks-huge", "sim-height-huge",
            "sim-width-huge", "sim-grid-one-side", "sim-amplitude-one-value",
            "sim-amplitude-reversed", "sim-no-images", "sim-confusion-above-one",
            "manifest-duplicate-section", "manifest-negative-count", "manifest-repeated-key",
            "sim-misspelt-key", "sim-repeated-key", "sim-unknown-section", "sim-table-row",
            "manifest-misspelt-key", "manifest-unknown-section", "sim-too-many-prior-sigmas",
            "equalize-landmark-line", "equalize-landmark-count"])
    def test_exits_validation_naming_the_file(self, tmp_path, capsys, case):
        argv, bad = case(tmp_path)
        capsys.readouterr()
        assert run(*argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert str(bad) in err
        assert "Traceback" not in err

    # in the last three, the bad file is not the batch item's own: an
    # image's landmarks, a stack's coordinates
    @pytest.mark.parametrize("case", [_corrupt_stack, _truncated_pgm,
                                      _short_ground_truth("augment"),
                                      _short_ground_truth("gen-heatmaps"), _bad_coordinate_line],
                             ids=["decode", "equalize", "augment", "gen-heatmaps", "fuse"])
    def test_batch_error_names_the_file_once(self, tmp_path, capsys, case):
        argv, bad = case(tmp_path)
        capsys.readouterr()
        assert run(*argv) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ")
        assert err.count(str(bad)) == 1

    # an I/O error names its own file, whichever item or command hit it; a
    # report's rename, or its temp file in a missing directory, names the
    # report, and no temp file is left
    @pytest.mark.parametrize("case", [_missing_coords, _directory_stack, _missing_prediction,
                                      _report_onto_directory, _missing_manifest,
                                      _simulate_into_missing_directory,
                                      _report_into_missing_directory, _missing_image,
                                      _missing_ground_truth],
                             ids=["fuse-coords", "decode-directory", "eval-prediction",
                                  "eval-out-directory", "eval-manifest",
                                  "simulate-out-missing-directory",
                                  "eval-out-missing-directory", "equalize-image",
                                  "eval-ground-truth"])
    def test_io_error_line_starts_with_its_file(self, tmp_path, capsys, case):
        argv, bad, code = case(tmp_path)
        capsys.readouterr()
        assert run(*argv) == EXIT_IO
        assert capsys.readouterr().err == f"error: {bad}: [Errno {code}] {os.strerror(code)}\n"
        assert not list(tmp_path.rglob("*.tmp"))

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

    def test_internal_error_in_a_command_prints_an_error_line(self, tmp_path, capsys,
                                                              monkeypatch):
        manifest_path = make_corpus(tmp_path, count=1)

        def broken(*args):
            raise IndexError("broken scorer")
        monkeypatch.setattr(cli, "pck", broken)
        capsys.readouterr()
        assert run("eval", "--manifest", manifest_path,
                   "--pred-dir", manifest_path.parent) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "Traceback" in err
        assert err.splitlines()[-1] == "error: IndexError: broken scorer"

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


_PATH_FLAGS = {"--manifest", "--heatmaps-dir", "--coords-dir", "--out-dir", "--pred-dir"}


def _usage_rows(rows):
    """A param (argv, error) for each row, with an id made from its argv
    alone: the argv less its path flags and their values, shell-quoted and
    cut to 60 characters, so adding or deleting a row renames no other row.
    A row is a bare argv, or (argv, error) where error is the whole last
    line of stderr, for the messages the README quotes."""
    params = []
    for row in rows:
        argv, error = row if isinstance(row, tuple) else (row, None)
        kept = [a for i, a in enumerate(argv)
                if a not in _PATH_FLAGS and (i == 0 or argv[i - 1] not in _PATH_FLAGS)]
        params.append(pytest.param(argv, error, id=shlex.join(kept)[:60]))
    ids = [param.id for param in params]
    assert len(set(ids)) == len(ids), "two rows share an id"
    return params


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
        "--manifest": {"equalize", "augment", "gen-heatmaps", "eval"},
        "--out-dir": {"phantom", "equalize", "augment", "gen-heatmaps", "fuse", "decode"},
        "--heatmaps-dir": {"fuse", "decode"},
        "--coords-dir": {"fuse"},
        # a prefix of --out-dir, which abbreviation would take it for
        "--out": {"eval", "simulate"},
    }

    @pytest.mark.parametrize("argv, error", _usage_rows([
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--prior-sigma", "abc"],
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
        # 2*sigma*sigma overflows above about 9.48e153
        ["gen-heatmaps", "--manifest", "m", "--out-dir", "o", "--sigma", "1e200"],
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--prior-sigma", "1e200"],
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--floor-epsilon", "0"],
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--floor-epsilon", "-1"],
        ["fuse", "--heatmaps-dir", "h", "--coords-dir", "c", "--out-dir", "o",
         "--floor-epsilon", "nan"],
        ["phantom", "--out-dir", "o", "--count", "-3"],
        ["augment", "--manifest", "m", "--out-dir", "o", "--count", "-2"],
        # an integer beyond the float range
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
        (["phantom", "--out-dir", "o", "--seed", "-1"],
         "spinefuse phantom: error: argument --seed: seed must be a 64-bit unsigned integer, got -1"),
        (["phantom", "--out-dir", "o", "--seed", "18446744073709551616"],
         "spinefuse phantom: error: argument --seed: seed must be a 64-bit unsigned integer, got 18446744073709551616"),
        (["augment", "--manifest", "m", "--out-dir", "o", "--seed", "-1"],
         "spinefuse augment: error: argument --seed: seed must be a 64-bit unsigned integer, got -1"),
        (["augment", "--manifest", "m", "--out-dir", "o", "--seed", "18446744073709551616"],
         "spinefuse augment: error: argument --seed: seed must be a 64-bit unsigned integer, got 18446744073709551616"),
        (["simulate", "--seed", "-1"],
         "spinefuse simulate: error: argument --seed: seed must be a 64-bit unsigned integer, got -1"),
        (["simulate", "--seed", "18446744073709551616"],
         "spinefuse simulate: error: argument --seed: seed must be a 64-bit unsigned integer, got 18446744073709551616"),
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
        (["simulate", "--config", "f", "--preset", "noiseless"],
         "spinefuse simulate: error: argument --preset: not allowed with argument --config"),
        (["simulate", "--preset", "calibrated", "--config", "f"],
         "spinefuse simulate: error: argument --config: not allowed with argument --preset"),
    ]))
    def test_bad_flag_value_is_usage_error(self, argv, error, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        flag = next(a for a in reversed(argv) if a.startswith("--"))
        err = capsys.readouterr().err
        assert f"argument {flag}" in err
        if error is not None:
            assert err.splitlines()[-1] == error

    def test_an_integer_beyond_the_float_range_is_named(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["phantom", "--out-dir", "o", "--count", "1" + "0" * 400])
        assert exc.value.code == 2
        message = "argument --count: count must be non-negative and finite, got 1" + "0" * 400
        assert message in capsys.readouterr().err

    # the centroid patch is 3x3, a constant of both decoders, so decode
    # reads no window, with either method
    @pytest.mark.parametrize("method", ["centroid", "argmax"])
    def test_a_centroid_window_is_an_unrecognized_argument(self, method, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decode", *self.REQUIRED["decode"], "--method", method, "--window", "3"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == \
            "spinefuse: error: unrecognized arguments: --window 3"

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


def _tree(root):
    """Every file under root, by its path relative to root, with its bytes."""
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestInProcessRuns:
    # main may be called many times in one process: the parser is built
    # once, and each run looks its command up by name
    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_a_command_replaced_after_a_run_is_the_one_that_runs(self, tmp_path, monkeypatch):
        assert run("phantom", "--out-dir", tmp_path / "a", "--count", 1) == EXIT_OK
        seen = []
        monkeypatch.setattr(cli, "cmd_phantom", lambda args: seen.append(args.count) or 42)
        assert run("phantom", "--out-dir", tmp_path / "b", "--count", 3) == 42
        assert seen == [3] and not (tmp_path / "b").exists()

    def test_runs_share_no_state(self, tmp_path):
        manifest_path = make_corpus(tmp_path, count=1)
        hm_dir = tmp_path / "hm"
        assert run("gen-heatmaps", "--manifest", manifest_path, "--out-dir", hm_dir) == EXIT_OK
        fuse = ("fuse", "--heatmaps-dir", hm_dir, "--coords-dir", tmp_path / "corpus")
        assert run(*fuse, "--out-dir", tmp_path / "dumped", "--dump-heatmaps") == EXIT_OK
        assert run(*fuse, "--out-dir", tmp_path / "plain") == EXIT_OK
        assert len(list((tmp_path / "dumped").glob("*.fused.hmap"))) == 1
        assert [p.name for p in (tmp_path / "plain").iterdir()] == ["phantom_000.txt"]
        for out in ("a", "b"):
            assert run("phantom", "--out-dir", tmp_path / out, "--count", 2,
                       "--seed", 7) == EXIT_OK
        assert _tree(tmp_path / "a") == _tree(tmp_path / "b") != {}


def _readme_pipeline():
    """The lines of the README's fenced block under ``## CLI pipeline``."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split("## CLI pipeline\n\n```\n", 1)[1].split("```", 1)[0].splitlines()


class TestReadmePipeline:
    # the README's command block runs as written, in a fresh directory, with
    # each --count shrunk to 1; the calibrated simulate line is only parsed,
    # since criterion 5 runs that preset
    def test_every_line_runs(self, tmp_path, monkeypatch, capsys):
        lines = _readme_pipeline()
        assert lines and all(line.startswith("spinefuse ") for line in lines)
        monkeypatch.chdir(tmp_path)
        reports = []
        for line in lines:
            argv = line.split()[1:]
            if "--count" in argv:
                argv[argv.index("--count") + 1] = "1"
            if argv[0] == "simulate":
                assert build_parser().parse_args(argv).preset == "calibrated"
                continue
            capsys.readouterr()
            assert main(argv) == EXIT_OK, line
            if argv[0] == "eval":
                reports.append(capsys.readouterr().out)
        assert len(reports) == 1 and "accuracy = 1.000000\n" in reports[0]

import ast
import os
import re
import stat
import struct
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinefuse import io
from spinefuse.core import GrayImage, LandmarkSet, PixelFrame, Rng, ValidationError
from spinefuse.heatmap import GaussianSpec, Heatmap, render_gaussian, render_label_stack
from spinefuse.simulate import (
    HeatmapPredictorModel,
    calibrated_config,
    noiseless_config,
    read_sim_config,
    simulate_heatmaps,
)
from sim_config import SIM_CONFIG


def test_io_does_not_import_the_simulator():
    tree = ast.parse(Path(io.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # relative imports resolve inside the package
            module = ("spinefuse." if node.level else "") + (node.module or "")
            imported += [module.rstrip(".")]
            imported += [f"{module.rstrip('.')}.{alias.name}" for alias in node.names]
    assert imported
    assert not [m for m in imported
                if m == "spinefuse.simulate" or m.startswith("spinefuse.simulate.")]


def test_no_module_imports_a_name_it_never_uses():
    # so no module re-exports a name: each has one import path
    unused = []
    for path in sorted(Path(io.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [(path.name, name) for name in bound if name not in used]
    assert unused == []


def test_every_public_name_has_a_caller_in_the_package():
    # the package keeps only the API it uses: a public module-level function
    # or class, or a private module-level function, is referred to by some
    # other top-level statement of a package module. Dunders are Python's to
    # call
    exempt = {
        # the bench still declares fusion.coord_to_prior.* metrics; it goes
        # once they are dropped (ROADMAP item 1)
        ("fusion.py", "coord_to_prior"),
    }
    statements = [(path.name, stmt)
                  for path in sorted(Path(io.__file__).parent.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]

    def names(stmt):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.ImportFrom):
                yield from (alias.name for alias in node.names)

    referred = {}
    for module, stmt in statements:
        for name in set(names(stmt)):
            referred.setdefault(name, []).append(stmt)
    def checked(stmt):
        if isinstance(stmt, ast.ClassDef):
            return not stmt.name.startswith("_")
        return (isinstance(stmt, ast.FunctionDef)
                and not (stmt.name.startswith("__") and stmt.name.endswith("__")))

    unused = [(module, stmt.name) for module, stmt in statements if checked(stmt)
              and not any(other is not stmt for other in referred.get(stmt.name, ()))]
    assert [entry for entry in unused if entry not in exempt] == []


def test_support_boxes_stay_inside_heatmap():
    # a map's support box is found only in heatmap, by the renderer, which
    # knows where its Gaussians are nonzero, or by Heatmap on a given grid,
    # and in fusion, whose window bounds the fused product's nonzero values;
    # geometry takes an image's nonzero box by the same core rule
    offenders = []
    for path in sorted(Path(io.__file__).parent.glob("*.py")):
        if path.name == "heatmap.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.keyword) and node.arg == "_support"
                    and path.name != "fusion.py"):
                offenders.append((path.name, "_support="))
            elif (isinstance(node, ast.ImportFrom)
                  and path.name not in ("fusion.py", "geometry.py")):
                offenders += [(path.name, alias.name) for alias in node.names
                              if alias.name == "_box"]
    assert offenders == []


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = GrayImage(rng.integers(0, 256, (13, 9), dtype=np.uint8), 0.5)
        path = tmp_path / "img.pgm"
        io.write_pgm(path, img)
        back = io.read_pgm(path, 0.5)
        np.testing.assert_array_equal(back.pixels, img.pixels)
        assert back.spacing == 0.5

    def test_header_bytes(self, tmp_path):
        img = GrayImage(np.array([[1, 2], [3, 4]], np.uint8), 1.0)
        path = tmp_path / "img.pgm"
        io.write_pgm(path, img)
        assert path.read_bytes() == b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4])

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x07\x09")
        img = io.read_pgm(path)
        np.testing.assert_array_equal(img.pixels, [[7, 9]])

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P6\n1 1\n255\nxxx")
        with pytest.raises(ValidationError, match="P5"):
            io.read_pgm(path)

    def test_sixteen_bit_rejected(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ValidationError, match="maxval"):
            io.read_pgm(path)

    def test_maxval_below_255_rejected(self, tmp_path):
        # an 8-bit file with a smaller maxval would need its levels rescaled
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n1 1\n100\n\x00")
        with pytest.raises(ValidationError) as err:
            io.read_pgm(path)
        assert str(err.value) == f"{path}: unsupported maxval 100, need 255"

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "img.pgm"
        path.write_bytes(b"P5\n4 4\n255\n\x00\x00")
        with pytest.raises(ValidationError, match="raster"):
            io.read_pgm(path)


class TestLandmarkFiles:
    def test_round_trip_exact(self, tmp_path):
        pts = np.array([[1.5, 2.25], [300.123456789012, 0.0]])
        lms = LandmarkSet(pts, PixelFrame(512, 512))
        path = tmp_path / "lms.txt"
        io.write_landmarks(path, lms)
        back = io.read_landmarks(path, PixelFrame(512, 512))
        np.testing.assert_array_equal(back.points, pts)

    def test_header_format(self, tmp_path):
        lms = LandmarkSet(np.array([[1.0, 2.0]]), PixelFrame(8, 8))
        path = tmp_path / "lms.txt"
        io.write_landmarks(path, lms)
        assert path.read_text().splitlines()[0] == "#count=1"

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "lms.txt"
        path.write_text("#count=2\n0,1.0,2.0\n")
        with pytest.raises(ValidationError, match="header says 2"):
            io.read_landmarks(path, PixelFrame(8, 8))

    def test_index_order_enforced(self, tmp_path):
        path = tmp_path / "lms.txt"
        path.write_text("#count=2\n0,1.0,2.0\n5,3.0,4.0\n")
        with pytest.raises(ValidationError, match="index 5"):
            io.read_landmarks(path, PixelFrame(8, 8))


class TestHeatmapStacks:
    def test_round_trip(self, tmp_path):
        stack = [render_gaussian(GaussianSpec((i + 3, 7), 1.5), 16, 12) for i in range(4)]
        path = tmp_path / "s.hmap"
        io.write_heatmap_stack(path, stack)
        back = io.read_heatmap_stack(path)
        assert len(back) == 4
        for orig, rec in zip(stack, back):
            np.testing.assert_allclose(rec.values, orig.values, rtol=1e-6)

    def test_little_endian_layout(self, tmp_path):
        hm = Heatmap(np.array([[0.0, 1.0], [0.25, 0.5]]))
        path = tmp_path / "s.hmap"
        io.write_heatmap_stack(path, [hm])
        raw = path.read_bytes()
        assert raw[:4] == b"HMAP"
        assert struct.unpack("<III", raw[4:16]) == (1, 2, 2)
        assert np.frombuffer(raw[16:], dtype="<f4").tolist() == [0.0, 1.0, 0.25, 0.5]

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "s.hmap"
        for data, message in (
            (b"HMAP" + struct.pack("<III", 2, 8, 8) + b"\x00" * 10, "expected"),
            (b"HMAP" + struct.pack("<III", 0, 8, 8), "0 channels"),
            # a signalling NaN, which must not raise numpy's cast warning first
            (b"HMAP" + struct.pack("<IIII", 1, 1, 1, 0x7F800001), "finite"),
        ):
            path.write_bytes(data)
            with pytest.raises(ValidationError, match=message) as exc:
                io.read_heatmap_stack(path)
            assert str(path) in str(exc.value)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([0x7FC00000, 0x7F800001, 0x7F800000, 0xFF800000, 0xBF800000,
                            0x80000001]),
           st.integers(0, 1), st.integers(0, 29), st.integers(0, 39))
    def test_a_bad_value_anywhere_in_a_channel_is_refused(self, tmp_path_factory, bits,
                                                           channel, y, x):
        # NaN (quiet and signalling), +-inf, -1 and the smallest negative
        # subnormal, at any pixel of either channel: alone in channel 0, or
        # far from channel 1's peak near the top left corner
        path = tmp_path_factory.mktemp("bad") / "s.hmap"
        io.write_heatmap_stack(path, [Heatmap(np.zeros((30, 40))),
                                      render_gaussian(GaussianSpec((3.0, 2.0), 1.0), 40, 30)])
        data = bytearray(path.read_bytes())
        offset = 16 + 4 * ((channel * 30 + y) * 40 + x)
        data[offset:offset + 4] = struct.pack("<I", bits)
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match="finite|non-negative") as exc:
            io.read_heatmap_stack(path)
        assert str(path) in str(exc.value)

    def test_negative_zero_reads_back_as_zero(self, tmp_path):
        # one -0.0 outside the nonzero box and one inside it
        values = np.zeros((6, 8), dtype="<f4")
        values[1, 1], values[2, 3], values[1, 3], values[5, 7] = 1.0, 0.5, -0.0, -0.0
        path = tmp_path / "s.hmap"
        path.write_bytes(b"HMAP" + struct.pack("<III", 1, 6, 8) + values.tobytes())
        hm, = io.read_heatmap_stack(path)
        assert hm._support == (1, 3, 1, 4)
        assert np.array_equal(hm.values, values) and not np.signbit(hm.values).any()

    def test_empty_stack_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            io.write_heatmap_stack(tmp_path / "s.hmap", [])

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 9), st.integers(1, 9)),
                  # float32 subnormals, and values that round when cast
                  elements=st.one_of(st.floats(0.0, 1.2e-38),
                                     st.floats(0.0, float(np.finfo(np.float32).max)))))
    def test_bytes_equal_header_and_cast_channels(self, tmp_path_factory, channels):
        path = tmp_path_factory.mktemp("pin") / "s.hmap"
        io.write_heatmap_stack(path, [Heatmap(v) for v in channels])
        expected = (b"HMAP" + struct.pack("<III", *channels.shape)
                    + b"".join(v.astype("<f4").tobytes() for v in channels))
        assert path.read_bytes() == expected

    def test_value_beyond_float32_names_its_channel(self, tmp_path):
        path = tmp_path / "s.hmap"
        # 2**128 - 2**103 is the least double that float32 rounds to inf; the
        # double below it is written as float32's largest value
        edge = 2.0 ** 128 - 2.0 ** 103
        for big in (1e300, 2.0 ** 128, edge, np.nextafter(edge, 0)):
            values = np.zeros((3, 3))
            values[1, 2] = big
            stack = [Heatmap(np.ones((3, 3))), Heatmap(values)]
            if big < edge:
                io.write_heatmap_stack(path, stack)
                assert io.read_heatmap_stack(path)[1].values[1, 2] == np.finfo(np.float32).max
                continue
            with pytest.raises(ValidationError, match="channel 1 .*float32"):
                io.write_heatmap_stack(path, stack)
            assert not path.exists()
            assert list(tmp_path.iterdir()) == []

    def test_block_held_maps_write_the_dense_bytes(self, tmp_path):
        # rendered maps hold only their support block; the file holds zeros
        # around it, as for the same maps rebuilt dense. 300 x 200, with
        # blocks cut by each edge of the grid
        gt = LandmarkSet(np.array([[2.0, 100.0], [297.0, 60.0], [150.0, 1.0], [40.0, 198.0],
                                   [150.0, 100.0]]), PixelFrame(300, 200))
        model = HeatmapPredictorModel(adjacent_confusion_prob=1.0)
        for k, stack in enumerate([render_label_stack(gt, 1.2),
                                   simulate_heatmaps(Rng(3), gt, model)]):
            assert all("values" not in vars(hm) for hm in stack)
            io.write_heatmap_stack(tmp_path / f"{k}.hmap", stack)
            io.write_heatmap_stack(tmp_path / f"{k}.dense.hmap",
                                   [Heatmap(hm.values.copy()) for hm in stack])
            assert ((tmp_path / f"{k}.hmap").read_bytes()
                    == (tmp_path / f"{k}.dense.hmap").read_bytes())

    def test_block_beyond_float32_names_its_channel(self, tmp_path):
        path = tmp_path / "s.hmap"
        stack = [render_gaussian(GaussianSpec((4.0, 3.0), 1.2), 9, 7),
                 render_gaussian(GaussianSpec((4.0, 3.0), 1.2, amplitude=1e300), 9, 7)]
        assert "values" not in vars(stack[1])
        with pytest.raises(ValidationError, match="channel 1 .*float32"):
            io.write_heatmap_stack(path, stack)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("size", [(24, 24), (40, 40)], ids=["columns", "rows"])
    def test_one_side_differing_is_refused(self, tmp_path, size):
        stack = [render_gaussian(GaussianSpec((5, 5), 1.2), 40, 24),
                 render_gaussian(GaussianSpec((5, 5), 1.2), *size)]
        with pytest.raises(ValidationError, match="channel 1 shape differs from channel 0"):
            io.write_heatmap_stack(tmp_path / "s.hmap", stack)
        assert list(tmp_path.iterdir()) == []

    def test_a_stack_streams_through_one_channel_grid(self, tmp_path):
        # 11 x 512 x 512 float32 is 11.5 MiB of file; reading and writing hold
        # one 1 MiB channel grid, plus the label maps' small blocks
        pts = np.array([[40.0 * k + 30.0, 45.0 * k + 20.0] for k in range(11)])
        stack = render_label_stack(LandmarkSet(pts, PixelFrame(512, 512)), 1.2)
        path = tmp_path / "s.hmap"
        peaks = []
        for call in (lambda: io.write_heatmap_stack(path, stack),
                     lambda: io.read_heatmap_stack(path)):
            tracemalloc.start()
            try:
                back = call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) < 3 * 2 ** 20, peaks
        expected = (b"HMAP" + struct.pack("<III", 11, 512, 512)
                    + b"".join(hm.values.astype("<f4").tobytes() for hm in stack))
        assert path.read_bytes() == expected
        for orig, rec in zip(stack, back):
            assert np.array_equal(rec.values, orig.values.astype("<f4"))

    @pytest.mark.parametrize("bad", [1, 6, 10])
    def test_overflow_after_written_channels_leaves_no_file(self, tmp_path, bad):
        # channels before the bad one are already in the temp file
        values = np.zeros((512, 512))
        values[300, 200] = 1e39
        stack = [render_gaussian(GaussianSpec((20.0 * k, 30.0), 1.2), 512, 512)
                 for k in range(11)]
        stack[bad] = Heatmap(values)
        with pytest.raises(ValidationError, match=f"^channel {bad} holds a value beyond"):
            io.write_heatmap_stack(tmp_path / "s.hmap", stack)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    def test_a_file_one_byte_off_names_both_sizes(self, tmp_path, delta):
        path = tmp_path / "s.hmap"
        io.write_heatmap_stack(path, [render_gaussian(GaussianSpec((3.0, 4.0), 1.2), 9, 7)] * 2)
        data = path.read_bytes()
        path.write_bytes(data[:-1] if delta < 0 else data + b"\x00")
        size = len(data) + delta
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(str(path))}: {size} bytes, "
                                 f"expected {len(data)} for 2x7x9$"):
            io.read_heatmap_stack(path)

    def test_a_file_cut_after_its_size_was_checked_is_refused(self, tmp_path, monkeypatch):
        # the size is taken once, before the channels are read; a file cut
        # after that must not leave the previous channel's values in the grid
        path = tmp_path / "s.hmap"
        io.write_heatmap_stack(path, [render_gaussian(GaussianSpec((3.0, 4.0), 1.2), 9, 7)] * 3)
        full = path.stat()
        path.write_bytes(path.read_bytes()[:16 + 4 * 9 * 7 + 5])
        monkeypatch.setattr(io.os, "fstat", lambda fd: full)
        with pytest.raises(ValidationError, match="^.*s.hmap: file ended inside channel 1$"):
            io.read_heatmap_stack(path)

    def test_read_channels_are_frozen_float64_and_disjoint(self, tmp_path):
        path = tmp_path / "s.hmap"
        io.write_heatmap_stack(path, [Heatmap(np.full((4, 5), k + 0.5)) for k in range(3)])
        back = io.read_heatmap_stack(path)
        for k, hm in enumerate(back):
            assert hm.values.dtype == np.float64 and hm.values.shape == (4, 5)
            assert not hm.values.flags.writeable
            assert np.all(hm.values == k + 0.5)
            for other in back[k + 1:]:
                assert not np.shares_memory(hm.values, other.values)


class TestManifests:
    def _corpus(self, tmp_path, n=2):
        records = []
        for i in range(n):
            img = tmp_path / f"im_{i}.pgm"
            lmk = tmp_path / f"im_{i}.txt"
            io.write_pgm(img, GrayImage(np.arange(16, dtype=np.uint8).reshape(4, 4), 0.5))
            io.write_landmarks(lmk, LandmarkSet(np.array([[1.0, 1.0]]), PixelFrame(4, 4)))
            records.append(io.ManifestRecord(img, lmk, 0.5))
        return tuple(records)

    def test_round_trip(self, tmp_path):
        records = self._corpus(tmp_path)
        manifest = io.Manifest(records, landmark_count=1, working_size=(64, 64))
        path = tmp_path / "manifest.txt"
        io.write_manifest(path, manifest)
        back = io.read_manifest(path)
        assert back.landmark_count == 1
        assert back.working_size == (64, 64)
        assert [r.image_path for r in back.records] == [r.image_path for r in records]

    def test_relative_paths_follow_manifest(self, tmp_path):
        records = self._corpus(tmp_path)
        sub = tmp_path / "nested"
        sub.mkdir()
        path = sub / "manifest.txt"
        io.write_manifest(path, io.Manifest(records, landmark_count=1))
        back = io.read_manifest(path)
        assert back.records[0].image_path.is_file()

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("[images]\nnope.pgm, nope.txt, 0.5\n")
        with pytest.raises(FileNotFoundError, match="nope"):
            io.read_manifest(path)

    def test_bad_spacing(self, tmp_path):
        records = self._corpus(tmp_path, n=1)
        path = tmp_path / "manifest.txt"
        rel = records[0].image_path.name
        path.write_text(f"[images]\n{rel}, {records[0].landmarks_path.name}, -1\n")
        with pytest.raises(ValidationError, match="spacing"):
            io.read_manifest(path)

    @pytest.mark.parametrize("header, cell", [
        ("landmark_count = abc", "0.5"),
        ("working_size = 64 wide", "0.5"),
        ("working_size = 64", "0.5"),
        ("", "half"),
    ])
    def test_malformed_value_names_manifest(self, tmp_path, header, cell):
        records = self._corpus(tmp_path, n=1)
        path = tmp_path / "manifest.txt"
        path.write_text(f"{header}\n[images]\n{records[0].image_path.name}, "
                        f"{records[0].landmarks_path.name}, {cell}\n")
        with pytest.raises(ValidationError, match="manifest.txt"):
            io.read_manifest(path)

    def test_legacy_coord_size_line_is_ignored(self, tmp_path):
        records = self._corpus(tmp_path, n=1)
        path = tmp_path / "manifest.txt"
        path.write_text("landmark_count = 1\nworking_size = 4 4\ncoord_size = 299 299\n"
                        f"[images]\n{records[0].image_path.name}, "
                        f"{records[0].landmarks_path.name}, 0.5\n")
        back = io.read_manifest(path)
        assert back.working_size == (4, 4) and len(back.records) == 1


def _sim_config(tmp_path, images, old="", new=""):
    text = SIM_CONFIG.format(images=images)
    assert old in text
    path = tmp_path / "sim.txt"
    path.write_text(text.replace(old, new))
    return path


class TestSimConfig:
    def test_readme_example_is_the_pinned_format(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        assert f"```\n{SIM_CONFIG.format(images=2)}```\n" in readme.read_text()
        assert read_sim_config(_sim_config(tmp_path, 2)) == noiseless_config(images=2)

    def test_reads_repr_floats_back_exactly(self, tmp_path):
        config = calibrated_config(images=123)
        text = (SIM_CONFIG.format(images=123)
                .replace("noise_sigma_px = 0.0", f"noise_sigma_px = {config.coords.noise_sigma!r}")
                .replace("confusion_prob = 0.0",
                         f"confusion_prob = {config.heatmaps.adjacent_confusion_prob!r}"))
        path = tmp_path / "sim.txt"
        path.write_text(text)
        assert read_sim_config(path) == config

    def test_per_landmark_sigmas_read_as_a_tuple(self, tmp_path):
        sigmas = tuple(float(3 + k) for k in range(11))
        path = _sim_config(tmp_path, 2, "prior_sigma_px = 6.0\n",
                           f"prior_sigma_px = {' '.join(map(repr, sigmas))}\n")
        assert read_sim_config(path).fusion.prior_sigma == sigmas

    def test_too_few_per_landmark_sigmas_fail_with_the_path(self, tmp_path):
        path = _sim_config(tmp_path, 1, "prior_sigma_px = 6.0\n", "prior_sigma_px = 5.0 6.0\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: 2 prior sigmas "
                                                  f"for 11 landmarks$"):
            read_sim_config(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "sim.txt"
        path.write_text("[phantom]\nlandmarks = 11\n")
        with pytest.raises(ValidationError, match="missing"):
            read_sim_config(path)


class TestAtomicWrite:
    def test_no_temp_residue(self, tmp_path):
        path = tmp_path / "out.bin"
        io.atomic_write(path, b"payload")
        assert path.read_bytes() == b"payload"
        assert list(tmp_path.iterdir()) == [path]
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "out.bin"
        target.mkdir()  # a directory cannot be replaced by a file
        with pytest.raises(OSError):
            io.atomic_write(target, b"payload")
        assert list(tmp_path.iterdir()) == [target]

    def test_concurrent_writers_do_not_collide(self, tmp_path):
        path = tmp_path / "out.bin"
        payloads = [bytes([k]) * 65536 for k in range(1, 5)]  # more writers than cores
        errors = []

        def write(data):
            try:
                for _ in range(200):
                    io.atomic_write(path, data)
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(data,)) for data in payloads]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert path.read_bytes() in payloads
        assert list(tmp_path.iterdir()) == [path]

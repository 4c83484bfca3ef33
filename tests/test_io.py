import ast
import os
import re
import stat
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinefuse import io
from spinefuse.core import GrayImage, LandmarkSet, PixelFrame, Rng, ValidationError
from spinefuse.fusion import FusionConfig
from spinefuse.heatmap import GaussianSpec, Heatmap, render_gaussian, render_label_stack
from spinefuse.simulate import (
    HeatmapPredictorModel,
    calibrated_config,
    noiseless_config,
    read_sim_config,
    simulate_heatmaps,
    write_sim_config,
)


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
    # __init__.py imports names only to export them
    unused = []
    for path in sorted(Path(io.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
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
    # or class is referred to by some other top-level statement of a package
    # module. __init__.py only re-exports names, so it does not count
    exempt = {
        # the bench still declares fusion.coord_to_prior.* metrics; it goes
        # once they are dropped (ROADMAP item 1)
        ("fusion.py", "coord_to_prior"),
        # the README names it as the reference for the sim-config keys
        ("simulate.py", "write_sim_config"),
    }
    statements = [(path.name, stmt)
                  for path in sorted(Path(io.__file__).parent.glob("*.py"))
                  if path.name != "__init__.py"
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
    unused = [(module, stmt.name) for module, stmt in statements
              if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
              and not stmt.name.startswith("_")
              and not any(other is not stmt for other in referred.get(stmt.name, ()))]
    assert [entry for entry in unused if entry not in exempt] == []


def test_support_boxes_stay_inside_heatmap():
    # a map's support box is found only in heatmap, by the renderer, which
    # knows where its Gaussians are nonzero, or by Heatmap on a given grid,
    # and in fusion, whose window bounds the fused product's nonzero values
    offenders = []
    for path in sorted(Path(io.__file__).parent.glob("*.py")):
        if path.name == "heatmap.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.keyword) and node.arg == "_support"
                    and path.name != "fusion.py"):
                offenders.append((path.name, "_support="))
            elif isinstance(node, ast.ImportFrom) and path.name != "fusion.py":
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
        img = GrayImage.from_flat(2, 2, [1, 2, 3, 4], 1.0)
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
        for big in (1e300, 2.0 ** 128):
            values = np.zeros((3, 3))
            values[1, 2] = big
            with pytest.raises(ValidationError, match="channel 1 .*float32"):
                io.write_heatmap_stack(path, [Heatmap(np.ones((3, 3))), Heatmap(values)])
            assert not path.exists()
            assert list(tmp_path.iterdir()) == []

    def test_block_held_maps_write_the_dense_bytes(self, tmp_path):
        # rendered maps hold only their support block; the file holds zeros
        # around it, as for the same maps rebuilt dense. 300 x 200, with
        # blocks cut by each edge of the grid
        gt = LandmarkSet(np.array([[2.0, 100.0], [297.0, 60.0], [150.0, 1.0], [40.0, 198.0],
                                   [150.0, 100.0]]), PixelFrame(300, 200))
        model = HeatmapPredictorModel(adjacent_confusion_prob=1.0)
        for k, stack in enumerate([render_label_stack(gt, 1.2, 300, 200),
                                   simulate_heatmaps(Rng(3), gt, model, 300, 200)]):
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
            io.write_pgm(img, GrayImage.from_flat(4, 4, list(range(16)), 0.5))
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


class TestSimConfig:
    def test_round_trip(self, tmp_path):
        config = calibrated_config(images=123)
        path = tmp_path / "sim.txt"
        write_sim_config(path, config)
        back = read_sim_config(path)
        assert back == config

    def test_per_landmark_sigmas_round_trip(self, tmp_path):
        config = noiseless_config(images=2)
        config = type(config)(
            phantom=config.phantom, coords=config.coords, heatmaps=config.heatmaps,
            fusion=FusionConfig(prior_sigma=tuple(float(3 + k) for k in range(11))),
            threshold_mm=config.threshold_mm, images=config.images,
        )
        path = tmp_path / "sim.txt"
        write_sim_config(path, config)
        assert read_sim_config(path).fusion.prior_sigma == config.fusion.prior_sigma

    def test_too_few_per_landmark_sigmas_fail_with_the_path(self, tmp_path):
        path = tmp_path / "sim.txt"
        write_sim_config(path, calibrated_config(images=1))
        text = path.read_text()
        assert "prior_sigma_px = 6.0\n" in text
        path.write_text(text.replace("prior_sigma_px = 6.0\n", "prior_sigma_px = 5.0 6.0\n"))
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

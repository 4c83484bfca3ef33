import ast
import errno
import os
import re
import stat
import struct
import subprocess
import sys
import threading
import tracemalloc
from io import FileIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spinefuse import io
from spinefuse.core import GrayImage, LandmarkSet, PixelFrame, Rng, ValidationError
from spinefuse.fusion import FusionConfig, fuse_batch
from spinefuse.heatmap import GaussianSpec, Heatmap, render_gaussian, render_label_stack
from spinefuse.simulate import (
    HeatmapPredictorModel,
    PhantomConfig,
    calibrated_config,
    generate_phantom,
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

    # the raster is every byte after the header's last whitespace byte, and
    # must be the size the header says, as an HMAP file must: so a CRLF
    # header, which leaves its LF in the raster, is refused, not read shifted
    @pytest.mark.parametrize("data, held, expected", [
        (b"P5\n4 4\n255\n\x00\x00", 2, 16),
        (b"P5\n3 1\n255\n" + bytes(range(1, 7)), 6, 3),
        (b"P5\r\n3 2\r\n255\r\n" + bytes(range(1, 7)), 7, 6),
    ], ids=["truncated", "longer", "crlf-header"])
    def test_a_raster_of_another_length_is_refused(self, tmp_path, data, held, expected):
        path = tmp_path / "img.pgm"
        path.write_bytes(data)
        with pytest.raises(ValidationError) as err:
            io.read_pgm(path)
        assert str(err.value) == f"{path}: raster holds {held} bytes, expected {expected}"


class TestLandmarkFiles:
    def test_round_trip_exact(self, tmp_path):
        pts = np.array([[1.5, 2.25], [300.123456789012, 0.0]])
        lms = LandmarkSet(pts, PixelFrame(512, 512))
        path = tmp_path / "lms.txt"
        io.write_landmarks(path, lms)
        back = io.read_landmarks(path, PixelFrame(512, 512), 2)
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
            io.read_landmarks(path, PixelFrame(8, 8), 2)

    def test_a_wrong_count_names_the_file_and_both_counts(self, tmp_path):
        path = tmp_path / "lms.txt"
        io.write_landmarks(path, LandmarkSet(np.array([[1.0, 2.0], [3.0, 4.0]]), PixelFrame(8, 8)))
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(str(path))}: 2 landmarks, expected 3$"):
            io.read_landmarks(path, PixelFrame(8, 8), 3)

    def test_a_bad_line_wins_over_a_wrong_count(self, tmp_path):
        path = tmp_path / "lms.txt"
        path.write_text("#count=2\n0,1.0,2.0\n1,x,4\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: line 3: '1,x,4'$"):
            io.read_landmarks(path, PixelFrame(8, 8), 3)

    def test_index_order_enforced(self, tmp_path):
        path = tmp_path / "lms.txt"
        path.write_text("#count=2\n0,1.0,2.0\n5,3.0,4.0\n")
        with pytest.raises(ValidationError, match="index 5"):
            io.read_landmarks(path, PixelFrame(8, 8), 2)


class TestHeatmapStacks:
    def test_round_trip(self, tmp_path):
        stack = [render_gaussian(GaussianSpec((i + 3, 7), 1.5), PixelFrame(16, 12))
                 for i in range(4)]
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
        peak = render_gaussian(GaussianSpec((3.0, 2.0), 1.0), PixelFrame(40, 30))
        io.write_heatmap_stack(path, [Heatmap(np.zeros((30, 40))), peak])
        data = bytearray(path.read_bytes())
        offset = 16 + 4 * ((channel * 30 + y) * 40 + x)
        data[offset:offset + 4] = struct.pack("<I", bits)
        path.write_bytes(bytes(data))
        # the line names the channel
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: channel {channel}: "
                                                  "heatmap values must be (finite|non-negative)$"):
            io.read_heatmap_stack(path)

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
            assert all("values" not in vars(hm) and hm.frame == gt.frame for hm in stack)
            io.write_heatmap_stack(tmp_path / f"{k}.hmap", stack)
            assert all(hm.frame == gt.frame for hm in io.read_heatmap_stack(tmp_path / f"{k}.hmap"))
            io.write_heatmap_stack(tmp_path / f"{k}.dense.hmap",
                                   [Heatmap(hm.values.copy()) for hm in stack])
            assert ((tmp_path / f"{k}.hmap").read_bytes()
                    == (tmp_path / f"{k}.dense.hmap").read_bytes())

    def test_block_beyond_float32_names_its_channel(self, tmp_path):
        path = tmp_path / "s.hmap"
        stack = [render_gaussian(GaussianSpec((4.0, 3.0), 1.2), PixelFrame(9, 7)),
                 render_gaussian(GaussianSpec((4.0, 3.0), 1.2, amplitude=1e300), PixelFrame(9, 7))]
        assert "values" not in vars(stack[1])
        with pytest.raises(ValidationError, match="channel 1 .*float32"):
            io.write_heatmap_stack(path, stack)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("size", [(24, 24), (40, 40)], ids=["columns", "rows"])
    def test_one_side_differing_is_refused(self, tmp_path, size):
        stack = [render_gaussian(GaussianSpec((5, 5), 1.2), PixelFrame(40, 24)),
                 render_gaussian(GaussianSpec((5, 5), 1.2), PixelFrame(*size))]
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
        stack = [render_gaussian(GaussianSpec((20.0 * k, 30.0), 1.2), PixelFrame(512, 512))
                 for k in range(11)]
        stack[bad] = Heatmap(values)
        with pytest.raises(ValidationError, match=f"^channel {bad} holds a value beyond"):
            io.write_heatmap_stack(tmp_path / "s.hmap", stack)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("delta", [-1, 1], ids=["short", "long"])
    def test_a_file_one_byte_off_names_both_sizes(self, tmp_path, delta):
        path = tmp_path / "s.hmap"
        hm = render_gaussian(GaussianSpec((3.0, 4.0), 1.2), PixelFrame(9, 7))
        io.write_heatmap_stack(path, [hm] * 2)
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
        hm = render_gaussian(GaussianSpec((3.0, 4.0), 1.2), PixelFrame(9, 7))
        io.write_heatmap_stack(path, [hm] * 3)
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


def _dense_bytes(stack) -> bytes:
    """The HMAP v1 bytes of stack, every zero included."""
    frame = stack[0].frame
    grids = np.zeros((len(stack), frame.height, frame.width), dtype="<f4")
    for grid, hm in zip(grids, stack):
        grid[...] = hm.values
    return b"HMAP" + struct.pack("<III", *grids.shape) + grids.tobytes()


def _read_without_seek_data(path, how="einval"):
    """read_heatmap_stack where lseek refuses SEEK_DATA with EINVAL, or where
    the platform has no SEEK_DATA at all."""
    lseek = os.lseek

    def refusing(fd, pos, whence):
        if whence == os.SEEK_DATA:
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
        return lseek(fd, pos, whence)
    with pytest.MonkeyPatch.context() as mp:
        if how == "einval":
            mp.setattr(io.os, "lseek", refusing)
        else:
            mp.delattr(io.os, "SEEK_DATA")
        return io.read_heatmap_stack(path)


def _assert_same_channels(stack, other):
    assert len(stack) == len(other)
    for a, b in zip(stack, other):
        assert a.frame == b.frame
        assert np.array_equal(a.values, b.values)
        assert (a._support, a._top, a._argmax) == (b._support, b._top, b._argmax)


def _makes_holes(root: Path) -> bool:
    """Whether the filesystem under root stores a file that was only
    extended, never written, in less space than its length."""
    probe = root / "probe"
    with open(probe, "wb") as f:
        f.truncate(1 << 20)
    made = probe.stat().st_blocks * 512 < (1 << 20)
    probe.unlink()
    return made


def _dumped(hm: Heatmap, coord, sigma: float) -> Heatmap:
    """The fused map fuse --dump-heatmaps writes for one channel."""
    dumps = []
    fuse_batch([hm], LandmarkSet(np.array([coord]), hm.frame), FusionConfig(prior_sigma=sigma),
               _dumps=dumps)
    return dumps[0]


@st.composite
def hmap_stacks(draw):
    """Stacks of hand-built, all-zero, rendered and fused-dump channels, on
    grids of one row or more, with rows shorter and longer than 4 KiB."""
    frame = PixelFrame(draw(st.sampled_from([1, 7, 1023, 1024, 1025, 1500])),
                       draw(st.integers(1, 6)))
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["zeros", "box", "rendered", "fused"]))
        if kind == "zeros":
            stack.append(Heatmap(np.zeros((frame.height, frame.width))))
        elif kind == "box":
            r0 = draw(st.integers(0, frame.height - 1))
            r1 = draw(st.integers(r0 + 1, frame.height))
            c0 = draw(st.integers(0, frame.width - 1))
            c1 = draw(st.integers(c0 + 1, frame.width))
            values = np.zeros((frame.height, frame.width))
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            values[r0:r1, c0:c1] = rng.random((r1 - r0, c1 - c0)) * draw(st.sampled_from(
                [1.0, 1e-40, 1e30]))
            stack.append(Heatmap(values))
        else:
            center = (draw(st.floats(0, frame.width - 1)), draw(st.floats(0, frame.height - 1)))
            hm = render_gaussian(GaussianSpec(center, draw(st.floats(0.5, 3.0))), frame)
            stack.append(hm if kind == "rendered" else
                         _dumped(hm, center, draw(st.floats(1.0, 8.0))))
    return stack


@st.composite
def float32_trimmed_stacks(draw):
    """A rendered label stack, its fused dumps, or hand-built channels whose
    float64 box has border rows of values at or below 2**-150, which float32
    flushes to 0; on grids whose rows are shorter than, as long as and
    longer than a 4 KiB block."""
    frame = PixelFrame(draw(st.sampled_from([1, 64, 1024, 1500])), draw(st.integers(1, 48)))
    kind = draw(st.sampled_from(["labels", "dumps", "flushed"]))
    if kind != "flushed":
        points = draw(st.lists(st.tuples(st.floats(0, frame.width - 1),
                                         st.floats(0, frame.height - 1)), min_size=1, max_size=4))
        stack = render_label_stack(LandmarkSet(np.array(points), frame),
                                   draw(st.floats(0.5, 3.0)))
        if kind == "dumps":
            sigma = draw(st.floats(1.0, 8.0))
            stack = [_dumped(hm, point, sigma) for hm, point in zip(stack, points)]
        return stack
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        r0 = draw(st.integers(0, frame.height - 1))
        r1 = draw(st.integers(r0 + 1, frame.height))
        c0 = draw(st.integers(0, frame.width - 1))
        c1 = draw(st.integers(c0 + 1, frame.width))
        top = draw(st.integers(0, r1 - r0))
        bottom = draw(st.integers(0, r1 - r0 - top))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        values = np.zeros((frame.height, frame.width))
        values[r0:r1, c0:c1] = rng.uniform(0.5, 1.0, (r1 - r0, c1 - c0))
        tiny = draw(st.floats(5e-324, 2.0 ** -150))
        values[r0:r0 + top, c0:c1] = tiny
        values[r1 - bottom:r1, c0:c1] = tiny
        stack.append(Heatmap(values))
    return stack


def _held_ranges(stack, block: int) -> list[tuple[int, int]]:
    """The byte ranges of a stack's file that hold its header and, for each
    channel, its rows from the first to the last holding a float32 bit,
    rounded out to whole blocks and merged where they meet."""
    frame = stack[0].frame
    row, channel = 4 * frame.width, 4 * frame.width * frame.height
    ranges = [(0, 16)]
    for k, hm in enumerate(stack):
        held = np.flatnonzero(hm.values.astype("<f4").view("<u4").any(axis=1))
        if held.size:
            ranges.append((16 + k * channel + held[0] * row,
                           16 + k * channel + (held[-1] + 1) * row))
    merged = []
    for lo, hi in ranges:
        lo, hi = lo // block * block, -(-hi // block) * block
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(hi, merged[-1][1]))
        else:
            merged.append((lo, hi))
    return merged


class TestHeatmapStackHoles:
    """A stack is written with the rows that float32 leaves all zero as
    holes and read by its data extents; its bytes and the channels read back
    are those of the dense file."""

    @settings(max_examples=60, deadline=None)
    @given(hmap_stacks())
    def test_a_stack_is_its_dense_bytes_and_reads_back_alike(self, tmp_path_factory, stack):
        root = tmp_path_factory.mktemp("holes")
        path, dense = root / "s.hmap", root / "dense.hmap"
        io.write_heatmap_stack(path, stack)
        data = path.read_bytes()
        assert data == _dense_bytes(stack)
        dense.write_bytes(data)
        back = io.read_heatmap_stack(path)
        _assert_same_channels(back, io.read_heatmap_stack(dense))
        _assert_same_channels(back, _read_without_seek_data(path))
        for rec, orig in zip(back, stack):
            assert np.array_equal(rec.values, orig.values.astype("<f4"))

    @settings(max_examples=60, deadline=None)
    @given(float32_trimmed_stacks())
    def test_only_the_rows_float32_keeps_are_written_and_read(self, tmp_path_factory, stack):
        root = tmp_path_factory.mktemp("trimmed")
        path = root / "s.hmap"
        io.write_heatmap_stack(path, stack)
        assert path.read_bytes() == _dense_bytes(stack)
        if _makes_holes(root):
            with open(path, "rb") as f:
                extents = io._data_extents(f.fileno(), 16, path.stat().st_size)
            held = _held_ranges(stack, path.stat().st_blksize)
            assert all(any(a <= lo and hi <= b for a, b in held) for lo, hi in extents), \
                (extents, held)
        expected = [Heatmap(hm.values.astype("<f4")) for hm in stack]
        _assert_same_channels(io.read_heatmap_stack(path), expected)
        _assert_same_channels(_read_without_seek_data(path), expected)

    @pytest.mark.parametrize("width", [1, 1023, 1025])
    @pytest.mark.parametrize("height", [1, 3])
    def test_boxes_at_both_ends_of_the_file(self, tmp_path, width, height):
        # channel 0's box starts at its row 0, the first byte after the
        # header, and the last channel's ends at its last row, the file's end
        first, last = np.zeros((height, width)), np.zeros((height, width))
        first[0, 0], last[-1, -1] = 0.5, 2.0
        stack = [Heatmap(first), Heatmap(np.zeros((height, width))), Heatmap(last)]
        path = tmp_path / "s.hmap"
        io.write_heatmap_stack(path, stack)
        assert path.read_bytes() == _dense_bytes(stack)
        _assert_same_channels(io.read_heatmap_stack(path), stack)

    @pytest.fixture
    def label_and_dump_stacks(self, tmp_path):
        """A default phantom's 11-channel 512x512 label stack and its fused
        dumps, written by the package and copied dense."""
        lms = generate_phantom(Rng(7), PhantomConfig())
        labels = render_label_stack(lms, 1.2)
        dumps = [_dumped(hm, (x + 3.0, y - 2.0), 6.0) for hm, (x, y) in zip(labels, lms.points)]
        paths = []
        for name, stack in (("labels", labels), ("dumps", dumps)):
            path = tmp_path / f"{name}.hmap"
            io.write_heatmap_stack(path, stack)
            (tmp_path / f"{name}.dense.hmap").write_bytes(path.read_bytes())
            paths.append((path, tmp_path / f"{name}.dense.hmap"))
        return paths

    def test_a_file_with_holes_reads_as_its_dense_copy(self, label_and_dump_stacks):
        for path, dense in label_and_dump_stacks:
            _assert_same_channels(io.read_heatmap_stack(path), io.read_heatmap_stack(dense))

    @pytest.mark.parametrize("how", ["einval", "no-seek-data"])
    def test_without_seek_data_every_byte_is_read_alike(self, label_and_dump_stacks, how):
        for path, dense in label_and_dump_stacks:
            expected = io.read_heatmap_stack(path)
            _assert_same_channels(_read_without_seek_data(path, how), expected)
            _assert_same_channels(_read_without_seek_data(dense, how), expected)

    def test_a_file_cut_inside_a_trailing_hole_is_refused(self, tmp_path, monkeypatch):
        # channels 1 and 2 are all zeros: a hole, which would read as zeros
        # if the reader did not check where the file ends
        frame = PixelFrame(512, 512)
        stack = [render_gaussian(GaussianSpec((30.0, 40.0), 1.2), frame),
                 Heatmap(np.zeros((512, 512))), Heatmap(np.zeros((512, 512)))]
        path = tmp_path / "s.hmap"
        io.write_heatmap_stack(path, stack)
        full = path.stat()
        os.truncate(path, 16 + 4 * 512 * 512 + 8192)
        monkeypatch.setattr(io.os, "fstat", lambda fd: full)
        with pytest.raises(ValidationError, match="^.*s.hmap: file ended inside channel 1$"):
            io.read_heatmap_stack(path)

    def test_each_data_extent_is_read_in_one_call(self, tmp_path, monkeypatch):
        # every nonzero row written alone, the rest left as holes: channel 0
        # holds the header's block and a peak far below it, channel 1 two
        # peaks 190 rows apart, and channel 2 nothing
        if not _makes_holes(tmp_path):
            pytest.skip("the filesystem under the test's temp directory makes no holes")
        frame = PixelFrame(256, 256)
        peak = [render_gaussian(GaussianSpec(c, 1.2), frame).values
                for c in ((100.0, 120.0), (30.0, 40.0), (200.0, 230.0))]
        stack = [Heatmap(peak[0]), Heatmap(peak[1] + peak[2]), Heatmap(np.zeros((256, 256)))]
        data, row = _dense_bytes(stack), 4 * frame.width
        path, dense = tmp_path / "s.hmap", tmp_path / "dense.hmap"
        dense.write_bytes(data)
        with open(path, "wb") as f:
            f.write(data[:16])
            for at in range(16, len(data), row):
                if any(data[at:at + row]):
                    f.seek(at)
                    f.write(data[at:at + row])
            f.truncate(len(data))
        channel = 4 * 256 * 256
        with open(path, "rb") as f:
            extents = [io._data_extents(f.fileno(), 16 + k * channel, 16 + (k + 1) * channel)
                       for k in range(3)]
        if len(extents[1]) < 2:
            pytest.skip("the filesystem merged channel 1's two peaks into one data extent")
        reads = []

        class CountingFile(FileIO):
            def readinto(self, buffer):
                reads.append(len(buffer))
                return super().readinto(buffer)
        monkeypatch.setattr(io, "open", lambda file, mode, buffering: CountingFile(file, mode),
                            raising=False)
        back = io.read_heatmap_stack(path)
        monkeypatch.undo()
        # one call per data extent of each channel: no hole is read, and
        # channel 2, all holes, is not read at all
        assert reads == [hi - lo for ext in extents for lo, hi in ext]
        _assert_same_channels(back, io.read_heatmap_stack(dense))
        _assert_same_channels(back, [Heatmap(hm.values.astype("<f4")) for hm in stack])

    def test_a_label_stack_takes_under_a_tenth_of_its_length(self, tmp_path):
        if not _makes_holes(tmp_path):
            pytest.skip("the filesystem under the test's temp directory makes no holes")
        path = tmp_path / "s.hmap"
        io.write_heatmap_stack(path, render_label_stack(generate_phantom(Rng(7), PhantomConfig()),
                                                        1.2))
        info = path.stat()
        assert info.st_size == 16 + 11 * 4 * 512 * 512
        assert info.st_blocks * 512 < info.st_size / 10


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
        manifest = io.Manifest(records, landmark_count=1, working_size=PixelFrame(64, 64))
        path = tmp_path / "manifest.txt"
        io.write_manifest(path, manifest)
        back = io.read_manifest(path)
        assert back.landmark_count == 1
        assert back.working_size == PixelFrame(64, 64)
        assert [r.image_path for r in back.records] == [r.image_path for r in records]

    def test_relative_paths_follow_manifest(self, tmp_path):
        records = self._corpus(tmp_path)
        sub = tmp_path / "nested"
        sub.mkdir()
        path = sub / "manifest.txt"
        io.write_manifest(path, io.Manifest(records, landmark_count=1,
                                            working_size=PixelFrame(4, 4)))
        back = io.read_manifest(path)
        assert back.records[0].image_path.is_file()

    # the reader opens no file it names: the stage that opens one reports it
    def test_records_keep_their_paths_when_no_file_exists(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("landmark_count = 1\nworking_size = 4 4\n"
                        "[images]\nnope.pgm, nope.txt, 0.5\nsub/a.pgm, ../b.txt, 1.0\n")
        assert io.read_manifest(path).records == (
            io.ManifestRecord(tmp_path.resolve() / "nope.pgm", tmp_path.resolve() / "nope.txt",
                              0.5),
            io.ManifestRecord(tmp_path.resolve() / "sub" / "a.pgm",
                              tmp_path.resolve().parent / "b.txt", 1.0))

    # a manifest is read whole, as a sim config is: a line that sets nothing
    # the reader reads is refused by its number
    @pytest.mark.parametrize("old, new, message", [
        ("landmark_count = ", "landmark_cout = ", "line 2: unknown key 'landmark_cout'"),
        ("[images]", "[extra]\nkey = 1\n[images]", "line 4: unknown section [extra]"),
        # the first versions' grid, which nothing read
        ("working_size = ", "coord_size = 299 299\nworking_size = ",
         "line 3: unknown key 'coord_size'"),
    ], ids=["misspelt-key", "unknown-section", "coord-size"])
    def test_a_line_that_is_not_read_is_refused_by_its_number(self, tmp_path, old, new,
                                                              message):
        path = tmp_path / "manifest.txt"
        io.write_manifest(path, io.Manifest(self._corpus(tmp_path, n=1), landmark_count=1,
                                            working_size=PixelFrame(4, 4)))
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
            io.read_manifest(path)

    # the header states both required keys, so the row reaches its spacing
    def test_bad_spacing(self, tmp_path):
        records = self._corpus(tmp_path, n=1)
        path = tmp_path / "manifest.txt"
        rel = records[0].image_path.name
        path.write_text(f"landmark_count = 1\nworking_size = 4 4\n"
                        f"[images]\n{rel}, {records[0].landmarks_path.name}, -1\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: spacing must be "
                                                  f"positive and finite, got -1.0$"):
            io.read_manifest(path)

    # a line the reader does not accept is refused before any value is read,
    # so of two faults the earlier line wins
    def test_an_unknown_key_is_refused_before_a_bad_value(self, tmp_path):
        records = self._corpus(tmp_path, n=1)
        path = tmp_path / "manifest.txt"
        path.write_text(f"landmark_cout = 1\nworking_size = 4 4\n[images]\n"
                        f"{records[0].image_path.name}, {records[0].landmarks_path.name}, half\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: line 1: unknown key "
                                                  f"'landmark_cout'$"):
            io.read_manifest(path)

    # each header states both required keys, so each row reaches its own fault
    @pytest.mark.parametrize("header, cell, message", [
        ("landmark_count = abc\nworking_size = 4 4", "0.5",
         "invalid literal for int() with base 10: 'abc'"),
        ("landmark_count = 1\nworking_size = 64 wide", "0.5",
         "invalid literal for int() with base 10: 'wide'"),
        ("landmark_count = 1\nworking_size = 64", "0.5", "working_size needs two integers"),
        ("landmark_count = 1\nworking_size = 4 4", "half",
         "could not convert string to float: 'half'"),
        ("landmark_count = 1\nlandmark_count = 1\nworking_size = 4 4", "0.5",
         "line 2: duplicate key 'landmark_count'"),
        ("a.pgm, a.txt, 0.5", "0.5", "line 1: expected 'key = value', got 'a.pgm, a.txt, 0.5'"),
    ])
    def test_malformed_value_names_manifest(self, tmp_path, header, cell, message):
        records = self._corpus(tmp_path, n=1)
        path = tmp_path / "manifest.txt"
        path.write_text(f"{header}\n[images]\n{records[0].image_path.name}, "
                        f"{records[0].landmarks_path.name}, {cell}\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
            io.read_manifest(path)

    # a row of [images] is never read as 'key = value' or as a comment
    def test_record_paths_holding_equals_or_hash_read_back(self, tmp_path):
        records = []
        for rec, stem in zip(self._corpus(tmp_path), ["ph=1", "a#b"]):
            records.append(io.ManifestRecord(rec.image_path.rename(tmp_path / f"{stem}.pgm"),
                                             rec.landmarks_path.rename(tmp_path / f"{stem}.txt"),
                                             0.5))
        path = tmp_path / "manifest.txt"
        io.write_manifest(path, io.Manifest(tuple(records), landmark_count=1,
                                            working_size=PixelFrame(4, 4)))
        assert io.read_manifest(path).records == tuple(records)

    @pytest.mark.parametrize("name", ["#1.pgm", "a,b.pgm", "a\nb.pgm", "a\rb.pgm", " a.pgm",
                                      "a.pgm "])
    def test_a_record_path_that_would_not_read_back_is_refused(self, tmp_path, name):
        record = io.ManifestRecord(tmp_path / name, tmp_path / "a.txt", 0.5)
        path = tmp_path / "manifest.txt"
        with pytest.raises(ValidationError, match=re.escape(repr(str(tmp_path / name)))):
            io.write_manifest(path, io.Manifest((record,), landmark_count=1,
                                                working_size=PixelFrame(4, 4)))
        assert not path.exists()

    # every writer states the grid and the count, so a manifest without
    # either is refused, not read on a default grid or count; a line that
    # sets anything else is refused first, by its number
    @pytest.mark.parametrize("key", ["landmark_count", "working_size"])
    def test_a_manifest_without_its_grid_or_count_is_refused(self, tmp_path, key):
        path = tmp_path / "manifest.txt"
        io.write_manifest(path, io.Manifest(self._corpus(tmp_path, n=1), landmark_count=1,
                                            working_size=PixelFrame(4, 4)))
        text = "".join(line for line in path.read_text().splitlines(keepends=True)
                       if not line.startswith(key))
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: missing key {key!r}')}$"):
            io.read_manifest(path)
        path.write_text(text.replace("[images]", "working_sise = 4 4\n[images]"))
        with pytest.raises(ValidationError, match="^.*manifest.txt: line 3: unknown key "
                                                  "'working_sise'$"):
            io.read_manifest(path)


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

    @pytest.mark.parametrize("widths", [2, 12])
    def test_another_count_of_per_landmark_sigmas_fails_with_the_path(self, tmp_path, widths):
        path = _sim_config(tmp_path, 1, "prior_sigma_px = 6.0\n",
                           f"prior_sigma_px = {' '.join(['6.0'] * widths)}\n")
        with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {widths} prior "
                                                  f"sigmas for 11 landmarks$"):
            read_sim_config(path)

    # a sim config is read whole: a line that sets nothing the reader reads
    # is refused by its number, so no setting silently keeps its default
    @pytest.mark.parametrize("old, new, message", [
        ("floor_epsilon = ", "floor_eps = ", "line 19: unknown key 'floor_eps'"),
        ("decode = argmax\n", "decode = argmax\nprior_sigma_px = 3.0\n",
         "line 21: duplicate key 'prior_sigma_px'"),
        ("threshold_mm = 8.0\n", "threshold_mm = 8.0\n[runn]\nimages = 3\n",
         "line 24: unknown section [runn]"),
        ("[run]\n", "[run]\n1, 2, 3\n", "line 22: expected 'key = value', got '1, 2, 3'"),
        ("# spinefuse sim config v1\n", "# spinefuse sim config v1\nseed = 3\n",
         "line 2: unknown key 'seed'"),
        # a misspelt required key or section is named by its line, not reported as missing
        ("noise_sigma_px = ", "noise_sigma_pxx = ", "line 9: unknown key 'noise_sigma_pxx'"),
        ("[phantom]", "[phantomm]", "line 2: unknown section [phantomm]"),
    ], ids=["misspelt-key", "repeated-key", "unknown-section", "table-row", "key-before-sections",
            "misspelt-required-key", "misspelt-section"])
    def test_a_line_that_is_not_read_is_refused_by_its_number(self, tmp_path, old, new, message):
        path = _sim_config(tmp_path, 2, old, new)
        with pytest.raises(ValidationError, match=f"^{re.escape(f'{path}: {message}')}$"):
            read_sim_config(path)

    def test_missing_section(self, tmp_path):
        path = tmp_path / "sim.txt"
        path.write_text("[phantom]\nlandmarks = 11\n")
        with pytest.raises(ValidationError,
                           match=f"^{re.escape(str(path))}: missing \\[coords_model\\] section$"):
            read_sim_config(path)


# both formats are UTF-8 text, whatever the locale's encoding: under the C
# locale with neither coercion nor UTF-8 mode, a comment holding 'σ' reads
# as the file without it does
@pytest.mark.parametrize("reader", ["read_sim_config", "read_manifest"])
def test_a_file_is_read_as_utf8_whatever_the_locale(tmp_path, reader):
    if reader == "read_manifest":
        path, module = tmp_path / "manifest.txt", "spinefuse.io"
        io.write_manifest(path, io.Manifest(
            (io.ManifestRecord(tmp_path / "a.pgm", tmp_path / "a.txt", 0.5),), 1, PixelFrame(4, 4)))
        plain = io.read_manifest(path)
    else:
        path, module = _sim_config(tmp_path, 2), "spinefuse.simulate"
        plain = read_sim_config(path)
    path.write_text(f"# prior width \u03c3 in px\n{path.read_text()}", encoding="utf-8")
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(Path(io.__file__).parents[1]),
                                                       os.environ.get("PYTHONPATH")]))}
    code = (f"import sys\nfrom {module} import {reader}\n"
            f"print(repr({reader}(sys.argv[1])))\n")
    out = subprocess.run([sys.executable, "-c", code, str(path)], env=env, capture_output=True,
                         text=True, encoding="utf-8")
    assert out.stderr == ""
    assert out.stdout == f"{plain!r}\n"


# a file that starts with a UTF-8 byte-order mark, as some editors save
# one, reads as the file without it
@pytest.mark.parametrize("reader", ["read_sim_config", "read_manifest"])
def test_a_byte_order_mark_is_skipped(tmp_path, reader):
    if reader == "read_manifest":
        path, read = tmp_path / "manifest.txt", io.read_manifest
        io.write_manifest(path, io.Manifest(
            (io.ManifestRecord(tmp_path / "a.pgm", tmp_path / "a.txt", 0.5),), 1, PixelFrame(4, 4)))
    else:
        path, read = _sim_config(tmp_path, 2), read_sim_config
    marked = tmp_path / f"bom-{path.name}"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert read(marked) == read(path)


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

"""Every file reader, fed damaged copies of a valid file, either returns or
raises ValidationError or OSError with a message that starts with the path.
A damaged heatmap stack stored with holes reads as its dense copy does."""
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinefuse import io
from spinefuse.core import GrayImage, LandmarkSet, PixelFrame, ValidationError
from spinefuse.heatmap import GaussianSpec, Heatmap, render_gaussian
from spinefuse.simulate import read_sim_config
from sim_config import SIM_CONFIG

FRAME = PixelFrame(6, 5)
HOLES_FRAME = PixelFrame(32, 64)
TOKENS = [b"", b"abc", b"-1", b"0", b"7", b"nan", b"inf", b"1e999", b"99999999999",
          b"\x00", b"\xff", b"\xc3\xa9", b"[x]", b"#", b"=", b",", b"3.5"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A valid file per reader, written by the package's own writers, or for
    a sim config, which the package only reads, the tests' literal."""
    root = tmp_path_factory.mktemp("fuzz")
    io.write_pgm(root / "img.pgm", GrayImage(np.arange(30, dtype=np.uint8).reshape(5, 6), 0.5))
    io.write_landmarks(root / "lms.txt",
                       LandmarkSet(np.array([[1.0, 2.5], [3.25, 4.0]]), FRAME))
    io.write_heatmap_stack(root / "s.hmap", [
        render_gaussian(GaussianSpec((k + 1.0, 2.0), 1.0), PixelFrame(6, 5)) for k in range(2)])
    # 128-byte rows, 8 KiB channels: channels 0 and 2 are zeros, 1 has a peak
    # near its top and 3 near its bottom, so each peak's data follows a hole
    zeros = Heatmap(np.zeros((HOLES_FRAME.height, HOLES_FRAME.width)))
    io.write_heatmap_stack(root / "holes.hmap", [
        zeros, render_gaussian(GaussianSpec((5.0, 2.0), 1.0), HOLES_FRAME),
        zeros, render_gaussian(GaussianSpec((26.0, 61.0), 1.0), HOLES_FRAME)])
    io.write_manifest(root / "manifest.txt", io.Manifest(
        (io.ManifestRecord(root / "img.pgm", root / "lms.txt", 0.5),),
        landmark_count=2, working_size=PixelFrame(6, 5)))
    (root / "sim.txt").write_text(SIM_CONFIG.format(images=2))
    return root


READERS = {
    "img.pgm": io.read_pgm,
    "lms.txt": lambda path: io.read_landmarks(path, FRAME, 2),
    "s.hmap": io.read_heatmap_stack,
    "manifest.txt": io.read_manifest,
    "sim.txt": read_sim_config,
}


def _flip(data: bytes, flips) -> bytes:
    out = bytearray(data)
    for pos, bit in flips:
        out[pos % len(out)] ^= 1 << bit
    return bytes(out)


def _replace_token(data: bytes, index: int, token: bytes) -> bytes:
    parts = re.split(rb"([\s,=]+)", data)  # tokens at even indices
    parts[2 * (index % ((len(parts) + 1) // 2))] = token
    return b"".join(parts)


damage = st.one_of(
    st.tuples(st.just("truncate"), st.integers(0, 10_000)),
    st.tuples(st.just("flip"), st.lists(st.tuples(st.integers(0, 10_000), st.integers(0, 7)),
                                        min_size=1, max_size=4)),
    st.tuples(st.just("token"), st.tuples(st.integers(0, 200), st.sampled_from(TOKENS))),
)


def _damaged(data: bytes, how) -> bytes:
    kind, arg = how
    if kind == "truncate":
        return data[:arg % (len(data) + 1)]
    if kind == "flip":
        return _flip(data, arg)
    return _replace_token(data, *arg)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(how=damage)
def test_damaged_file_fails_cleanly(corpus, name, how):
    valid = (corpus / name).read_bytes()
    path = corpus / f"damaged-{name}"
    path.write_bytes(_damaged(valid, how))
    try:
        READERS[name](path)
    except (ValidationError, OSError) as exc:
        assert str(exc).startswith(str(path)), exc


def _write_with_holes(path, data: bytes, block: int = 4096) -> None:
    """Write data as a file whose all-zero blocks are left as holes."""
    with open(path, "wb") as f:
        for pos in range(0, len(data), block):
            chunk = data[pos:pos + block]
            if chunk.count(0) != len(chunk):
                f.seek(pos)
                f.write(chunk)
        f.truncate(len(data))


def _outcome(path):
    try:
        return [(hm._support, hm._block.tobytes()) for hm in io.read_heatmap_stack(path)]
    except (ValidationError, OSError) as exc:
        assert str(exc).startswith(str(path)), exc
        return str(exc)


BAD_VALUES = [0x7FC00000, 0x7F800001, 0x7F800000, 0xFF800000, 0xBF800000]

hole_damage = st.one_of(
    # cut, or padded with zeros
    st.tuples(st.just("resize"), st.integers(0, 40_000)),
    st.tuples(st.just("flip"), st.lists(st.tuples(st.integers(0, 40_000), st.integers(0, 7)),
                                        min_size=1, max_size=4)),
    st.tuples(st.just("value"), st.tuples(st.integers(0, 10_000), st.sampled_from(BAD_VALUES))),
)


@settings(max_examples=150, deadline=None)
@given(how=hole_damage)
def test_a_damaged_stack_with_holes_reads_as_its_dense_copy(corpus, how):
    data = (corpus / "holes.hmap").read_bytes()
    kind, arg = how
    if kind == "resize":
        data = data[:arg] + bytes(max(0, arg - len(data)))
    elif kind == "flip":
        data = _flip(data, arg)
    else:
        pos, bits = arg
        at = 16 + 4 * (pos % ((len(data) - 16) // 4))
        data = data[:at] + struct.pack("<I", bits) + data[at + 4:]
    path = corpus / "damaged-holes.hmap"
    path.write_bytes(data)
    dense = _outcome(path)
    _write_with_holes(path, data)
    assert _outcome(path) == dense


@pytest.mark.parametrize("bits, message", [(0x7FC00000, "finite"), (0x7F800000, "finite"),
                                           (0xFF800000, "finite"), (0xBF800000, "non-negative")],
                         ids=["nan", "inf", "-inf", "negative"])
@pytest.mark.parametrize("channel, row", [(1, 0), (3, 63)])
def test_a_bad_value_after_a_hole_is_refused(corpus, bits, message, channel, row):
    data = bytearray((corpus / "holes.hmap").read_bytes())
    channel_bytes = 4 * HOLES_FRAME.width * HOLES_FRAME.height
    at = 16 + channel * channel_bytes + row * 4 * HOLES_FRAME.width
    data[at:at + 4] = struct.pack("<I", bits)
    path = corpus / "bad-holes.hmap"
    _write_with_holes(path, bytes(data))
    with pytest.raises(ValidationError,
                       match=f"^{re.escape(str(path))}: channel {channel}: "
                             f"heatmap values must be {message}$"):
        io.read_heatmap_stack(path)


@pytest.mark.parametrize("delta", [-1, -4096, 1, 8192], ids=["cut", "cut-in-a-hole", "padded",
                                                          "padded-by-a-hole"])
def test_a_stack_with_holes_of_another_size_gives_its_size_line(corpus, delta):
    data = (corpus / "holes.hmap").read_bytes()
    size = len(data) + delta
    path = corpus / "resized-holes.hmap"
    _write_with_holes(path, data[:size] + bytes(max(0, delta)))
    with pytest.raises(ValidationError, match=f"^{re.escape(str(path))}: {size} bytes, "
                                              f"expected {len(data)} for 4x64x32$"):
        io.read_heatmap_stack(path)

"""Every file reader, fed damaged copies of a valid file, either returns or
raises ValidationError or OSError with a message that starts with the path."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinefuse import io
from spinefuse.core import GrayImage, LandmarkSet, PixelFrame, ValidationError
from spinefuse.heatmap import GaussianSpec, render_gaussian
from spinefuse.simulate import read_sim_config
from sim_config import SIM_CONFIG

FRAME = PixelFrame(6, 5)
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
    io.write_manifest(root / "manifest.txt", io.Manifest(
        (io.ManifestRecord(root / "img.pgm", root / "lms.txt", 0.5),),
        landmark_count=2, working_size=PixelFrame(6, 5)))
    (root / "sim.txt").write_text(SIM_CONFIG.format(images=2))
    return root


READERS = {
    "img.pgm": io.read_pgm,
    "lms.txt": lambda path: io.read_landmarks(path, FRAME),
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

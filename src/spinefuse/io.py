"""File formats: PGM images, landmark text, HMAP stacks, manifests, reports.

Every format is fixed bit-exactly so outputs are reproducible byte for byte:

* images: binary PGM (P5), 8-bit, maxval 255
* landmarks: text, header ``#count=N`` then one ``index,x,y`` line per point
* heatmap stacks, "HMAP v1": magic ``HMAP``, three little-endian uint32
  (channels, height, width), then channels*height*width little-endian
  float32, row-major within a channel, channel-major overall
* manifests, reports, and the simulation configs of :mod:`spinefuse.simulate`:
  line-oriented key/value and table sections (grammar below)

All writers go through :func:`atomic_write` (temp file + rename) so partial
runs never leave corrupt artifacts.
"""
from __future__ import annotations

import functools
import os
import secrets
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import GrayImage, LandmarkSet, PixelFrame, ValidationError, _positive_finite
from .evaluate import ComparisonReport, EvalReport
from .heatmap import Heatmap


def atomic_write(path: str | Path, data: bytes | bytearray | np.ndarray) -> None:
    """Write ``data``, any bytes-like buffer (bytes, bytearray, a contiguous
    numpy array), as is via a sibling temp file and rename, so readers never
    see a half-written file. The temp file has a random name, is created
    exclusively with mode 0o666 less the umask, and is removed if the write
    fails."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _reader(read):
    """Re-raise any ValueError of ``read(path, ...)`` (a bad number, undecodable
    text, a NUL byte in a path, a domain ValidationError) as a ValidationError
    whose message starts with the path. I/O errors pass through."""
    @functools.wraps(read)
    def checked(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except ValueError as exc:
            raise ValidationError(f"{path}: {exc}") from exc
    return checked


def _fmt_float(x: float) -> str:
    # repr round-trips doubles exactly and is the shortest such form
    return repr(float(x))


# ---------------------------------------------------------------------------
# PGM (P5)
# ---------------------------------------------------------------------------

def write_pgm(path: str | Path, img: GrayImage) -> None:
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    atomic_write(path, header + img.pixels.tobytes())


@_reader
def read_pgm(path: str | Path, spacing: float = 1.0) -> GrayImage:
    """Parse a binary PGM. Only 8-bit (maxval <= 255) images are accepted;
    ``spacing`` is attached from the caller since PGM carries no physical
    metadata."""
    data = Path(path).read_bytes()
    pos = 0

    def token() -> bytes:
        nonlocal pos
        while pos < len(data):
            if data[pos:pos + 1].isspace():
                pos += 1
            elif data[pos:pos + 1] == b"#":
                while pos < len(data) and data[pos] != 0x0A:
                    pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValidationError("truncated PGM header")
        return data[start:pos]

    if token() != b"P5":
        raise ValidationError("not a binary PGM (P5)")
    width, height, maxval = int(token()), int(token()), int(token())
    if maxval != 255:
        raise ValidationError(f"unsupported maxval {maxval}, need 255")
    pos += 1  # single whitespace byte after maxval
    raster = data[pos:pos + width * height]
    if len(raster) != width * height:
        raise ValidationError(f"raster holds {len(raster)} bytes, expected {width * height}")
    return GrayImage.from_flat(width, height, np.frombuffer(raster, dtype=np.uint8), spacing)


# ---------------------------------------------------------------------------
# landmark text files
# ---------------------------------------------------------------------------

def write_landmarks(path: str | Path, lms: LandmarkSet) -> None:
    lines = [f"#count={len(lms)}"]
    lines += [f"{i},{_fmt_float(x)},{_fmt_float(y)}" for i, (x, y) in enumerate(lms.points)]
    atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


@_reader
def read_landmarks(path: str | Path, frame: PixelFrame) -> LandmarkSet:
    """Parse a landmark file; ``frame`` is the pixel grid the points refer to."""
    text = Path(path).read_text(encoding="ascii")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#count="):
        raise ValidationError("missing #count= header")
    count = int(lines[0][len("#count="):])
    rows = lines[1:]
    if len(rows) != count:
        raise ValidationError(f"header says {count} landmarks, file has {len(rows)}")
    pts = np.empty((count, 2))
    for i, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != 3:
            raise ValidationError(f"line {i + 2}: expected index,x,y")
        try:
            idx, x, y = int(parts[0]), float(parts[1]), float(parts[2])
        except ValueError as exc:
            raise ValidationError(f"line {i + 2}: {row!r}") from exc
        if idx != i:
            raise ValidationError(f"line {i + 2}: index {idx}, expected {i}")
        pts[i] = (x, y)
    return LandmarkSet(pts, frame)


# ---------------------------------------------------------------------------
# HMAP v1 heatmap stacks
# ---------------------------------------------------------------------------

_HMAP_MAGIC = b"HMAP"


def write_heatmap_stack(path: str | Path, stack: list[Heatmap]) -> None:
    """Cast each channel's support box to float32 in place in one zeroed
    buffer, after the header, and write that buffer. A value beyond the
    float32 range is refused: it would be written as inf, which
    :func:`read_heatmap_stack` rejects."""
    if not stack:
        raise ValidationError("refusing to write an empty heatmap stack")
    h, w = stack[0]._shape
    buf = np.zeros(16 + len(stack) * h * w * 4, dtype=np.uint8)
    buf[:16] = np.frombuffer(_HMAP_MAGIC + struct.pack("<III", len(stack), h, w), np.uint8)
    body = buf[16:].view("<f4").reshape(len(stack), h, w)
    with np.errstate(over="raise"):
        for k, hm in enumerate(stack):
            if hm._shape != (h, w):
                raise ValidationError(f"channel {k} shape differs from channel 0")
            r0, r1, c0, c1 = hm._support
            try:
                body[k, r0:r1, c0:c1] = hm._block
            except FloatingPointError:
                raise ValidationError(
                    f"channel {k} holds a value beyond the float32 range") from None
    atomic_write(path, buf)


@_reader
def read_heatmap_stack(path: str | Path) -> list[Heatmap]:
    data = Path(path).read_bytes()
    if len(data) < 16 or data[:4] != _HMAP_MAGIC:
        raise ValidationError("not an HMAP v1 file")
    channels, h, w = struct.unpack("<III", data[4:16])
    if channels == 0:
        raise ValidationError(f"HMAP declares {channels} channels, need at least 1")
    expected = 16 + channels * h * w * 4
    if len(data) != expected:
        raise ValidationError(f"{len(data)} bytes, expected {expected} for {channels}x{h}x{w}")
    # each channel is a float32 view of the file's bytes; Heatmap casts and
    # validates only its nonzero block
    values = np.frombuffer(data, dtype="<f4", offset=16).reshape(channels, h, w)
    return [Heatmap(channel) for channel in values]


# ---------------------------------------------------------------------------
# key/value + table section text grammar
# ---------------------------------------------------------------------------
#
# A document is a sequence of lines. Blank lines and lines starting with '#'
# are ignored. '[name]' opens a section; 'key = value' lines belong to the
# current section ('' before any header); any other non-empty line in a
# section is a table row of comma-separated cells.

def _parse_sections(text: str) -> dict[str, tuple[dict[str, str], list[list[str]]]]:
    sections: dict[str, tuple[dict[str, str], list[list[str]]]] = {"": ({}, [])}
    current = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                raise ValidationError(f"line {lineno}: duplicate section [{current}]")
            sections[current] = ({}, [])
        elif "=" in line:
            key, _, value = line.partition("=")
            sections[current][0][key.strip()] = value.strip()
        else:
            sections[current][1].append([cell.strip() for cell in line.split(",")])
    return sections


def _need(kv: dict[str, str], key: str) -> str:
    if key not in kv:
        raise ValidationError(f"missing key {key!r}")
    return kv[key]


# ---------------------------------------------------------------------------
# dataset manifests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManifestRecord:
    image_path: Path
    landmarks_path: Path
    spacing_mm_per_px: float


@dataclass(frozen=True)
class Manifest:
    """A dataset: per-image records plus global defaults.

    Record paths are stored resolved; in the file they are relative to the
    manifest's own directory, so corpus directories are relocatable.
    """

    records: tuple[ManifestRecord, ...]
    landmark_count: int = 11
    working_size: tuple[int, int] = (512, 512)


def write_manifest(path: str | Path, manifest: Manifest) -> None:
    path = Path(path)
    lines = [
        "# spinefuse manifest v1",
        f"landmark_count = {manifest.landmark_count}",
        f"working_size = {manifest.working_size[0]} {manifest.working_size[1]}",
        "[images]",
        "# image_path, landmarks_path, spacing_mm_per_px",
    ]
    base = path.parent.resolve()
    for rec in manifest.records:
        img = os.path.relpath(rec.image_path.resolve(), base)
        lmk = os.path.relpath(rec.landmarks_path.resolve(), base)
        lines.append(f"{img}, {lmk}, {_fmt_float(rec.spacing_mm_per_px)}")
    atomic_write(path, ("\n".join(lines) + "\n").encode())


@_reader
def read_manifest(path: str | Path) -> Manifest:
    path = Path(path)
    sections = _parse_sections(path.read_text())
    kv = sections[""][0]
    landmark_count = int(kv.get("landmark_count", "11"))
    if landmark_count < 0:
        raise ValidationError("negative landmark_count")
    if "images" not in sections:
        raise ValidationError("missing [images] section")
    base = path.parent
    records = []
    for row in sections["images"][1]:
        if len(row) != 3:
            raise ValidationError(f"image row needs image_path, landmarks_path, spacing, got {row}")
        spacing = _positive_finite("spacing", float(row[2]))
        img = (base / row[0]).resolve()
        lmk = (base / row[1]).resolve()
        for p in (img, lmk):
            if not p.is_file():
                raise FileNotFoundError(f"{path}: referenced file missing: {p}")
        records.append(ManifestRecord(img, lmk, spacing))
    size = kv.get("working_size", "512 512").split()
    if len(size) != 2:
        raise ValidationError("working_size needs two integers")
    frame = PixelFrame(int(size[0]), int(size[1]))
    return Manifest(
        records=tuple(records),
        landmark_count=landmark_count,
        working_size=(frame.width, frame.height),
    )


# ---------------------------------------------------------------------------
# evaluation reports
# ---------------------------------------------------------------------------

_PER_LANDMARK_HEADER = "# index, total, hits, mean_error_mm, max_error_mm"


def _report_body(report: EvalReport) -> tuple[list[str], list[str]]:
    lines = [
        f"total = {report.total}",
        f"hits = {report.hits}",
        f"accuracy = {report.accuracy:.6f}",
        f"threshold_mm = {_fmt_float(report.threshold_mm)}",
        f"spacing_mm_per_px = {_fmt_float(report.spacing_mm_per_px)}",
    ]
    rows = [_PER_LANDMARK_HEADER]
    for row in report.per_landmark:
        rows.append(
            f"{row.index}, {row.total}, {row.hits}, "
            f"{row.mean_error_mm:.6f}, {row.max_error_mm:.6f}"
        )
    return lines, rows


def format_report(report: EvalReport) -> str:
    kv, rows = _report_body(report)
    return "\n".join(["# spinefuse report v1", "[summary]"] + kv + ["[per_landmark]"] + rows) + "\n"


def format_comparison(report: ComparisonReport) -> str:
    lines = [
        "# spinefuse comparison report v1",
        f"images = {report.images}",
        f"landmarks_per_image = {report.landmarks_per_image}",
        f"threshold_mm = {_fmt_float(report.threshold_mm)}",
        f"spacing_mm_per_px = {_fmt_float(report.spacing_mm_per_px)}",
    ]
    for name, rep in report.methods.items():
        kv, rows = _report_body(rep)
        lines += [f"[method {name}]"] + kv
        lines += [f"[method {name} per_landmark]"] + rows
    deltas = report.deltas()
    if deltas:
        lines.append("[deltas]")
        for name, (absolute, relative) in deltas.items():
            lines.append(f"{name}_absolute = {absolute:.6f}")
            lines.append(f"{name}_relative = {relative:.6f}")
    return "\n".join(lines) + "\n"


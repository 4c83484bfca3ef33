"""File formats: PGM images, landmark text, HMAP stacks, manifests, reports.

Every format is fixed bit-exactly so outputs are reproducible byte for byte:

* images: binary PGM (P5), 8-bit, maxval 255
* landmarks: text, header ``#count=N`` then one ``index,x,y`` line per point
* heatmap stacks, "HMAP v1": magic ``HMAP``, three little-endian uint32
  (channels, height, width), then channels*height*width little-endian
  float32, row-major within a channel, channel-major overall
* manifests, reports, and the simulation configs of :mod:`spinefuse.simulate`:
  UTF-8 text of line-oriented key/value and table sections (grammar below)

All writers go through :func:`_atomic_file` (temp file + rename) so partial
runs never leave corrupt artifacts. HMAP stacks are read and written one
channel at a time, through one reused float32 grid, so no whole stack file
is held in memory. The rows that float32 leaves all zero are written as
holes, holes are not read, and a channel that is read is scanned only over
the rows from its first data extent to its last.
"""
from __future__ import annotations

import contextlib
import errno
import functools
import os
import secrets
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import GrayImage, LandmarkSet, PixelFrame, ValidationError, _integer, _positive_finite
from .evaluate import ComparisonReport, EvalReport
from .heatmap import Heatmap


@contextlib.contextmanager
def _atomic_file(path: str | Path):
    """A binary file to write ``path`` through: a sibling temp file with a
    random name, created exclusively with mode 0o666 less the umask, renamed
    onto ``path`` when the block ends and removed if it raises, so readers
    never see a half-written file. An error creating the temp file names
    ``path``."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        # the temp file is never the caller's: name the file it stands for
        exc.filename = path
        raise
    try:
        with open(fd, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def atomic_write(path: str | Path, data: bytes | bytearray | np.ndarray) -> None:
    """Write ``data``, any bytes-like buffer (bytes, bytearray, a contiguous
    numpy array), as is through :func:`_atomic_file`."""
    with _atomic_file(path) as f:
        f.write(data)


def _reader(read):
    """Re-raise any ValueError of ``read(path, ...)`` (a bad number, undecodable
    text, a NUL byte in a path, a domain ValidationError) as a ValidationError
    whose message starts with the path, which it records as ``filename``, the
    attribute an OSError names its file by. I/O errors pass through."""
    @functools.wraps(read)
    def checked(path, *args, **kwargs):
        try:
            return read(path, *args, **kwargs)
        except ValueError as exc:
            err = ValidationError(f"{path}: {exc}")
            err.filename = path
            raise err from exc
    return checked


def _fmt_float(x: float) -> str:
    # repr round-trips doubles exactly and is the shortest such form
    return repr(float(x))


# ---------------------------------------------------------------------------
# PGM (P5)
# ---------------------------------------------------------------------------

def write_pgm(path: str | Path, img: GrayImage) -> None:
    header = f"P5\n{img.frame.width} {img.frame.height}\n255\n".encode("ascii")
    atomic_write(path, header + img.pixels.tobytes())


@_reader
def read_pgm(path: str | Path, spacing: float = 1.0) -> GrayImage:
    """Parse a binary PGM. Only 8-bit images with maxval 255 are accepted;
    any other maxval raises a ValidationError. ``spacing`` is attached from
    the caller since PGM carries no physical metadata."""
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
    PixelFrame(width, height)
    pos += 1  # single whitespace byte after maxval
    raster = data[pos:]
    if len(raster) != width * height:
        raise ValidationError(f"raster holds {len(raster)} bytes, expected {width * height}")
    return GrayImage(np.frombuffer(raster, np.uint8).reshape(height, width), spacing)


# ---------------------------------------------------------------------------
# landmark text files
# ---------------------------------------------------------------------------

def write_landmarks(path: str | Path, lms: LandmarkSet) -> None:
    lines = [f"#count={len(lms)}"]
    lines += [f"{i},{_fmt_float(x)},{_fmt_float(y)}" for i, (x, y) in enumerate(lms.points)]
    atomic_write(path, ("\n".join(lines) + "\n").encode("ascii"))


@_reader
def read_landmarks(path: str | Path, frame: PixelFrame, count: int) -> LandmarkSet:
    """Parse a landmark file of ``count`` points on the pixel grid ``frame``;
    the count is checked once the file has parsed, so a bad line wins."""
    text = Path(path).read_text(encoding="ascii")
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("#count="):
        raise ValidationError("missing #count= header")
    n = int(lines[0][len("#count="):])
    rows = lines[1:]
    if len(rows) != n:
        raise ValidationError(f"header says {n} landmarks, file has {len(rows)}")
    pts = np.empty((n, 2))
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
    lms = LandmarkSet(pts, frame)
    if n != count:
        raise ValidationError(f"{n} landmarks, expected {count}")
    return lms


# ---------------------------------------------------------------------------
# HMAP v1 heatmap stacks
# ---------------------------------------------------------------------------

_HMAP_MAGIC = b"HMAP"


def write_heatmap_stack(path: str | Path, stack: list[Heatmap]) -> None:
    """Write the header, then each channel through one reused zeroed float32
    grid: its support box is cast in, the box's rows from the first to the
    last that the cast leaves a nonzero byte in are written at their place
    in the file, and the box is zeroed again. The file is then extended to
    its full length, so every other row is left as a hole, which reads as
    zeros: the bytes are those of the dense grids. Every channel is checked
    before anything is written: its shape, and its maximum, which must not
    reach 2**128 - 2**103, the least double that float32 rounds to inf,
    which :func:`read_heatmap_stack` rejects."""
    if not stack:
        raise ValidationError("refusing to write an empty heatmap stack")
    frame = stack[0].frame
    for k, hm in enumerate(stack):
        if hm.frame != frame:
            raise ValidationError(f"channel {k} shape differs from channel 0")
        if hm._top >= 2.0 ** 128 - 2.0 ** 103:
            raise ValidationError(f"channel {k} holds a value beyond the float32 range")
    grid = np.zeros((frame.height, frame.width), dtype="<f4")
    row_bytes = 4 * frame.width
    with _atomic_file(path) as f:
        f.write(_HMAP_MAGIC + struct.pack("<III", len(stack), frame.height, frame.width))
        for k, hm in enumerate(stack):
            r0, r1, c0, c1 = hm._support
            box = grid[r0:r1, c0:c1]
            box[...] = hm._block
            # the rows from the first to the last that float32 leaves a bit set in
            held = np.flatnonzero(box.view("<u4").any(axis=1))
            if held.size:
                f.seek(16 + k * grid.nbytes + (r0 + held[0]) * row_bytes)
                f.write(grid[r0 + held[0]:r0 + held[-1] + 1])
            box[...] = 0
        f.truncate(16 + len(stack) * grid.nbytes)


def _data_extents(fd: int, start: int, end: int) -> list[tuple[int, int]]:
    """The byte ranges within [start, end) that the file's filesystem reports
    as data, found with SEEK_DATA and SEEK_HOLE; the bytes between them are
    holes, which read as zeros. Where the platform or the filesystem cannot
    say, the whole range counts as data."""
    if not hasattr(os, "SEEK_DATA"):
        return [(start, end)]
    extents, pos = [], start
    try:
        while pos < end:
            try:
                lo = os.lseek(fd, pos, os.SEEK_DATA)
            except OSError as exc:
                if exc.errno != errno.ENXIO:
                    raise
                break  # no data at or after pos
            if lo >= end:
                break
            pos = min(os.lseek(fd, lo, os.SEEK_HOLE), end)
            extents.append((lo, pos))
    except OSError:
        return [(start, end)]
    return extents


@_reader
def read_heatmap_stack(path: str | Path) -> list[Heatmap]:
    """Check the header and the file size, then read each channel into one
    reused zeroed float32 grid; ``Heatmap`` scans only the rows that were
    read for its nonzero block, which it casts and keeps. Only each
    channel's own data extents are read, and the range from its first to
    its last is zeroed again after the channel, so a hole costs nothing. The
    reader trusts the filesystem's map of holes, as ``cp`` and ``tar
    --sparse`` do."""
    with open(path, "rb", buffering=0) as f:
        header = f.read(16)
        if len(header) < 16 or header[:4] != _HMAP_MAGIC:
            raise ValidationError("not an HMAP v1 file")
        channels, h, w = struct.unpack("<III", header[4:])
        if channels == 0:
            raise ValidationError(f"HMAP declares {channels} channels, need at least 1")
        size = os.fstat(f.fileno()).st_size
        expected = 16 + channels * h * w * 4
        if size != expected:
            raise ValidationError(f"{size} bytes, expected {expected} for {channels}x{h}x{w}")
        PixelFrame(w, h)
        # the file may have been cut since its size was taken
        end = min(os.lseek(f.fileno(), 0, os.SEEK_END), expected)
        grid = np.zeros((h, w), dtype="<f4")
        raw, row_bytes = grid.reshape(-1).view(np.uint8), 4 * w
        stack = []
        for k in range(channels):
            start, stop = 16 + k * grid.nbytes, 16 + (k + 1) * grid.nbytes
            if stop > end:
                raise ValidationError(f"file ended inside channel {k}")
            extents = _data_extents(f.fileno(), start, stop)
            for a, b in extents:
                f.seek(a)
                if f.readinto(raw[a - start:b - start]) != b - a:
                    raise ValidationError(f"file ended inside channel {k}")
            # the rows from the first extent to the last: every other row is 0
            lo, hi = (extents[0][0] - start, extents[-1][1] - start) if extents else (0, 0)
            try:
                stack.append(Heatmap(grid, _rows=(lo // row_bytes, -(-hi // row_bytes))))
            except ValidationError as exc:
                raise ValidationError(f"channel {k}: {exc}") from exc
            raw[lo:hi] = 0
    return stack


# ---------------------------------------------------------------------------
# key/value + table section text grammar
# ---------------------------------------------------------------------------
#
# A document is a sequence of lines. Blank lines and lines starting with '#'
# are ignored. '[name]' opens a section, each name once; the lines before
# any header belong to the section ''. Each line of a table section is a row
# of comma-separated cells; each line of any other section is 'key = value',
# each key once in its section. A reader states the sections and keys it
# accepts, and a document is refused in one order: first every line the
# reader does not accept, by its number and in file order; then the first
# missing section or required key; then, by the reader, the values.

def _parse_sections(text: str, keys: dict[str, tuple[str, ...] | None],
                    optional: tuple[str, ...] = ()) -> dict:
    """Each section that ``keys`` names, as a dict of its values, or for a
    table section (``None``) as a list of rows, refused in the order above;
    a key in ``optional`` may be missing."""
    sections = {"": {}}
    name = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in sections:
                raise ValidationError(f"line {lineno}: duplicate section [{name}]")
            if name not in keys:
                raise ValidationError(f"line {lineno}: unknown section [{name}]")
            sections[name] = {} if keys[name] is not None else []
        elif keys.get(name, ()) is None:
            sections[name].append([cell.strip() for cell in line.split(",")])
        elif "=" in line:
            key, _, value = (part.strip() for part in line.partition("="))
            if key not in keys.get(name, ()):
                raise ValidationError(f"line {lineno}: unknown key {key!r}")
            if key in sections[name]:
                raise ValidationError(f"line {lineno}: duplicate key {key!r}")
            sections[name][key] = value
        else:
            raise ValidationError(f"line {lineno}: expected 'key = value', got {line!r}")
    for name in keys:
        if name not in sections:
            raise ValidationError(f"missing [{name}] section")
    for name, names in keys.items():
        for key in names or ():
            if key not in sections[name] and key not in optional:
                raise ValidationError(f"missing key {key!r}")
    return sections


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
    """A dataset: per-image records, their landmark count and the working grid.

    Record paths are stored resolved; in the file they are relative to the
    manifest's own directory, so corpus directories are relocatable.
    """

    records: tuple[ManifestRecord, ...]
    landmark_count: int
    working_size: PixelFrame

    def __post_init__(self):
        object.__setattr__(self, "landmark_count",
                           _integer("landmark_count", self.landmark_count))
        if self.landmark_count < 0:
            raise ValidationError("negative landmark_count")
        if not isinstance(self.working_size, PixelFrame):
            raise ValidationError(f"working_size must be a PixelFrame, got {self.working_size!r}")


def _record_cell(path: Path, base: Path) -> str:
    """path relative to base, as a manifest row holds it; a ValidationError
    if that cell would not read back as itself: one that starts with '#',
    holds a comma or a line break, or has leading or trailing whitespace."""
    cell = os.path.relpath(path.resolve(), base)
    if cell.startswith("#") or "," in cell or cell.splitlines() != [cell.strip()]:
        raise ValidationError(f"record path {str(path)!r} cannot be written to a manifest: "
                              "it would not read back")
    return cell


def write_manifest(path: str | Path, manifest: Manifest) -> None:
    path = Path(path)
    lines = [
        "# spinefuse manifest v1",
        f"landmark_count = {manifest.landmark_count}",
        f"working_size = {manifest.working_size.width} {manifest.working_size.height}",
        "[images]",
        "# image_path, landmarks_path, spacing_mm_per_px",
    ]
    base = path.parent.resolve()
    for rec in manifest.records:
        img = _record_cell(rec.image_path, base)
        lmk = _record_cell(rec.landmarks_path, base)
        lines.append(f"{img}, {lmk}, {_fmt_float(rec.spacing_mm_per_px)}")
    atomic_write(path, ("\n".join(lines) + "\n").encode())


@_reader
def read_manifest(path: str | Path) -> Manifest:
    """Parse a manifest, UTF-8 text after an optional byte-order mark; a
    file it names is opened only by the stage that reads it.
    ``landmark_count``, ``working_size`` and ``[images]`` are required, and
    a line that sets anything else is refused first, by its number."""
    path = Path(path)
    sections = _parse_sections(path.read_text(encoding="utf-8-sig"),
                               {"": ("landmark_count", "working_size"), "images": None})
    base = path.parent
    records = []
    for row in sections["images"]:
        if len(row) != 3:
            raise ValidationError(f"image row needs image_path, landmarks_path, spacing, got {row}")
        records.append(ManifestRecord((base / row[0]).resolve(), (base / row[1]).resolve(),
                                      _positive_finite("spacing", float(row[2]))))
    size = sections[""]["working_size"].split()
    if len(size) != 2:
        raise ValidationError("working_size needs two integers")
    return Manifest(
        records=tuple(records),
        landmark_count=int(sections[""]["landmark_count"]),
        working_size=PixelFrame(int(size[0]), int(size[1])),
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


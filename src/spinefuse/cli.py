"""Command-line pipeline: phantom corpora, preprocessing, label generation,
fusion, decoding, evaluation, and the simulator.

Exit codes: 0 success, 2 usage, 3 I/O error, 4 validation error, 5 internal
error. All randomness flows from ``--seed``; re-running any command with the
same inputs and seed reproduces its outputs byte for byte. ``--jobs N`` runs a
batch's items on N processes, this one and N - 1 forked workers (serially
where ``os.fork`` is missing), with the same outputs for any N; a worker that
dies fails each of its items as an internal error.
"""
from __future__ import annotations

import argparse
import functools
import os
import pickle
import signal
import sys
import traceback
from pathlib import Path

import numpy as np

from . import io
from .core import (LandmarkSet, PixelFrame, Rng, ValidationError, _non_negative_finite,
                   _positive_finite)
from .evaluate import pck
from .fusion import DecodeMethod, FusionConfig, fuse_batch
from .geometry import AugmentationRanges, sample_valid_augmentation, warp_image, warp_landmarks
from .heatmap import _usable_sigma, decode_argmax, decode_centroid, render_label_stack
from .preprocess import equalize_histogram, resize_bilinear, resize_landmarks
from .simulate import (
    PhantomConfig,
    calibrated_config,
    generate_phantom,
    noiseless_config,
    phantom_image,
    read_sim_config,
    run_trial,
)

EXIT_OK = 0
EXIT_IO = 3
EXIT_VALIDATION = 4
EXIT_INTERNAL = 5


def _run_jobs(fn, items, jobs: int):
    """Apply fn to each item; results keep input order as (result, exception)
    pairs, and per-item exceptions are captured instead of aborting the batch.

    With w = min(jobs, len(items)) > 1 and os.fork, items run on w processes:
    w - 1 workers are forked before any item runs, worker k takes items k,
    k + w, ... and sends its pairs back through a pipe as one pickle, and this
    process runs items 0, w, 2w, .... A worker that exits without sending
    (a crash, a signal) fails each of its items with a RuntimeError naming
    how it ended. No worker outlives the call: one still running when this
    process raises is killed, and every worker is reaped."""
    def guarded(item):
        try:
            return fn(item), None
        except Exception as exc:  # collected per file
            return None, exc

    w = min(jobs, len(items))
    if w <= 1 or not hasattr(os, "fork"):
        return [guarded(item) for item in items]
    workers = []  # (pid, read end of its pipe), each until reaped
    try:
        for k in range(1, w):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:  # the worker: it leaves here, whatever happens
                status = 1
                try:
                    os.close(read_end)
                    with open(write_end, "wb") as pipe:
                        pickle.dump([(result, None if exc is None else _portable(exc))
                                     for result, exc in map(guarded, items[k::w])], pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            workers.append((pid, open(read_end, "rb")))
        results = [None] * len(items)
        results[::w] = [guarded(item) for item in items[::w]]
        for k, (pid, pipe) in enumerate(list(workers), 1):
            data = pipe.read()
            pipe.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.remove((pid, pipe))
            if code == 0:
                results[k::w] = pickle.loads(data)
            else:
                how = f"exited with status {code}" if code > 0 else f"was killed by signal {-code}"
                lost = RuntimeError(f"worker process {how} before it sent its items")
                results[k::w] = [(None, lost)] * len(results[k::w])
        return results
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _portable(exc: Exception) -> Exception:
    """exc as a worker sends it. A traceback does not pickle, so the formatted
    one goes along as text, which _report prints; an exception that does not
    survive pickling goes as a RuntimeError naming its type and message."""
    text = "".join(traceback.format_exception(exc))
    try:
        exc._traceback_text = text
        pickle.loads(pickle.dumps(exc))
    except Exception:
        exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        exc._traceback_text = text
    return exc


def _report(exc: Exception, path: Path | None = None) -> int:
    """Print exc as one ``error:`` line and return its exit class. An internal
    error prints its traceback first and names its type. The line starts with
    the file the error names (a rename's target, else its ``filename``), once;
    if it names none, with path, a batch item's file."""
    name = getattr(exc, "filename2", None) or getattr(exc, "filename", None)
    if isinstance(exc, OSError):
        code, msg = EXIT_IO, f"{name}: [Errno {exc.errno}] {exc.strerror}" if name else str(exc)
    elif isinstance(exc, ValidationError):
        code, msg = EXIT_VALIDATION, str(exc)  # a reader's message starts with name
    else:
        # a worker's exception brings its traceback as text (_portable)
        sys.stderr.write(getattr(exc, "_traceback_text", None)
                         or "".join(traceback.format_exception(exc)))
        code, msg = EXIT_INTERNAL, f"{type(exc).__name__}: {exc}"
    if path is not None and name is None:
        msg = f"{path}: {msg}"
    print(f"error: {msg}", file=sys.stderr)
    return code


def _batch(process, items, paths, jobs: int):
    """Run process over items through _run_jobs and report each failure with
    its path. Returns the successful results, in input order, and the exit
    class of the first failure (EXIT_OK if none failed)."""
    results = _run_jobs(process, items, jobs)
    codes = [_report(exc, path) for (_, exc), path in zip(results, paths) if exc is not None]
    return [result for result, exc in results if exc is None], (codes or [EXIT_OK])[0]


def _out_dir(args) -> Path:
    """--out-dir, made if missing."""
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, records, landmark_count: int, working_size) -> None:
    """The manifest.txt of a stage's output corpus in out."""
    io.write_manifest(out / "manifest.txt", io.Manifest(
        records=tuple(records), landmark_count=landmark_count, working_size=working_size))


def _stack_stage(args, process, verb: str) -> int:
    """Run process(stack_path, stack, out) through _batch over the sorted
    .hmap files of --heatmaps-dir, each stack read first, into --out-dir.
    No stack at all is refused before --out-dir is made."""
    heat_dir = Path(args.heatmaps_dir)
    stacks = sorted(heat_dir.glob("*.hmap"))
    if not stacks:
        raise ValidationError(f"no .hmap files in {heat_dir}")
    out = _out_dir(args)
    ok, code = _batch(lambda path: process(path, io.read_heatmap_stack(path), out),
                      stacks, stacks, args.jobs)
    print(f"{verb} {len(ok)} stacks into {out}")
    return code


def _emit(args, text: str) -> int:
    """Print a report, and also write it to --out when that is given."""
    if args.out:
        io.atomic_write(args.out, text.encode())
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_phantom(args) -> int:
    config = PhantomConfig(
        landmarks=args.landmarks,
        width=args.grid[0],
        height=args.grid[1],
        spacing_mm_per_px=args.spacing,
        chain_spacing_px=args.chain_spacing,
        wobble_px=args.wobble,
    )
    master = Rng(args.seed)
    out = _out_dir(args)
    records = []
    for i in range(args.count):
        lms = generate_phantom(master.spawn(i), config)
        img_path = out / f"phantom_{i:03d}.pgm"
        lmk_path = out / f"phantom_{i:03d}.txt"
        io.write_pgm(img_path, phantom_image(lms, config))
        io.write_landmarks(lmk_path, lms)
        records.append(io.ManifestRecord(img_path, lmk_path, config.spacing_mm_per_px))
    _write_manifest(out, records, config.landmarks, config.frame)
    print(f"wrote {args.count} phantoms to {out}")
    return EXIT_OK


def cmd_equalize(args) -> int:
    manifest = io.read_manifest(args.manifest)
    out = _out_dir(args)

    def process(rec: io.ManifestRecord):
        img = io.read_pgm(rec.image_path, rec.spacing_mm_per_px)
        # the landmarks are checked, then copied byte for byte
        io.read_landmarks(rec.landmarks_path, img.frame, manifest.landmark_count)
        img_path = out / rec.image_path.name
        lmk_path = out / rec.landmarks_path.name
        io.write_pgm(img_path, equalize_histogram(img))
        io.atomic_write(lmk_path, rec.landmarks_path.read_bytes())
        return io.ManifestRecord(img_path, lmk_path, rec.spacing_mm_per_px)

    ok, code = _batch(process, manifest.records,
                      [r.image_path for r in manifest.records], args.jobs)
    _write_manifest(out, ok, manifest.landmark_count, manifest.working_size)
    print(f"equalized {len(ok)}/{len(manifest.records)} images into {out}")
    return code


def cmd_augment(args) -> int:
    manifest = io.read_manifest(args.manifest)
    ranges = AugmentationRanges(
        tx=tuple(args.tx_range), ty=tuple(args.ty_range),
        angle_deg=tuple(args.angle_range), scale=tuple(args.scale_range),
    )
    work = PixelFrame(*args.working_size) if args.working_size else manifest.working_size
    master = Rng(args.seed)
    out = _out_dir(args)

    def process(task):
        i, j, rec = task
        stream = master.spawn(i * args.count + j)
        img = io.read_pgm(rec.image_path, rec.spacing_mm_per_px)
        lms = io.read_landmarks(rec.landmarks_path, img.frame, manifest.landmark_count)
        lms.validate_bounds()
        transform = sample_valid_augmentation(stream, ranges, lms)
        warped_img = warp_image(img, transform)
        warped_lms = warp_landmarks(lms, transform)
        out_img = resize_bilinear(warped_img, work)
        out_lms = resize_landmarks(warped_lms, work)
        stem = rec.image_path.stem
        img_path = out / f"{stem}_aug{j:03d}.pgm"
        lmk_path = out / f"{stem}_aug{j:03d}.txt"
        io.write_pgm(img_path, out_img)
        io.write_landmarks(lmk_path, out_lms)
        return io.ManifestRecord(img_path, lmk_path, out_img.spacing)

    tasks = [(i, j, rec) for i, rec in enumerate(manifest.records) for j in range(args.count)]
    ok, code = _batch(process, tasks, [t[2].image_path for t in tasks], args.jobs)
    _write_manifest(out, ok, manifest.landmark_count, work)
    print(f"wrote {len(ok)} augmented pairs to {out}")
    return code


def cmd_gen_heatmaps(args) -> int:
    manifest = io.read_manifest(args.manifest)
    out = _out_dir(args)

    def process(rec: io.ManifestRecord):
        # the labels are drawn on the image's grid, which working_size need not be
        frame = io.read_pgm(rec.image_path).frame
        lms = io.read_landmarks(rec.landmarks_path, frame, manifest.landmark_count)
        stack = render_label_stack(lms, args.sigma)
        path = out / f"{rec.image_path.stem}.hmap"
        io.write_heatmap_stack(path, stack)
        return path

    ok, code = _batch(process, manifest.records,
                      [r.image_path for r in manifest.records], args.jobs)
    print(f"wrote {len(ok)} heatmap stacks to {out}")
    return code


def _flag(parse):
    """An argparse type: parse(raw), with a ValueError (a bad number, or the
    ValidationError of the rule the value must meet) reported in its own
    words as a usage error, exit 2."""
    def checked(raw: str):
        try:
            return parse(raw)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return checked


def _prior_sigmas(raw: str) -> float | tuple[float, ...]:
    sigmas = tuple(float(p) for p in raw.split(","))
    return FusionConfig(prior_sigma=sigmas[0] if len(sigmas) == 1 else sigmas).prior_sigma


def cmd_fuse(args) -> int:
    coord_dir = Path(args.coords_dir)
    cfg = FusionConfig(
        prior_sigma=args.prior_sigma,
        floor_epsilon=args.floor_epsilon,
        decode=DecodeMethod(args.decode),
    )

    def process(stack_path: Path, stack, out: Path):
        coords_path = coord_dir / f"{stack_path.stem}.txt"
        coords = io.read_landmarks(coords_path, stack[0].frame, len(stack))
        # with dumps, one log-sum per channel gives both its point and its map
        dumps = [] if args.dump_heatmaps else None
        fused = fuse_batch(stack, coords, cfg, _dumps=dumps)
        io.write_landmarks(out / f"{stack_path.stem}.txt", fused)
        if dumps:
            io.write_heatmap_stack(out / f"{stack_path.stem}.fused.hmap", dumps)

    return _stack_stage(args, process, "fused")


def cmd_decode(args) -> int:
    def process(stack_path: Path, stack, out: Path):
        decode = decode_argmax if args.method == "argmax" else decode_centroid
        pts = []
        for k, hm in enumerate(stack):
            try:
                pts.append(decode(hm))
            except ValidationError as exc:
                raise ValidationError(f"channel {k}: {exc}") from exc
        io.write_landmarks(out / f"{stack_path.stem}.txt",
                           LandmarkSet(np.array(pts, dtype=np.float64), stack[0].frame))

    return _stack_stage(args, process, "decoded")


def cmd_eval(args) -> int:
    manifest = io.read_manifest(args.manifest)
    if not (manifest.records and manifest.landmark_count):
        raise ValidationError(f"{args.manifest}: no landmarks to evaluate")
    pred_dir = Path(args.pred_dir)
    frame = manifest.working_size
    gts, preds, spacings = [], [], []
    for rec in manifest.records:
        gts.append(io.read_landmarks(rec.landmarks_path, frame, manifest.landmark_count))
        preds.append(io.read_landmarks(pred_dir / rec.landmarks_path.name, frame,
                                       manifest.landmark_count))
        spacings.append(rec.spacing_mm_per_px)
    return _emit(args, io.format_report(pck(preds, gts, args.threshold_mm, spacings)))


def cmd_simulate(args) -> int:
    if args.config:
        config = read_sim_config(args.config)
    elif args.preset == "noiseless":
        config = noiseless_config()
    else:
        config = calibrated_config()
    return _emit(args, io.format_comparison(run_trial(Rng(args.seed), config)))


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _commands() -> dict:
    """Each subcommand's function and help line, by name. Built on each call,
    so it holds the module's cmd_* as they are then: one replaced after the
    parser was built (a tracer's wrapper, say) is the one that runs."""
    return {
        "phantom": (cmd_phantom, "generate a synthetic corpus"),
        "equalize": (cmd_equalize, "histogram-equalize a corpus"),
        "augment": (cmd_augment, "emit augmented image/landmark pairs at the working size"),
        "gen-heatmaps": (cmd_gen_heatmaps, "render label heatmap stacks"),
        "fuse": (cmd_fuse, "fuse heatmap stacks with coordinate predictions"),
        "decode": (cmd_decode, "decode heatmap stacks to landmarks"),
        "eval": (cmd_eval, "score predictions against a manifest"),
        "simulate": (cmd_simulate, "compare coords-only, heatmap-argmax, and fused decoding"),
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The spinefuse parser, built on the first call and shared by every
    later one: parsing keeps no state in it, and it holds no command
    function."""
    parser = argparse.ArgumentParser(
        prog="spinefuse",
        description="Landmark localization by fusing heatmaps with coordinate priors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, text) in _commands().items():
        # no abbreviations: a flag the subcommand does not take is refused,
        # not read as one it does (--out as --out-dir)
        commands[name] = sub.add_parser(name, help=text, allow_abbrev=False)

    # each subcommand takes only the path flags and shared flags it reads,
    # and refuses any other (exit 2); its path flags lead its usage line
    for flag, readers in [
        ("--manifest", "equalize augment gen-heatmaps eval"),
        ("--heatmaps-dir", "fuse decode"),
        ("--coords-dir", "fuse"),
        ("--out-dir", "phantom equalize augment gen-heatmaps fuse decode"),
    ]:
        for name in readers.split():
            commands[name].add_argument(flag, required=True)

    p = commands["phantom"]
    p.add_argument("--count", default=10,
                   type=_flag(lambda raw: _non_negative_finite("count", int(raw))))
    p.add_argument("--landmarks", type=int, default=PhantomConfig.landmarks)
    p.add_argument("--grid", type=int, nargs=2, metavar=("W", "H"),
                   default=(PhantomConfig.width, PhantomConfig.height))
    p.add_argument("--spacing", type=float, default=PhantomConfig.spacing_mm_per_px,
                   help="mm per pixel")
    p.add_argument("--chain-spacing", type=float, default=PhantomConfig.chain_spacing_px)
    p.add_argument("--wobble", type=float, default=PhantomConfig.wobble_px)

    p = commands["augment"]
    p.add_argument("--count", default=1, help="augmented copies per input",
                   type=_flag(lambda raw: _non_negative_finite("count", int(raw))))
    p.add_argument("--tx-range", type=float, nargs=2, default=AugmentationRanges.tx)
    p.add_argument("--ty-range", type=float, nargs=2, default=AugmentationRanges.ty)
    p.add_argument("--angle-range", type=float, nargs=2, default=AugmentationRanges.angle_deg)
    p.add_argument("--scale-range", type=float, nargs=2, default=AugmentationRanges.scale)
    p.add_argument("--working-size", nargs=2, default=None, metavar=("W", "H"),
                   type=_flag(lambda raw: _positive_finite("working_size", int(raw))))

    commands["gen-heatmaps"].add_argument(
        "--sigma", type=_flag(lambda raw: _usable_sigma("sigma", float(raw))), default=1.2)

    p = commands["fuse"]
    p.add_argument("--prior-sigma", type=_flag(_prior_sigmas), default=FusionConfig.prior_sigma,
                   help="one value, or comma-separated per-landmark values")
    p.add_argument("--floor-epsilon", default=FusionConfig.floor_epsilon,
                   type=_flag(lambda raw: _positive_finite("floor_epsilon", float(raw))))
    p.add_argument("--decode", choices=[m.value for m in DecodeMethod],
                   default=FusionConfig.decode.value)
    p.add_argument("--dump-heatmaps", action="store_true",
                   help="also write fused stacks as .fused.hmap")

    commands["decode"].add_argument("--method", choices=[m.value for m in DecodeMethod],
                                    default="argmax")

    p = commands["eval"]
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--threshold-mm", default=8.0,
                   type=_flag(lambda raw: _positive_finite("threshold", float(raw))))

    p = commands["simulate"]
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", help="sim config file")
    source.add_argument("--preset", choices=["calibrated", "noiseless"],
                        help="built-in config (default calibrated)")

    # the shared flags end each usage line
    for flag, readers, kwargs in [
        ("--out", "eval simulate", dict(default=None, help="also write the report here")),
        ("--seed", "phantom augment simulate",
         dict(default=0, help="master random seed", type=_flag(lambda raw: Rng(int(raw)).seed))),
        ("--jobs", "equalize augment gen-heatmaps fuse decode",
         dict(default=1, help="processes for file batches",
              type=_flag(lambda raw: _positive_finite("jobs", int(raw))))),
    ]:
        for name in readers.split():
            commands[name].add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func, _ = _commands()[args.command]
    try:
        return func(args)
    except Exception as exc:  # the exit code names the class of failure
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())

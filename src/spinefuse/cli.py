"""Command-line pipeline: phantom corpora, preprocessing, label generation,
fusion, decoding, evaluation, and the simulator.

Exit codes: 0 success, 2 usage, 3 I/O error, 4 validation error, 5 internal
error. All randomness flows from ``--seed``; re-running any command with the
same inputs and seed reproduces its outputs byte for byte.
"""
from __future__ import annotations

import argparse
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import io
from .core import (LandmarkSet, PixelFrame, Rng, ValidationError, _non_negative_finite,
                   _positive_finite)
from .evaluate import pck
from .fusion import DecodeMethod, FusionConfig, fuse_batch
from .geometry import AugmentationRanges, sample_valid_augmentation, warp_image, warp_landmarks
from .heatmap import _odd_window, _usable_sigma, decode_argmax, decode_centroid, render_label_stack
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
    """Apply fn to each item, optionally in threads; results keep input order
    and per-item exceptions are captured instead of aborting the batch."""
    def guarded(item):
        try:
            return fn(item), None
        except Exception as exc:  # collected per file
            return None, exc

    if jobs <= 1 or len(items) <= 1:
        return [guarded(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(guarded, items))


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
        traceback.print_exception(exc)
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


@io._reader
def _read_counted(path: Path, frame: PixelFrame, landmark_count: int) -> LandmarkSet:
    """The landmarks in path, which must number the manifest's landmark_count."""
    lms = io.read_landmarks(path, frame)
    if len(lms) != landmark_count:
        raise ValidationError(f"{len(lms)} landmarks, manifest says {landmark_count}")
    return lms


def _read_pair(rec: io.ManifestRecord, landmark_count: int):
    """A record's image and its landmarks, which must number landmark_count."""
    img = io.read_pgm(rec.image_path, rec.spacing_mm_per_px)
    return img, _read_counted(rec.landmarks_path, PixelFrame(img.width, img.height),
                              landmark_count)


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
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for i in range(args.count):
        lms = generate_phantom(master.spawn(i), config)
        img_path = out / f"phantom_{i:03d}.pgm"
        lmk_path = out / f"phantom_{i:03d}.txt"
        io.write_pgm(img_path, phantom_image(lms, config))
        io.write_landmarks(lmk_path, lms)
        records.append(io.ManifestRecord(img_path, lmk_path, config.spacing_mm_per_px))
    io.write_manifest(out / "manifest.txt", io.Manifest(
        records=tuple(records), landmark_count=config.landmarks,
        working_size=(config.width, config.height),
    ))
    print(f"wrote {args.count} phantoms to {out}")
    return EXIT_OK


def cmd_equalize(args) -> int:
    manifest = io.read_manifest(args.manifest)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def process(rec: io.ManifestRecord):
        img = io.read_pgm(rec.image_path, rec.spacing_mm_per_px)
        img_path = out / rec.image_path.name
        lmk_path = out / rec.landmarks_path.name
        io.write_pgm(img_path, equalize_histogram(img))
        io.atomic_write(lmk_path, rec.landmarks_path.read_bytes())
        return io.ManifestRecord(img_path, lmk_path, rec.spacing_mm_per_px)

    ok, code = _batch(process, manifest.records,
                      [r.image_path for r in manifest.records], args.jobs)
    io.write_manifest(out / "manifest.txt", io.Manifest(
        records=tuple(ok), landmark_count=manifest.landmark_count,
        working_size=manifest.working_size,
    ))
    print(f"equalized {len(ok)}/{len(manifest.records)} images into {out}")
    return code


def cmd_augment(args) -> int:
    manifest = io.read_manifest(args.manifest)
    ranges = AugmentationRanges(
        tx=tuple(args.tx_range), ty=tuple(args.ty_range),
        angle_deg=tuple(args.angle_range), scale=tuple(args.scale_range),
    )
    work_w, work_h = args.working_size or manifest.working_size
    master = Rng(args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def process(task):
        i, j, rec = task
        stream = master.spawn(i * args.count + j)
        img, lms = _read_pair(rec, manifest.landmark_count)
        lms.validate_bounds()
        center = ((img.width - 1) / 2.0, (img.height - 1) / 2.0)
        transform = sample_valid_augmentation(stream, ranges, lms, center)
        warped_img = warp_image(img, transform)
        warped_lms = warp_landmarks(lms, transform)
        out_img = resize_bilinear(warped_img, work_w, work_h)
        out_lms = resize_landmarks(warped_lms, work_w, work_h)
        stem = rec.image_path.stem
        img_path = out / f"{stem}_aug{j:03d}.pgm"
        lmk_path = out / f"{stem}_aug{j:03d}.txt"
        io.write_pgm(img_path, out_img)
        io.write_landmarks(lmk_path, out_lms)
        return io.ManifestRecord(img_path, lmk_path, out_img.spacing)

    tasks = [(i, j, rec) for i, rec in enumerate(manifest.records) for j in range(args.count)]
    ok, code = _batch(process, tasks, [t[2].image_path for t in tasks], args.jobs)
    io.write_manifest(out / "manifest.txt", io.Manifest(
        records=tuple(ok), landmark_count=manifest.landmark_count,
        working_size=(work_w, work_h),
    ))
    print(f"wrote {len(ok)} augmented pairs to {out}")
    return code


def cmd_gen_heatmaps(args) -> int:
    manifest = io.read_manifest(args.manifest)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def process(rec: io.ManifestRecord):
        img, lms = _read_pair(rec, manifest.landmark_count)
        stack = render_label_stack(lms, args.sigma, img.width, img.height)
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
    heat_dir = Path(args.heatmaps_dir)
    coord_dir = Path(args.coords_dir)
    cfg = FusionConfig(
        prior_sigma=args.prior_sigma,
        floor_epsilon=args.floor_epsilon,
        decode=DecodeMethod(args.decode),
    )
    stacks = sorted(heat_dir.glob("*.hmap"))
    if not stacks:
        raise ValidationError(f"no .hmap files in {heat_dir}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def process(stack_path: Path):
        coords_path = coord_dir / f"{stack_path.stem}.txt"
        stack = io.read_heatmap_stack(stack_path)
        frame = PixelFrame(stack[0].width, stack[0].height)
        coords = io.read_landmarks(coords_path, frame)
        if len(coords) != len(stack):
            raise ValidationError(f"{len(stack)} heatmap channels but "
                                  f"{len(coords)} coordinates in {coords_path}")
        # with dumps, one log-sum per channel gives both its point and its map
        dumps = [] if args.dump_heatmaps else None
        fused = fuse_batch(stack, coords, cfg, _dumps=dumps)
        io.write_landmarks(out / f"{stack_path.stem}.txt", fused)
        if dumps:
            io.write_heatmap_stack(out / f"{stack_path.stem}.fused.hmap", dumps)
        return stack_path

    ok, code = _batch(process, stacks, stacks, args.jobs)
    print(f"fused {len(ok)} stacks into {out}")
    return code


def cmd_decode(args) -> int:
    heat_dir = Path(args.heatmaps_dir)
    stacks = sorted(heat_dir.glob("*.hmap"))
    if not stacks:
        raise ValidationError(f"no .hmap files in {heat_dir}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def process(stack_path: Path):
        stack = io.read_heatmap_stack(stack_path)
        if args.method == "argmax":
            pts = [decode_argmax(hm) for hm in stack]
        else:
            pts = [decode_centroid(hm, args.window or 3) for hm in stack]
        frame = PixelFrame(stack[0].width, stack[0].height)
        io.write_landmarks(out / f"{stack_path.stem}.txt",
                           LandmarkSet(np.array(pts, dtype=np.float64), frame))
        return stack_path

    ok, code = _batch(process, stacks, stacks, args.jobs)
    print(f"decoded {len(ok)} stacks into {out}")
    return code


def cmd_eval(args) -> int:
    manifest = io.read_manifest(args.manifest)
    if not (manifest.records and manifest.landmark_count):
        raise ValidationError(f"{args.manifest}: no landmarks to evaluate")
    pred_dir = Path(args.pred_dir)
    frame = PixelFrame(*manifest.working_size)
    gts, preds, spacings = [], [], []
    for rec in manifest.records:
        gt = _read_counted(rec.landmarks_path, frame, manifest.landmark_count)
        pred = _read_counted(pred_dir / rec.landmarks_path.name, frame, manifest.landmark_count)
        gts.append(gt)
        preds.append(pred)
        spacings.append(rec.spacing_mm_per_px)
    report = pck(preds, gts, args.threshold_mm, spacings)
    text = io.format_report(report)
    if args.out:
        io.atomic_write(args.out, text.encode())
    print(text, end="")
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.config:
        config = read_sim_config(args.config)
    elif args.preset == "noiseless":
        config = noiseless_config()
    else:
        config = calibrated_config()
    report = run_trial(Rng(args.seed), config)
    text = io.format_comparison(report)
    if args.out:
        io.atomic_write(args.out, text.encode())
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinefuse",
        description="Landmark localization by fusing heatmaps with coordinate priors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", default=10,
                   type=_flag(lambda raw: _non_negative_finite("count", int(raw))))
    p.add_argument("--landmarks", type=int, default=PhantomConfig.landmarks)
    p.add_argument("--grid", type=int, nargs=2, metavar=("W", "H"),
                   default=(PhantomConfig.width, PhantomConfig.height))
    p.add_argument("--spacing", type=float, default=PhantomConfig.spacing_mm_per_px,
                   help="mm per pixel")
    p.add_argument("--chain-spacing", type=float, default=PhantomConfig.chain_spacing_px)
    p.add_argument("--wobble", type=float, default=PhantomConfig.wobble_px)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("equalize", help="histogram-equalize a corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_equalize)

    p = sub.add_parser("augment",
                       help="emit augmented image/landmark pairs at the working size")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--count", default=1, help="augmented copies per input",
                   type=_flag(lambda raw: _non_negative_finite("count", int(raw))))
    p.add_argument("--tx-range", type=float, nargs=2, default=AugmentationRanges.tx)
    p.add_argument("--ty-range", type=float, nargs=2, default=AugmentationRanges.ty)
    p.add_argument("--angle-range", type=float, nargs=2, default=AugmentationRanges.angle_deg)
    p.add_argument("--scale-range", type=float, nargs=2, default=AugmentationRanges.scale)
    p.add_argument("--working-size", nargs=2, default=None, metavar=("W", "H"),
                   type=_flag(lambda raw: _positive_finite("working_size", int(raw))))
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("gen-heatmaps", help="render label heatmap stacks")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sigma", type=_flag(lambda raw: _usable_sigma("sigma", float(raw))),
                   default=1.2)
    p.set_defaults(func=cmd_gen_heatmaps)

    p = sub.add_parser("fuse",
                       help="fuse heatmap stacks with coordinate predictions")
    p.add_argument("--heatmaps-dir", required=True)
    p.add_argument("--coords-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--prior-sigma", type=_flag(_prior_sigmas), default=FusionConfig.prior_sigma,
                   help="one value, or comma-separated per-landmark values")
    p.add_argument("--floor-epsilon", default=FusionConfig.floor_epsilon,
                   type=_flag(lambda raw: _positive_finite("floor_epsilon", float(raw))))
    p.add_argument("--decode", choices=[m.value for m in DecodeMethod],
                   default=FusionConfig.decode.value)
    p.add_argument("--dump-heatmaps", action="store_true",
                   help="also write fused stacks as .fused.hmap")
    p.set_defaults(func=cmd_fuse)

    p = sub.add_parser("decode", help="decode heatmap stacks to landmarks")
    p.add_argument("--heatmaps-dir", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--method", choices=[m.value for m in DecodeMethod], default="argmax")
    p.add_argument("--window", type=_flag(lambda raw: _odd_window(int(raw))),
                   help="odd centroid patch size (default 3); only with --method centroid")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="score predictions against a manifest")
    p.add_argument("--manifest", required=True, help="ground-truth manifest")
    p.add_argument("--pred-dir", required=True)
    p.add_argument("--threshold-mm", default=8.0,
                   type=_flag(lambda raw: _positive_finite("threshold", float(raw))))
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("simulate",
                       help="compare coords-only, heatmap-argmax, and fused decoding")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--config", help="sim config file")
    source.add_argument("--preset", choices=["calibrated", "noiseless"],
                        help="built-in config (default calibrated)")
    p.add_argument("--out", default=None, help="also write the report here")
    p.set_defaults(func=cmd_simulate)

    # each subcommand takes only the shared flags it reads
    for name in ("phantom", "augment", "simulate"):
        sub.choices[name].add_argument("--seed", default=0, help="master random seed",
                                       type=_flag(lambda raw: Rng(int(raw)).seed))
    for name in ("equalize", "augment", "gen-heatmaps", "fuse", "decode"):
        sub.choices[name].add_argument("--jobs", default=1,
                                       type=_flag(lambda raw: _positive_finite("jobs", int(raw))),
                                       help="parallel workers for file batches")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "decode" and args.window is not None and args.method != "centroid":
        parser.error("argument --window: only --method centroid reads it")
    try:
        return args.func(args)
    except Exception as exc:  # the exit code names the class of failure
        return _report(exc)


if __name__ == "__main__":
    sys.exit(main())

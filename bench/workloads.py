"""The benchmark's workloads. Each is a closed batch of passes: the next call
into spinefuse starts only after the previous one returned.

A workload has ``setup()`` for untimed input generation and, per pass,
``prepare(p)`` (untimed), ``timed(p, state)`` (the measured calls) and
``verify(p, state, out, phase)`` (untimed checks, returns failed landmarks).
The first ``fixed_passes`` passes depend only on the seed, never on machine
speed, so the accuracy figures and the digest are exact for a seed.
"""
from __future__ import annotations

import contextlib
import hashlib
import io as text_io
import math
import re
import shutil
from pathlib import Path
from time import perf_counter

import numpy as np

import spinefuse.cli
import spinefuse.simulate
from spinefuse.core import Rng
from spinefuse.simulate import PhantomConfig, calibrated_config

_ACCURACY_RE = re.compile(r"^accuracy = (\S+)$", re.M)
_TOTAL_RE = re.compile(r"^total = (\d+)$", re.M)
_ROW_RE = re.compile(r"^\d+, \d+, \d+, (\S+), \S+$", re.M)


def tree_digest(root: Path) -> str:
    """SHA-256 over every file under root: relative path, then content."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_cli(argv: list) -> dict:
    """One in-process ``spinefuse`` command, timed, with its output captured."""
    out, err = text_io.StringIO(), text_io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = spinefuse.cli.main([str(a) for a in argv])
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return {"stage": argv[0], "wall_s": perf_counter() - start, "rc": rc,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def parse_report(text: str) -> tuple[str, int, float]:
    """(accuracy as printed, landmark total, mean error in mm) of an eval report."""
    rows = [float(m) for m in _ROW_RE.findall(text)]
    return (_ACCURACY_RE.search(text).group(1), int(_TOTAL_RE.search(text).group(1)),
            sum(rows) / len(rows))


class SimCalibrated:
    """``run_trial`` on the calibrated configuration, one batch of images per
    pass, each batch seeded from the workload seed and the pass index."""

    name = "sim-calibrated"
    jobs = 1
    warm_up_passes = 1

    def __init__(self, seed: int, scratch: Path, images: int = 10, fixed_passes: int = 45,
                 trace_passes: int = 20, phantom: PhantomConfig = PhantomConfig()):
        self.master = Rng(seed)
        self.config = calibrated_config(images=images, phantom=phantom)
        self.fixed_passes = fixed_passes
        self.trace_passes = trace_passes
        self.landmarks_per_pass = images * phantom.landmarks
        self.reports: dict[int, object] = {}
        self.problems: list[str] = []
        self.stage_runs: list[tuple[str, dict]] = []

    def setup(self) -> None:
        pass

    def prepare(self, p: int) -> Rng:
        return self.master.spawn(p)

    def timed(self, p: int, rng: Rng):
        try:
            return spinefuse.simulate.run_trial(rng, self.config)
        except Exception as exc:  # counted as failed landmarks, not a crash
            self.problems.append(f"pass {p}: run_trial raised {exc!r}")
            return None

    def verify(self, p: int, rng: Rng, report, phase: str) -> int:
        if report is None:
            return self.landmarks_per_pass
        if self.reports.setdefault(p, report) != report:
            self.problems.append(f"pass {p}: run_trial is not deterministic")
        return 0

    def summary(self) -> dict:
        fixed = [self.reports[p] for p in range(self.fixed_passes)]
        acc, n = {}, {}
        for method in fixed[0].methods:
            n[method] = sum(r.methods[method].total for r in fixed)
            acc[method] = sum(r.methods[method].hits for r in fixed) / n[method]
        err_sum = sum(row.mean_error_mm * row.total
                      for r in fixed for row in r.methods["fused"].per_landmark)
        # the calibrated targets, allowed five binomial standard errors
        for method, target in (("coords_only", 0.713), ("heatmap_argmax", 0.65)):
            tol = 5.0 * math.sqrt(target * (1.0 - target) / n[method])
            if abs(acc[method] - target) > tol:
                self.problems.append(
                    f"{method} accuracy {acc[method]:.4f} is not within {tol:.4f} of {target}")
        if not acc["fused"] > max(acc["coords_only"], acc["heatmap_argmax"]):
            self.problems.append(f"fused accuracy {acc['fused']:.4f} does not beat both branches")
        return {
            "fused_accuracy": acc["fused"],
            "fused_mean_error_mm": err_sum / n["fused"],
            "digest": hashlib.sha256(repr(fixed).encode()).hexdigest(),
            "accuracies": acc,
        }

    def close(self) -> None:
        pass


class _CliWorkload:
    """Shared parts of the workloads that drive ``spinefuse.cli.main``."""

    jobs = 1
    warm_up_passes = 1

    def __init__(self, seed: int, scratch: Path, phantoms: int, augmentations: int,
                 fixed_passes: int, trace_passes: int, grid: tuple[int, int], landmarks: int):
        self.master = Rng(seed)
        self.trace_passes = trace_passes
        self.scratch = scratch
        self.phantoms = phantoms
        self.augmentations = augmentations
        self.items = phantoms * augmentations
        self.landmarks = landmarks
        self.landmarks_per_pass = self.items * landmarks
        self.fixed_passes = fixed_passes
        self.grid = grid
        self.problems: list[str] = []
        self.stage_runs: list[tuple[str, dict]] = []
        self.digests: dict[int, str] = {}

    def corpus_stages(self, out: Path, seed: int, jobs: int) -> list[list]:
        w, h = self.grid
        return [
            ["phantom", "--out-dir", out / "corpus", "--count", self.phantoms, "--seed", seed,
             "--grid", w, h, "--landmarks", self.landmarks],
            ["equalize", "--manifest", out / "corpus/manifest.txt", "--out-dir", out / "eq",
             "--jobs", jobs],
            ["augment", "--manifest", out / "eq/manifest.txt", "--out-dir", out / "aug",
             "--count", self.augmentations, "--seed", seed, "--jobs", jobs],
            ["gen-heatmaps", "--manifest", out / "aug/manifest.txt", "--out-dir", out / "hmaps",
             "--jobs", jobs],
        ]

    def fresh_dir(self, name: str) -> Path:
        d = self.scratch / name
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def record(self, p: int, runs: list[dict], outputs: dict, phase: str) -> int:
        """Check exit codes and count each stage's outputs.

        ``outputs`` maps a stage to (directory, glob, expected count). A stage
        without an entry writes no per-item files, so it counts every item
        as done when it exits 0. Returns how many items reached the pass's
        final outputs; a failed last stage fails them all.
        """
        for run in runs:
            if run["rc"] != 0:
                self.problems.append(f"pass {p}: {run['stage']} exited {run['rc']}: "
                                     f"{run['stderr'].strip()[:300]}")
            directory, pattern, expected = outputs.get(run["stage"], (None, None, self.items))
            ok = len(list(directory.glob(pattern))) if directory else (
                expected if run["rc"] == 0 else 0)
            run.update(items_ok=ok, items_failed=expected - ok, jobs=self.jobs)
            self.stage_runs.append((phase, run))
        ok = 0 if runs[-1]["rc"] != 0 else min(
            r["items_ok"] for r in runs if r["stage"] in ("fuse", "decode"))
        if ok != self.items:
            self.problems.append(f"pass {p}: {ok} of {self.items} items have every output")
        return ok

    def check_digest(self, p: int, d: Path) -> None:
        digest = tree_digest(d)
        if self.digests.setdefault(p, digest) != digest:
            self.problems.append(f"pass {p}: outputs differ from an earlier run of the pass")

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


class PipelineSerial(_CliWorkload):
    """The whole CLI chain at ``--jobs 1`` on a fresh corpus each pass."""

    name = "pipeline-serial"

    def __init__(self, seed: int, scratch: Path, phantoms: int = 2, augmentations: int = 3,
                 fixed_passes: int = 12, trace_passes: int = 6,
                 grid: tuple[int, int] = (512, 512), landmarks: int = 11):
        super().__init__(seed, scratch, phantoms, augmentations, fixed_passes, trace_passes,
                         grid, landmarks)
        self.scores: dict[int, tuple[str, float]] = {}

    def setup(self) -> None:
        pass

    def prepare(self, p: int) -> Path:
        return self.fresh_dir("pass")

    def timed(self, p: int, d: Path) -> list[dict]:
        stages = self.corpus_stages(d, self.master.spawn(p).seed, self.jobs) + [
            ["fuse", "--heatmaps-dir", d / "hmaps", "--coords-dir", d / "aug",
             "--out-dir", d / "fused", "--decode", "argmax", "--jobs", self.jobs],
            ["decode", "--heatmaps-dir", d / "hmaps", "--out-dir", d / "decoded",
             "--method", "argmax", "--jobs", self.jobs],
            ["eval", "--manifest", d / "aug/manifest.txt", "--pred-dir", d / "fused",
             "--out", d / "report.txt"],
        ]
        return [run_cli(argv) for argv in stages]

    def verify(self, p: int, d: Path, runs: list[dict], phase: str) -> int:
        n, per = self.items, self.phantoms
        outputs = {
            "phantom": (d / "corpus", "*.pgm", per), "equalize": (d / "eq", "*.pgm", per),
            "augment": (d / "aug", "*.pgm", n), "gen-heatmaps": (d / "hmaps", "*.hmap", n),
            "fuse": (d / "fused", "*.txt", n), "decode": (d / "decoded", "*.txt", n),
        }
        ok = self.record(p, runs, outputs, phase)
        if ok == self.items:
            accuracy, total, mean_err = parse_report((d / "report.txt").read_text())
            if accuracy != "1.000000" or total != self.landmarks_per_pass:
                self.problems.append(f"pass {p}: eval accuracy {accuracy} over {total}")
            self.scores[p] = (accuracy, mean_err)
            self.check_digest(p, d)
        shutil.rmtree(d, ignore_errors=True)
        return (self.items - ok) * self.landmarks

    def summary(self) -> dict:
        scores = [self.scores.get(p, ("0", 0.0)) for p in range(self.fixed_passes)]
        digest = hashlib.sha256()
        for p in range(self.fixed_passes):
            digest.update(self.digests.get(p, "missing").encode())
        return {
            "fused_accuracy": min(float(a) for a, _ in scores),
            "fused_mean_error_mm": sum(e for _, e in scores) / len(scores),
            "digest": digest.hexdigest(),
        }


class FuseDumpParallel(_CliWorkload):
    """Centroid fusion with dumped fused stacks, then centroid decoding of
    the dumps, both at ``--jobs 2`` on a corpus built during set-up."""

    name = "fuse-dump-parallel"
    jobs = 2
    # the first passes of a fresh process run slower (allocator arenas of
    # the two threads grow), so two untimed passes precede the timed ones
    warm_up_passes = 2

    def __init__(self, seed: int, scratch: Path, phantoms: int = 4, augmentations: int = 4,
                 fixed_passes: int = 3, trace_passes: int = 2,
                 grid: tuple[int, int] = (512, 512), landmarks: int = 11):
        super().__init__(seed, scratch, phantoms, augmentations, fixed_passes, trace_passes,
                         grid, landmarks)
        self.corpus = scratch / "corpus"
        self.score: tuple[str, float] | None = None

    def setup(self) -> None:
        self.fresh_dir("corpus")
        for argv in self.corpus_stages(self.corpus, self.master.seed, self.jobs):
            run = run_cli(argv)
            if run["rc"] != 0:
                raise RuntimeError(f"corpus stage {argv[0]} exited {run['rc']}: {run['stderr']}")

    def prepare(self, p: int) -> Path:
        return self.fresh_dir("pass")

    def timed(self, p: int, d: Path) -> list[dict]:
        return [run_cli(argv) for argv in (
            ["fuse", "--heatmaps-dir", self.corpus / "hmaps", "--coords-dir", self.corpus / "aug",
             "--out-dir", d / "fused", "--decode", "centroid", "--dump-heatmaps",
             "--jobs", self.jobs],
            ["decode", "--heatmaps-dir", d / "fused", "--out-dir", d / "decoded",
             "--method", "centroid", "--jobs", self.jobs],
        )]

    def verify(self, p: int, d: Path, runs: list[dict], phase: str) -> int:
        outputs = {"fuse": (d / "fused", "*.fused.hmap", self.items),
                   "decode": (d / "decoded", "*.txt", self.items)}
        ok = self.record(p, runs, outputs, phase)
        if ok == self.items:
            # every pass reads the same corpus, so every pass must write the
            # same bytes; the content checks run once, on the first pass
            if self.score is None:
                self.check_outputs(d)
            if p < self.fixed_passes:
                self.check_digest(0, d)
        shutil.rmtree(d, ignore_errors=True)
        return (self.items - ok) * self.landmarks

    def check_outputs(self, d: Path) -> None:
        report = self.scratch / "report.txt"
        run = run_cli(["eval", "--manifest", self.corpus / "aug/manifest.txt",
                       "--pred-dir", d / "fused", "--out", report])
        if run["rc"] != 0:
            self.problems.append(f"eval exited {run['rc']}: {run['stderr'].strip()[:300]}")
            return
        accuracy, total, mean_err = parse_report(report.read_text())
        self.score = (accuracy, mean_err)
        if accuracy != "1.000000" or total != self.landmarks_per_pass:
            self.problems.append(f"eval accuracy {accuracy} over {total}")
        fused_txt = sorted(p for p in (d / "fused").glob("*.txt"))
        if len(fused_txt) != self.items:
            self.problems.append(f"{len(fused_txt)} fused landmark files for {self.items} items")
        for dump in sorted((d / "fused").glob("*.fused.hmap")):
            data = dump.read_bytes()
            channels, h, w = np.frombuffer(data[4:16], dtype="<u4")
            peaks = np.frombuffer(data[16:], dtype="<f4").reshape(channels, h * w).max(axis=1)
            if not np.all(peaks == 1.0):
                self.problems.append(f"{dump.name}: fused channel peaks {peaks.tolist()}")
            fused = self.read_points(d / "fused" / f"{dump.name[:-len('.fused.hmap')]}.txt")
            decoded = self.read_points(d / "decoded" / f"{dump.stem}.txt")
            # the dump is float32, so its centroid may move in the last digits
            if fused.shape != decoded.shape or np.abs(fused - decoded).max() > 1e-3:
                self.problems.append(f"{dump.name}: decoded dump disagrees with fused points")

    @staticmethod
    def read_points(path: Path) -> np.ndarray:
        rows = path.read_text().split("\n")[1:]
        return np.array([[float(v) for v in row.split(",")[1:]] for row in rows if row])

    def summary(self) -> dict:
        accuracy, mean_err = self.score or ("0", 0.0)
        return {
            "fused_accuracy": float(accuracy),
            "fused_mean_error_mm": mean_err,
            "digest": self.digests.get(0, "missing"),
        }


WORKLOADS = {cls.name: cls for cls in (SimCalibrated, PipelineSerial, FuseDumpParallel)}

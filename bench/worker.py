"""One workload in one fresh process; started by bench.py.

Prints human-readable lines, then one JSON object as the last line of
standard output. ``--probe`` stops once set-up and warm-up are done.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
BUDGET_S = 150.0   # passes stop here whatever --seconds says, to exit in time
# A fixed scale, by thread count: roughly the reference kernel's time on the
# reference machine (2-core Xeon VM, Python 3.11, numpy 2.4) on a quiet host.
REFERENCE_S = {1: 0.010, 2: 0.018}


def import_package() -> None:
    """Import spinefuse from the checkout's own sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "spinefuse" / "__init__.py").is_file():
        sys.exit(f"error: no spinefuse sources under {src}")
    sys.path.insert(0, str(src))
    import spinefuse
    import spinefuse.cli  # noqa: F401  (the CLI layer is part of set-up)
    if Path(spinefuse.__file__).resolve().parent != (src / "spinefuse").resolve():
        sys.exit(f"error: spinefuse was imported from {spinefuse.__file__}")


def fingerprint() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def _kernel_work() -> None:
    import numpy as np
    x = np.arange(512.0)
    for k in range(6):
        grid = np.outer(np.exp(-((x - 100 - k) ** 2) / 3.0), np.exp(-(x - 300) ** 2 / 5.0))
        np.log(np.maximum(grid, 1e-12), out=grid)
        int(np.argmax(grid))
    state = 0
    for i in range(30000):
        state = (state * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF


def reference_kernel(threads: int) -> float:
    """Seconds for a fixed mix of grid arithmetic in numpy and integer
    arithmetic in Python, the two kinds of work spinefuse does, run on
    ``threads`` threads at once like a ``--jobs`` pool."""
    workers = [threading.Thread(target=_kernel_work) for _ in range(threads)]
    start = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join()
    return time.perf_counter() - start


def slowdowns(threads: int, repeats: int = 3) -> list[float]:
    """Kernel time / REFERENCE_S, for ``repeats`` kernel runs.

    The host is shared, and its speed drifts by tens of percent over minutes.
    Each pass's rate is multiplied by the slowdown timed next to it, on as
    many threads as the pass uses, so that runs minutes apart stay comparable.
    """
    return [reference_kernel(threads) / REFERENCE_S[threads] for _ in range(repeats)]


def run_pass(wl, p: int, phase: str, tracer=None) -> tuple[float, float, int]:
    """One pass; returns (timed seconds, slowdown around it, failed landmarks)."""
    state = wl.prepare(p)
    slows = slowdowns(wl.jobs)
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        if tracer is None:
            out = wl.timed(p, state)
        else:
            out = tracer.call("bench.pass", wl.timed, (p, state))
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    slows += slowdowns(wl.jobs)
    return elapsed, statistics.median(slows), wl.verify(p, state, out, phase)


def untraced_passes(wl, seconds: float, started: float) -> dict:
    log, failed, p = [], 0, 0
    t0 = time.perf_counter()
    while (p < wl.fixed_passes or time.perf_counter() - t0 < seconds) \
            and time.monotonic() - started < BUDGET_S:
        elapsed, slow, bad = run_pass(wl, p, "timed")
        log.append((elapsed, slow))
        failed += bad
        p += 1
    print("passes [seconds, slowdown] " + json.dumps([[round(e, 5), round(s, 4)] for e, s in log]))
    if p < wl.fixed_passes:
        wl.problems.append(f"only {p} of {wl.fixed_passes} fixed passes ran within the budget")
    return {
        "passes": p, "failed": failed,
        "wall_rate": statistics.median(wl.landmarks_per_pass / e for e, _ in log),
        "rate": statistics.median(wl.landmarks_per_pass / e * s for e, s in log),
    }


def stage_table(wl, phase: str) -> dict[str, dict]:
    table: dict[str, dict] = {}
    for ph, run in wl.stage_runs:
        if ph == phase:
            table.setdefault(run["stage"], []).append(run)
    return table


def traced_metrics(wl, tracer, untraced_rates, traced_rates) -> dict[str, float]:
    """Every per-layer figure the spans give, keyed by metric name."""
    from tracer import LAYERS, summarize
    rows = summarize(tracer.spans)
    names = {sid: name for sid, _, name, _, _ in tracer.spans}
    m: dict[str, float] = {}
    # a layer function the workload never calls reads 0
    for name in tracer.names:
        m.update({f"{name}.calls": 0, f"{name}.ms": 0.0, f"{name}.self_ms": 0.0})
    for stage in tracer.stages:
        m.update({f"cli.{stage}.{k}": 0 for k in
                  ("wall_s", "items_ok", "items_failed", "parallel_efficiency")})
    for name, row in rows.items():
        m[f"{name}.calls"] = row["calls"]
        m[f"{name}.ms"] = 1e3 * row["s"]
        m[f"{name}.self_ms"] = 1e3 * row["self_s"]
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = sum(r["self_s"] for n, r in rows.items()
                                    if n.split(".")[0] == layer) * 1e3
    m["heatmap.Heatmap.constructions"] = rows.get("heatmap.Heatmap", {}).get("calls", 0)
    m["core.rng_draws"] = tracer.rng_draws

    kept: dict[str, list] = {}
    for name, parent, value in tracer.kept:
        kept.setdefault(name, []).append((names.get(parent, ""), value))
    for name in ("io.read_heatmap_stack", "io.write_heatmap_stack"):
        m[f"{name}.mb"] = sum(v for _, v in kept.get(name, ())) / 2 ** 20
    accepted = len(kept.get("geometry.sample_valid_augmentation", ()))
    built = rows.get("geometry.build_transform", {}).get("calls", 0)
    m["geometry.accept_ratio"] = accepted / built if built else 0.0
    # fused point vs heatmap argmax of the same landmark, both taken inside
    # run_trial in channel order
    heat = [v for parent, v in kept.get("heatmap.decode_argmax", ())
            if parent == "simulate.run_trial"]
    fused = [tuple(pt) for parent, pts in kept.get("fusion.fuse_batch", ())
             if parent == "simulate.run_trial" for pt in pts]
    if len(heat) != len(fused):
        wl.problems.append(f"override ratio: {len(heat)} argmax vs {len(fused)} fused points")
    m["fusion.override_ratio"] = (
        sum(h != f for h, f in zip(heat, fused)) / len(fused) if fused else 0.0)

    for stage, runs in stage_table(wl, "traced").items():
        wall = sum(r["wall_s"] for r in runs)
        m[f"cli.{stage}.wall_s"] = wall
        m[f"cli.{stage}.items_ok"] = sum(r["items_ok"] for r in runs)
        m[f"cli.{stage}.items_failed"] = sum(r["items_failed"] for r in runs)
        # stages without a job pool handle their items inline, so the whole
        # stage function counts as item time there
        item_s = rows.get(f"cli.{stage}.item", rows.get(f"cli.{stage}", {})).get("s", 0.0)
        m[f"cli.{stage}.parallel_efficiency"] = item_s / (wall * runs[0]["jobs"])

    wall_s = rows["bench.pass"]["s"]
    m["trace.wall_ms"] = 1e3 * wall_s
    m["trace.layer_self_share"] = sum(
        m[f"{layer}.self_ms"] for layer in LAYERS) / m["trace.wall_ms"]
    m["trace.untraced_landmarks_per_s"] = statistics.median(untraced_rates)
    m["trace.traced_landmarks_per_s"] = statistics.median(traced_rates)
    m["trace.overhead_share"] = 1.0 - (m["trace.traced_landmarks_per_s"]
                                       / m["trace.untraced_landmarks_per_s"])
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(wl, seconds: float, trace: bool, t0: float, probe: bool = False,
            trace_file: Path | None = None) -> dict:
    """Set up, warm up and run one workload; ``t0`` is when its process began.

    ``peak_rss_mb`` is the high-water mark at the end of warm-up, so every
    process reads it after the same work, whatever its number of passes.
    """
    from tracer import Tracer
    wl.setup()
    raw_setup_s = time.monotonic() - t0
    slow = statistics.median(slowdowns(wl.jobs, 5))
    setup_s = raw_setup_s / slow
    print(f"setup: {raw_setup_s:.4f} s wall, slowdown {slow:.4f}, {setup_s:.4f} s rescaled")
    # warm-up: pass 0, untimed; the timed pass 0 must reproduce its outputs
    for _ in range(wl.warm_up_passes):
        run_pass(wl, 0, "warm-up")
    warm_rss_mb = peak_rss_mb()
    print(f"peak rss after warm-up: {warm_rss_mb:.4f} MiB")
    if probe:
        return {"setup_s": setup_s, "peak_rss_mb": warm_rss_mb, "problems": wl.problems}

    if trace:
        tracer = Tracer()
        untraced, traced, failed = [], [], 0
        # untraced and traced runs of the same pass alternate, so the
        # overhead compares equal work under the same machine load
        for p in range(wl.trace_passes):
            for phase, tr, rates in (("timed", None, untraced), ("traced", tracer, traced)):
                elapsed, slow, bad = run_pass(wl, p, phase, tr)
                rates.append(wl.landmarks_per_pass / elapsed * slow)
                failed += bad
        passes = 2 * wl.trace_passes
        metrics = traced_metrics(wl, tracer, untraced, traced)
        if trace_file is not None:
            trace_file.write_text(json.dumps(
                {"fields": ["id", "parent", "name", "start_s", "end_s"], "spans": tracer.spans}))
            print(f"trace: {len(tracer.spans)} spans written to {trace_file}")
    else:
        run = untraced_passes(wl, seconds, t0)
        passes, failed = run["passes"], run["failed"]
        summary = wl.summary()
        metrics = {
            "landmarks_per_s": run["rate"],
            "fused_accuracy": summary["fused_accuracy"],
        }
        # exact for a seed but heavy-tailed across seeds (a fused miss is
        # ~20 mm off, a hit ~0.2 mm), so it is reported, not gated
        print(f"info fused_mean_error_mm = {summary['fused_mean_error_mm']:.6f} mm")
        print(f"digest {wl.name} sha256:{summary['digest']}")
        print(f"wall-clock landmarks_per_s: median {run['wall_rate']:.4f} over {passes} passes")
        if "accuracies" in summary:
            print("accuracy " + " ".join(f"{k}={v:.6f}" for k, v in
                                          summary["accuracies"].items()))
        for stage, runs in stage_table(wl, "timed").items():
            walls = [r["wall_s"] for r in runs]
            print(f"stage {stage}: median {statistics.median(walls):.4f} s "
                  f"over {len(walls)} passes")
    metrics["peak_rss_mb"] = warm_rss_mb
    print(f"peak rss at the end: {peak_rss_mb():.4f} MiB")
    print("fingerprint " + json.dumps(fingerprint()))
    for problem in wl.problems:
        print(f"check failed: {problem}")
    return {"setup_s": setup_s, "attempted": passes * wl.landmarks_per_pass, "failed": failed,
            "problems": wl.problems, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent when it started this process")
    parser.add_argument("--probe", action="store_true",
                        help="stop after set-up and warm-up")
    args = parser.parse_args(argv)

    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    scratch = OUT_DIR / f"tmp-{args.workload}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed % 2 ** 64, scratch)
    try:
        result = measure(wl, args.seconds, bool(args.trace), args.t0, args.probe,
                         OUT_DIR / f"trace-{args.workload}.json")
    finally:
        wl.close()
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""spinefuse benchmark.

    python3 bench/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each workload runs in a fresh worker
process (bench/worker.py) that imports spinefuse from ``src/``. With
``--trace 0`` the worker measures for ``--seconds`` and this process adds
``setup_s`` and ``peak_rss_mb`` over several fresh workers; with
``--trace 1`` it reports the per-layer figures of a traced run. Metric names
and units come from BENCHMARK.json. The last line of standard output is one
JSON object: correct, attempted, failed, metrics. Any failed check makes the
exit code nonzero.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PROBES = 4
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def run_worker(args, extra: list[str], deadline: float) -> dict:
    """Start a worker, forward its report lines, return its final JSON."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--t0", repr(t0), *extra]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed("worker ran past the deadline and was killed")
    except BaseException:  # interrupted: never leave the worker running
        proc.kill()
        proc.wait()
        raise
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"worker exited {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    started = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spinefuse" / "__init__.py").is_file():
        print(f"error: no spinefuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = started + DEADLINE_S
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    try:
        probes, problems = [], []
        if not args.trace:
            # set-up time is short and noisy, and the high-water mark of the
            # two-thread workload depends on the allocator's state, so both
            # are taken over several fresh processes
            for _ in range(PROBES):
                probes.append(run_worker(args, ["--probe"], deadline))
                problems += probes[-1]["problems"]
        result = run_worker(args, [], deadline)
    except (WorkerFailed, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for leftover in (BENCH_DIR / "out").glob(f"tmp-{args.workload}-*"):
            shutil.rmtree(leftover, ignore_errors=True)

    measured = dict(result["metrics"])
    if not args.trace:
        # a process's high-water mark takes one of two levels about 10%
        # apart; a median flips between them, a mean moves by the share
        own = {"setup_s": (result["setup_s"], statistics.median),
               "peak_rss_mb": (measured["peak_rss_mb"], statistics.mean)}
        for name, (value, centre) in own.items():
            samples = [p[name] for p in probes] + [value]
            measured[name] = centre(samples)
            print(f"{name} samples: " + ", ".join(f"{s:.4f}" for s in samples))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: the run gave no value for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"info error_rate = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} landmarks failed)")
    problems += result["problems"]
    correct = not problems and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

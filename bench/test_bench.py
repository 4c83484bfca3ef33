"""Smoke test of the benchmark at toy sizes: python3 -m pytest -q bench/test_bench.py"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import worker  # noqa: E402
from spinefuse.simulate import PhantomConfig  # noqa: E402
from workloads import WORKLOADS, FuseDumpParallel, PipelineSerial, SimCalibrated  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY_GRID = (192, 256)
TOY = {
    "sim-calibrated": lambda scratch: SimCalibrated(
        7, scratch, images=2, fixed_passes=2, trace_passes=2,
        phantom=PhantomConfig(landmarks=5, width=TOY_GRID[0], height=TOY_GRID[1])),
    "pipeline-serial": lambda scratch: PipelineSerial(
        7, scratch, phantoms=1, augmentations=2, fixed_passes=2, trace_passes=1,
        grid=TOY_GRID, landmarks=5),
    "fuse-dump-parallel": lambda scratch: FuseDumpParallel(
        7, scratch, phantoms=1, augmentations=2, fixed_passes=1, trace_passes=1,
        grid=TOY_GRID, landmarks=5),
}


def test_every_declared_workload_exists():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS) == list(TOY)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(TOY))
def test_toy_run_is_correct_and_reports_every_metric(name, trace, tmp_path):
    wl = TOY[name](tmp_path / "scratch")
    try:
        result = worker.measure(wl, seconds=0.0, trace=trace, t0=time.monotonic(),
                                trace_file=tmp_path / "trace.json")
    finally:
        wl.close()
    assert result["problems"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    missing = [m["name"] for m in declared
               if m["name"] != "setup_s" and m["name"] not in result["metrics"]]
    assert missing == []
    if not trace:
        assert all(v > 0 for v in result["metrics"].values())
    else:
        assert json.loads((tmp_path / "trace.json").read_text())["spans"]


def test_probe_reports_setup_and_peak_memory(tmp_path):
    wl = TOY["fuse-dump-parallel"](tmp_path / "scratch")
    try:
        result = worker.measure(wl, seconds=0.0, trace=False, t0=time.monotonic(), probe=True)
    finally:
        wl.close()
    assert result["problems"] == []
    assert result["setup_s"] > 0 and result["peak_rss_mb"] > 0


def test_traced_self_times_cover_the_wall_time(tmp_path):
    wl = TOY["sim-calibrated"](tmp_path)
    result = worker.measure(wl, seconds=0.0, trace=True, t0=time.monotonic())
    m = result["metrics"]
    assert 0.97 < m["trace.layer_self_share"] <= 1.0
    assert m["core.rng_draws"] > 0 and m["io.read_pgm.ms"] == 0
    assert m["heatmap.decode_argmax.calls"] == m["fusion.fuse_and_decode.calls"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/bench.py", "--workload", "sim-calibrated", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

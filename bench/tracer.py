"""Span tracing of spinefuse layers, installed from outside the package.

``from .heatmap import render_gaussian`` binds the function in the importing
module, so a public function is replaced in every ``spinefuse`` namespace
that holds it (``spinefuse.simulate.render_gaussian``, ``spinefuse.cli.
fuse_batch``, ...). Validating constructors (``Heatmap.__post_init__``) are
patched on their class, and ``Rng.next_u64`` only counts draws, because a span
per draw would cost more than the draw. Spans stay in memory until the run
ends; self time is derived from the spans, never measured separately.
"""
from __future__ import annotations

import inspect
import itertools
import sys
import threading
from time import perf_counter

LAYERS = ("core", "preprocess", "geometry", "heatmap", "fusion", "evaluate",
          "simulate", "io", "cli")
VALIDATED = {"core": ("GrayImage", "LandmarkSet"), "heatmap": ("Heatmap",)}


def _stack_bytes(stack) -> int:
    return 16 + sum(4 * hm.values.size for hm in stack)


# name -> f(args, result): a value kept per call for ratios and byte counts
HOOKS = {
    "heatmap.decode_argmax": lambda args, result: result,
    "fusion.fuse_batch": lambda args, result: result.points.copy(),
    "geometry.sample_valid_augmentation": lambda args, result: 1,
    "io.read_heatmap_stack": lambda args, result: _stack_bytes(result),
    "io.write_heatmap_stack": lambda args, result: _stack_bytes(args[1]),
}


def span_name(layer: str, attr: str) -> str:
    if layer == "cli" and attr.startswith("cmd_"):
        return "cli." + attr[4:].replace("_", "-")
    return f"{layer}.{attr}"


class Tracer:
    """Records (id, parent, name, start, end) spans and per-call hook values."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.kept: list[tuple[str, int, object]] = []
        self.rng_draws = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.names: set[str] = set()    # every span name a wrapper can record
        self.stages: set[str] = set()   # CLI subcommands, e.g. "gen-heatmaps"

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, str]:
        """(id, name) of the calling thread's innermost open span."""
        stack = self._stack()
        return stack[-1] if stack else (0, "")

    def call(self, name: str, fn, args=(), kwargs=None, parent: int | None = None):
        """Run fn inside a span; ``parent`` overrides the calling thread's."""
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1][0] if stack else 0
        stack.append((sid, name))
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))
        hook = HOOKS.get(name)
        if hook is not None:
            self.kept.append((name, parent, hook(args, result)))
        return result

    def _wrap(self, name: str, fn):
        self.names.add(name)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def _wrap_jobs(self, run_jobs):
        # items of a job pool run on worker threads whose own stacks are
        # empty, so each item span names the stage span as its parent
        def traced_run_jobs(fn, items, jobs):
            parent, stage = self.current()
            item_name = stage + ".item"

            def item(x):
                return self.call(item_name, fn, (x,), parent=parent)
            return run_jobs(item, items, jobs)
        return traced_run_jobs

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public layer function in every spinefuse namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        by_id: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"spinefuse.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    by_id[id(obj)] = (obj, self._wrap(span_name(layer, attr), obj))
                    if layer == "cli" and attr.startswith("cmd_"):
                        self.stages.add(span_name(layer, attr)[4:])
        run_jobs = sys.modules["spinefuse.cli"]._run_jobs
        by_id[id(run_jobs)] = (run_jobs, self._wrap_jobs(run_jobs))
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "spinefuse" or n.startswith("spinefuse.")]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        for layer, classes in VALIDATED.items():
            for cls_name in classes:
                cls = getattr(sys.modules[f"spinefuse.{layer}"], cls_name)
                self._patch(cls, "__post_init__",
                            self._wrap(f"{layer}.{cls_name}", cls.__post_init__))
        rng_cls = sys.modules["spinefuse.core"].Rng
        next_u64 = rng_cls.next_u64

        def counted_next_u64(rng):
            with self._lock:
                self.rng_draws += 1
            return next_u64(rng)
        self._patch(rng_cls, "next_u64", counted_next_u64)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the part of it that its children
    cover; children on other threads may overlap, so their union is used.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    for sid, _, name, start, end in spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())
                   if e > start and s < end]
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += (end - start) - _union_length(clipped)
    return out

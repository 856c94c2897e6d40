"""In-memory span tracing of calls into kinpower's modules.

The tracer replaces module attributes (``kinpower.engine.pair_components``
and so on) with timing wrappers, so a call made through that namespace
records a span: name, start, end, parent span and run id. Nothing inside
the package is edited; a span is recorded only where the package looks
the name up in the wrapped namespace at call time.

A name that a later refactor removes is recorded as missing instead of
failing the run.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import time
from typing import Callable, NamedTuple, Optional

import numpy as np


class Span(NamedTuple):
    name: str        # "module.attr" as wrapped, e.g. "kinpower.ibd.pair_components"
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at top level
    run_id: str      # "setup-0", "op-12", "check-12", ...
    work: float      # elements evaluated, rows dumped or blocks simulated
    nbytes: int      # characters produced by a writer


def _kernel_work(args, kwargs, out):
    return np.broadcast(*args[:4]).size, 0


def _simulate_work(args, kwargs, out):
    from kinpower.engine import BLOCK
    cfg = args[0]
    return (cfg.B + BLOCK - 1) // BLOCK, 0


def _dump_work(args, kwargs, out):
    return args[0].B, len(out) if isinstance(out, str) else 0


def _writer_work(args, kwargs, out):
    return 0, len(out) if isinstance(out, str) else 0


MEASURES: dict[str, Callable] = {
    "kernel": _kernel_work,
    "simulate": _simulate_work,
    "dump": _dump_work,
    "writer": _writer_work,
}


def power_targets(spec_targets: dict) -> dict:
    """Public functions of ``kinpower.power`` not already listed in the spec.

    A function added to the module later is still traced; writers and
    readers are recognised by name.
    """
    module = importlib.import_module("kinpower.power")
    extra = {}
    for attr, fn in inspect.getmembers(module, inspect.isfunction):
        name = f"kinpower.power.{attr}"
        if attr.startswith("_") or fn.__module__ != "kinpower.power" or name in spec_targets:
            continue
        if attr.startswith("read_"):
            group = "power.read"
        elif attr.startswith("write_") or attr.endswith("_json"):
            group = "power.write"
        else:
            group = "power.stat"
        extra[name] = {"group": group, "workloads": []}
    return extra


class Tracer:
    """Wraps the configured targets and keeps every span in memory."""

    def __init__(self, targets: dict):
        self.targets = targets          # name -> {"group", "measure"?, "workloads"}
        self.spans: list[Optional[Span]] = []
        self.run_id = "setup-0"
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def group(self, name: str) -> str:
        return self.targets[name]["group"]

    def install(self) -> None:
        self.missing = []
        for name, info in self.targets.items():
            modname, attr = name.rsplit(".", 1)
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.missing.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            measure = MEASURES.get(info.get("measure", ""))
            setattr(module, attr, self._wrap(fn, name, measure))
            self._saved.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved = []

    def _wrap(self, fn, name, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            out = None
            start = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                end = clock()
                stack.pop()
                work, nbytes = measure(args, kwargs, out) if measure else (0, 0)
                spans[index] = Span(name, start, end, parent, self.run_id, work, nbytes)

        traced.__wrapped__ = fn
        return traced

    def counts(self) -> dict[str, int]:
        out = {name: 0 for name in self.targets}
        for span in self.spans:
            out[span.name] += 1
        return out

    def write(self, path) -> None:
        """Write every span as CSV, one row per span."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "name", "start", "end", "parent", "run_id", "work", "bytes"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s.name, repr(s.start), repr(s.end), s.parent,
                                 s.run_id, s.work, s.nbytes])


class Summary:
    """Per-group totals over the spans of a set of runs.

    ``time`` counts only spans with no ancestor in the same group, so a
    nested call (``power_report`` calling ``null_threshold``) is not
    counted twice. ``self_time`` is each span's duration minus that of
    its direct children.
    """

    def __init__(self, tracer: Tracer, run_prefix: str):
        spans = tracer.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        self.time: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.work: dict[str, float] = {}
        self.nbytes: dict[str, int] = {}
        self.by_name_time: dict[str, float] = {}
        self.by_name_work: dict[str, float] = {}
        self.n_spans = 0
        for i, s in enumerate(spans):
            if not s.run_id.startswith(run_prefix):
                continue
            self.n_spans += 1
            group = tracer.group(s.name)
            dur = s.end - s.start
            self.calls[group] = self.calls.get(group, 0) + 1
            self.work[group] = self.work.get(group, 0) + s.work
            self.nbytes[group] = self.nbytes.get(group, 0) + s.nbytes
            self.self_time[group] = self.self_time.get(group, 0.0) + dur - child[i]
            self.by_name_time[s.name] = self.by_name_time.get(s.name, 0.0) + dur
            self.by_name_work[s.name] = self.by_name_work.get(s.name, 0) + s.work
            p = s.parent
            while p >= 0 and tracer.group(spans[p].name) != group:
                p = spans[p].parent
            if p < 0:
                self.time[group] = self.time.get(group, 0.0) + dur


def wrapper_cost(n: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""

    def noop(*args, **kwargs):
        return None

    tracer = Tracer({})
    traced = tracer._wrap(noop, "noop", None)
    best = float("inf")
    for _ in range(5):
        tracer.spans.clear()
        t0 = time.perf_counter()
        for _ in range(n):
            noop(1, 2)
        t1 = time.perf_counter()
        for _ in range(n):
            traced(1, 2)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)

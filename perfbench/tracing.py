"""Spans around calls into the program's layers, recorded from outside.

The program is not edited: `Tracer.install` replaces public functions
in the module where their callers look them up (for example
`eulerdd.engine.sample_realization`, which the engine calls by that
name) with a wrapper that records one span per call, and `uninstall`
puts the originals back.  A span is (run id, span id, parent span id,
name, start, end); spans stay in memory until the run writes them out.

A span name is `<layer>.<function>`, the layer being the program
module the function belongs to.  A layer's self time is the duration
of its spans minus the part of each span that its child spans cover.
"""
from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "control", "noise", "engine", "analysis")


def _count_segments(tracer, schedule):
    tracer.counts["control.segments"] += len(schedule.segments)


def _count_points(tracer, curve):
    tracer.counts["engine.points"] += len(curve.points)


def _count_iterations(tracer, result):
    tracer.counts["engine.calibrate_iterations"] += result.iterations


# (module looked up by the caller, attribute, span name, counter of the
# result).  The calibrate runner calls run_relaxation through the engine
# module and imports fit_decay from eulerdd.analysis at call time, so
# those are wrapped there as well as in the cli module.  The engine
# builds the idle schedules of fid and relaxation runs itself, with the
# control layer's Schedule constructor.
WRAPPED = (
    ("eulerdd.cli", "parse_config", "cli.parse_config", None),
    ("eulerdd.engine", "build_schedule", "control.build_schedule", _count_segments),
    ("eulerdd.engine", "Schedule", "control.Schedule", _count_segments),
    ("eulerdd.engine", "sample_realization", "noise.sample_realization", None),
    ("eulerdd.engine", "sample_detuning", "noise.sample_detuning", None),
    ("eulerdd.cli", "run_dd_scan", "engine.run_dd_scan", _count_points),
    ("eulerdd.cli", "calibrate_amplitude", "engine.calibrate_amplitude",
     _count_iterations),
    ("eulerdd.engine", "run_relaxation", "engine.run_relaxation", _count_points),
    ("eulerdd.cli", "fit_decay", "analysis.fit_decay", None),
    ("eulerdd.analysis", "fit_decay", "analysis.fit_decay", None),
)


class Tracer:
    """In-memory span and counter recorder for one benchmark run.

    `calls` and `failures` count wrapped calls per span name (a failure
    is a call that raised); `counts` holds the counters computed from
    results, such as schedule segments and curve points.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.failures: Counter = Counter()
        self.counts: Counter = Counter()
        self.run_id = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()  # counters may be bumped from worker threads
        self._saved: list[tuple] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((self.run_id, sid, parent, name, start, end))

    def _wrap(self, func, name, count):
        def traced(*args, **kwargs):
            with self._lock:
                self.calls[name] += 1
            with self.span(name):
                try:
                    result = func(*args, **kwargs)
                except Exception:
                    with self._lock:
                        self.failures[name] += 1
                    raise
            if count is not None:
                with self._lock:
                    count(self, result)
            return result
        traced.__wrapped__ = func
        return traced

    @contextlib.contextmanager
    def recording(self, run_id: int):
        """Trace one run: fresh counters, wrappers installed, then removed."""
        self.run_id = run_id
        self.calls.clear()
        self.failures.clear()
        self.counts.clear()
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def layer_counts(self) -> dict[str, int]:
        """Per-layer work counts of the calls in the current recording."""
        def calls(prefix, counter=self.calls):
            return sum(n for name, n in counter.items() if name.startswith(prefix))
        return {**self.counts,
                "noise.draws": calls("noise."),
                "engine.runs": calls("engine.run_"),
                "analysis.fits": calls("analysis."),
                "analysis.fit_failures": calls("analysis.", self.failures)}

    def install(self) -> None:
        """Wrap every function in WRAPPED; idempotent until uninstall."""
        if self._saved:
            return
        for module_name, attr, name, count in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        """Write the spans as JSON lines: run, id, parent, name, start, end."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the union of child spans."""
    children = defaultdict(list)
    for run, _, parent, _, start, end in spans:
        children[(run, parent)].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for run, sid, _, name, start, end in spans:
        out[name] += (end - start) - _covered(children.get((run, sid), []), start, end)
    return dict(out)


def layer_self_times(spans) -> dict[str, float]:
    """Self time summed per layer (the part of each span name before the dot)."""
    out = dict.fromkeys(LAYERS, 0.0)
    for name, value in self_times(spans).items():
        out[name.split(".", 1)[0]] += value
    return out

"""Span recording around treelab's public functions, and self-time arithmetic.

install() wraps every public function of the program's modules from the
outside: the wrapper replaces the name in the defining module and in
every treelab module that imported it, so calls through either name are
recorded.  Generator functions are left alone, since their work runs
after they return.  Spans stay in memory as (id, name, layer, start,
end, parent, thread, cpu_start, cpu_end), where start and end are wall
clock and the cpu pair is the thread's own CPU time, and are written out
once, at the end of the traced session.

A span's parent is the innermost open span of its own thread.  The first
span on a worker thread (a pool in run_suite or count_all) takes the
calling thread's innermost open span as its parent, since that span
handed it the work.  On the calling thread, self time is a span's wall
duration minus the part of it that its children cover, so a span waiting
on worker threads is not charged for the time they run, and the calling
thread's self times plus its wait on workers add up to the session wall.
On worker threads, self time is the span's thread CPU time minus that of
its children: under the GIL a worker's wall span also runs while another
worker holds the lock, and wall-clock sums would count the pool's time
once per worker.

Layers are the program's modules, with two split by role: counting into
enumerate (window enumeration) and fast (the path, star and fork
counters), trees into parse (reading and validating trees, including the
validation that canonical_code and aut_size run first) and
canonical_code.  The remaining helpers of trees and counting (adjacency,
degrees, make_tree, fraction_to_decimal, ...) serve whichever layer
calls them, so their spans take the caller's layer: building the edge
tuple of a parsed tree is parsing, rendering a fraction is the CLI's.
Work counts are taken when a call enters a layer from outside it, so
nested calls inside one layer count once.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import Counter

MODULES = ("trees", "catalog", "counting", "generators", "census", "region", "cli")

ROLE_LAYERS = {
    "counting.count_all": "counting.enumerate",
    "counting.count_connected_subsets": "counting.enumerate",
    "counting.count_copies": "counting.enumerate",
    "counting.embedding_count": "counting.enumerate",
    "counting.profile": "counting.enumerate",
    "counting.count_paths_fast": "counting.fast",
    "counting.count_stars_fast": "counting.fast",
    "counting.count_y_fast": "counting.fast",
    "counting.count_y_split": "counting.fast",
    "trees.load_tree": "trees.parse",
    "trees.parse_tree_text": "trees.parse",
    "trees.tree_from_json": "trees.parse",
    "trees.validate": "trees.parse",
    "trees.require_valid": "trees.parse",
    "trees.canonical_code": "trees.canonical_code",
}

LAYERS = (
    "trees.parse", "trees.canonical_code", "catalog", "counting.enumerate",
    "counting.fast", "generators", "census", "region", "cli",
)
HELPER_MODULES = ("trees", "counting")

COUNTS = (
    "counting.enumerate.calls", "counting.windows", "counting.fast.calls",
    "trees.parse.vertices", "trees.canonical_code.calls", "trees.canonical_code.bytes",
    "catalog.calls", "generators.vertices_built", "census.checks", "census.checks_failed",
    "region.calls",
)


def layer_of(name: str) -> str | None:
    """Layer of a span name such as 'counting.count_all'; None for helpers."""
    if name in ROLE_LAYERS:
        return ROLE_LAYERS[name]
    module = name.split(".", 1)[0]
    return None if module in HELPER_MODULES else module


class Recorder:
    """In-memory span store for one traced session."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.calling_thread = threading.get_ident()
        self.deferred_windows: list[tuple[int, object]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._calling_stack: list[tuple[int, str]] = []
        self._counters: list[Counter] = []

    def _thread_state(self):
        state = self._local
        if not hasattr(state, "stack"):
            if threading.get_ident() == self.calling_thread:
                state.stack = self._calling_stack
            else:
                state.stack = []
            state.counts = Counter()
            self._counters.append(state.counts)
        return state

    def wrap(self, fn, name: str):
        own_layer = layer_of(name)
        count = _work_counter(name, own_layer, self)
        now = time.perf_counter
        cpu = time.thread_time
        ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = self._thread_state()
            stack = state.stack
            if stack:
                parent, parent_layer = stack[-1]
            elif self._calling_stack and stack is not self._calling_stack:
                parent, parent_layer = self._calling_stack[-1]
            else:
                parent, parent_layer = 0, None
            layer = own_layer or parent_layer or name.split(".", 1)[0]
            span = next(self._ids)
            stack.append((span, layer))
            cpu_start = cpu()
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = now()
                cpu_end = cpu()
                stack.pop()
                self.spans.append((span, name, layer, start, end, parent, ident(),
                                   cpu_start, cpu_end))
            if count is not None:
                count(state.counts, args, result, parent_layer != layer)
            return result

        return traced

    def counts(self) -> Counter:
        total: Counter = Counter()
        for c in self._counters:
            total.update(c)
        return total


def _work_counter(name: str, layer: str, recorder: Recorder):
    """Function adding a call's work counts, or None for layers without any."""
    short = name.split(".", 1)[1]

    def enumerate_(counts, args, result, entry):
        if entry:
            counts["counting.enumerate.calls"] += 1
        if short == "count_all":
            counts["counting.windows"] += result.total
        elif short == "count_connected_subsets":
            counts["counting.windows"] += result
        elif short == "count_copies":
            # Every window of the host is enumerated; its total is taken
            # after the session so the oracle's time stays out of the spans.
            recorder.deferred_windows.append((args[0].n, args[1]))

    def fast(counts, args, result, entry):
        if entry:
            counts["counting.fast.calls"] += 1

    def parse(counts, args, result, entry):
        if entry:
            tree = args[0] if short in ("validate", "require_valid") else result
            counts["trees.parse.vertices"] += tree.n

    def canonical(counts, args, result, entry):
        counts["trees.canonical_code.calls"] += 1
        counts["trees.canonical_code.bytes"] += len(result)

    def catalog(counts, args, result, entry):
        if entry:
            counts["catalog.calls"] += 1

    def generators(counts, args, result, entry):
        if entry and hasattr(result, "edges"):
            counts["generators.vertices_built"] += result.n

    def census(counts, args, result, entry):
        if not entry:
            return
        reports = result if isinstance(result, list) else [result]
        for r in reports:
            if hasattr(r, "holds"):
                counts["census.checks"] += 1
                counts["census.checks_failed"] += not r.holds

    def region(counts, args, result, entry):
        if entry:
            counts["region.calls"] += 1

    return {
        "counting.enumerate": enumerate_,
        "counting.fast": fast,
        "trees.parse": parse,
        "trees.canonical_code": canonical,
        "catalog": catalog,
        "generators": generators,
        "census": census,
        "region": region,
    }.get(layer)


def install(package: str = "treelab") -> Recorder:
    """Wrap the public functions of the program's modules; return the recorder."""
    recorder = Recorder()
    importers = [m for n, m in list(sys.modules.items())
                 if m is not None and (n == package or n.startswith(package + "."))]
    for short in MODULES:
        module = sys.modules[f"{package}.{short}"]
        for attr, fn in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)):
                continue
            traced = recorder.wrap(fn, f"{short}.{attr}")
            for m in importers:
                for other_attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, other_attr, traced)
    return recorder


def self_times(spans) -> dict[int, float]:
    """Span id -> wall duration minus the part of it its child spans cover.

    spans holds (id, name, layer, start, end, parent, thread, cpu_start,
    cpu_end) tuples; children on other threads count, and overlapping
    children are covered once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, _, start, end, parent, *_ in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span, _, _, start, end, *_ in spans:
        covered = 0.0
        lo = start
        for c_start, c_end in sorted(children.get(span, ())):
            c_start = max(c_start, lo)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                lo = c_end
        out[span] = (end - start) - covered
    return out


def cpu_self_times(spans) -> dict[int, float]:
    """Span id -> thread CPU time minus that of its children on the same thread.

    Spans of one thread nest, so the children's CPU times do not overlap.
    """
    thread_of = {s[0]: s[6] for s in spans}
    out = {s[0]: s[8] - s[7] for s in spans}
    for span, *_, parent, thread, cpu_start, cpu_end in spans:
        if parent and thread_of.get(parent) == thread:
            out[parent] -= cpu_end - cpu_start
    return out


def layer_self_times(spans, calling_thread: int) -> tuple[dict, dict]:
    """Self time per layer: wall on the calling thread, thread CPU on the others."""
    wall = self_times(spans)
    cpu = cpu_self_times(spans)
    calling = {layer: 0.0 for layer in LAYERS}
    workers = {layer: 0.0 for layer in LAYERS}
    for span, _, layer, _, _, _, thread, *_ in spans:
        if thread == calling_thread:
            calling[layer] = calling.get(layer, 0.0) + wall[span]
        else:
            workers[layer] = workers.get(layer, 0.0) + cpu[span]
    return calling, workers


def covered_by_workers(spans, calling_thread: int) -> float:
    """Wall time during which at least one worker-thread root span ran."""
    thread_of = {s[0]: s[6] for s in spans}
    intervals = sorted(
        (start, end) for _, _, _, start, end, parent, thread, *_ in spans
        if thread != calling_thread and thread_of.get(parent) != thread
    )
    total = 0.0
    lo = float("-inf")
    for start, end in intervals:
        start = max(start, lo)
        if end > start:
            total += end - start
            lo = end
    return total

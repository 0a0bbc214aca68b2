"""Spans around calls into dskernel's public functions, recorded from outside
the package for the traced run only.

``Tracer.install`` replaces every public function of the traced modules, in
every dskernel namespace that holds a reference to it, with a wrapper that
records a span: name, parent, start and end, plus counts taken from the
arguments or the result. Calls made inside ``cli.main`` or ``harness`` are
therefore traced too. ``uninstall`` restores the originals. Spans stay in
memory; self time is derived afterwards from the parent links.
"""

import functools
import importlib
import inspect
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

LAYERS = ("geometry", "counts", "kernel", "scaling", "density", "inference",
          "laplacian", "harness", "cli")


def _pairwise_counts(args, kwargs, result):
    n, m = args[0].shape
    return {"gflop": 2.0 * n * n * m / 1e9}


def _solve_counts(args, kwargs, result):
    return {"iterations": result.iterations}


def _ingest_counts(args, kwargs, result):
    return {"nnz": result.entries.nnz}


COUNTERS = {
    "kernel.pairwise_sq_dists": _pairwise_counts,
    "scaling.sinkhorn_symmetric": _solve_counts,
    "counts.ingest_counts": _ingest_counts,
}


@dataclass
class Span:
    span_id: int
    parent: int  # None for a root span
    name: str  # "<layer>.<function>"
    start: float
    end: float
    counts: dict = field(default_factory=dict)
    peak_bytes: int = None  # traced heap peak inside the span, memory passes only

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []  # open span ids, innermost last
        self._running_peak = []  # per open span, highest traced heap seen so far
        self._patched = []  # (namespace dict, name, original)
        self.memory = False

    def install(self):
        namespaces = [vars(importlib.import_module("dskernel"))]
        namespaces += [vars(importlib.import_module(f"dskernel.{layer}")) for layer in LAYERS]
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dskernel.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for ns in namespaces:
            for name, obj in list(ns.items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((ns, name, obj))
                    ns[name] = wrappers[obj]

    def uninstall(self):
        for ns, name, original in reversed(self._patched):
            ns[name] = original
        self._patched = []

    def span(self, name, fn, *args, **kwargs):
        """Run ``fn`` under a span of its own, e.g. a root around one call."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _enter(self):
        if not self.memory:
            return
        current, peak = tracemalloc.get_traced_memory()
        if self._running_peak:
            self._running_peak[-1] = max(self._running_peak[-1], peak)
        self._running_peak.append(current)
        tracemalloc.reset_peak()

    def _exit(self):
        if not self.memory:
            return None
        _, peak = tracemalloc.get_traced_memory()
        span_peak = max(self._running_peak.pop(), peak)
        if self._running_peak:
            self._running_peak[-1] = max(self._running_peak[-1], span_peak)
        return span_peak

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans) + len(self._stack)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                peak = self._exit()
                self._stack.pop()
            counts = counter(args, kwargs, result) if counter else {}
            self.spans.append(Span(span_id, parent, name, start, end, counts, peak))
            return result

        return traced


def self_times(spans):
    """Span duration minus the time its direct children cover, per span id."""
    own = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


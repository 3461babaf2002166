"""In-memory span tracer for binox, installed from outside the package.

``Tracer.install()`` wraps every public function of each binox module and a
fixed list of methods. binox modules import functions by name (``from
.graph import ball``), so a function is replaced at every binox namespace
that binds it, not only where it is defined. ``Tracer.remove()`` puts the
original objects back. Each wrapped call records a span (name, start, end,
parent, job) in memory plus a few counts read from its arguments and return
value; ``layer_totals`` turns the spans into self times and call counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import thread_time

# Every duration the benchmark reports is CPU seconds of its one thread.
# binox is single-threaded and does no waiting, so CPU time is its work; wall
# time on a shared machine also counts the time other tenants hold the core.
clock = thread_time

MODULES = ("graph", "families", "homotopy", "runtime", "explorer", "verify", "suite", "cli")

# Function layers whose span name differs from ``<module>.<function>``.
RENAMES = {
    "verify.verify_phase_invariants": "verify.phase_invariants",
    "verify.verify_rooted_isomorphism": "verify.final_isomorphism",
    "verify.verify_coverage": "verify.coverage",
}

# Methods traced as layers: span name -> (module, class, attribute).
METHODS = {
    "graph.signature": ("graph", "Ball", "signature"),
    "graph.relabel": ("graph", "Ball", "relabel"),
    "runtime.sense": ("runtime", "Environment", "sense"),
    "runtime.move": ("runtime", "Environment", "move"),
    "runtime.log_phase_end": ("runtime", "RunTrace", "log_phase_end"),
    "runtime.to_jsonl": ("runtime", "RunTrace", "to_jsonl"),
    "runtime.from_jsonl": ("runtime", "RunTrace", "from_jsonl"),
    "explorer.snapshot": ("explorer", "ExplorationMap", "snapshot"),
    "explorer.local_ball": ("explorer", "ExplorationMap", "local_ball"),
    "explorer.run": ("explorer", "ClusterExplorer", "run"),
}


def _sense(args, kwargs, result, count):
    count["runtime.sensed_ball_edges"] += len(result.ball.edges)


def _phase_end(args, kwargs, result, count):
    snapshot = args[2] if len(args) > 2 else kwargs["map_snapshot"]
    count["explorer.phases"] += 1
    count["explorer.snapshot_edges"] += len(snapshot["edges"])


def _apply_ledger(args, kwargs, result, count):
    ledger = args[1] if len(args) > 1 else kwargs["ledger"]
    count["explorer.pre_vertices"] += len(ledger.pre_vertices)
    count["explorer.new_vertices"] += len(result)


def _explore(args, kwargs, result, count):
    count["explorer.budget_exhausted"] += result.status == "budget_exhausted"
    count["explorer.error_detected"] += result.status == "error_detected"


# Counts read from a layer's public arguments and return value.
OBSERVERS = {
    "runtime.sense": _sense,
    "runtime.log_phase_end": _phase_end,
    "explorer.apply_ledger": _apply_ledger,
    "explorer.explore": _explore,
}

# Prefix of spans around the benchmark's own work inside a pass.
BENCH = "perfbench."

# Wrappers carry this attribute so a left-over wrapper can be detected.
MARK = "__perfbench_span__"


def binox_modules():
    return [sys.modules["binox"]] + [importlib.import_module(f"binox.{m}") for m in MODULES]


def traced_functions():
    """(span name, function) for every public function defined in a binox module."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"binox.{short}")
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            out.append((RENAMES.get(name, name), obj))
    return out


def leftover_wrappers():
    """Names in binox namespaces and traced classes still bound to a wrapper."""
    found = []
    for mod in binox_modules():
        found += [f"{mod.__name__}.{a}" for a, v in vars(mod).items() if hasattr(v, MARK)]
    for module, cls, attr in METHODS.values():
        raw = vars(getattr(importlib.import_module(f"binox.{module}"), cls))[attr]
        if hasattr(getattr(raw, "__func__", raw), MARK):
            found.append(f"binox.{module}.{cls}.{attr}")
    return found


class Tracer:
    """Spans and counts of one traced run. Spans and counts are labelled
    with ``jobs.job``, the job the caller says is running."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.spans = []  # (name, start, end, parent index or -1, job)
        self.counts = defaultdict(Counter)  # job -> count name -> value
        self._stack = []
        self._patches = []  # (owner, attribute, original value)

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent, clock()

    def _close(self, name, idx, parent, start):
        end = clock()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent, self.jobs.job)

    @contextlib.contextmanager
    def span(self, name):
        """A span around the caller's own work, e.g. the benchmark's."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(name, *opened)

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, *opened)
            if observe is not None:
                observe(args, kwargs, result, self.counts[self.jobs.job])
            return result

        functools.update_wrapper(wrapper, fn)
        setattr(wrapper, MARK, name)
        return wrapper

    def take(self):
        """Spans and counts recorded since the last call; starts afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], defaultdict(Counter)
        return spans, counts

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = binox_modules()
        for name, fn in traced_functions():
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(importlib.import_module(f"binox.{module}"), cls_name)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            else:
                self._patch(cls, attr, self._wrap(name, raw))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


def layer_totals(spans, jobs=None):
    """Self seconds and call counts per span name.

    Self time is a span's duration minus the durations of its direct
    children (calls are nested, so children never overlap). Only spans whose
    job is in ``jobs`` count when ``jobs`` is given. Also returns the time
    the outermost spans cover, less the benchmark's own spans.
    """
    child = defaultdict(float)
    for _, t0, t1, parent, _ in spans:
        child[parent] += t1 - t0
    self_s = Counter()
    calls = Counter()
    covered = 0.0
    for i, (name, t0, t1, parent, job) in enumerate(spans):
        if parent < 0:
            covered += t1 - t0
        if name.startswith(BENCH):
            covered -= t1 - t0
            continue
        if jobs is not None and job not in jobs:
            continue
        self_s[name] += t1 - t0 - child[i]
        calls[name] += 1
    return self_s, calls, covered

"""Spans and counters around the program's layers, installed from outside.

The benchmark never edits ``src/``: :func:`install` rebinds the public
functions and methods of each layer to thin wrappers that open a span
(name, start, end, parent) or bump a counter.  Spans are kept in memory
and summarised once, after the timed region.

A span's *self time* is its duration minus the time its child spans
cover.  Counts land on the innermost open span of their thread, so a
window (see :meth:`Tracer.mark`) can select both spans and counts by
when the enclosing top-level span started.
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts", "info")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = None
        self.counts = {}
        self.info = None


class Tracer:
    """In-memory span/counter store; one per process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self.spans: list[Span] = []
        #: counts made while no span was open, and their value at mark().
        self.loose = Counter()
        self._loose_at_mark = Counter()
        self.window_start = 0.0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        with self._lock:
            self._next += 1
            span = Span(self._next, stack[-1].id if stack else None, name, 0.0)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, n: int = 1) -> None:
        stack = self._stack()
        if stack:
            counts = stack[-1].counts
            counts[name] = counts.get(name, 0) + n
        else:
            with self._lock:
                self.loose[name] += n

    def mark(self) -> None:
        """Start the measured window: earlier top-level spans are dropped."""
        with self._lock:
            self.window_start = time.perf_counter()
            self._loose_at_mark = Counter(self.loose)

    def windowed(self) -> list[Span]:
        """Finished spans whose top-level ancestor started in the window."""
        by_id = {span.id: span for span in self.spans}
        kept = []
        for span in self.spans:
            root = span
            while root.parent is not None and root.parent in by_id:
                root = by_id[root.parent]
            if root.start >= self.window_start:
                kept.append(span)
        return kept

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, durations and counts."""
        return summarise(
            self.windowed(), self.loose - self._loose_at_mark
        )


def self_times(spans) -> dict:
    """``{span id: duration minus the duration of its direct children}``."""
    child_total = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_total[span.parent] += span.end - span.start
    return {
        span.id: (span.end - span.start) - child_total[span.id]
        for span in spans
    }


def summarise(spans, loose=None) -> dict:
    """Aggregate spans by name (JSON-encodable)."""
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    names: dict = {}
    counts = Counter(loose or {})
    for span in spans:
        row = names.setdefault(
            span.name,
            {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": [],
             "info": Counter(), "top_level_s": 0.0},
        )
        duration = span.end - span.start
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += selfs[span.id]
        row["durations"].append(duration)
        if span.parent is None or span.parent not in by_id:
            row["top_level_s"] += duration
        if span.info:
            row["info"].update(span.info)
        if span.counts:
            counts.update(span.counts)
    # Nested work worth naming: measurements made inside deviation spans.
    under_deviation = 0
    for span in spans:
        if span.name != "measure":
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name != "deviation":
            parent = by_id.get(parent.parent)
        if parent is not None:
            under_deviation += 1
    for row in names.values():
        durations = row.pop("durations")
        row["p50_s"] = statistics.median(durations)
        row["info"] = dict(row["info"])
    return {
        "names": names,
        "counts": dict(counts),
        "measure_under_deviation": under_deviation,
    }


# ----------------------------------------------------------------------
# installation
# ----------------------------------------------------------------------
def _spanned(tracer: Tracer, name: str, fn, info=None, before=None):
    """Wrap ``fn`` in a span; ``info(args, result, state)`` annotates it,
    where ``state`` is what ``before(args, kwargs)`` saw at entry."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = before(args, kwargs) if before is not None else None
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if info is not None:
                span.info = info(args, result, state)
            return result
        finally:
            tracer.close(span)

    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    # Inlined Tracer.count: these wrap calls made ~10^5 times per
    # operation, so every avoided call is tracing overhead saved.
    local = tracer._local

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = getattr(local, "stack", None)
        if stack:
            counts = stack[-1].counts
            counts[name] = counts.get(name, 0) + 1
        else:
            tracer.count(name)
        return fn(*args, **kwargs)

    return wrapper


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module binding of ``original`` at ``replacement``."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _bdd_before(args, kwargs) -> dict:
    """BDD counters at entry: a reused manager (``cbdd=``) carries totals
    from earlier calls, a fresh one starts from zero."""
    cbdd = kwargs.get("cbdd")
    return cbdd.mgr.cache_stats() if cbdd is not None else {}


def _atpg_info(args, run, before) -> dict:
    stats = (run.diagnostics or {}).get("bdd") or {}
    return {
        "faults": run.n_faults,
        "untestable": run.n_untestable,
        "vectors": run.n_vectors,
        **{
            key: stats.get(key, 0) - before.get(key, 0)
            for key in ("nodes", "ite_hits", "ite_misses")
        },
    }


def _campaign_info(args, result, _) -> dict:
    diagnostics = result.diagnostics or {}
    return {
        "injected": result.n_injected,
        "solve_calls": diagnostics.get("solve_calls", 0),
        "multi_rhs_columns": diagnostics.get("multi_rhs_columns", 0),
        "shards_executed": diagnostics.get("shards_executed", 0),
        "shards_from_cache": len(diagnostics.get("shards_from_cache", []) or []),
        "retries": len(diagnostics.get("retries", []) or []),
    }


def _pipeline_info(args, outcome, _) -> dict:
    return {
        f"stage.{timing.stage}": timing.seconds
        for timing in outcome.timings
        if timing.parent is None
    }


def _compact_info(args, vectors, _) -> dict:
    return {"patterns_in": len(args[1]), "patterns_out": len(vectors)}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer; call once, after ``repro`` is importable."""
    from importlib import import_module

    # import_module, not ``import a.b as c``: some packages re-export a
    # function under their submodule's name (repro.analog.sensitivity).
    def module(name):
        return import_module(f"repro.{name}")

    deviation = module("analog.deviation")
    parameters = module("analog.parameters")
    sensitivity = module("analog.sensitivity")
    pipeline = module("api.pipeline")
    ckt2bdd = module("atpg.ckt2bdd")
    constrained = module("atpg.constrained")
    stuckat = module("atpg.stuckat")
    manager = module("bdd.manager")
    campaign = module("core.campaign")
    generator = module("core.generator")
    compiled = module("digital.compiled")
    ac = module("spice.ac")
    mna = module("spice.mna")

    functions = [
        (sensitivity.sensitivity_matrix, "sensitivity", None, None),
        (deviation.worst_case_deviation, "deviation", None, None),
        (constrained.run_atpg, "atpg", _atpg_info, _bdd_before),
        (campaign.run_campaign, "campaign", _campaign_info, None),
    ]
    for original, name, info, before in functions:
        _rebind(original, _spanned(tracer, name, original, info, before))
    _rebind(ac.transfer, _counted(tracer, "spice.transfer", ac.transfer))

    methods = [
        (pipeline.Pipeline, "run", "pipeline", _pipeline_info),
        (parameters.PerformanceParameter, "measure", "measure", None),
        (generator.MixedSignalTestGenerator, "analog_tests", "stimulus", None),
        (ckt2bdd.CircuitBdd, "__init__", "atpg.compile", None),
        (ckt2bdd.CircuitBdd, "functions_with_cut", "atpg.cut", None),
        (stuckat.StuckAtGenerator, "generate", "atpg.fault", None),
        (compiled.CompiledFaultSimulator, "compact", "compact", _compact_info),
    ]
    for cls, attribute, name, info in methods:
        setattr(cls, attribute, _spanned(tracer, name, getattr(cls, attribute), info))
    counted = [
        (mna.MnaSolver, "__init__", "spice.solver_build"),
        (manager.BddManager, "restrict", "bdd.restrict"),
        (manager.BddManager, "boolean_difference", "bdd.boolean_difference"),
    ]
    for cls, attribute, name in counted:
        setattr(cls, attribute, _counted(tracer, name, getattr(cls, attribute)))

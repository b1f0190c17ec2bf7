"""Outside-in layer spans for the benchmark's traced repeat.

The benchmark does not instrument ``repro``. For its one traced repeat
per workload it replaces public callables at the places the program
looks them up (a module global, a class attribute, an executor registry
instance) with wrappers that record in-memory spans: name, start, end
and parent. ``functools.wraps`` keeps ``__module__`` and ``__qualname__``,
so result-cache keys, and therefore every document, stay unchanged.

A span's self time is its duration minus the durations of its direct
children. Calls nest on one thread, so the self times of a tree sum to
its root's duration: the ``api.verb`` self time (document assembly) plus
every layer below it accounts for the whole traced verb wall time.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from time import perf_counter

__all__ = [
    "EXECUTORS",
    "SPANS",
    "TARGETS",
    "SpanRecorder",
    "install",
    "uninstall",
    "per_layer_metrics",
    "span_metrics",
]

#: (span name, module, attribute path): every callable the traced repeat
#: wraps, at the module or class where callers look it up.
TARGETS = (
    ("api.verb", "repro.api", "run_experiment"),
    ("api.verb", "repro.api", "serve"),
    ("perf.sweep", "repro.perf.sweep", "SweepRunner.run"),
    ("perf.cache", "repro.perf.cache", "ResultCache.lookup"),
    ("perf.cache", "repro.perf.cache", "ResultCache.put"),
    ("perf.fingerprint", "repro.perf.cache", "code_fingerprint"),
    ("perf.point", "repro.perf.sweep", "Task.__call__"),
    ("analysis.calibration", "repro.analysis.figures", "estimate_best_group_sizes"),
    ("analysis.warm_engine", "repro.analysis.experiments", "warmed_engine"),
    ("analysis.llc_warmup", "repro.analysis.experiments", "warm_llc_resident"),
    ("workloads.table_build", "repro.analysis.experiments", "make_table"),
    ("workloads.table_build", "repro.service.loadgen", "make_table"),
    ("workloads.table_build", "repro.cluster.loadgen", "make_table"),
    ("columnstore.build", "repro.columnstore.dictionary", "MainDictionary.implicit"),
    ("columnstore.build", "repro.columnstore.dictionary", "DeltaDictionary.implicit"),
    ("columnstore.in_predicate", "repro.columnstore.query", "run_in_predicate"),
    ("query.plan", "repro.query.plan", "QueryPlan.execute"),
    ("service.capacity", "repro.service.loadgen", "sequential_capacity"),
    ("service.capacity", "repro.cluster.loadgen", "sequential_capacity"),
    ("service.serve", "repro.service.server", "ServiceServer.serve"),
    ("cluster.serve", "repro.cluster.server", "ClusterServer.serve"),
)

#: Executors reported one by one (lower-cased registry names). The list
#: is fixed so the metric set does not change when the registry does;
#: time in an executor missing from it still reaches the rollups.
EXECUTORS = (
    "std",
    "baseline",
    "gp",
    "amac",
    "coro",
    "spp",
    "sequential",
    "baseline-compiled",
    "gp-compiled",
    "amac-compiled",
    "coro-compiled",
    "sequential-compiled",
)

#: Every span name the traced repeat reports ``.self_s`` and ``.calls`` for.
SPANS = (
    "api.verb",
    "perf.sweep",
    "perf.cache",
    "perf.fingerprint",
    "perf.point",
    "analysis.calibration",
    "analysis.warm_engine",
    "analysis.llc_warmup",
    "workloads.table_build",
    "columnstore.build",
    "columnstore.in_predicate",
    "query.plan",
    *(f"interleaving.{name}" for name in EXECUTORS),
    "interleaving.live",
    "interleaving.compiled",
    "service.capacity",
    "service.serve",
    "cluster.serve",
)


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """``(name, unit, better)`` of every metric a traced run reports."""
    metrics = []
    for span in SPANS:
        metrics.append((f"{span}.self_s", "s", "lower"))
        metrics.append((f"{span}.calls", "count", "lower"))
    metrics += [
        ("perf.point.p50_ms", "ms", "lower"),
        ("perf.point.max_ms", "ms", "lower"),
        ("analysis.llc_warmup.lines", "count", "lower"),
        ("perf.cache.hits", "count", "higher"),
        ("perf.cache.misses", "count", "lower"),
        ("perf.cache.stores", "count", "lower"),
        ("perf.cache.hit_ratio", "fraction", "higher"),
        ("interleaving.compiled.replays", "count", "higher"),
        ("interleaving.compiled.schedules_staged", "count", "lower"),
        ("interleaving.compiled.schedule_cache_hits", "count", "higher"),
        ("interleaving.compiled.fallbacks", "count", "lower"),
        ("interleaving.compiled.schedule_compile_s", "s", "lower"),
        ("interleaving.compiled.replay_s", "s", "lower"),
        ("service.requests", "count", "higher"),
        ("service.batches", "count", "lower"),
        ("trace.overhead", "fraction", "lower"),
        ("trace.unattributed_share", "fraction", "lower"),
    ]
    return metrics


class SpanRecorder:
    """In-memory spans of wrapped calls on one thread."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index]`` per call, in call order;
        #: a parent always precedes its children.
        self.spans: list[list] = []
        #: Per-span-name work counters (e.g. LLC lines installed).
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recording one ``name`` span per call.

        ``count(*args, **kwargs)``, when given, adds the call's work to
        ``counts[name]``.
        """
        spans, open_spans = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                self.counts[name] = self.counts.get(name, 0) + count(*args, **kwargs)
            index = len(spans)
            spans.append([name, 0.0, 0.0, open_spans[-1] if open_spans else -1])
            open_spans.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_spans.pop()
                spans[index][1] = start
                spans[index][2] = end

        return traced

    def self_times(self, root: str | None = None) -> dict[str, tuple[float, int]]:
        """``{name: (self seconds, calls)}``, optionally only under ``root`` trees."""
        spans = self.spans
        children = [0.0] * len(spans)
        roots = [0] * len(spans)
        for index, (_name, start, end, parent) in enumerate(spans):
            if parent >= 0:
                children[parent] += end - start
                roots[index] = roots[parent]
            else:
                roots[index] = index
        totals: dict[str, tuple[float, int]] = {}
        for index, (name, start, end, _parent) in enumerate(spans):
            if root is not None and spans[roots[index]][0] != root:
                continue
            self_s, calls = totals.get(name, (0.0, 0))
            totals[name] = (self_s + (end - start) - children[index], calls + 1)
        return totals

    def durations(self, name: str) -> list[float]:
        """Wall seconds of every ``name`` span, children included."""
        return [end - start for span_name, start, end, _ in self.spans if span_name == name]


def _llc_lines(memory, regions) -> int:
    """Lines ``warm_llc_resident(memory, regions)`` installs (0 if too big)."""
    line = memory.arch.line_size
    if sum(region.size for region in regions) > memory.arch.l3.size:
        return 0
    return sum(
        (region.base + region.size - 1) // line - region.base // line + 1
        for region in regions
    )


def install(recorder: SpanRecorder) -> tuple[list, list[str]]:
    """Wrap every target; return ``(undo, missing)`` for :func:`uninstall`.

    ``missing`` names targets the program no longer has; their time is
    charged to the enclosing span instead.
    """
    from repro.interleaving.executor import EXECUTOR_REGISTRY

    undo: list = []
    missing: list[str] = []
    for name, module_name, path in TARGETS:
        *owner_path, attr = path.split(".")
        try:
            owner = importlib.import_module(module_name)
            for part in owner_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module_name}.{path}")
            continue
        count = _llc_lines if name == "analysis.llc_warmup" else None
        if isinstance(original, classmethod):
            wrapped = classmethod(recorder.wrap(name, original.__func__, count))
        else:
            wrapped = recorder.wrap(name, original, count)
        setattr(owner, attr, wrapped)
        undo.append((owner, attr, original))
    for executor in {id(e): e for e in EXECUTOR_REGISTRY.values()}.values():
        executor.run = recorder.wrap(f"interleaving.{executor.name.lower()}", executor.run)
        undo.append((executor, "run", None))
    return undo, missing


def uninstall(undo: list) -> None:
    """Restore every callable :func:`install` wrapped."""
    for owner, attr, original in reversed(undo):
        if original is None:
            delattr(owner, attr)  # instance attribute shadowing the method
        else:
            setattr(owner, attr, original)


def span_metrics(recorder: SpanRecorder) -> dict[str, float]:
    """Per-layer metrics derived from the spans alone."""
    totals = recorder.self_times()
    live = compiled = (0.0, 0)
    for name, (self_s, calls) in totals.items():
        if name.startswith("interleaving."):
            if name.endswith("-compiled"):
                compiled = (compiled[0] + self_s, compiled[1] + calls)
            else:
                live = (live[0] + self_s, live[1] + calls)
    totals["interleaving.live"] = live
    totals["interleaving.compiled"] = compiled
    metrics: dict[str, float] = {}
    for span in SPANS:
        self_s, calls = totals.get(span, (0.0, 0))
        metrics[f"{span}.self_s"] = self_s
        metrics[f"{span}.calls"] = calls
    points_ms = [1000.0 * d for d in recorder.durations("perf.point")]
    metrics["perf.point.p50_ms"] = statistics.median(points_ms) if points_ms else 0.0
    metrics["perf.point.max_ms"] = max(points_ms, default=0.0)
    metrics["analysis.llc_warmup.lines"] = recorder.counts.get("analysis.llc_warmup", 0)
    return metrics

"""Observability: metrics registry, span tracing, and run artifacts.

The paper argues through measurement — TMAM slot breakdowns (Tables 1–2),
loads by serving level (Figure 6), per-phase cycle profiles (Figure 5) —
so the simulator carries a first-class instrumentation layer:

* :mod:`repro.obs.metrics` — a hierarchical registry of named counters,
  gauges, and cycle-latency histograms. Simulator components register
  their stats as *sources*; ``registry.snapshot()`` returns one nested
  dict covering every counter the reporting layer prints.
* :mod:`repro.obs.spans` — a cycle-stamped span tracer. Schedulers and
  the execution engine record resume / compute / stall / switch spans
  per coroutine frame, plus counter tracks (LFB occupancy, TLB walks),
  making an interleaved group's schedule visible as a timeline.
* :mod:`repro.obs.export` — exporters: JSONL events, Chrome-trace /
  Perfetto JSON (one "thread" per coroutine frame, cycle timestamps),
  and a JSON run summary.
* :mod:`repro.obs.rtrace` — request-centric tracing for the serving
  layer: one causally-linked span tree per request (admission → queue →
  coalesce → dispatch attempts → completion), with hedge winner/loser
  links and fault annotations, exportable as Chrome-trace or JSONL.
* :mod:`repro.obs.hist` — fixed-bucket log-scale latency histograms
  whose buckets keep trace-id **exemplars** ("show me a p99 request" is
  one lookup), plus the repo's canonical nearest-rank percentile.
* :mod:`repro.obs.slo` — multi-window error-budget **burn rates** over
  simulated time (the ``repro.slo/1`` document).

Instrumentation is **zero-overhead by default**: the engine ships with
the shared :data:`~repro.obs.spans.NULL_RECORDER` and the serving layer
with :data:`~repro.obs.rtrace.NULL_REQUEST_TRACER`; their ``enabled``
flags gate every hot-path hook, so un-traced runs charge bit-identical
cycle counts.
"""

import importlib as _importlib

#: Module -> the names this package re-exports from it. They are imported
#: on first access, so a module that needs only the metrics registry
#: does not load the tracers and exporters.
_EXPORTS = {
    "repro.obs.metrics": ("Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "repro.obs.spans": (
        "NULL_RECORDER",
        "NullRecorder",
        "RecordingStream",
        "Span",
        "SpanRecorder",
        "SPAN_KINDS",
    ),
    "repro.obs.export": (
        "chrome_trace",
        "run_summary",
        "spans_jsonl",
        "write_run_artifacts",
    ),
    "repro.obs.hist": ("Exemplar", "ExemplarHistogram", "nearest_rank"),
    "repro.obs.rtrace": (
        "NULL_REQUEST_TRACER",
        "NullRequestTracer",
        "RequestTracer",
        "critical_path",
        "request_chrome_trace",
        "request_traces_jsonl",
        "trace_errors",
    ),
    "repro.obs.slo": ("SLO_SCHEMA", "burn_analysis"),
}

_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    value = getattr(_importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = list(_LAZY)

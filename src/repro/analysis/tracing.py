"""Span-traced experiment runs (the ``python -m repro trace`` verb).

Where :mod:`repro.analysis.figures` reproduces a whole table or figure,
this module runs a *small, fully instrumented* slice of an experiment —
one warmed measurement per executor with a
:class:`~repro.obs.spans.SpanRecorder` attached — and writes the
machine-readable artifacts:

* ``<experiment>_trace.json`` — Chrome-trace / Perfetto JSON: one
  process per executor, one thread per coroutine frame, cycle
  timestamps. Open at https://ui.perfetto.dev.
* ``<experiment>_summary.json`` — per-executor registry snapshot
  (TMAM slots, loads by hit level, cache/TLB/LFB counters) plus span
  aggregates.
* ``<experiment>_events.jsonl`` — every span and counter sample as one
  JSON line.

The traced workload is the experiments' shared binary-search lookup
sweep (the ``locate`` kernel all of the paper's artifacts profile),
scaled down so traces stay loadable; pass ``n_lookups``/``size_bytes``
to scale up.
"""

from __future__ import annotations

import pathlib

from repro.config import HASWELL, ArchSpec
from repro.analysis.experiments import (
    DEFAULT_GROUP_SIZES,
    TECHNIQUES,
    run_binary_search_technique,
    warmed_engine,
)
from repro.interleaving.compiled import compiled_stats
from repro.interleaving.executor import BulkLookup, get_executor
from repro.obs.export import run_summary, write_run_artifacts
from repro.obs.spans import SpanRecorder
from repro.perf import Task, default_runner
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import ExecutionEngine
from repro.workloads.generators import lookup_values, make_table

__all__ = [
    "TRACE_DEFAULT_LOOKUPS",
    "TRACE_DEFAULT_SIZE",
    "traced_run",
    "traced_point",
    "trace_experiment",
]

TRACE_DEFAULT_LOOKUPS = 24
TRACE_DEFAULT_SIZE = 8 << 20  # past the STLB span: DRAM misses and walks show


def traced_run(
    technique: str,
    *,
    size_bytes: int = TRACE_DEFAULT_SIZE,
    n_lookups: int = TRACE_DEFAULT_LOOKUPS,
    group_size: int | None = None,
    arch: ArchSpec = HASWELL,
    seed: int = 0,
) -> tuple[ExecutionEngine, SpanRecorder]:
    """Run one warmed, span-traced measurement of ``technique``.

    Mirrors :func:`repro.analysis.experiments.measure_binary_search`:
    a warm-up pass over a different lookup list primes the memory
    system, then a fresh engine — with a live span recorder — runs the
    measured pass.
    """
    executor = get_executor(technique)
    group_size = group_size or DEFAULT_GROUP_SIZES.get(
        technique, executor.default_group_size
    )
    allocator = AddressSpaceAllocator(page_size=arch.page_size)
    table = make_table(allocator, "array", size_bytes, "int")
    values = lookup_values(n_lookups, table, seed, "int")
    warm_values = lookup_values(n_lookups, table, seed + 977, "int")

    engine = warmed_engine(
        arch,
        [table.region],
        lambda warm: run_binary_search_technique(
            warm, technique, table, warm_values, group_size
        ),
    )
    recorder = SpanRecorder()
    executor.run(
        BulkLookup.sorted_array(table, values),
        engine,
        group_size=group_size,
        recorder=recorder,
    )
    engine.settle()
    return engine, recorder


def traced_point(
    technique: str,
    *,
    size_bytes: int = TRACE_DEFAULT_SIZE,
    n_lookups: int = TRACE_DEFAULT_LOOKUPS,
    arch: ArchSpec = HASWELL,
    seed: int = 0,
) -> tuple[SpanRecorder, dict]:
    """One executor's traced run, flattened to picklable artifacts.

    The sweep-point form of :func:`traced_run`: the engine stays in the
    worker process; what travels back is the recorder plus the summary
    record ``trace_experiment`` aggregates.
    """
    before = compiled_stats()
    engine, recorder = traced_run(
        technique,
        size_bytes=size_bytes,
        n_lookups=n_lookups,
        arch=arch,
        seed=seed,
    )
    # The traced pass takes the generator path (span recording is a
    # fallback reason for staged-schedule replay), which the point's own
    # replay and fallback counts show in the summary. The process-wide
    # staging counts and host timings depend on what ran earlier in the
    # process, so they stay out: the summary is the same at any job count.
    after = compiled_stats()
    counts = {
        "replays": after["replays"] - before["replays"],
        "compiled_fallbacks": after["fallbacks"] - before["fallbacks"],
        **{
            key: {
                name: count - before[key].get(name, 0)
                for name, count in after[key].items()
                if count != before[key].get(name, 0)
            }
            for key in ("fallbacks_by_reason", "fallbacks_by_executor")
        },
    }
    engine.metrics.register_source("interleaving.compiled", lambda: counts)
    record = {
        "cycles": engine.clock,
        "issue_width": engine.cost.issue_width,
        "n_lookups": n_lookups,
        "size_bytes": size_bytes,
        "group_size": DEFAULT_GROUP_SIZES[technique],
        "cycles_per_lookup": engine.clock / n_lookups,
        "metrics": engine.metrics.snapshot(),
        "spans_by_kind": recorder.spans_by_kind(),
        "cycles_by_kind": recorder.cycles_by_kind(),
    }
    return recorder, record


def trace_experiment(
    name: str,
    out_dir: str | pathlib.Path,
    *,
    n_lookups: int = TRACE_DEFAULT_LOOKUPS,
    size_bytes: int = TRACE_DEFAULT_SIZE,
    arch: ArchSpec = HASWELL,
    seed: int = 0,
) -> dict[str, pathlib.Path]:
    """Trace every executor of ``name``'s kernel; write run artifacts.

    Raises ``KeyError`` (listing the available experiments) for unknown
    names, exactly like :func:`repro.analysis.figures.run_experiment`.
    """
    from repro.analysis.figures import available_experiments

    if name not in available_experiments():
        raise KeyError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(available_experiments())}"
        )

    # One traced run per executor, fanned through the sweep runner (each
    # point rebuilds its table and values from the seed, so worker
    # processes reproduce the in-process run bit for bit).
    outcomes = default_runner().run(
        [
            Task(
                traced_point,
                (technique,),
                {
                    "size_bytes": size_bytes,
                    "n_lookups": n_lookups,
                    "arch": arch,
                    "seed": seed,
                },
            )
            for technique in TECHNIQUES
        ]
    )
    recorders = {
        technique: recorder for technique, (recorder, _) in zip(TECHNIQUES, outcomes)
    }
    executors = {
        technique: record for technique, (_, record) in zip(TECHNIQUES, outcomes)
    }
    summary = run_summary(name, executors)
    return write_run_artifacts(out_dir, name, recorders, summary)

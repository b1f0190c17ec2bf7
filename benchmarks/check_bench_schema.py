#!/usr/bin/env python
"""Guard against schema drift in the machine-readable benchmark artifacts.

The benchmark session writes machine-readable documents — every offline
sweep point into ``BENCH_sim.json`` (see ``benchmarks/conftest.py``) and
the serving-layer load sweep into ``BENCH_service.json`` (see
``benchmarks/bench_service_latency.py``), the fault-injected sweep
into ``BENCH_chaos.json`` (see ``benchmarks/bench_chaos.py``), the
multi-node cluster sweep into ``BENCH_cluster.json`` (see
``benchmarks/bench_cluster.py``; ``repro.cluster/1`` adds per-node
batch/completion counters that must sum to the point totals and
interconnect crossing counts), the SLO burn-rate sweep into
``BENCH_slo.json`` (see ``benchmarks/bench_slo.py``), and the host wall-clock timings of the
perf layer into ``BENCH_wallclock.json`` (see
``benchmarks/bench_wallclock.py``). ``python -m repro explain --json``
documents (``repro.explain/1``) validate through the same dispatch —
CI smokes the explain verb by piping its output here. ``repro.query/1``
documents come in two kinds, dispatched on the ``kind`` field:
``plan_run`` (``python -m repro plan --json``) and ``join_streaming``
(``benchmarks/bench_join_streaming.py`` → ``BENCH_join.json``); both
carry per-operator profile rows validated against
``OPERATOR_ROW_FIELDS``. ``repro.control/1`` documents also dispatch on
``kind``: a controlled serving sweep (no ``kind``) is validated as its
``base_schema`` with the control extras stripped, plus per-point
``control`` decision streams whose windows must tile the horizon from
cycle 0 and reference only the exported signal/actuator names; the
``control_bench`` kind (``benchmarks/bench_control.py`` →
``BENCH_control.json``) additionally re-asserts the headline claim —
the adaptive controller's median p99 beats the best static arm's.
Downstream consumers — plots, the paper-comparison notebooks, CI trend
tracking — key off the ``repro.bench-sim/1`` / ``repro.service/1`` /
``repro.chaos/1`` / ``repro.slo/1`` / ``repro.explain/1`` /
``repro.wallclock/1`` shapes, so CI runs this checker after the
benchmark smoke job and fails the build if a field is renamed,
dropped, or retyped without bumping the schema version.

Semantic checks ride along per schema: service documents get monotone
latency percentiles, slo documents get monotone ``budget_consumed``
series and histogram counts that sum to the served-request count,
explain documents get a gap-free critical path whose stage cycles sum
to the request's latency.

The document kind is dispatched on its ``schema`` field, so the same
invocation validates either artifact::

    python benchmarks/check_bench_schema.py [PATH] [--require SWEEP ...]
    python benchmarks/check_bench_schema.py benchmarks/results/BENCH_service.json

PATH defaults to ``benchmarks/results/BENCH_sim.json``. ``--require``
additionally fails if a named sweep is absent (the smoke job requires
``binary_search_int``; ignored for service documents). Service documents
additionally get semantic checks: offered load strictly positive and
latency percentiles monotone (p50 <= p95 <= p99) at every point.
"""

from __future__ import annotations

import argparse
import json
import numbers
import pathlib
import sys

SCHEMA = "repro.bench-sim/1"
SERVICE_SCHEMA = "repro.service/1"
CHAOS_SCHEMA = "repro.chaos/1"
CLUSTER_SCHEMA = "repro.cluster/1"
WALLCLOCK_SCHEMA = "repro.wallclock/1"
SLO_SCHEMA = "repro.slo/1"
EXPLAIN_SCHEMA = "repro.explain/1"
QUERY_SCHEMA = "repro.query/1"
CONTROL_SCHEMA = "repro.control/1"

#: Signals a ``control.window`` record may reference, and nothing else.
#: Mirrors ``repro.control.SIGNAL_NAMES`` — hardcoded on purpose, so a
#: rename in the library shows up here as drift.
CONTROL_SIGNALS = (
    "arrivals",
    "completed",
    "p99",
    "queue_depth",
    "extra_latency",
    "lfb_capacity",
    "down_shards",
    "batch_failures",
)

#: Actuators a window decision may move (mirrors
#: ``repro.control.ACTION_NAMES``, hardcoded for the same reason).
CONTROL_ACTIONS = (
    "technique",
    "group_size",
    "max_wait_cycles",
    "active_shards",
    "overflow_lane",
)

#: Field name -> type check, for binary-search sweep points
#: (mirrors ``conftest._point_record``).
BINARY_SEARCH_FIELDS = {
    "technique": str,
    "size_bytes": numbers.Integral,
    "element": str,
    "group_size": numbers.Integral,
    "n_lookups": numbers.Integral,
    "cycles_per_search": numbers.Real,
    "cpi": numbers.Real,
    "cycles_by_category_per_search": dict,
    "loads_per_search": dict,
    "walks_per_search": dict,
}

#: Mirrors ``conftest._query_record``.
QUERY_FIELDS = {
    "store": str,
    "strategy": str,
    "dict_bytes": numbers.Integral,
    "n_predicates": numbers.Integral,
    "total_cycles": numbers.Integral,
    "locate_cycles": numbers.Integral,
    "scan_cycles": numbers.Integral,
    "response_ms": numbers.Real,
    "locate_fraction": numbers.Real,
    "locate_cpi": numbers.Real,
    "locate_breakdown": dict,
    "operators": list,
}

#: Fields every per-operator profile row carries
#: (mirrors ``repro.query.OperatorProfile.as_dict``); rows may add
#: operator-specific scalar attrs (``executor``, ``group_size``, ...).
OPERATOR_ROW_FIELDS = {
    "op": str,
    "kind": str,
    "cycles": numbers.Integral,
    "batches": numbers.Integral,
    "rows": numbers.Integral,
}


def check_operator_rows(label: str, rows: object, errors: list[str]) -> None:
    """Validate a list of per-operator profile rows."""
    if not isinstance(rows, list):
        errors.append(f"{label}: operators is {type(rows).__name__}, not list")
        return
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"{label}.operators[{i}]: not an object")
            continue
        for field, expected in OPERATOR_ROW_FIELDS.items():
            if field not in row:
                errors.append(f"{label}.operators[{i}]: missing field {field!r}")
            elif not isinstance(row[field], expected) or isinstance(
                row[field], bool
            ):
                errors.append(
                    f"{label}.operators[{i}].{field}: "
                    f"{type(row[field]).__name__} is not {expected.__name__}"
                )
        for field, value in row.items():
            if not isinstance(value, (str, numbers.Real)) or isinstance(
                value, bool
            ):
                errors.append(
                    f"{label}.operators[{i}].{field}: attrs must be scalar, "
                    f"got {type(value).__name__}"
                )

VALID_SCALES = ("quick", "full")

#: Field name -> type check, for serving-sweep points
#: (mirrors ``repro.service.loadgen._point``).
SERVICE_POINT_FIELDS = {
    "technique": str,
    "load_multiplier": numbers.Real,
    "offered_load": numbers.Real,
    "throughput": numbers.Real,
    "completed": numbers.Integral,
    "served": numbers.Integral,
    "makespan": numbers.Integral,
    "mean_batch_size": numbers.Real,
    "peak_queue_depth": numbers.Integral,
    "slo_attainment": (numbers.Real, type(None)),
    "p50": numbers.Integral,
    "p95": numbers.Integral,
    "p99": numbers.Integral,
    "mean_queue_wait": numbers.Real,
    "mean_batch_wait": numbers.Real,
    "mean_execution": numbers.Real,
    "arrivals": numbers.Integral,
    "admitted": numbers.Integral,
    "rejected": numbers.Integral,
    "rate_limited": numbers.Integral,
    "dropped": numbers.Integral,
    "shed": numbers.Integral,
    "batches": numbers.Integral,
}

#: Extra per-point fields of fault-injected sweeps (``repro.chaos/1``;
#: mirrors ``repro.service.loadgen._chaos_point``).
CHAOS_POINT_FIELDS = {
    **SERVICE_POINT_FIELDS,
    "timeouts": numbers.Integral,
    "retries": numbers.Integral,
    "failed": numbers.Integral,
    "hedges": numbers.Integral,
    "hedge_wins": numbers.Integral,
    "batch_failures": numbers.Integral,
    "degraded_batches": numbers.Integral,
    "fallback_batches": numbers.Integral,
    "outage_delays": numbers.Integral,
    "faults_by_kind": dict,
    "fault_events": numbers.Integral,
}

#: Extra per-point fields of cluster sweeps (``repro.cluster/1``;
#: mirrors ``repro.cluster.loadgen._cluster_point``). Chaos fields ride
#: along only when the document carries a ``fault_profile``.
CLUSTER_POINT_FIELDS = {
    "node_batches": dict,
    "node_completed": dict,
    "crossings": dict,
    "interconnect_cycles": numbers.Integral,
    "cross_node_hedges": numbers.Integral,
}


#: Field name -> type check for the host wall-clock artifact
#: (``repro.wallclock/1``; mirrors ``benchmarks/bench_wallclock.py``).
WALLCLOCK_FIELDS = {
    "host_cpus": numbers.Integral,
    "jobs": numbers.Integral,
    "grid_points": numbers.Integral,
    "n_lookups": numbers.Integral,
    "serial_s": numbers.Real,
    "parallel_s": numbers.Real,
    "speedup": numbers.Real,
    "cache_cold_s": numbers.Real,
    "cache_warm_s": numbers.Real,
    "cache_warm_speedup": numbers.Real,
    "compiled_s": numbers.Real,
    "compiled_speedup": numbers.Real,
    "compiled_fallbacks": numbers.Integral,
    "grid_checksum_serial": str,
    "grid_checksum_compiled": str,
    "micro_timings_s": dict,
}

#: Timing splits the replay pass must report in ``micro_timings_s``
#: (staging vs replay — a missing key means the default-path sweep did
#: not actually replay staged schedules).
COMPILED_MICRO_TIMINGS = ("schedule_compile_s", "compiled_replay_s")


def check_wallclock_document(doc: dict) -> list[str]:
    errors: list[str] = []
    for field, expected in WALLCLOCK_FIELDS.items():
        if field not in doc:
            errors.append(f"missing field {field!r}")
        elif not isinstance(doc[field], expected) or isinstance(doc[field], bool):
            errors.append(
                f"{field}: {type(doc[field]).__name__} is not {expected.__name__}"
            )
    for field in doc:
        if field != "schema" and field not in WALLCLOCK_FIELDS:
            errors.append(f"unknown field {field!r} (schema drift?)")
    # Semantic invariants: timings are positive, and — since replay does
    # no simulation — the warm cache pass beats the cold one by >= 10x
    # on any host.
    for field in (
        "serial_s",
        "parallel_s",
        "cache_cold_s",
        "cache_warm_s",
        "compiled_s",
        "compiled_speedup",
    ):
        value = doc.get(field)
        if isinstance(value, numbers.Real) and value <= 0:
            errors.append(f"{field}: {value} is not > 0")
    warm = doc.get("cache_warm_speedup")
    if isinstance(warm, numbers.Real) and warm < 10:
        errors.append(f"cache_warm_speedup {warm} is below the 10x floor")
    # Replay coverage: every Figure 7 grid point must have replayed a
    # staged schedule (fallbacks mean the speedup silently measured the
    # generator path), and the replay pass must reproduce the generator
    # reference's grid.
    fallbacks = doc.get("compiled_fallbacks")
    if isinstance(fallbacks, numbers.Integral) and fallbacks != 0:
        errors.append(
            f"compiled_fallbacks: {fallbacks} grid runs fell back to the "
            "generator path"
        )
    serial_sum = doc.get("grid_checksum_serial")
    compiled_sum = doc.get("grid_checksum_compiled")
    if (
        isinstance(serial_sum, str)
        and isinstance(compiled_sum, str)
        and serial_sum != compiled_sum
    ):
        errors.append(
            f"grid checksums differ: serial {serial_sum} vs compiled "
            f"{compiled_sum} — compiled replay is not bit-identical"
        )
    micro = doc.get("micro_timings_s")
    if isinstance(micro, dict):
        for name, seconds in micro.items():
            if not isinstance(seconds, numbers.Real) or seconds <= 0:
                errors.append(f"micro_timings_s[{name!r}]: {seconds!r} is not > 0")
        for name in COMPILED_MICRO_TIMINGS:
            if name not in micro:
                errors.append(
                    f"micro_timings_s: missing compiled timing {name!r}"
                )
    return errors


#: Field name -> type check for ``repro.slo/1`` points
#: (mirrors ``repro.service.loadgen._slo_record``).
SLO_POINT_FIELDS = {
    "technique": str,
    "load_multiplier": numbers.Real,
    "requests": numbers.Integral,
    "served": numbers.Integral,
    "p99": numbers.Integral,
    "slo_attainment": (numbers.Real, type(None)),
    "p99_exemplar": (dict, type(None)),
    "hist": dict,
    "lane_hists": dict,
    "burn": dict,
}

#: Field name -> type check inside one point's burn analysis
#: (mirrors ``repro.obs.slo.burn_analysis``).
BURN_FIELDS = {
    "slo_cycles": numbers.Integral,
    "target": numbers.Real,
    "budget": numbers.Real,
    "short_window_cycles": numbers.Integral,
    "long_window_cycles": numbers.Integral,
    "events": numbers.Integral,
    "bad": numbers.Integral,
    "attainment": numbers.Real,
    "overall_burn": numbers.Real,
    "burn_short": list,
    "burn_long": list,
    "max_burn_short": numbers.Real,
    "max_burn_long": numbers.Real,
    "budget_consumed": list,
    "alert_windows": numbers.Integral,
}

#: Top-level fields of the ``repro.explain/1`` document
#: (mirrors ``repro.service.explain.explain_point``).
EXPLAIN_FIELDS = {
    "kind": str,
    "scenario": str,
    "technique": str,
    "load_multiplier": numbers.Real,
    "seed": numbers.Integral,
    "fault_profile": str,
    "q": numbers.Real,
    "point_p99": numbers.Integral,
    "point_served": numbers.Integral,
    "exemplar": dict,
    "critical_path": dict,
}


def _check_fields(fields: dict, record: dict, errors: list[str], *, label: str) -> None:
    """Whitelist check shared by the slo/explain validators."""
    for field, expected in fields.items():
        if field not in record:
            errors.append(f"{label}: missing field {field!r}")
        elif not isinstance(record[field], expected) or isinstance(
            record[field], bool
        ):
            expected_name = (
                "/".join(t.__name__ for t in expected)
                if isinstance(expected, tuple)
                else expected.__name__
            )
            errors.append(
                f"{label}.{field}: {type(record[field]).__name__} "
                f"is not {expected_name}"
            )
    for field in record:
        if field != "schema" and field not in fields:
            errors.append(f"{label}: unknown field {field!r} (schema drift?)")


def check_slo_point(index: int, point: object, errors: list[str]) -> None:
    label = f"points[{index}]"
    if not isinstance(point, dict):
        errors.append(f"{label}: point is {type(point).__name__}, not object")
        return
    _check_fields(SLO_POINT_FIELDS, point, errors, label=label)
    burn = point.get("burn")
    if isinstance(burn, dict):
        _check_fields(BURN_FIELDS, burn, errors, label=f"{label}.burn")
        # Budget only burns: the cumulative series never decreases.
        consumed = burn.get("budget_consumed")
        if isinstance(consumed, list) and any(
            a > b for a, b in zip(consumed, consumed[1:])
        ):
            errors.append(f"{label}.burn.budget_consumed is not monotone")
    hist = point.get("hist")
    served = point.get("served")
    if isinstance(hist, dict):
        counts = hist.get("counts")
        if not isinstance(counts, list):
            errors.append(f"{label}.hist.counts must be a list")
        elif isinstance(served, numbers.Integral) and sum(counts) != served:
            errors.append(
                f"{label}: hist counts sum to {sum(counts)}, "
                f"but served is {served}"
            )
        exemplars = hist.get("exemplars")
        if isinstance(exemplars, list) and isinstance(counts, list):
            for exemplar in exemplars:
                bucket = exemplar.get("bucket") if isinstance(exemplar, dict) else None
                if not isinstance(bucket, numbers.Integral) or not (
                    0 <= bucket < len(counts)
                ):
                    errors.append(f"{label}: exemplar bucket {bucket!r} out of range")
                elif counts[bucket] <= 0:
                    errors.append(
                        f"{label}: exemplar in empty bucket {bucket}"
                    )


def check_slo_document(doc: dict) -> list[str]:
    errors: list[str] = []
    doc_fields = [
        ("kind", str),
        ("scenario", str),
        ("arrival_kind", str),
        ("arch", str),
        ("table_bytes", numbers.Integral),
        ("n_requests", numbers.Integral),
        ("seed", numbers.Integral),
        ("slo_cycles", numbers.Integral),
        ("slo_target", numbers.Real),
        ("fault_profile", str),
        ("seq_capacity_per_kcycle", numbers.Real),
    ]
    for field, expected in doc_fields:
        if field not in doc:
            errors.append(f"missing field {field!r}")
        elif not isinstance(doc[field], expected):
            errors.append(
                f"{field}: {type(doc[field]).__name__} is not {expected.__name__}"
            )
    target = doc.get("slo_target")
    if isinstance(target, numbers.Real) and not 0.0 < target < 1.0:
        errors.append(f"slo_target {target} outside (0, 1)")
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        errors.append("points must be a non-empty list")
        return errors
    for index, point in enumerate(points):
        check_slo_point(index, point, errors)
    return errors


def check_explain_document(doc: dict) -> list[str]:
    errors: list[str] = []
    fields = dict(EXPLAIN_FIELDS)
    if "control" in doc:
        # Controlled runs carry the point's decision stream; documents
        # from uncontrolled runs stay valid without it.
        fields["control"] = dict
    _check_fields(fields, doc, errors, label="doc")
    if isinstance(doc.get("control"), dict):
        check_control_section("control", doc["control"], errors)
    path = doc.get("critical_path")
    if not isinstance(path, dict):
        return errors
    for field in ("trace_id", "outcome", "arrival", "end", "latency", "stages"):
        if field not in path:
            errors.append(f"critical_path: missing field {field!r}")
    stages = path.get("stages")
    if not isinstance(stages, list):
        errors.append("critical_path.stages must be a list")
        return errors
    # Stages tile [arrival, end] without gaps and attribute 100% of the
    # request's latency (the tracer's core invariant, re-checked on the
    # serialized artifact).
    latency = path.get("latency")
    if stages:
        if stages[0].get("start") != path.get("arrival"):
            errors.append("critical_path: first stage does not start at arrival")
        if stages[-1].get("end") != path.get("end"):
            errors.append("critical_path: last stage does not end at end")
        for a, b in zip(stages, stages[1:]):
            if a.get("end") != b.get("start"):
                errors.append(
                    f"critical_path: gap between {a.get('name')!r} "
                    f"and {b.get('name')!r}"
                )
        total = sum(s.get("cycles", 0) for s in stages)
        if isinstance(latency, numbers.Integral) and total != latency:
            errors.append(
                f"critical_path: stage cycles sum to {total}, "
                f"latency is {latency}"
            )
        pct = sum(s.get("pct", 0) for s in stages)
        if isinstance(latency, numbers.Integral) and latency > 0 and not (
            99.0 <= pct <= 101.0
        ):
            errors.append(f"critical_path: stage pct sums to {pct}, not ~100")
    elif isinstance(latency, numbers.Integral) and latency != 0:
        errors.append(
            f"critical_path: no stages but latency is {latency}"
        )
    return errors


def check_point(sweep: str, index: int, point: object, errors: list[str]) -> None:
    fields = QUERY_FIELDS if sweep == "query" else BINARY_SEARCH_FIELDS
    if not isinstance(point, dict):
        errors.append(f"{sweep}[{index}]: point is {type(point).__name__}, not object")
        return
    for field, expected in fields.items():
        if field not in point:
            errors.append(f"{sweep}[{index}]: missing field {field!r}")
        elif not isinstance(point[field], expected) or isinstance(point[field], bool):
            errors.append(
                f"{sweep}[{index}].{field}: {type(point[field]).__name__} "
                f"is not {expected.__name__}"
            )
    for field in point:
        if field not in fields:
            errors.append(f"{sweep}[{index}]: unknown field {field!r} (schema drift?)")
    if sweep == "query" and isinstance(point.get("operators"), list):
        check_operator_rows(f"{sweep}[{index}]", point["operators"], errors)


def check_document(doc: object, required: list[str]) -> list[str]:
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level is {type(doc).__name__}, not object"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    sweeps = doc.get("sweeps")
    if not isinstance(sweeps, dict) or not sweeps:
        errors.append("sweeps must be a non-empty object")
        return errors
    for name in required:
        if name not in sweeps:
            errors.append(f"required sweep {name!r} absent (have: {sorted(sweeps)})")
    for name, sweep in sweeps.items():
        if not isinstance(sweep, dict):
            errors.append(f"{name}: sweep is {type(sweep).__name__}, not object")
            continue
        if sweep.get("scale") not in VALID_SCALES:
            errors.append(f"{name}.scale is {sweep.get('scale')!r}")
        points = sweep.get("points")
        if not isinstance(points, list) or not points:
            errors.append(f"{name}.points must be a non-empty list")
            continue
        for index, point in enumerate(points):
            check_point(name, index, point, errors)
    return errors


#: Top-level fields of a ``repro.query/1`` ``plan_run`` document
#: (mirrors ``python -m repro plan --json``).
PLAN_RUN_FIELDS = {
    "kind": str,
    "store": str,
    "dict_bytes": numbers.Integral,
    "n_predicates": numbers.Integral,
    "n_rows": numbers.Integral,
    "seed": numbers.Integral,
    "strategy": str,
    "group_size": numbers.Integral,
    "n_matches": numbers.Integral,
    "total_cycles": numbers.Integral,
    "operators": list,
}

#: Per-point fields of a ``repro.query/1`` ``join_streaming`` document
#: (mirrors ``benchmarks/bench_join_streaming.py``).
JOIN_POINT_FIELDS = {
    "table_bytes": numbers.Integral,
    "n_lookups": numbers.Integral,
    "sequential_cycles": numbers.Integral,
    "coro_cycles": numbers.Integral,
    "speedup": numbers.Real,
}

#: Per-configuration fields of the bounded-buffer sweep in a
#: ``join_streaming`` document.
BUFFER_POINT_FIELDS = {
    "task_buffer": numbers.Integral,
    "match_buffer": numbers.Integral,
    "probe_batch": numbers.Integral,
    "total_cycles": numbers.Integral,
    "n_matches": numbers.Integral,
}


def check_query_document(doc: dict) -> list[str]:
    """Validate a ``repro.query/1`` document, dispatching on ``kind``."""
    errors: list[str] = []
    kind = doc.get("kind")
    if kind == "plan_run":
        _check_fields(PLAN_RUN_FIELDS, doc, errors, label="doc")
        check_operator_rows("doc", doc.get("operators"), errors)
        operators = doc.get("operators")
        total = doc.get("total_cycles")
        if isinstance(operators, list) and isinstance(total, numbers.Integral):
            opsum = sum(
                row.get("cycles", 0)
                for row in operators
                if isinstance(row, dict)
            )
            if opsum != total:
                errors.append(
                    f"operator cycles sum to {opsum}, total_cycles is {total}"
                )
    elif kind == "join_streaming":
        doc_fields = [
            ("kind", str),
            ("scale", str),
            ("llc_bytes", numbers.Integral),
            ("n_lookups", numbers.Integral),
            ("seed", numbers.Integral),
        ]
        for field, expected in doc_fields:
            if field not in doc:
                errors.append(f"missing field {field!r}")
            elif not isinstance(doc[field], expected):
                errors.append(
                    f"{field}: {type(doc[field]).__name__} "
                    f"is not {expected.__name__}"
                )
        if doc.get("scale") not in VALID_SCALES:
            errors.append(f"scale is {doc.get('scale')!r}")
        points = doc.get("points")
        if not isinstance(points, list) or not points:
            errors.append("points must be a non-empty list")
        else:
            for index, point in enumerate(points):
                if not isinstance(point, dict):
                    errors.append(f"points[{index}]: not an object")
                    continue
                _check_fields(
                    JOIN_POINT_FIELDS, point, errors, label=f"points[{index}]"
                )
                # The robustness claim itself: beyond the LLC the
                # interleaved join must win.
                llc = doc.get("llc_bytes")
                if (
                    isinstance(llc, numbers.Integral)
                    and point.get("table_bytes", 0) > llc
                    and point.get("speedup", 0) <= 1.0
                ):
                    errors.append(
                        f"points[{index}]: CORO does not beat sequential "
                        f"beyond the LLC (speedup {point.get('speedup')})"
                    )
        sweep = doc.get("buffer_sweep")
        if not isinstance(sweep, list) or not sweep:
            errors.append("buffer_sweep must be a non-empty list")
        else:
            matches = {
                p.get("n_matches") for p in sweep if isinstance(p, dict)
            }
            if len(matches) > 1:
                errors.append(
                    f"buffer_sweep match counts differ across buffer "
                    f"sizes: {sorted(matches)}"
                )
            for index, point in enumerate(sweep):
                if not isinstance(point, dict):
                    errors.append(f"buffer_sweep[{index}]: not an object")
                    continue
                _check_fields(
                    BUFFER_POINT_FIELDS,
                    point,
                    errors,
                    label=f"buffer_sweep[{index}]",
                )
    else:
        errors.append(
            f"kind is {kind!r}, expected 'plan_run' or 'join_streaming'"
        )
    return errors


def check_control_section(
    label: str,
    control: object,
    errors: list[str],
    *,
    makespan: int | None = None,
) -> None:
    """Validate one serving point's ``control`` decision stream.

    The windows must tile ``[0, horizon)`` contiguously from cycle 0 at
    the configured width, every record must speak the exported
    signal/action vocabulary, and every decision must carry a reason.
    """
    if not isinstance(control, dict):
        errors.append(f"{label}: control is {type(control).__name__}, not object")
        return
    width = control.get("window_cycles")
    if not isinstance(width, numbers.Integral) or width < 1:
        errors.append(f"{label}.window_cycles: {width!r} is not a positive int")
        return
    windows = control.get("windows")
    if not isinstance(windows, list) or not windows:
        errors.append(f"{label}.windows must be a non-empty list")
        return
    decided = 0
    for position, window in enumerate(windows):
        wlabel = f"{label}.windows[{position}]"
        if not isinstance(window, dict):
            errors.append(f"{wlabel}: not an object")
            continue
        if window.get("event") != "control.window":
            errors.append(f"{wlabel}.event: {window.get('event')!r}")
        if window.get("window") != position:
            errors.append(
                f"{wlabel}: window index {window.get('window')!r} "
                f"!= position {position}"
            )
        start, end = window.get("start"), window.get("end")
        if start != position * width or end != position * width + width:
            errors.append(
                f"{wlabel}: [{start}, {end}) does not tile the horizon "
                f"at width {width}"
            )
        if window.get("cycle") != end:
            errors.append(f"{wlabel}.cycle: {window.get('cycle')!r} != end {end!r}")
        signals = window.get("signals")
        if not isinstance(signals, dict) or set(signals) != set(CONTROL_SIGNALS):
            errors.append(
                f"{wlabel}.signals: keys do not match the exported "
                f"signal names {sorted(CONTROL_SIGNALS)}"
            )
        actions = window.get("actions")
        if not isinstance(actions, dict):
            errors.append(f"{wlabel}.actions: not an object")
        else:
            unknown = set(actions) - set(CONTROL_ACTIONS)
            if unknown:
                errors.append(
                    f"{wlabel}.actions: unknown actuators {sorted(unknown)}"
                )
            if actions:
                decided += 1
        reason = window.get("reason")
        if not isinstance(reason, str) or not reason:
            errors.append(f"{wlabel}.reason: missing or empty")
    if control.get("decisions") != decided:
        errors.append(
            f"{label}.decisions: {control.get('decisions')!r} != "
            f"{decided} windows with actions"
        )
    if isinstance(makespan, numbers.Integral):
        last_end = (len(windows) - 1) * width + width
        if last_end < makespan or last_end - width >= makespan:
            errors.append(
                f"{label}: {len(windows)} windows of {width} cycles do "
                f"not tile the makespan {makespan}"
            )


def check_controlled_document(doc: dict) -> list[str]:
    """Validate a ``repro.control/1`` serving document.

    The document is its base sweep (service/chaos/cluster) plus the
    control-plane extras: ``base_schema`` and the ``controller`` echo at
    the top level, one ``control`` decision stream per point. The base
    shape is delegated to the base schema's validator with the extras
    stripped, so a controlled sweep can never drift from its uncontrolled
    twin.
    """
    errors: list[str] = []
    base = doc.get("base_schema")
    if base not in (SERVICE_SCHEMA, CHAOS_SCHEMA, CLUSTER_SCHEMA):
        errors.append(f"base_schema is {base!r}")
        return errors
    controller = doc.get("controller")
    if not isinstance(controller, dict):
        errors.append(f"controller: {type(controller).__name__} is not object")
    elif not isinstance(controller.get("window_cycles"), numbers.Integral):
        errors.append("controller.window_cycles: not an int")
    stripped = {
        key: value
        for key, value in doc.items()
        if key not in ("base_schema", "controller")
    }
    points = doc.get("points")
    if isinstance(points, list):
        stripped["points"] = [
            {k: v for k, v in point.items() if k != "control"}
            if isinstance(point, dict)
            else point
            for point in points
        ]
    if base == CLUSTER_SCHEMA:
        errors.extend(check_cluster_document(stripped))
    else:
        errors.extend(check_service_document(stripped, chaos=base == CHAOS_SCHEMA))
    if not isinstance(points, list):
        return errors
    for index, point in enumerate(points):
        if not isinstance(point, dict):
            continue
        if "control" not in point:
            errors.append(f"points[{index}]: missing control section")
            continue
        check_control_section(
            f"points[{index}].control",
            point["control"],
            errors,
            makespan=point.get("makespan"),
        )
        control = point["control"]
        if (
            isinstance(control, dict)
            and isinstance(controller, dict)
            and control.get("window_cycles") != controller.get("window_cycles")
        ):
            errors.append(
                f"points[{index}].control.window_cycles != controller echo"
            )
    return errors


#: Top-level fields of a ``repro.control/1`` ``control_bench`` document
#: (mirrors ``benchmarks/bench_control.py``).
CONTROL_BENCH_FIELDS = {
    "kind": str,
    "scenario": str,
    "fault_profile": str,
    "load_multiplier": numbers.Real,
    "seeds": list,
    "controller": dict,
    "adaptive": dict,
    "statics": list,
    "best_static": dict,
}


def check_control_bench_document(doc: dict) -> list[str]:
    """Validate the adaptive-vs-static-grid comparison artifact —
    including the headline claim itself: the controller's median p99
    beats the best static arm's."""
    errors: list[str] = []
    _check_fields(CONTROL_BENCH_FIELDS, doc, errors, label="doc")
    seeds = doc.get("seeds")
    n_seeds = len(seeds) if isinstance(seeds, list) else 0

    def check_arm(label: str, arm: object) -> float | None:
        if not isinstance(arm, dict):
            errors.append(f"{label}: not an object")
            return None
        p99s = arm.get("p99_by_seed")
        if not isinstance(p99s, list) or len(p99s) != n_seeds:
            errors.append(f"{label}.p99_by_seed: needs one entry per seed")
        elif any(not isinstance(p, numbers.Integral) or p <= 0 for p in p99s):
            errors.append(f"{label}.p99_by_seed: non-positive entries")
        median = arm.get("median_p99")
        if not isinstance(median, numbers.Real) or median <= 0:
            errors.append(f"{label}.median_p99: {median!r} is not > 0")
            return None
        return float(median)

    adaptive = doc.get("adaptive")
    adaptive_median = check_arm("adaptive", adaptive)
    if isinstance(adaptive, dict):
        decisions = adaptive.get("decisions_by_seed")
        if not isinstance(decisions, list) or len(decisions) != n_seeds:
            errors.append("adaptive.decisions_by_seed: needs one entry per seed")
        elif any(
            not isinstance(d, numbers.Integral) or d <= 0 for d in decisions
        ):
            errors.append(
                "adaptive.decisions_by_seed: the controller never decided "
                f"anything ({decisions})"
            )
    statics = doc.get("statics")
    static_medians = []
    if isinstance(statics, list) and statics:
        for index, arm in enumerate(statics):
            median = check_arm(f"statics[{index}]", arm)
            if median is not None:
                static_medians.append(median)
    else:
        errors.append("statics must be a non-empty list")
    best = doc.get("best_static")
    if isinstance(best, dict) and static_medians:
        if best.get("median_p99") != min(static_medians):
            errors.append(
                f"best_static.median_p99 {best.get('median_p99')!r} is not "
                f"the grid minimum {min(static_medians)}"
            )
    # The claim the artifact exists to record: adaptivity beats every
    # static technique/group-size point of the grid.
    if adaptive_median is not None and static_medians:
        if adaptive_median >= min(static_medians):
            errors.append(
                f"adaptive median p99 {adaptive_median} does not beat the "
                f"best static {min(static_medians)}"
            )
    return errors


def check_control_document(doc: dict) -> list[str]:
    """Dispatch a ``repro.control/1`` document on its kind."""
    if doc.get("kind") == "control_bench":
        return check_control_bench_document(doc)
    return check_controlled_document(doc)


def check_service_point(
    index: int,
    point: object,
    errors: list[str],
    *,
    chaos: bool = False,
    fields: dict | None = None,
) -> None:
    if fields is None:
        fields = CHAOS_POINT_FIELDS if chaos else SERVICE_POINT_FIELDS
    if not isinstance(point, dict):
        errors.append(f"points[{index}]: point is {type(point).__name__}, not object")
        return
    for field, expected in fields.items():
        if field not in point:
            errors.append(f"points[{index}]: missing field {field!r}")
        elif not isinstance(point[field], expected) or isinstance(point[field], bool):
            expected_name = (
                "/".join(t.__name__ for t in expected)
                if isinstance(expected, tuple)
                else expected.__name__
            )
            errors.append(
                f"points[{index}].{field}: {type(point[field]).__name__} "
                f"is not {expected_name}"
            )
    for field in point:
        if field not in fields:
            errors.append(f"points[{index}]: unknown field {field!r} (schema drift?)")
    # Semantic invariants (cheap enough to enforce here, and exactly the
    # two CI cares about): the sweep actually offered load, and the
    # latency distribution is self-consistent.
    offered = point.get("offered_load")
    if isinstance(offered, numbers.Real) and offered <= 0:
        errors.append(f"points[{index}]: offered_load {offered} is not > 0")
    p50, p95, p99 = point.get("p50"), point.get("p95"), point.get("p99")
    if (
        all(isinstance(p, numbers.Real) for p in (p50, p95, p99))
        and not p50 <= p95 <= p99
    ):
        errors.append(
            f"points[{index}]: percentiles not monotone "
            f"(p50={p50}, p95={p95}, p99={p99})"
        )


def check_service_document(doc: dict, *, chaos: bool = False) -> list[str]:
    errors: list[str] = []
    doc_fields = [
        ("scenario", str),
        ("arrival_kind", str),
        ("n_requests", numbers.Integral),
        ("seed", numbers.Integral),
        ("seq_capacity_per_kcycle", numbers.Real),
        ("seq_cycles_per_lookup", numbers.Real),
    ]
    if chaos:
        doc_fields.append(("fault_profile", str))
    for field, expected in doc_fields:
        if field not in doc:
            errors.append(f"missing field {field!r}")
        elif not isinstance(doc[field], expected):
            errors.append(
                f"{field}: {type(doc[field]).__name__} is not {expected.__name__}"
            )
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        errors.append("points must be a non-empty list")
        return errors
    for index, point in enumerate(points):
        check_service_point(index, point, errors, chaos=chaos)
    return errors


def _check_node_counters(
    index: int, point: dict, field: str, total_field: str, errors: list[str]
) -> None:
    """Per-node counter dicts must cover node0..nodeN-1 + overflow and
    sum exactly to the point's total — nothing served off the books."""
    counters = point.get(field)
    total = point.get(total_field)
    if not isinstance(counters, dict) or not isinstance(
        total, numbers.Integral
    ):
        return  # typed elsewhere
    bad = [
        key
        for key, value in counters.items()
        if not isinstance(value, numbers.Integral) or value < 0
    ]
    if bad:
        errors.append(
            f"points[{index}].{field}: non-counter values at {sorted(bad)}"
        )
        return
    if sum(counters.values()) != total:
        errors.append(
            f"points[{index}].{field}: sums to {sum(counters.values())}, "
            f"but {total_field} is {total}"
        )


def check_cluster_document(doc: dict) -> list[str]:
    errors: list[str] = []
    chaos = "fault_profile" in doc
    doc_fields = [
        ("scenario", str),
        ("arrival_kind", str),
        ("n_requests", numbers.Integral),
        ("seed", numbers.Integral),
        ("n_nodes", numbers.Integral),
        ("replication", numbers.Integral),
        ("n_shards_per_node", numbers.Integral),
        ("n_users", numbers.Integral),
        ("interconnect", dict),
        ("regions", list),
        ("seq_capacity_per_kcycle", numbers.Real),
        ("seq_cycles_per_lookup", numbers.Real),
    ]
    if chaos:
        doc_fields.append(("fault_profile", str))
    for field, expected in doc_fields:
        if field not in doc:
            errors.append(f"missing field {field!r}")
        elif not isinstance(doc[field], expected):
            errors.append(
                f"{field}: {type(doc[field]).__name__} is not {expected.__name__}"
            )
    n_nodes = doc.get("n_nodes")
    replication = doc.get("replication")
    if (
        isinstance(n_nodes, numbers.Integral)
        and isinstance(replication, numbers.Integral)
        and not 1 <= replication <= n_nodes
    ):
        errors.append(
            f"replication {replication} outside [1, n_nodes={n_nodes}]"
        )
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        errors.append("points must be a non-empty list")
        return errors
    fields = {
        **(CHAOS_POINT_FIELDS if chaos else SERVICE_POINT_FIELDS),
        **CLUSTER_POINT_FIELDS,
    }
    for index, point in enumerate(points):
        check_service_point(index, point, errors, fields=fields)
        if not isinstance(point, dict):
            continue
        _check_node_counters(index, point, "node_batches", "batches", errors)
        _check_node_counters(
            index, point, "node_completed", "completed", errors
        )
        crossings = point.get("crossings")
        if isinstance(crossings, dict):
            if set(crossings) != {"local", "numa", "cxl"}:
                errors.append(
                    f"points[{index}].crossings: tiers {sorted(crossings)} "
                    "!= ['cxl', 'local', 'numa']"
                )
            elif any(
                not isinstance(v, numbers.Integral) or v < 0
                for v in crossings.values()
            ):
                errors.append(
                    f"points[{index}].crossings: non-counter values"
                )
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "path",
        nargs="?",
        default=str(
            pathlib.Path(__file__).parent / "results" / "BENCH_sim.json"
        ),
    )
    parser.add_argument("--require", action="append", default=[], metavar="SWEEP")
    args = parser.parse_args(argv)

    path = pathlib.Path(args.path)
    if not path.exists():
        print(f"FAIL: {path} does not exist (benchmarks not run?)", file=sys.stderr)
        return 1
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        print(f"FAIL: {path} is not valid JSON: {error}", file=sys.stderr)
        return 1

    if isinstance(doc, dict) and doc.get("schema") == SERVICE_SCHEMA:
        errors = check_service_document(doc)
        schema = SERVICE_SCHEMA
    elif isinstance(doc, dict) and doc.get("schema") == CHAOS_SCHEMA:
        errors = check_service_document(doc, chaos=True)
        schema = CHAOS_SCHEMA
    elif isinstance(doc, dict) and doc.get("schema") == CLUSTER_SCHEMA:
        errors = check_cluster_document(doc)
        schema = CLUSTER_SCHEMA
    elif isinstance(doc, dict) and doc.get("schema") == WALLCLOCK_SCHEMA:
        errors = check_wallclock_document(doc)
        schema = WALLCLOCK_SCHEMA
    elif isinstance(doc, dict) and doc.get("schema") == SLO_SCHEMA:
        errors = check_slo_document(doc)
        schema = SLO_SCHEMA
    elif isinstance(doc, dict) and doc.get("schema") == EXPLAIN_SCHEMA:
        errors = check_explain_document(doc)
        schema = EXPLAIN_SCHEMA
    elif isinstance(doc, dict) and doc.get("schema") == QUERY_SCHEMA:
        errors = check_query_document(doc)
        schema = QUERY_SCHEMA
    elif isinstance(doc, dict) and doc.get("schema") == CONTROL_SCHEMA:
        errors = check_control_document(doc)
        schema = CONTROL_SCHEMA
    else:
        errors = check_document(doc, args.require)
        schema = SCHEMA
    if errors:
        print(f"FAIL: {path} drifted from {schema}:", file=sys.stderr)
        for error in errors:
            print(f"  - {error}", file=sys.stderr)
        return 1
    if schema in (SERVICE_SCHEMA, CHAOS_SCHEMA):
        print(
            f"OK: {path} matches {schema} "
            f"({doc['scenario']!r}, {len(doc['points'])} points)"
        )
    elif schema == CLUSTER_SCHEMA:
        print(
            f"OK: {path} matches {schema} "
            f"({doc['scenario']!r}, {doc['n_nodes']} nodes, "
            f"R={doc['replication']}, {len(doc['points'])} points)"
        )
    elif schema == WALLCLOCK_SCHEMA:
        print(
            f"OK: {path} matches {schema} "
            f"(speedup {doc['speedup']}x at jobs={doc['jobs']}, "
            f"warm replay {doc['cache_warm_speedup']}x, "
            f"compiled {doc['compiled_speedup']}x)"
        )
    elif schema == SLO_SCHEMA:
        print(
            f"OK: {path} matches {schema} "
            f"({doc['scenario']!r}, {len(doc['points'])} points, "
            f"faults={doc['fault_profile']!r})"
        )
    elif schema == EXPLAIN_SCHEMA:
        print(
            f"OK: {path} matches {schema} "
            f"({doc['scenario']!r}/{doc['technique']} p{doc['q']:g} -> "
            f"{doc['exemplar']['trace_id']})"
        )
    elif schema == QUERY_SCHEMA:
        if doc["kind"] == "plan_run":
            print(
                f"OK: {path} matches {schema} "
                f"(plan_run, {len(doc['operators'])} operators, "
                f"{doc['total_cycles']} cycles)"
            )
        else:
            print(
                f"OK: {path} matches {schema} "
                f"(join_streaming, {len(doc['points'])} points, "
                f"{len(doc['buffer_sweep'])} buffer configs)"
            )
    elif schema == CONTROL_SCHEMA:
        if doc.get("kind") == "control_bench":
            print(
                f"OK: {path} matches {schema} "
                f"(control_bench on {doc['scenario']!r}: adaptive median "
                f"p99 {doc['adaptive']['median_p99']:g} vs best static "
                f"{doc['best_static']['median_p99']:g})"
            )
        else:
            decisions = sum(p["control"]["decisions"] for p in doc["points"])
            print(
                f"OK: {path} matches {schema} "
                f"({doc['scenario']!r}, base {doc['base_schema']}, "
                f"{len(doc['points'])} points, {decisions} decisions)"
            )
    else:
        n_points = sum(len(s["points"]) for s in doc["sweeps"].values())
        print(
            f"OK: {path} matches {schema} "
            f"({len(doc['sweeps'])} sweeps, {n_points} points)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Load generation: sweep a scenario into a throughput-vs-latency curve.

:func:`run_scenario` is the one entry point behind ``python -m repro
serve``, ``benchmarks/bench_service_latency.py``, and the example. For
each (technique, load) point it builds a seeded arrival process and a
seeded probe-value list, runs a fresh :class:`~repro.service.server.
ServiceServer`, and flattens the report into a plain dict — the
``repro.service/1`` data document.

Offered load is calibrated, not guessed: the sweep first measures the
sequential executor's warm cycles-per-lookup on the scenario's table and
derives the socket's sequential capacity in requests per kilocycle.
Load multipliers scale that capacity, so "2.0" saturates the
sequential server by construction — which is exactly where the paper's
robustness claim becomes a serving claim: the interleaved executors'
knees sit further right, so they are still inside their capacity when
the sequential curve has already folded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.config import HASWELL, ArchSpec, scaled
from repro.control import CONTROL_SCHEMA
from repro.errors import ConfigurationError
from repro.faults.schedule import FaultProfile, FaultSchedule, resolve_schedule
from repro.interleaving.executor import BulkLookup, get_executor
from repro.obs.rtrace import RequestTracer
from repro.obs.slo import SLO_SCHEMA
from repro.perf import Task, default_runner
from repro.service.arrivals import make_arrivals
from repro.service.server import ServiceReport, ServiceServer
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import ExecutionEngine
from repro.workloads.generators import make_table

if TYPE_CHECKING:
    from repro.scenario import ScenarioSpec

__all__ = [
    "SERVICE_SCHEMA",
    "CHAOS_SCHEMA",
    "SLO_SCHEMA",
    "fault_horizon",
    "sequential_capacity",
    "measure_service_point",
    "run_scenario",
    "run_traced_scenario",
    "run_slo_scenario",
    "render_service_doc",
]

#: Schema tag of the service data document / BENCH_service.json.
SERVICE_SCHEMA = "repro.service/1"

#: Schema tag of fault-injected serving documents / BENCH_chaos.json.
CHAOS_SCHEMA = "repro.chaos/1"


def _arch_for(scenario: ScenarioSpec) -> ArchSpec:
    return HASWELL if scenario.arch_scale == 1 else scaled(scenario.arch_scale)


def sequential_capacity(
    table, arch: ArchSpec, *, n_shards: int, seed: int = 0, n_probe: int = 48
) -> tuple[float, float]:
    """Warm sequential service rate of the whole socket.

    Returns ``(capacity_per_kcycle, cycles_per_lookup)``: one cold pass
    warms the caches, a second pass over fresh values is measured — the
    same two-pass methodology as the offline harness, without dragging
    :mod:`repro.analysis` into the service layer.
    """
    engine = ExecutionEngine(arch, seed=seed)
    executor = get_executor("sequential")
    rng = np.random.RandomState(seed + 53)
    warm = [int(v) for v in rng.randint(0, table.size, n_probe)]
    executor.run(BulkLookup.sorted_array(table, warm), engine)
    engine.settle()
    probe = [int(v) for v in rng.randint(0, table.size, n_probe)]
    before = engine.clock
    executor.run(BulkLookup.sorted_array(table, probe), engine)
    engine.settle()
    cycles_per_lookup = (engine.clock - before) / n_probe
    return n_shards * 1000.0 / cycles_per_lookup, cycles_per_lookup


def _arrival_params(scenario: ScenarioSpec, rate_per_kcycle: float) -> dict:
    """Kind-specific arrival parameters hitting ``rate_per_kcycle``.

    The spec rejects the parameters set here unconditionally, and
    requires the ones read here (``think_cycles``).
    """
    params = dict(scenario.arrival_params)
    if scenario.arrival_kind == "poisson":
        params["rate_per_kcycle"] = rate_per_kcycle
    elif scenario.arrival_kind == "bursty":
        # Bursts at 2.5x and lulls at 0.4x bracket the average rate.
        params.setdefault("base_rate_per_kcycle", rate_per_kcycle * 0.4)
        params.setdefault("burst_rate_per_kcycle", rate_per_kcycle * 2.5)
    elif scenario.arrival_kind == "closed":
        # Each client offers ~1000/think requests per kilocycle while
        # un-queued, so the population sets the un-throttled load.
        think = params["think_cycles"]
        params["n_clients"] = max(1, round(rate_per_kcycle * think / 1000.0))
    elif scenario.arrival_kind == "diurnal":
        # The regional weights average to 1 over a day, so the base
        # rate is the offered rate.
        params["base_rate_per_kcycle"] = rate_per_kcycle
    return params


def fault_horizon(n_requests: int, rate_per_kcycle: float) -> int:
    """Schedule horizon for one load point, deterministic in its inputs.

    Three times the expected arrival span: long enough that faults keep
    landing while an overloaded server drains its backlog, and a pure
    function of ``(n_requests, rate)`` so every technique at the same
    load point replays the *identical* schedule.
    """
    return max(1, int(3_000.0 * n_requests / rate_per_kcycle))


def _chaos_point(report: ServiceReport, schedule: FaultSchedule) -> dict:
    """The extra fields a fault-injected point carries (repro.chaos/1)."""
    record = dict(report.resilience)
    record["faults_by_kind"] = record.pop("faults")
    record["fault_events"] = len(schedule)
    return record


def _fault_name(faults) -> str:
    """Human name of whatever fault spec the caller passed."""
    if isinstance(faults, str):
        return faults
    if isinstance(faults, FaultProfile):
        return faults.name
    if isinstance(faults, FaultSchedule):
        return faults.profile
    return "custom"


def _point(
    report: ServiceReport, load_multiplier: float, offered: float
) -> dict:
    record = {
        "technique": report.technique,
        "load_multiplier": load_multiplier,
        "offered_load": offered,
        "throughput": report.throughput_per_kcycle,
        "completed": report.completed,
        "served": report.served,
        "makespan": report.makespan,
        "mean_batch_size": report.mean_batch_size(),
        "peak_queue_depth": report.peak_queue_depth,
        "slo_attainment": report.slo_attainment,
    }
    record.update(report.latency_percentiles())
    record.update(
        {f"mean_{k}": v for k, v in report.mean_decomposition().items()}
    )
    record.update(report.counters)
    return record


def _slo_record(report: ServiceReport, multiplier: float) -> dict:
    """One load point of the ``repro.slo/1`` document.

    Exemplar histograms plus burn analysis — kept *outside* the
    ``repro.service/1`` point dict so existing documents stay
    byte-identical.
    """
    exemplar = report.exemplar_for(99)
    return {
        "technique": report.technique,
        "load_multiplier": multiplier,
        "requests": len(report.requests),
        "served": report.served,
        "p99": int(percentile_of(report)),
        "slo_attainment": report.slo_attainment,
        "p99_exemplar": exemplar.as_dict() if exemplar else None,
        "hist": report.exemplars.as_dict(),
        "lane_hists": {
            lane: hist.as_dict()
            for lane, hist in sorted(report.shard_exemplars.items())
        },
        "burn": report.burn_analysis(),
    }


def percentile_of(report: ServiceReport, q: float = 99):
    """p-q end-to-end latency over *answered* requests (batched + shed)."""
    from repro.obs.hist import nearest_rank

    return nearest_rank(sorted(report.latencies + report.shed_latencies), q)


def measure_service_point(
    scenario: ScenarioSpec,
    technique: str,
    multiplier: float,
    seed: int,
    faults,
    capacity: float,
    trace: bool = False,
) -> dict:
    """Run one (technique, load) serving point; picklable sweep-point fn.

    The table and probe values are rebuilt from the scenario and seed —
    both are pure functions of their inputs, so a worker process
    reconstructs exactly the state the old in-process loop shared, and
    the resulting point is bit-identical at any job count. With
    ``trace=True`` a :class:`~repro.obs.rtrace.RequestTracer` rides
    along and the outcome additionally carries every request's span
    tree (tracing is observational: the point itself is unchanged).
    """
    arch = _arch_for(scenario)
    allocator = AddressSpaceAllocator(page_size=arch.page_size)
    table = make_table(allocator, "serve/dict", scenario.table_bytes)
    rng = np.random.RandomState(seed + 11)
    values = [int(v) for v in rng.randint(0, table.size, scenario.n_requests)]
    config = scenario.config
    if technique.lower() in ("sequential", "std", "baseline"):
        config = _replace_config(config, technique=technique, group_size=1)
    else:
        config = _replace_config(config, technique=technique)
    rate = multiplier * capacity
    arrivals = make_arrivals(
        scenario.arrival_kind,
        scenario.n_requests,
        seed,
        **_arrival_params(scenario, rate),
    )
    schedule = resolve_schedule(
        faults,
        horizon=fault_horizon(scenario.n_requests, rate),
        n_shards=config.n_shards,
        seed=seed,
    )
    tracer = RequestTracer() if trace else None
    server = ServiceServer(
        table,
        config,
        arch=arch,
        seed=seed,
        faults=schedule,
        **({"tracer": tracer} if tracer is not None else {}),
    )
    report = server.serve(arrivals, values)
    point = _point(report, multiplier, rate)
    chaos = schedule is not None
    if chaos:
        point.update(_chaos_point(report, schedule))
    if report.control is not None:
        point["control"] = report.control
    outcome = {"point": point, "chaos": chaos, "slo": _slo_record(report, multiplier)}
    if tracer is not None:
        outcome["traces"] = tracer.traces()
        outcome["fault_timeline"] = {
            "windows": list(tracer.fault_windows),
            "points": list(tracer.fault_points),
        }
    return outcome


def _sweep(scenario, seed, faults, trace=False):
    """Run the full (technique, load) sweep; return the raw outcomes.

    ``trace=False`` tasks carry the historical six-argument tuple, so
    they share result-cache entries with every other untraced caller
    (``run_scenario`` and ``run_slo_scenario`` of the same scenario hit
    the same cache line).
    """
    arch = _arch_for(scenario)
    allocator = AddressSpaceAllocator(page_size=arch.page_size)
    table = make_table(allocator, "serve/dict", scenario.table_bytes)
    capacity, cycles_per_lookup = sequential_capacity(
        table, arch, n_shards=scenario.config.n_shards, seed=seed
    )
    args_tail = (True,) if trace else ()
    outcomes = default_runner().run(
        [
            Task(
                measure_service_point,
                (scenario, technique, multiplier, seed, faults, capacity)
                + args_tail,
            )
            for technique in scenario.techniques
            for multiplier in scenario.loads
        ]
    )
    return arch, capacity, cycles_per_lookup, outcomes


def _service_doc(scenario, seed, faults, arch, capacity, cycles_per_lookup, outcomes):
    chaos = any(outcome["chaos"] for outcome in outcomes)
    controlled = any("control" in outcome["point"] for outcome in outcomes)
    base_schema = CHAOS_SCHEMA if chaos else SERVICE_SCHEMA
    doc = {
        "kind": "service",
        "schema": CONTROL_SCHEMA if controlled else base_schema,
        "scenario": scenario.name,
        "description": scenario.description,
        "arrival_kind": scenario.arrival_kind,
        "arch": arch.name,
        "table_bytes": scenario.table_bytes,
        "n_requests": scenario.n_requests,
        "seed": seed,
        "seq_capacity_per_kcycle": capacity,
        "seq_cycles_per_lookup": cycles_per_lookup,
        "points": [outcome["point"] for outcome in outcomes],
    }
    if chaos:
        doc["fault_profile"] = _fault_name(faults)
    if controlled:
        doc["base_schema"] = base_schema
        doc["controller"] = scenario.config.controller.to_dict()
    return doc


def run_scenario(
    scenario,
    *,
    seed: int = 0,
    faults: FaultSchedule | FaultProfile | str | None = None,
) -> dict:
    """Run every (technique, load) point; return the data document.

    ``scenario`` accepts anything :func:`repro.scenario.resolve_scenario`
    does — a catalogue name, a ``file:scenario.yaml`` reference, a spec
    dict, or a :class:`~repro.scenario.ScenarioSpec`; cluster scenarios
    run through :func:`repro.cluster.loadgen.run_cluster_scenario`.
    ``faults`` overrides the scenario's default fault profile (a
    profile name, a profile, or a ready-built schedule). A run whose
    schedule resolves to empty — no chaos asked for, or the ``"none"``
    profile — emits a plain ``repro.service/1`` document bit-identical
    to a run of a server without the fault machinery; a non-empty
    schedule switches the document to ``repro.chaos/1``, whose points
    add the fault/retry/hedge accounting. Every technique at the same
    load multiplier replays the *identical* schedule (the horizon
    depends only on the request count and the offered rate).
    """
    scenario = _resolve_ref(scenario)
    if scenario.kind == "cluster":
        from repro.cluster.loadgen import run_cluster_scenario

        return run_cluster_scenario(scenario, seed=seed, faults=faults)
    if faults is None:
        faults = scenario.fault_profile
    arch, capacity, cycles_per_lookup, outcomes = _sweep(scenario, seed, faults)
    return _service_doc(
        scenario, seed, faults, arch, capacity, cycles_per_lookup, outcomes
    )


def run_traced_scenario(
    scenario,
    *,
    seed: int = 0,
    faults: FaultSchedule | FaultProfile | str | None = None,
) -> tuple[dict, dict]:
    """Like :func:`run_scenario`, but with request tracing enabled.

    Returns ``(doc, traced)`` where ``doc`` is the *identical* service
    document an untraced run emits (tracing is observational), and
    ``traced`` maps a ``"technique@xLOAD"`` label per point to
    ``{"traces": [...], "fault_timeline": {...}}`` — the inputs of
    :func:`repro.obs.rtrace.request_chrome_trace`.
    """
    scenario = _resolve_ref(scenario)
    if scenario.kind == "cluster":
        from repro.cluster.loadgen import run_traced_cluster_scenario

        return run_traced_cluster_scenario(scenario, seed=seed, faults=faults)
    if faults is None:
        faults = scenario.fault_profile
    arch, capacity, cycles_per_lookup, outcomes = _sweep(
        scenario, seed, faults, trace=True
    )
    doc = _service_doc(
        scenario, seed, faults, arch, capacity, cycles_per_lookup, outcomes
    )
    labels = [
        f"{technique}@x{multiplier:g}"
        for technique in scenario.techniques
        for multiplier in scenario.loads
    ]
    traced = {
        label: {
            "traces": outcome["traces"],
            "fault_timeline": outcome["fault_timeline"],
        }
        for label, outcome in zip(labels, outcomes)
    }
    return doc, traced


def run_slo_scenario(
    spec,
    *,
    seed: int = 0,
    faults: FaultSchedule | FaultProfile | str | None = None,
) -> dict:
    """Run the sweep and emit the ``repro.slo/1`` burn-rate document.

    Shares the sweep (and its result cache) with :func:`run_scenario`;
    the document carries, per (technique, load) point, the exemplar
    latency histogram, the per-lane execution histograms, and the
    multi-window burn analysis of :mod:`repro.obs.slo`. ``spec``
    accepts any reference :func:`repro.scenario.resolve_scenario` does.
    """
    scenario = _resolve_ref(spec)
    if scenario.config.slo_cycles is None:
        raise ConfigurationError(
            f"scenario {scenario.name!r} has no slo_cycles: nothing to burn"
        )
    if faults is None:
        faults = scenario.fault_profile
    if scenario.kind == "cluster":
        from repro.cluster.loadgen import _cluster_sweep as sweep
    else:
        sweep = _sweep
    arch, capacity, _, outcomes = sweep(scenario, seed, faults)
    chaos = any(outcome["chaos"] for outcome in outcomes)
    return {
        "kind": "slo",
        "schema": SLO_SCHEMA,
        "scenario": scenario.name,
        "arrival_kind": scenario.arrival_kind,
        "arch": arch.name,
        "table_bytes": scenario.table_bytes,
        "n_requests": scenario.n_requests,
        "seed": seed,
        "slo_cycles": scenario.config.slo_cycles,
        "slo_target": scenario.config.slo_target,
        "fault_profile": _fault_name(faults) if chaos else "none",
        "seq_capacity_per_kcycle": capacity,
        "points": [outcome["slo"] for outcome in outcomes],
    }


def _replace_config(config, **changes):
    import dataclasses

    return dataclasses.replace(config, **changes)


def _resolve_ref(ref) -> ScenarioSpec:
    """Any scenario reference as its spec (lazy: no import cycle)."""
    from repro.scenario import resolve_scenario

    return resolve_scenario(ref)


def render_service_doc(doc: dict) -> str:
    """Render a service document as the CLI's ASCII artifact."""
    from repro.analysis.reporting import format_table

    if "repro.cluster/1" in (doc.get("schema"), doc.get("base_schema")):
        from repro.cluster.loadgen import render_cluster_doc

        return render_cluster_doc(doc)
    chaos = CHAOS_SCHEMA in (doc.get("schema"), doc.get("base_schema"))
    headers = [
        "technique",
        "xload",
        "offered/kcyc",
        "thruput/kcyc",
        "p50",
        "p95",
        "p99",
        "q-wait",
        "b-wait",
        "exec",
        "rej",
        "drop",
        "shed",
        "slo%",
    ]
    if chaos:
        headers += ["t/o", "rtry", "fail", "hedge"]
    rows = []
    for p in doc["points"]:
        slo = p.get("slo_attainment")
        row = [
            p["technique"],
            f"{p['load_multiplier']:g}",
            f"{p['offered_load']:.2f}",
            f"{p['throughput']:.2f}",
            p["p50"],
            p["p95"],
            p["p99"],
            round(p["mean_queue_wait"]),
            round(p["mean_batch_wait"]),
            round(p["mean_execution"]),
            p["rejected"],
            p["dropped"],
            p["shed"],
            "-" if slo is None else f"{100 * slo:.0f}",
        ]
        if chaos:
            row += [p["timeouts"], p["retries"], p["failed"], p["hedges"]]
        rows.append(row)
    title = (
        f"serve {doc['scenario']}: {doc['arrival_kind']} arrivals, "
        f"{doc['table_bytes'] >> 20} MB table on {doc['arch']}, "
        f"seq capacity {doc['seq_capacity_per_kcycle']:.2f} req/kcycle"
    )
    if chaos:
        title += f", faults={doc['fault_profile']}"
    if "controller" in doc:
        title += f", controller W={doc['controller']['window_cycles']}"
    return format_table(headers, rows, title=title)

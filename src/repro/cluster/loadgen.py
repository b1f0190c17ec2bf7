"""Cluster load generation: sweep a planet into a ``repro.cluster/1`` doc.

Mirrors :mod:`repro.service.loadgen` one level up: for each (technique,
load) point it builds the seeded arrival process, draws every probe key
from a *user population* (``n_users`` simulated users, each owning a
stable key — blake2b-mixed so the population spreads over the table and
over the hash ring deterministically), maps arrival regions onto home
nodes, runs a fresh :class:`~repro.cluster.server.ClusterServer`, and
flattens the :class:`~repro.cluster.server.ClusterReport` into a point
dict. Points carry everything a ``repro.service/1`` point does plus the
cluster's own accounting — per-node batch/completion counters (which
must sum to the totals; the schema checker enforces it), interconnect
crossings by tier, and cycles charged to answer movement.

Offered load is calibrated against the *whole cluster's* sequential
capacity (``n_nodes * n_shards`` sequential shards), so ``x2.0`` means
twice what the entire unreplicated sequential fleet could sustain —
the same axis convention as the single-node documents.

``run_scenario`` / ``run_traced_scenario`` in the service loadgen
delegate here for ``kind: cluster`` specs, so every existing entry
point (CLI, facade, benchmarks) speaks cluster without special-casing.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from repro.control import CONTROL_SCHEMA
from repro.errors import WorkloadError
from repro.faults.schedule import FaultProfile, FaultSchedule, resolve_schedule
from repro.obs.rtrace import RequestTracer
from repro.perf import Task, default_runner
from repro.service.arrivals import make_arrivals
from repro.service.loadgen import (
    _arch_for,
    _arrival_params,
    _chaos_point,
    _fault_name,
    _point,
    _replace_config,
    _resolve_ref,
    _slo_record,
    fault_horizon,
    sequential_capacity,
)
from repro.sim.allocator import AddressSpaceAllocator
from repro.cluster.server import ClusterReport, ClusterServer
from repro.cluster.topology import TOPOLOGY_PRESETS, ClusterTopology
from repro.workloads.generators import make_table

if TYPE_CHECKING:
    from repro.scenario import ScenarioSpec

__all__ = [
    "CLUSTER_SCHEMA",
    "user_keys",
    "home_nodes",
    "measure_cluster_point",
    "run_cluster_scenario",
    "render_cluster_doc",
]

#: Schema tag of cluster data documents / BENCH_cluster.json.
CLUSTER_SCHEMA = "repro.cluster/1"


def _cluster_spec(ref) -> ScenarioSpec:
    """Resolve ``ref``; a scenario that is not ``kind: cluster`` is a
    :class:`WorkloadError` (a usage error at the CLI)."""
    scenario = _resolve_ref(ref)
    if scenario.kind != "cluster":
        raise WorkloadError(
            f"scenario {scenario.name!r} is not a cluster scenario; "
            "use repro.service.loadgen.run_scenario"
        )
    return scenario


def _topology(scenario: ScenarioSpec) -> ClusterTopology:
    """Materialise a cluster scenario's topology preset."""
    return TOPOLOGY_PRESETS[scenario.interconnect](scenario.config.n_nodes)


def user_keys(scenario: ScenarioSpec, table_size: int, seed: int) -> list[int]:
    """One probe key per request, drawn through the user population.

    Each arrival is a uniformly-drawn user out of ``n_users``; each
    user's key is a blake2b mix of their id — stable across runs and
    processes (never the salted built-in ``hash``), so the same user
    always lands on the same table slot and the same ring node.
    """
    rng = np.random.RandomState(seed + 11)
    users = rng.randint(0, scenario.n_users, scenario.n_requests)
    keys = []
    for user in users:
        digest = hashlib.blake2b(
            f"user{int(user)}".encode("utf-8"), digest_size=8
        ).digest()
        keys.append(int.from_bytes(digest, "big") % table_size)
    return keys


def home_nodes(scenario: ScenarioSpec, topology, arrivals) -> list[int]:
    """The home node of each request, from the arrival region stream.

    Diurnal arrivals carry a region per arrival; arrival regions map
    onto the topology's distinct regions by index (mod), and within a
    region's node group requests round-robin by arrival order. Arrival
    kinds without geography round-robin over every node — interconnect
    cost then measures pure placement luck.
    """
    node_groups = [
        topology.nodes_in_region(region) for region in topology.regions
    ]
    arrival_regions = getattr(arrivals, "regions", None)
    homes = []
    for index in range(scenario.n_requests):
        if arrival_regions is not None:
            group = node_groups[arrival_regions[index] % len(node_groups)]
        else:
            group = range(topology.n_nodes)
        homes.append(group[index % len(group)])
    return homes


def _cluster_point(report: ClusterReport) -> dict:
    """The extra per-point fields of ``repro.cluster/1``."""
    return {
        "node_batches": report.node_batches(),
        "node_completed": report.node_completed(),
        "crossings": report.crossings(),
        "interconnect_cycles": report.interconnect_cycles,
        "cross_node_hedges": report.cross_node_hedges,
    }


def measure_cluster_point(
    scenario: ScenarioSpec,
    technique: str,
    multiplier: float,
    seed: int,
    faults,
    capacity: float,
    trace: bool = False,
) -> dict:
    """Run one (technique, load) cluster point; picklable sweep-point fn.

    The fault schedule resolves at **node scope** — its ``n_shards``
    argument is the node count, so ``cluster-chaos`` draws whole-node
    events; the server lowers them onto the node's shard range. Every
    technique at the same load multiplier replays the identical
    schedule, exactly as in the single-node sweeps.
    """
    arch = _arch_for(scenario)
    allocator = AddressSpaceAllocator(page_size=arch.page_size)
    table = make_table(allocator, "serve/dict", scenario.table_bytes)
    values = user_keys(scenario, table.size, seed)
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
        n_shards=config.n_nodes,
        seed=seed,
    )
    nodes = _topology(scenario)
    tracer = RequestTracer() if trace else None
    server = ClusterServer(
        table,
        config,
        arch=arch,
        seed=seed,
        faults=schedule,
        topology=nodes,
        **({"tracer": tracer} if tracer is not None else {}),
    )
    homes = home_nodes(scenario, nodes, arrivals)
    report = server.serve(arrivals, values, homes=homes)
    point = _point(report, multiplier, rate)
    chaos = schedule is not None
    if chaos:
        point.update(_chaos_point(report, schedule))
    point.update(_cluster_point(report))
    if report.control is not None:
        point["control"] = report.control
    outcome = {
        "point": point,
        "chaos": chaos,
        "slo": _slo_record(report, multiplier),
    }
    if tracer is not None:
        outcome["traces"] = tracer.traces()
        outcome["fault_timeline"] = {
            "windows": list(tracer.fault_windows),
            "points": list(tracer.fault_points),
        }
    return outcome


def _cluster_sweep(scenario: ScenarioSpec, seed: int, faults, trace=False):
    """The full (technique, load) sweep over the cluster."""
    arch = _arch_for(scenario)
    allocator = AddressSpaceAllocator(page_size=arch.page_size)
    table = make_table(allocator, "serve/dict", scenario.table_bytes)
    capacity, cycles_per_lookup = sequential_capacity(
        table,
        arch,
        n_shards=scenario.config.n_shards * scenario.config.n_nodes,
        seed=seed,
    )
    args_tail = (True,) if trace else ()
    outcomes = default_runner().run(
        [
            Task(
                measure_cluster_point,
                (scenario, technique, multiplier, seed, faults, capacity)
                + args_tail,
            )
            for technique in scenario.techniques
            for multiplier in scenario.loads
        ]
    )
    return arch, capacity, cycles_per_lookup, outcomes


def _cluster_doc(
    scenario, seed, faults, arch, capacity, cycles_per_lookup, outcomes
):
    nodes = _topology(scenario)
    chaos = any(outcome["chaos"] for outcome in outcomes)
    controlled = any("control" in outcome["point"] for outcome in outcomes)
    doc = {
        "kind": "cluster",
        "schema": CONTROL_SCHEMA if controlled else CLUSTER_SCHEMA,
        "scenario": scenario.name,
        "description": scenario.description,
        "arrival_kind": scenario.arrival_kind,
        "arch": arch.name,
        "table_bytes": scenario.table_bytes,
        "n_requests": scenario.n_requests,
        "seed": seed,
        "n_nodes": scenario.config.n_nodes,
        "replication": scenario.config.replication,
        "n_shards_per_node": scenario.config.n_shards,
        "n_users": scenario.n_users,
        "interconnect": nodes.as_dict(),
        "regions": list(nodes.regions),
        "seq_capacity_per_kcycle": capacity,
        "seq_cycles_per_lookup": cycles_per_lookup,
        "points": [outcome["point"] for outcome in outcomes],
    }
    if chaos:
        doc["fault_profile"] = _fault_name(faults)
    if controlled:
        doc["base_schema"] = CLUSTER_SCHEMA
        doc["controller"] = scenario.config.controller.to_dict()
    return doc


def run_cluster_scenario(
    scenario,
    *,
    seed: int = 0,
    faults: FaultSchedule | FaultProfile | str | None = None,
) -> dict:
    """Run every (technique, load) cluster point; return the document.

    The ``repro.cluster/1`` schema is emitted whether or not chaos is
    active (``fault_profile`` appears only when it is): the cluster
    fields — per-node counters, crossings — are the document's reason
    to exist, not a chaos add-on. ``scenario`` is any reference
    :func:`repro.scenario.resolve_scenario` accepts, of ``kind: cluster``.
    """
    scenario = _cluster_spec(scenario)
    if faults is None:
        faults = scenario.fault_profile
    arch, capacity, cycles_per_lookup, outcomes = _cluster_sweep(
        scenario, seed, faults
    )
    return _cluster_doc(
        scenario, seed, faults, arch, capacity, cycles_per_lookup, outcomes
    )


def run_traced_cluster_scenario(
    scenario,
    *,
    seed: int = 0,
    faults: FaultSchedule | FaultProfile | str | None = None,
) -> tuple[dict, dict]:
    """Like :func:`run_cluster_scenario`, with request tracing on.

    Attempt spans carry node-tagged lanes (``"n2/s0"``), so ``repro
    explain`` shows *which replica* won a hedge.
    """
    scenario = _cluster_spec(scenario)
    if faults is None:
        faults = scenario.fault_profile
    arch, capacity, cycles_per_lookup, outcomes = _cluster_sweep(
        scenario, seed, faults, trace=True
    )
    doc = _cluster_doc(
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


def render_cluster_doc(doc: dict) -> str:
    """Render a cluster document as the CLI's ASCII artifact."""
    from repro.analysis.reporting import format_table

    chaos = "fault_profile" in doc
    headers = [
        "technique",
        "xload",
        "offered/kcyc",
        "thruput/kcyc",
        "p50",
        "p95",
        "p99",
        "q-wait",
        "exec",
        "remote%",
        "ic-kcyc",
        "slo%",
    ]
    if chaos:
        headers += ["t/o", "rtry", "fail", "hedge"]
    rows = []
    for p in doc["points"]:
        crossings = p["crossings"]
        answered = sum(crossings.values()) or 1
        remote = crossings["numa"] + crossings["cxl"]
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
            round(p["mean_execution"]),
            f"{100 * remote / answered:.0f}",
            round(p["interconnect_cycles"] / 1000),
            "-" if slo is None else f"{100 * slo:.0f}",
        ]
        if chaos:
            row += [p["timeouts"], p["retries"], p["failed"], p["hedges"]]
        rows.append(row)
    title = (
        f"serve {doc['scenario']}: {doc['n_nodes']} nodes x "
        f"{doc['n_shards_per_node']} shards, R={doc['replication']}, "
        f"{doc['arrival_kind']} arrivals over "
        f"{len(doc['regions'])} regions, {doc['n_users']:,} users, "
        f"fleet seq capacity {doc['seq_capacity_per_kcycle']:.2f} req/kcycle"
    )
    if chaos:
        title += f", faults={doc['fault_profile']}"
    if "controller" in doc:
        title += f", controller W={doc['controller']['window_cycles']}"
    return format_table(headers, rows, title=title)

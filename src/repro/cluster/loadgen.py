"""What a ``kind: cluster`` sweep needs beyond the serving sweep.

Cluster scenarios run through :func:`repro.service.loadgen.run_scenario`
and its point function, like every other scenario. This module holds
what is specific to a fleet: the *user population* every probe key is
drawn from (``n_users`` simulated users, each owning a stable key —
blake2b-mixed so the population spreads over the table and over the
hash ring deterministically), the mapping of arrival regions onto home
nodes, the topology preset lookup, and the ASCII rendering of
``repro.cluster/1`` documents. Those documents carry everything a
``repro.service/1`` document does plus the cluster's own accounting:
per-node batch/completion counters (which must sum to the totals; the
schema checker enforces it), interconnect crossings by tier, and
cycles charged to answer movement.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

from repro.cluster.topology import TOPOLOGY_PRESETS, ClusterTopology

# The sweep in repro.service.loadgen builds tables and calibrates
# capacity for both scenario kinds; nothing here calls these two. They
# stay bound because benchmarks/e2e/trace.py wraps them by this
# module's name.
from repro.service.loadgen import sequential_capacity  # noqa: F401
from repro.workloads.generators import make_table  # noqa: F401

if TYPE_CHECKING:
    from repro.scenario import ScenarioSpec

__all__ = [
    "CLUSTER_SCHEMA",
    "cluster_topology",
    "user_keys",
    "home_nodes",
    "render_cluster_doc",
]

#: Schema tag of cluster data documents / BENCH_cluster.json.
CLUSTER_SCHEMA = "repro.cluster/1"


def cluster_topology(scenario: ScenarioSpec) -> ClusterTopology:
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

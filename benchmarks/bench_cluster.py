"""Cluster benchmark: the robustness claim at fleet scale.

The chaos benchmark shows CORO's p99 degrades less than sequential's
when one machine's memory misbehaves; this sweep scales the question
out. ``planet-quick`` runs four consistent-hash-routed nodes (R=2)
under diurnal, region-mapped arrivals while the ``cluster-chaos``
profile crashes and brown-outs whole nodes mid-run. Asserted claims:

* the ``repro.cluster/1`` document is internally consistent — per-node
  batch and completion counters sum to the point totals, and the
  latency percentiles are monotone;
* the fault schedule is identical across techniques at each load point
  (same node-scope horizon, same seed);
* at a headroom load (0.8x) on >= 4 nodes, CORO's p99 degrades strictly less
  than sequential's under cluster-chaos — in median across seeded
  replays, by both the absolute cycle increase and the ratio (the same
  noisy-order-statistic hedging as the single-node chaos benchmark);
* replication actually mattered: batches landed on more than one node,
  answers crossed the interconnect, and node faults were applied.

The seed-0 faulted sweep is recorded to
``benchmarks/results/BENCH_cluster.json`` (schema ``repro.cluster/1``),
validated in CI by ``benchmarks/check_bench_schema.py``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import statistics

import pytest

from repro.cluster import render_cluster_doc, run_cluster_scenario
from repro.scenario import get_scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SCENARIO = "planet-quick"
#: Load multiplier the degradation claim is asserted at. 0.8x leaves
#: the clean fleet headroom, so losing a node to cluster-chaos is the
#: dominant effect; at the scenario's 2x point the sequential fleet is
#: already queue-saturated clean and a crash can't make its bounded
#: queue meaningfully worse.
CLAIM_LOAD = 0.8
#: Seeded replays backing the degradation claim (median across them).
DEGRADATION_SEEDS = (0, 1, 2)


def _point(doc: dict, technique: str, load: float) -> dict:
    return next(
        p
        for p in doc["points"]
        if p["technique"] == technique and p["load_multiplier"] == load
    )


@pytest.fixture(scope="module")
def cluster_sweep():
    doc = run_cluster_scenario(SCENARIO, seed=0)
    RESULTS_DIR.mkdir(exist_ok=True)
    artifact = RESULTS_DIR / "BENCH_cluster.json"
    artifact.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


@pytest.fixture(scope="module")
def degradation_runs():
    """(clean, faulted) documents at the top load, one pair per seed."""
    scenario = dataclasses.replace(get_scenario(SCENARIO), loads=(CLAIM_LOAD,))
    return [
        (
            run_cluster_scenario(scenario, seed=seed, faults="none"),
            run_cluster_scenario(scenario, seed=seed),
        )
        for seed in DEGRADATION_SEEDS
    ]


def test_cluster_document_shape(benchmark, record_table, cluster_sweep):
    doc = benchmark.pedantic(lambda: cluster_sweep, rounds=1, iterations=1)
    record_table("cluster_latency", render_cluster_doc(doc))

    assert doc["schema"] == "repro.cluster/1"
    assert doc["fault_profile"] == "cluster-chaos"
    assert doc["n_nodes"] >= 4
    assert doc["replication"] == 2
    for point in doc["points"]:
        assert point["p50"] <= point["p95"] <= point["p99"]
        assert point["fault_events"] > 0
        assert sum(point["node_batches"].values()) == point["batches"]
        assert sum(point["node_completed"].values()) == point["completed"]
        # Crossings are charged per batch-dispatched answer; overflow
        # fallback serves locally and never crosses the interconnect.
        assert (
            sum(point["crossings"].values())
            == point["completed"] - point["node_completed"]["overflow"]
        )


def test_same_schedule_across_techniques(cluster_sweep):
    """Each load point replays one node-scope schedule per technique."""
    scenario = get_scenario(SCENARIO)
    for load in scenario.loads:
        events = {
            t: _point(cluster_sweep, t, load)["fault_events"]
            for t in scenario.techniques
        }
        assert len(set(events.values())) == 1, events


def test_coro_degrades_less_than_sequential_at_fleet_scale(degradation_runs):
    """The headline at >= 4 nodes: under identical whole-node chaos at
    the top load, CORO's p99 degrades strictly less than sequential's —
    in median across seeded replays, absolutely and relatively."""
    assert get_scenario(SCENARIO).config.n_nodes >= 4
    deltas = {"sequential": [], "CORO": []}
    ratios = {"sequential": [], "CORO": []}
    for clean, faulted in degradation_runs:
        for technique in deltas:
            before = _point(clean, technique, CLAIM_LOAD)["p99"]
            after = _point(faulted, technique, CLAIM_LOAD)["p99"]
            deltas[technique].append(after - before)
            ratios[technique].append(after / before)
    coro_delta = statistics.median(deltas["CORO"])
    seq_delta = statistics.median(deltas["sequential"])
    assert coro_delta < seq_delta, (deltas, ratios)
    assert statistics.median(ratios["CORO"]) < statistics.median(
        ratios["sequential"]
    ), (deltas, ratios)


def test_routing_and_replication_fired(cluster_sweep):
    """The fleet actually behaved like a fleet, not one node renamed."""
    for point in cluster_sweep["points"]:
        busy_nodes = [
            node
            for node, count in point["node_batches"].items()
            if node != "overflow" and count > 0
        ]
        assert len(busy_nodes) > 1, point["node_batches"]
    crossings = {"local": 0, "numa": 0, "cxl": 0}
    faults = {}
    for point in cluster_sweep["points"]:
        for tier, count in point["crossings"].items():
            crossings[tier] += count
        for kind, count in point["faults_by_kind"].items():
            faults[kind] = faults.get(kind, 0) + count
    # Answers moved across interconnect tiers, and node faults landed.
    assert crossings["numa"] + crossings["cxl"] > 0, crossings
    assert sum(faults.values()) > 0, faults
    assert sum(p["interconnect_cycles"] for p in cluster_sweep["points"]) > 0

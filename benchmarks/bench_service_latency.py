"""Serving-layer benchmark: throughput vs latency per technique.

The serving counterpart of Figure 3's robustness sweep: instead of bulk
probes over growing tables, a fixed DRAM-resident table under growing
*offered load*. Asserted claims mirror the paper's story restated
online:

* below the knee every technique meets its SLO — interleaving buys
  nothing when the queue is empty and batches are deadline-formed;
* at the top load (3x sequential capacity) CORO sustains at least the
  sequential executor's throughput with a lower p99 — robustness under
  load the server did not choose;
* the latency decomposition invariant holds for every completed
  request (queue wait + batch wait + execution == end-to-end).

The sweep is recorded to ``benchmarks/results/BENCH_service.json``
(schema ``repro.service/1``), validated in CI by
``benchmarks/check_bench_schema.py``.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.scenario import get_scenario
from repro.service import run_scenario, render_service_doc

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _top_points(doc: dict, technique: str) -> dict:
    top = max(p["load_multiplier"] for p in doc["points"])
    return next(
        p
        for p in doc["points"]
        if p["technique"] == technique and p["load_multiplier"] == top
    )


@pytest.fixture(scope="module")
def service_sweep():
    doc = run_scenario("mixed", seed=0)
    RESULTS_DIR.mkdir(exist_ok=True)
    artifact = RESULTS_DIR / "BENCH_service.json"
    artifact.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def test_service_throughput_latency_curve(benchmark, record_table, service_sweep):
    doc = benchmark.pedantic(lambda: service_sweep, rounds=1, iterations=1)
    record_table("service_latency", render_service_doc(doc))

    # Offered load is calibrated and positive at every point.
    assert doc["seq_capacity_per_kcycle"] > 0
    assert all(p["offered_load"] > 0 for p in doc["points"])

    # Light load: everyone meets the SLO; batching paid for itself.
    scenario = get_scenario("mixed")
    light = min(scenario.loads)
    for technique in scenario.techniques:
        point = next(
            p
            for p in doc["points"]
            if p["technique"] == technique and p["load_multiplier"] == light
        )
        assert point["slo_attainment"] >= 0.95, technique

    # The robustness headline: at 3x sequential capacity, CORO sustains
    # >= sequential throughput with a lower p99.
    seq = _top_points(doc, "sequential")
    coro = _top_points(doc, "CORO")
    assert coro["throughput"] >= seq["throughput"]
    assert coro["p99"] < seq["p99"]
    # And it is not a photo finish: the interleaved server keeps a
    # comfortably higher completion rate under the same offered load.
    assert coro["throughput"] > 1.5 * seq["throughput"]

    # Every interleaving technique holds its knee past sequential's.
    for technique in ("GP", "AMAC", "CORO"):
        point = _top_points(doc, technique)
        assert point["throughput"] > seq["throughput"], technique

    # Percentiles are monotone at every point (p50 <= p95 <= p99).
    for point in doc["points"]:
        assert point["p50"] <= point["p95"] <= point["p99"], point["technique"]


def test_service_overload_is_bounded(benchmark, service_sweep):
    doc = benchmark.pedantic(lambda: service_sweep, rounds=1, iterations=1)
    capacity = get_scenario("mixed").config.queue_capacity
    for point in doc["points"]:
        # The admission queue never outgrew its bound, and everything
        # that arrived is accounted for: admitted + refused == arrivals.
        assert point["peak_queue_depth"] <= capacity, point["technique"]
        refused = point["rejected"] + point["dropped"] + point["shed"]
        assert point["admitted"] + refused == point["arrivals"]
    # Sequential at 3x capacity actually had to refuse work — the
    # overload path was exercised, not just configured.
    assert _top_points(doc, "sequential")["rejected"] > 0

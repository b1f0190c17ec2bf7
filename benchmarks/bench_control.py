"""Control-plane benchmark: the adaptive controller vs every static arm.

The ``phase-shift`` scenario is built so no single configuration is
right everywhere: bursty arrivals alternate with deep lulls, and the
``phase-shift`` fault profile packs latency spikes and LFB shrink
windows into horizon quarters two and four while quarters one and three
run clean. The adaptive controller rolls tumbling windows over the run
and moves the serving knobs — batch deadline, Inequality-1 group size,
overflow lane — as the regime changes. Asserted claims:

* the headline: the controller's median-over-seeds p99 beats the
  *best* static technique/group-size configuration — every point of
  the static grid served with the controller disabled and everything
  else identical. A p99 over a few hundred requests is a noisy order
  statistic, so the claim is a median across seeded replays, not one
  draw;
* the comparison is apples-to-apples: every arm at a given seed
  replays the identical fault schedule (the horizon is a pure function
  of the offered rate, which the grid does not vary);
* the decision stream is deterministic: the same seed replays the
  same ``control.window`` events bit for bit;
* the controller actually decided things — windows rolled, decisions
  fired, and the actions reference only exported signals.

The adaptive-vs-grid comparison is recorded to
``benchmarks/results/BENCH_control.json`` (schema ``repro.control/1``,
kind ``control_bench``), validated in CI by
``benchmarks/check_bench_schema.py``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import statistics

import pytest

from repro.analysis.reporting import format_table
from repro.control import ACTION_NAMES, SIGNAL_NAMES
from repro.scenario import get_scenario
from repro.service import run_scenario

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SCENARIO = "phase-shift"
LOAD = 1.2
#: Seeded replays backing the median claim.
SEEDS = (0, 1, 2)
#: The static grid: every technique/group-size arm the controller is
#: graded against. ``None`` group = the executor's Inequality-1 default.
STATIC_GRID = (
    ("sequential", None),
    ("CORO", None),
    ("CORO", 4),
    ("CORO", 8),
    ("CORO", 16),
)


def _point(doc: dict) -> dict:
    return next(p for p in doc["points"] if p["load_multiplier"] == LOAD)


def _static_scenario(technique: str, group_size: int | None):
    """The registry scenario with the controller off and one arm pinned."""
    scenario = get_scenario(SCENARIO)
    config = dataclasses.replace(
        scenario.config,
        controller=None,
        technique=technique,
        group_size=group_size or 0,
    )
    return dataclasses.replace(scenario, techniques=(technique,), config=config)


@pytest.fixture(scope="module")
def adaptive_runs():
    """One controlled document per seed (the adaptive arm)."""
    return {seed: run_scenario(SCENARIO, seed=seed) for seed in SEEDS}


@pytest.fixture(scope="module")
def static_runs():
    """Per-arm documents of the controller-off grid, per seed."""
    return {
        (technique, group): {
            seed: run_scenario(_static_scenario(technique, group), seed=seed)
            for seed in SEEDS
        }
        for technique, group in STATIC_GRID
    }


@pytest.fixture(scope="module")
def control_doc(adaptive_runs, static_runs):
    """The ``control_bench`` comparison document (the CI artifact)."""
    scenario = get_scenario(SCENARIO)
    adaptive_p99 = [_point(adaptive_runs[seed])["p99"] for seed in SEEDS]
    statics = []
    for (technique, group), runs in static_runs.items():
        p99s = [_point(runs[seed])["p99"] for seed in SEEDS]
        statics.append(
            {
                "technique": technique,
                "group_size": group,
                "p99_by_seed": p99s,
                "median_p99": statistics.median(p99s),
            }
        )
    best = min(statics, key=lambda arm: arm["median_p99"])
    doc = {
        "schema": "repro.control/1",
        "kind": "control_bench",
        "scenario": SCENARIO,
        "fault_profile": scenario.fault_profile,
        "load_multiplier": LOAD,
        "seeds": list(SEEDS),
        "controller": scenario.config.controller.to_dict(),
        "adaptive": {
            "p99_by_seed": adaptive_p99,
            "median_p99": statistics.median(adaptive_p99),
            "decisions_by_seed": [
                _point(adaptive_runs[seed])["control"]["decisions"]
                for seed in SEEDS
            ],
        },
        "statics": statics,
        "best_static": {
            "technique": best["technique"],
            "group_size": best["group_size"],
            "median_p99": best["median_p99"],
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    artifact = RESULTS_DIR / "BENCH_control.json"
    artifact.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def test_adaptive_beats_best_static(benchmark, record_table, control_doc):
    """The headline: no static technique/group-size point matches the
    controller's median-over-seeds p99 on the phase-shifting scenario."""
    doc = benchmark.pedantic(lambda: control_doc, rounds=1, iterations=1)
    rows = [
        ["adaptive", "-", doc["controller"]["window_cycles"]]
        + doc["adaptive"]["p99_by_seed"]
        + [doc["adaptive"]["median_p99"]]
    ]
    for arm in doc["statics"]:
        rows.append(
            [arm["technique"], arm["group_size"] or "auto", "-"]
            + arm["p99_by_seed"]
            + [arm["median_p99"]]
        )
    record_table(
        "control_p99",
        format_table(
            ["arm", "G", "W"]
            + [f"p99 s{seed}" for seed in doc["seeds"]]
            + ["median"],
            rows,
            title=(
                f"adaptive controller vs static grid on {doc['scenario']} "
                f"(load {doc['load_multiplier']})"
            ),
        ),
    )

    assert doc["adaptive"]["median_p99"] < doc["best_static"]["median_p99"], (
        doc["adaptive"],
        doc["statics"],
    )


def test_identical_fault_schedule_across_arms(adaptive_runs, static_runs):
    """Every arm at a seed replays one schedule: the grid varies only
    technique/group size, never the offered rate or the horizon."""
    for seed in SEEDS:
        events = {("adaptive", None): _point(adaptive_runs[seed])["fault_events"]}
        for arm, runs in static_runs.items():
            events[arm] = _point(runs[seed])["fault_events"]
        assert len(set(events.values())) == 1, (seed, events)


def test_decision_stream_is_deterministic(adaptive_runs):
    """Same scenario, same seed: the same document — including every
    ``control.window`` event — bit for bit."""
    replay = run_scenario(SCENARIO, seed=SEEDS[0])
    assert replay == adaptive_runs[SEEDS[0]]
    control = _point(replay)["control"]
    assert control == _point(adaptive_runs[SEEDS[0]])["control"]


def test_controller_fired_and_windows_tile(adaptive_runs):
    """The controller rolled windows over the whole run, decided things,
    and every record speaks the exported signal/action vocabulary."""
    for seed, doc in adaptive_runs.items():
        assert doc["schema"] == "repro.control/1"
        assert doc["base_schema"] == "repro.chaos/1"
        control = _point(doc)["control"]
        assert control["decisions"] > 0, (seed, control["decisions"])
        width = control["window_cycles"]
        for position, window in enumerate(control["windows"]):
            assert window["window"] == position
            assert window["start"] == position * width
            assert window["end"] == window["start"] + width
            assert set(window["signals"]) == set(SIGNAL_NAMES)
            assert set(window["actions"]) <= set(ACTION_NAMES)
            assert window["reason"]

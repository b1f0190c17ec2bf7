"""The built-in serving scenarios, as ``repro.scenario/1`` specs.

Each entry is a :class:`~repro.scenario.spec.ScenarioSpec` literal, so
``python -m repro serve <name>`` needs neither PyYAML nor a file
outside the package, and ``python -m repro list <name>`` prints the
whole scenario: serving that document back with ``file:`` gives the
same output. Load points are **multipliers of the sequential executor's
calibrated capacity** (measured at run time by
:mod:`repro.service.loadgen`), so "2.0" always means "twice what the
non-interleaved server could possibly sustain" regardless of table size
or architecture scale — the robustness story's x-axis.

Scenarios default to a :func:`~repro.config.scaled` architecture so the
table overflows the (shrunken) LLC in seconds of real time; the
simulated physics — LFB-bounded MLP, switch-overhead economics — are
unchanged (latencies and the cost model do not scale).
"""

from __future__ import annotations

import difflib
from dataclasses import replace

from repro.cluster.server import ClusterConfig
from repro.control import ControllerConfig
from repro.errors import WorkloadError
from repro.scenario.spec import ScenarioSpec
from repro.service.server import ServiceConfig

__all__ = ["SCENARIO_REGISTRY", "get_scenario", "scenario_names"]

#: Server tuning of the full-size single-node scenarios.
_BASE_CONFIG = ServiceConfig(
    max_batch=24,
    max_wait_cycles=3000,
    queue_capacity=96,
    overload_policy="reject",
    n_shards=2,
    slo_cycles=30_000,
)

#: Server tuning of the small CI scenarios.
_QUICK_CONFIG = ServiceConfig(
    max_batch=16,
    max_wait_cycles=2500,
    queue_capacity=48,
    overload_policy="reject",
    n_shards=2,
    warmup_requests=16,
    slo_cycles=25_000,
)

#: Resilience knobs the chaos scenarios share: bounded crash retries,
#: hedged dispatch under queueing, Inequality-1 degradation, and the
#: overflow lane as the everything-is-down fallback.
_RESILIENCE = dict(
    max_retries=2,
    retry_backoff_cycles=1500,
    hedge_after_cycles=9000,
    degradation="adaptive",
    overflow_fallback=True,
)


def _planet_config(*, n_nodes: int, n_shards: int, quick: bool) -> ClusterConfig:
    """The chaos-grade settings plus replication, so node crashes are
    something routing can answer."""
    return ClusterConfig(
        max_batch=16 if quick else 24,
        max_wait_cycles=2500 if quick else 3000,
        queue_capacity=48 if quick else 96,
        overload_policy="reject",
        n_shards=n_shards,
        warmup_requests=16 if quick else 32,
        slo_cycles=25_000 if quick else 30_000,
        **_RESILIENCE,
        n_nodes=n_nodes,
        replication=2,
    )


_CATALOGUE = (
    ScenarioSpec(
        name="mixed",
        description=(
            "Poisson arrivals swept from light load to 3x sequential "
            "capacity over a DRAM-resident dictionary; all four "
            "techniques. The robustness headline: where does each "
            "technique's latency knee sit?"
        ),
        config=_BASE_CONFIG,
    ),
    ScenarioSpec(
        name="steady",
        description=(
            "A single comfortable operating point (60% of sequential "
            "capacity): the latency floor and batch-formation overhead "
            "when nothing is under pressure."
        ),
        loads=(0.6,),
        config=_BASE_CONFIG,
    ),
    ScenarioSpec(
        name="burst",
        description=(
            "On/off traffic: 20k-cycle bursts at 2.5x the average rate "
            "separated by 40k-cycle lulls. Exercises the coalescer "
            "deadline during lulls and the bounded queue during bursts."
        ),
        arrival_kind="bursty",
        arrival_params={"burst_cycles": 20_000, "gap_cycles": 40_000},
        loads=(0.8, 1.6),
        config=replace(_BASE_CONFIG, overload_policy="shed"),
    ),
    ScenarioSpec(
        name="closed",
        description=(
            "A fixed client population with 8k-cycle think time (a "
            "closed loop, CoroBase-style): offered load self-throttles "
            "to completion rate, so the comparison isolates service "
            "capacity rather than queue blow-up."
        ),
        arrival_kind="closed",
        arrival_params={"think_cycles": 8_000},
        loads=(0.9, 1.8),
        n_requests=300,
        config=_BASE_CONFIG,
    ),
    ScenarioSpec(
        name="chaos",
        description=(
            "The mixed sweep under the full fault cocktail (latency "
            "spikes + shard outages + cache storms) with every "
            "resilience response armed: the robustness claim under "
            "memory that actually misbehaves."
        ),
        techniques=("sequential", "CORO"),
        loads=(0.5, 1.5, 3.0),
        fault_profile="chaos",
        config=replace(_BASE_CONFIG, **_RESILIENCE),
    ),
    ScenarioSpec(
        name="chaos-quick",
        description=(
            "CI chaos smoke: sequential vs CORO under the chaos-quick "
            "profile (one spike, one crash, one flush, one LFB shrink) "
            "over a small table. Seconds, not minutes."
        ),
        techniques=("sequential", "CORO"),
        loads=(0.5, 2.5),
        table_bytes=2 << 20,
        n_requests=160,
        fault_profile="chaos-quick",
        config=replace(_QUICK_CONFIG, **_RESILIENCE),
    ),
    ScenarioSpec(
        name="plans",
        description=(
            "Plan-shaped serving: every batch runs as a repro.query "
            "streaming index-join plan (batch values as the outer side, "
            "the served table as the inner index) instead of a raw bulk "
            "lookup. Same calibrated cycles per probe; exercises the "
            "operator path under online load."
        ),
        techniques=("sequential", "CORO"),
        loads=(0.6, 1.8),
        table_bytes=2 << 20,
        n_requests=200,
        config=replace(_QUICK_CONFIG, request_kind="plan"),
    ),
    ScenarioSpec(
        name="controller-quick",
        description=(
            "CI control-plane smoke: the quick sweep served under the "
            "adaptive controller — tumbling-window technique/group/"
            "deadline/shard decisions, every one a cycle-stamped "
            "control.* event. Seconds, not minutes."
        ),
        techniques=("CORO",),
        loads=(0.5, 2.5),
        table_bytes=2 << 20,
        n_requests=160,
        config=replace(
            _QUICK_CONFIG,
            controller=ControllerConfig(
                window_cycles=8_000,
                techniques=("sequential", "CORO"),
            ),
        ),
    ),
    ScenarioSpec(
        name="phase-shift",
        description=(
            "Bursty load over alternating calm/storm horizon quarters "
            "(the phase-shift fault profile) with the adaptive "
            "controller on: the regime changes mid-run, so the "
            "controller's windowed deadline/group/overflow decisions — "
            "not any one static technique/group choice — carry the "
            "tail."
        ),
        arrival_kind="bursty",
        arrival_params={"burst_cycles": 20_000, "gap_cycles": 30_000},
        techniques=("CORO",),
        loads=(1.2,),
        table_bytes=2 << 20,
        n_requests=240,
        fault_profile="phase-shift",
        config=replace(
            _QUICK_CONFIG,
            max_retries=2,
            retry_backoff_cycles=1500,
            hedge_after_cycles=9000,
            controller=ControllerConfig(
                window_cycles=4_000,
                # No technique candidates: under strongly bursty
                # arrivals a lull switch to sequential eats the next
                # burst's head (the window lag), so the deadline/group/
                # overflow actuators carry this scenario.
                consolidate_shards=False,
            ),
        ),
    ),
    ScenarioSpec(
        name="quick",
        description=(
            "CI smoke: sequential vs CORO at an easy and an overloaded "
            "point over a small table. Seconds, not minutes."
        ),
        techniques=("sequential", "CORO"),
        loads=(0.5, 2.5),
        table_bytes=2 << 20,
        n_requests=160,
        config=_QUICK_CONFIG,
    ),
    ScenarioSpec(
        name="planet",
        kind="cluster",
        description=(
            "Eight nodes across four pods, 2.5M simulated users on "
            "follow-the-sun diurnal traffic over eight regions, R=2 "
            "consistent-hash routing, and whole-node crashes and "
            "brown-outs from the cluster-chaos profile: the robustness "
            "claim at fleet scale."
        ),
        arrival_kind="diurnal",
        arrival_params={"n_regions": 8, "day_cycles": 120_000, "amplitude": 0.8},
        techniques=("sequential", "CORO"),
        loads=(0.6, 1.8),
        fault_profile="cluster-chaos",
        config=_planet_config(n_nodes=8, n_shards=2, quick=False),
        n_users=2_500_000,
    ),
    ScenarioSpec(
        name="planet-quick",
        kind="cluster",
        description=(
            "CI planet smoke: four nodes, diurnal traffic over four "
            "regions, R=2 routing, node crashes from cluster-chaos. "
            "Seconds, not minutes."
        ),
        arrival_kind="diurnal",
        arrival_params={"n_regions": 4, "day_cycles": 60_000, "amplitude": 0.8},
        techniques=("sequential", "CORO"),
        loads=(0.5, 2.0),
        table_bytes=1 << 20,
        n_requests=160,
        fault_profile="cluster-chaos",
        config=_planet_config(n_nodes=4, n_shards=1, quick=True),
        n_users=50_000,
    ),
    ScenarioSpec(
        name="cluster-steady",
        kind="cluster",
        description=(
            "Four routed nodes at comfortable Poisson load with no "
            "chaos: the interconnect-and-routing overhead floor, and "
            "the baseline the planet chaos numbers are read against."
        ),
        techniques=("sequential", "CORO"),
        loads=(0.6, 1.2),
        table_bytes=2 << 20,
        n_requests=240,
        config=ClusterConfig(
            max_batch=24,
            max_wait_cycles=3000,
            queue_capacity=96,
            overload_policy="reject",
            n_shards=2,
            slo_cycles=30_000,
            n_nodes=4,
            replication=2,
        ),
        n_users=200_000,
    ),
)

#: The built-in scenarios, keyed by lower-cased name, in catalogue order.
SCENARIO_REGISTRY: dict[str, ScenarioSpec] = {
    spec.name.lower(): spec for spec in _CATALOGUE
}


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a built-in scenario by name (case-insensitive).

    Unknown names raise :class:`WorkloadError` (the CLI maps it to the
    documented usage exit code 2), suggesting the closest name when one
    is plausibly a typo.
    """
    spec = SCENARIO_REGISTRY.get(str(name).lower())
    if spec is None:
        message = (
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}"
        )
        close = difflib.get_close_matches(
            str(name).lower(), list(SCENARIO_REGISTRY), n=1
        )
        if close:
            message += f" (did you mean {SCENARIO_REGISTRY[close[0]].name!r}?)"
        raise WorkloadError(message)
    return spec


def scenario_names() -> list[str]:
    """Canonical scenario names, in catalogue order."""
    return [spec.name for spec in SCENARIO_REGISTRY.values()]

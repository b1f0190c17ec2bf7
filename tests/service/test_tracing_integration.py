"""End-to-end request tracing across serving scenarios.

The acceptance criteria of the observability layer, asserted at the
scenario level: with tracing enabled, every request that reached a
terminal state yields a rooted, gap-free span tree whose stage cycles
sum to its end-to-end latency; tracing changes no simulated outcome
(the traced sweep's document is byte-identical to the untraced one);
and ``explain`` resolves the same exemplar request, with the same
critical path, on every run of the same seed.
"""

import json

import pytest

from repro.errors import WorkloadError
from repro.obs.rtrace import trace_errors
from repro.service.explain import explain_point
from repro.scenario import ScenarioSpec, get_scenario
from repro.service.loadgen import run_scenario, run_traced_scenario

#: A third lifecycle mix on top of quick/chaos-quick: bursty arrivals
#: into a shed-policy server, so shed/overflow traces appear at scale.
BURSTY_SHED = ScenarioSpec(
    name="bursty-shed-test",
    description="bursty arrivals over a shedding admission controller",
    arrival_kind="bursty",
    arrival_params={"burst_cycles": 20_000, "gap_cycles": 40_000},
    loads=(2.0,),
    techniques=("CORO",),
    n_requests=120,
    config=get_scenario("quick").config.__class__(
        max_batch=16,
        max_wait_cycles=2500,
        queue_capacity=24,
        overload_policy="shed",
        n_shards=2,
        slo_cycles=25_000,
    ),
)

SCENARIOS = ("quick", "chaos-quick", BURSTY_SHED)


def _scenario_id(scenario):
    return scenario if isinstance(scenario, str) else scenario.name


@pytest.fixture(scope="module", params=SCENARIOS, ids=_scenario_id)
def traced_sweep(request):
    scenario = request.param
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    doc, traced = run_traced_scenario(scenario, seed=0)
    return scenario, doc, traced


class TestSpanTreeAcceptance:
    def test_every_terminal_request_yields_a_wellformed_trace(
        self, traced_sweep
    ):
        scenario, doc, traced = traced_sweep
        labels = list(traced)
        assert len(labels) == len(doc["points"])
        for label, point in zip(labels, doc["points"]):
            traces = traced[label]["traces"]
            # Every arrival reached the tracer and became a span tree.
            assert len(traces) == point["arrivals"], label
            for trace in traces:
                defects = trace_errors(trace)
                assert defects == [], (label, trace["trace_id"], defects)

    def test_stage_cycles_sum_to_latency_for_every_answered_request(
        self, traced_sweep
    ):
        scenario, doc, traced = traced_sweep
        answered = 0
        for label, record in traced.items():
            for trace in record["traces"]:
                if trace["outcome"] not in ("completed", "shed"):
                    continue
                answered += 1
                stages = [
                    s for s in trace["spans"] if s["kind"] == "stage"
                ]
                assert stages, (label, trace["trace_id"])
                assert (
                    sum(s["end"] - s["start"] for s in stages)
                    == trace["latency"]
                ), (label, trace["trace_id"])
        assert answered > 0

    def test_outcomes_agree_with_the_point_counters(self, traced_sweep):
        scenario, doc, traced = traced_sweep
        for label, point in zip(traced, doc["points"]):
            outcomes: dict = {}
            for trace in traced[label]["traces"]:
                outcomes[trace["outcome"]] = outcomes.get(trace["outcome"], 0) + 1
            assert outcomes.get("completed", 0) == point["completed"]
            assert outcomes.get("shed", 0) == point["shed"]
            assert outcomes.get("rejected", 0) == point["rejected"]

    def test_chaos_sweep_records_the_fault_timeline(self):
        _, traced = run_traced_scenario("chaos-quick", seed=0)
        assert any(
            record["fault_timeline"]["windows"] for record in traced.values()
        )


class TestTracingIsObservational:
    def test_traced_document_is_byte_identical_to_untraced(self, traced_sweep):
        scenario, doc, _ = traced_sweep
        untraced = run_scenario(scenario, seed=0)
        assert json.dumps(doc, sort_keys=True) == json.dumps(
            untraced, sort_keys=True
        )


class TestExplain:
    def test_same_seed_explains_the_same_request_identically(self):
        first = explain_point("quick", seed=0)
        second = explain_point("quick", seed=0)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_exemplar_is_the_worst_of_the_p99_bucket(self):
        doc = explain_point("quick", seed=0)
        assert doc["schema"] == "repro.explain/1"
        path = doc["critical_path"]
        assert path["trace_id"] == doc["exemplar"]["trace_id"]
        # The critical path's stages attribute all of the latency.
        assert (
            sum(stage["cycles"] for stage in path["stages"])
            == path["latency"]
        )
        assert doc["exemplar"]["value"] == path["latency"]

    def test_defaults_pick_coro_at_the_top_load(self):
        doc = explain_point("quick", seed=0)
        assert doc["technique"] == "CORO"
        assert doc["load_multiplier"] == max(get_scenario("quick").loads)

    def test_unswept_technique_and_load_are_usage_errors(self):
        with pytest.raises(WorkloadError):
            explain_point("quick", technique="AMAC")
        with pytest.raises(WorkloadError):
            explain_point("quick", load=7.0)

    def test_chaos_explain_carries_the_fault_profile(self):
        doc = explain_point("chaos-quick", seed=0, q=99)
        assert doc["fault_profile"] == "chaos-quick"
        assert trace_errors_free(doc)


def trace_errors_free(doc: dict) -> bool:
    """The rendered critical path is internally consistent."""
    path = doc["critical_path"]
    if not path["stages"]:
        return path["latency"] == 0
    return (
        path["stages"][0]["start"] == path["arrival"]
        and path["stages"][-1]["end"] == path["end"]
    )

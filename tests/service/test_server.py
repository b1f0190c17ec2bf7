"""Tests for the serving event loop: decomposition, determinism, overload."""

import dataclasses

import numpy as np
import pytest

from repro.config import scaled
from repro.obs.hist import nearest_rank
from repro.service.arrivals import PoissonArrivals, make_arrivals
from repro.service.loadgen import sequential_capacity
from repro.service.server import ServiceConfig, ServiceServer
from repro.sim.allocator import AddressSpaceAllocator
from repro.workloads.generators import make_table

ARCH = scaled(64)
TABLE_BYTES = 1 << 20
N_REQUESTS = 60
SEED = 0

BASE_CONFIG = ServiceConfig(
    max_batch=8,
    max_wait_cycles=2_000,
    queue_capacity=16,
    n_shards=2,
    warmup_requests=8,
    slo_cycles=20_000,
)


@pytest.fixture(scope="module")
def table():
    allocator = AddressSpaceAllocator(page_size=ARCH.page_size)
    return make_table(allocator, "svc/dict", TABLE_BYTES)


@pytest.fixture(scope="module")
def values(table):
    rng = np.random.RandomState(SEED + 11)
    return [int(v) for v in rng.randint(0, table.size, N_REQUESTS)]


def run_once(table, values, config=BASE_CONFIG, rate=0.8, seed=SEED):
    arrivals = PoissonArrivals(rate, len(values), seed)
    server = ServiceServer(table, config, arch=ARCH, seed=seed)
    return server.serve(arrivals, values)


class TestLatencyDecomposition:
    def test_invariant_holds_for_every_completed_request(self, table, values):
        report = run_once(table, values)
        done = [r for r in report.requests if r.outcome == "completed"]
        assert done, "nothing completed — the test set-up is broken"
        for request in done:
            assert (
                request.queue_wait
                + request.batch_wait
                + request.execution_cycles
                == request.latency
            ), request.index
            assert request.queue_wait >= 0
            assert request.batch_wait >= 0
            assert request.execution_cycles > 0

    def test_batch_wait_is_bounded_by_the_coalescer_deadline(
        self, table, values
    ):
        report = run_once(table, values, rate=0.3)  # mostly deadline-formed
        for request in report.requests:
            if request.outcome == "completed":
                assert request.batch_wait <= BASE_CONFIG.max_wait_cycles

    def test_histograms_cover_every_completed_request(self, table, values):
        report = run_once(table, values)
        latency = report.metrics.snapshot()["service"]["latency"]
        for phase in ("e2e", "queue_wait", "batch_wait", "execution"):
            assert latency[phase]["count"] == report.completed, phase


class TestDeterminism:
    def test_same_seed_runs_are_bit_identical(self, table, values):
        first = run_once(table, values)
        second = run_once(table, values)
        # The full metrics tree — including every latency histogram
        # bucket — must match exactly, not just summary statistics.
        assert first.metrics.snapshot() == second.metrics.snapshot()
        assert first.latencies == second.latencies
        assert first.makespan == second.makespan

    def test_different_seed_changes_the_arrival_pattern(self, table, values):
        first = run_once(table, values, seed=0)
        second = run_once(table, values, seed=1)
        assert first.latencies != second.latencies


class TestOverload:
    def test_queue_bounded_and_refusals_exported_at_2x_capacity(
        self, table, values
    ):
        capacity, _ = sequential_capacity(
            table, ARCH, n_shards=BASE_CONFIG.n_shards, seed=SEED
        )
        config = dataclasses.replace(
            BASE_CONFIG, technique="sequential", group_size=1
        )
        report = run_once(table, values, config=config, rate=2 * capacity)
        tree = report.metrics.snapshot()["service"]
        # The bounded-queue witness: the gauge's peak never passed Q.
        assert report.peak_queue_depth <= config.queue_capacity
        assert tree["queue_depth"]["peak"] <= config.queue_capacity
        # Overload actually bit, and every refusal is in the metrics.
        assert tree["rejected"] > 0
        assert tree["admitted"] + tree["rejected"] == tree["arrivals"]
        assert tree["arrivals"] == N_REQUESTS

    def test_shed_policy_serves_overflow_on_the_sequential_lane(
        self, table, values
    ):
        capacity, _ = sequential_capacity(
            table, ARCH, n_shards=BASE_CONFIG.n_shards, seed=SEED
        )
        config = dataclasses.replace(BASE_CONFIG, overload_policy="shed")
        report = run_once(table, values, config=config, rate=3 * capacity)
        tree = report.metrics.snapshot()["service"]
        assert tree["shed"] > 0
        shed = [r for r in report.requests if r.outcome == "shed"]
        assert all(r.finished for r in shed)  # shed != dropped: all served
        assert report.served == report.completed + len(shed)
        assert tree["latency"]["shed_e2e"]["count"] == len(shed)


class TestClosedLoopIntegration:
    def test_closed_loop_drains_to_exactly_n_requests(self, table, values):
        arrivals = make_arrivals(
            "closed", N_REQUESTS, SEED, n_clients=6, think_cycles=4_000
        )
        server = ServiceServer(table, BASE_CONFIG, arch=ARCH, seed=SEED)
        report = server.serve(arrivals, values)
        tree = report.metrics.snapshot()["service"]
        assert tree["arrivals"] == N_REQUESTS  # no stall, no over-issue
        assert report.completed + tree["rejected"] == N_REQUESTS


class TestReportAndPercentiles:
    def test_nearest_rank_percentiles(self):
        values = list(range(1, 101))  # 1..100
        assert nearest_rank(values, 50) == 50
        assert nearest_rank(values, 95) == 95
        assert nearest_rank(values, 99) == 99
        assert nearest_rank(values, 100) == 100
        assert nearest_rank([7], 99) == 7
        assert nearest_rank([], 50) == 0

    def test_percentile_rejects_out_of_range_q(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            nearest_rank([1, 2], 0)
        with pytest.raises(SimulationError):
            nearest_rank([1, 2], 101)

    def test_report_surfaces_are_consistent(self, table, values):
        report = run_once(table, values)
        pct = report.latency_percentiles()
        assert pct["p50"] <= pct["p95"] <= pct["p99"]
        decomposition = report.mean_decomposition()
        assert pytest.approx(sum(decomposition.values())) == (
            sum(report.latencies) / len(report.latencies)
        )
        assert 0.0 <= report.slo_attainment <= 1.0
        assert report.throughput_per_kcycle > 0
        assert report.mean_batch_size() >= 1.0

    def test_config_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ServiceConfig(n_shards=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(warmup_requests=-1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("overload_policy", "bogus"),
            ("queue_capacity", 0),
            ("max_batch", 0),
            ("max_wait_cycles", -1),
            ("rate_limit_burst", 0),
            ("rate_limit_per_kcycle", 0),
            ("rate_limit_per_kcycle", -1.5),
            ("group_size", 0),
            ("group_size", -3),
        ],
    )
    def test_every_component_field_checked(self, field, value):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ServiceConfig(**{field: value})

    def test_none_disables_rate_limit_and_group_size(self):
        config = ServiceConfig(rate_limit_per_kcycle=None, group_size=None)
        assert config.rate_limit_per_kcycle is None
        assert config.group_size is None


class TestPlanRequests:
    def test_plan_kind_is_cycle_identical_to_lookup_kind(self, table, values):
        lookup = run_once(table, values)
        plan_config = dataclasses.replace(BASE_CONFIG, request_kind="plan")
        plan = run_once(table, values, config=plan_config)
        # The streaming plan charges the same probe events inside the
        # same settle window as the bulk lookup path, so per-request
        # latencies — not just aggregates — must coincide.
        assert plan.completed == lookup.completed
        assert plan.latencies == lookup.latencies
        assert plan.makespan == lookup.makespan

    def test_plan_kind_completes_under_load(self, table, values):
        config = dataclasses.replace(BASE_CONFIG, request_kind="plan")
        report = run_once(table, values, config=config)
        done = [r for r in report.requests if r.outcome == "completed"]
        assert done
        for request in done:
            assert request.execution_cycles > 0

    def test_unknown_request_kind_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="request kind"):
            ServiceConfig(request_kind="rpc")

    def test_plans_scenario_registered(self):
        from repro.scenario import get_scenario

        scenario = get_scenario("plans")
        assert scenario.config.request_kind == "plan"

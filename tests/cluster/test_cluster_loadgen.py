"""Cluster loadgen: user keys, home mapping, and repro.cluster/1 docs."""

import dataclasses
import re

import pytest

from repro.cluster.loadgen import CLUSTER_SCHEMA, home_nodes, user_keys
from repro.cluster.topology import ClusterTopology
from repro.obs.rtrace import trace_errors
from repro.obs.slo import SLO_SCHEMA
from repro.service.arrivals import make_arrivals
from repro.scenario import get_scenario
from repro.service.explain import explain_point
from repro.service.loadgen import (
    run_scenario,
    run_slo_scenario,
    run_traced_scenario,
)


def _small(name, **overrides):
    """Shrink a registered cluster scenario to unit-test scale."""
    scenario = get_scenario(name)
    defaults = dict(
        loads=(0.8,),
        techniques=("CORO",),
        n_requests=64,
        table_bytes=1 << 20,
    )
    defaults.update(overrides)
    return dataclasses.replace(scenario, **defaults)


class TestUserKeys:
    def test_deterministic_and_in_range(self):
        scenario = _small("cluster-steady")
        keys = user_keys(scenario, 4096, seed=3)
        assert keys == user_keys(scenario, 4096, seed=3)
        assert len(keys) == scenario.n_requests
        assert all(0 <= key < 4096 for key in keys)

    def test_seed_moves_the_population(self):
        scenario = _small("cluster-steady")
        assert user_keys(scenario, 4096, seed=3) != user_keys(
            scenario, 4096, seed=4
        )

    def test_same_user_same_key(self):
        # A population of one user: every request probes the same slot.
        scenario = _small("cluster-steady", n_users=1)
        assert len(set(user_keys(scenario, 1 << 16, seed=0))) == 1


class TestHomeNodes:
    def test_diurnal_regions_map_to_region_node_groups(self):
        scenario = _small("planet-quick")
        topology = ClusterTopology.planet(scenario.config.n_nodes)
        arrivals = make_arrivals(
            "diurnal",
            scenario.n_requests,
            seed=0,
            base_rate_per_kcycle=2.0,
            **scenario.arrival_params,
        )
        homes = home_nodes(scenario, topology, arrivals)
        assert len(homes) == scenario.n_requests
        groups = [
            topology.nodes_in_region(region) for region in topology.regions
        ]
        for index, home in enumerate(homes):
            expected = groups[arrivals.regions[index] % len(groups)]
            assert home in expected

    def test_geography_free_arrivals_round_robin_the_fleet(self):
        scenario = _small("cluster-steady")
        topology = ClusterTopology.planet(scenario.config.n_nodes)
        arrivals = make_arrivals(
            "poisson", scenario.n_requests, seed=0, rate_per_kcycle=2.0
        )
        homes = home_nodes(scenario, topology, arrivals)
        assert homes == [
            index % topology.n_nodes for index in range(scenario.n_requests)
        ]


class TestClusterDocuments:
    def test_same_seed_bit_identical_clean(self):
        scenario = _small("cluster-steady")
        assert run_scenario(scenario, seed=3) == run_scenario(scenario, seed=3)

    def test_same_seed_bit_identical_under_chaos(self):
        scenario = _small("planet-quick", loads=(1.0,))
        assert run_scenario(scenario, seed=1) == run_scenario(scenario, seed=1)

    def test_document_shape(self):
        steady = run_scenario(_small("cluster-steady"), seed=0)
        assert steady["schema"] == CLUSTER_SCHEMA
        assert steady["kind"] == "cluster"
        assert "fault_profile" not in steady
        assert steady["n_nodes"] == 4
        assert steady["interconnect"]["n_nodes"] == 4
        assert len(steady["regions"]) == 2
        point = steady["points"][0]
        assert sum(point["node_batches"].values()) == point["batches"]
        assert sum(point["node_completed"].values()) == point["completed"]

        chaotic = run_scenario(_small("planet-quick"), seed=0)
        assert chaotic["fault_profile"] == "cluster-chaos"
        assert chaotic["points"][0]["fault_events"] > 0


def _grid(scenario):
    return [
        (technique, load)
        for technique in scenario.techniques
        for load in scenario.loads
    ]


@pytest.fixture(scope="module")
def traced_cluster():
    scenario = _small(
        "planet-quick", loads=(0.8, 1.6), techniques=("sequential", "CORO")
    )
    doc, traced = run_traced_scenario(scenario, seed=0)
    return scenario, doc, traced


class TestClusterTracing:
    def test_traced_document_equals_plain(self, traced_cluster):
        scenario, doc, _ = traced_cluster
        assert doc == run_scenario(scenario, seed=0)

    def test_one_label_per_point_with_well_formed_span_trees(
        self, traced_cluster
    ):
        scenario, _, traced = traced_cluster
        assert list(traced) == [
            f"{technique}@x{load:g}" for technique, load in _grid(scenario)
        ]
        for record in traced.values():
            assert record["traces"]
            for trace in record["traces"]:
                assert trace_errors(trace) == []

    def test_explain_attempt_lanes_are_node_tagged(self):
        doc = explain_point(_small("cluster-steady"), seed=0)
        lanes = [
            attempt["lane"]
            for attempt in doc["critical_path"]["attempt_spans"]
        ]
        assert lanes
        assert all(re.fullmatch(r"n\d+/s\d+", lane) for lane in lanes)


class TestClusterSlo:
    def test_one_slo_point_per_technique_and_load(self):
        scenario = _small(
            "cluster-steady", loads=(0.8, 1.6), techniques=("sequential", "CORO")
        )
        doc = run_slo_scenario(scenario, seed=0)
        assert doc["schema"] == SLO_SCHEMA
        assert doc["scenario"] == "cluster-steady"
        assert [
            (point["technique"], point["load_multiplier"])
            for point in doc["points"]
        ] == _grid(scenario)

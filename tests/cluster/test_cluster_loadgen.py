"""Cluster loadgen: user keys, home mapping, and repro.cluster/1 docs."""

import dataclasses

import pytest

from repro import api
from repro.cluster.loadgen import (
    CLUSTER_SCHEMA,
    home_nodes,
    run_cluster_scenario,
    run_traced_cluster_scenario,
    user_keys,
)
from repro.cluster.topology import ClusterTopology
from repro.errors import WorkloadError
from repro.service.arrivals import make_arrivals
from repro.scenario import get_scenario
from repro.service.loadgen import run_scenario


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
        assert run_cluster_scenario(scenario, seed=3) == run_cluster_scenario(
            scenario, seed=3
        )

    def test_same_seed_bit_identical_under_chaos(self):
        scenario = _small("planet-quick", loads=(1.0,))
        assert run_cluster_scenario(scenario, seed=1) == run_cluster_scenario(
            scenario, seed=1
        )

    def test_document_shape(self):
        steady = run_cluster_scenario(_small("cluster-steady"), seed=0)
        assert steady["schema"] == CLUSTER_SCHEMA
        assert steady["kind"] == "cluster"
        assert "fault_profile" not in steady
        assert steady["n_nodes"] == 4
        assert steady["interconnect"]["n_nodes"] == 4
        assert len(steady["regions"]) == 2
        point = steady["points"][0]
        assert sum(point["node_batches"].values()) == point["batches"]
        assert sum(point["node_completed"].values()) == point["completed"]

        chaotic = run_cluster_scenario(_small("planet-quick"), seed=0)
        assert chaotic["fault_profile"] == "cluster-chaos"
        assert chaotic["points"][0]["fault_events"] > 0

    def test_service_entry_point_delegates(self):
        scenario = _small("cluster-steady")
        assert run_scenario(scenario, seed=2) == run_cluster_scenario(
            scenario, seed=2
        )

    def test_non_cluster_scenario_rejected(self):
        for entry_point in (
            run_cluster_scenario,
            run_traced_cluster_scenario,
            api.serve_cluster,
        ):
            with pytest.raises(WorkloadError, match="not a cluster scenario"):
                entry_point("quick")

"""repro.cluster: a simulated multi-node cluster over the serving stack.

The serving layer (:mod:`repro.service`) models one machine: shards over
one shared LLC, one admission queue, one fault injector. This package
scales that machine out without changing its physics:

- :mod:`repro.cluster.topology` — nodes with private memory domains and
  tiered interconnect costs (local / NUMA-remote / CXL-style), plus the
  ``planet`` preset of pods and regions.
- :mod:`repro.cluster.routing` — consistent-hash key ownership with
  R-way replication and a router that splits coalesced batches by
  owning node.
- :mod:`repro.cluster.server` — :class:`ClusterServer`, a
  :class:`~repro.service.server.ServiceServer` subclass that dispatches
  per-node groups, hedges across replicas, lowers whole-node faults
  (``node_crash`` / ``node_slow``) onto the node's shards, and charges
  interconnect cycles when an answer crosses domains. With one node,
  replication 1, and zero interconnect cost it is bit-identical to the
  single-node server per same-seed run — the degenerate-identity
  contract the tests pin.
- :mod:`repro.cluster.loadgen` — what a ``kind: cluster`` scenario
  (the ``planet`` family in :mod:`repro.scenario.catalogue`: millions
  of simulated users on diurnal, region-rotating arrivals) adds to the
  serving sweep: user-population probe keys, home nodes, the topology
  lookup, and the rendering of ``repro.cluster/1`` documents. The sweep
  itself is :func:`repro.service.loadgen.run_scenario`, for both kinds.
"""

from repro.cluster.loadgen import CLUSTER_SCHEMA, render_cluster_doc
from repro.cluster.routing import ClusterRouter, HashRing
from repro.cluster.server import ClusterConfig, ClusterReport, ClusterServer
from repro.cluster.topology import (
    FREE_INTERCONNECT,
    INTERCONNECT_TIERS,
    TOPOLOGY_PRESETS,
    ClusterTopology,
    InterconnectCosts,
)

__all__ = [
    "CLUSTER_SCHEMA",
    "FREE_INTERCONNECT",
    "INTERCONNECT_TIERS",
    "TOPOLOGY_PRESETS",
    "ClusterConfig",
    "ClusterReport",
    "ClusterRouter",
    "ClusterServer",
    "ClusterTopology",
    "HashRing",
    "InterconnectCosts",
    "render_cluster_doc",
]

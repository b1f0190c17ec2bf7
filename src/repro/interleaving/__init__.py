"""Instruction-stream interleaving techniques (the paper's contribution).

* :func:`~repro.interleaving.sequential.run_sequential` and
  :func:`~repro.interleaving.interleaved.run_interleaved` — the two
  schedulers of Listing 7, working with any coroutine lookup.
* :func:`~repro.interleaving.gp.gp_binary_search_bulk` — group
  prefetching (Listing 3).
* :func:`~repro.interleaving.amac.amac_binary_search_bulk` — asynchronous
  memory access chaining (Listing 4).
* :mod:`~repro.interleaving.model` — Inequality 1 and the group-size
  estimator of Section 5.4.5.
* :mod:`~repro.interleaving.executor` — the Executor protocol, the
  string-keyed registry all layers dispatch through, and the batching
  :class:`~repro.interleaving.executor.BulkPipeline`.
* :mod:`~repro.interleaving.compiled` — trace compilation: the
  registry executors stage each technique's interleave schedule once
  and replay it without generators whenever a job compiles, counting
  every fallback (:func:`compiled_stats`).
"""

from repro.interleaving.amac import (
    AmacMachine,
    BinarySearchMachine,
    CsbLookupMachine,
    HashProbeMachine,
    StepOutcome,
    amac_binary_search_bulk,
    amac_csb_lookup_bulk,
    amac_hash_probe_bulk,
    amac_run_bulk,
)
from repro.interleaving.executor import (
    EXECUTOR_REGISTRY,
    WORKLOAD_KINDS,
    BulkLookup,
    BulkPipeline,
    CoroExecutor,
    Executor,
    executor_names,
    executors_supporting,
    get_executor,
    paper_techniques,
    register_executor,
)
from repro.interleaving.compiled import (
    compiled_metrics_source,
    compiled_stats,
    compiled_timings,
    register_compiled_metrics,
    reset_compiled_stats,
)
from repro.interleaving.gp import gp_binary_search_bulk
from repro.interleaving.handle import CoroutineHandle, FramePool
from repro.interleaving.interleaved import run_interleaved
from repro.interleaving.model import (
    InterleavingParams,
    estimate_group_size,
    optimal_group_size,
    params_from_profiles,
    residual_stall,
)
from repro.interleaving.policies import (
    ExecutionPolicy,
    choose_policy,
    choose_policy_for_bytes,
    default_group_size,
)
from repro.interleaving.sequential import StreamFactory, run_sequential
from repro.interleaving.spp import spp_binary_search_bulk

__all__ = [
    "AmacMachine",
    "BinarySearchMachine",
    "StepOutcome",
    "amac_binary_search_bulk",
    "amac_csb_lookup_bulk",
    "amac_hash_probe_bulk",
    "amac_run_bulk",
    "CsbLookupMachine",
    "HashProbeMachine",
    "gp_binary_search_bulk",
    "spp_binary_search_bulk",
    "CoroutineHandle",
    "FramePool",
    "run_interleaved",
    "run_sequential",
    "StreamFactory",
    "InterleavingParams",
    "estimate_group_size",
    "optimal_group_size",
    "params_from_profiles",
    "residual_stall",
    "ExecutionPolicy",
    "choose_policy",
    "choose_policy_for_bytes",
    "default_group_size",
    "compiled_metrics_source",
    "compiled_stats",
    "compiled_timings",
    "register_compiled_metrics",
    "reset_compiled_stats",
    "EXECUTOR_REGISTRY",
    "WORKLOAD_KINDS",
    "BulkLookup",
    "BulkPipeline",
    "CoroExecutor",
    "Executor",
    "executor_names",
    "executors_supporting",
    "get_executor",
    "paper_techniques",
    "register_executor",
]

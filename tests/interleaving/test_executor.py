"""Tests for the executor protocol, registry, and bulk pipeline."""

import ast
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HASWELL
from repro.errors import SchedulerError, WorkloadError
from repro.indexes.csb_tree import CSBTree
from repro.indexes.hash_table import ChainedHashTable
from repro.indexes.sorted_array import int_array_of_bytes
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
)
from repro.obs.spans import SpanRecorder
from repro.sim import ExecutionEngine
from repro.sim.allocator import AddressSpaceAllocator

ROOT = pathlib.Path(__file__).parent.parent.parent


def small_array(nbytes=1 << 20):
    return int_array_of_bytes(AddressSpaceAllocator(), "arr", nbytes)


class TestRegistry:
    def test_paper_techniques_in_paper_order(self):
        assert paper_techniques() == ("std", "Baseline", "GP", "AMAC", "CORO")

    def test_registry_holds_spp_and_sequential_too(self):
        names = executor_names()
        assert "SPP" in names and "sequential" in names

    def test_lookup_is_case_insensitive_and_alias_aware(self):
        assert get_executor("coro") is get_executor("CORO")
        assert get_executor("interleaved") is get_executor("CORO")
        assert get_executor("baseline").name == "Baseline"

    def test_unknown_name_lists_registered(self):
        with pytest.raises(WorkloadError, match="registered"):
            get_executor("nope")

    def test_every_registered_executor_satisfies_protocol(self):
        for name in executor_names():
            assert isinstance(get_executor(name), Executor)

    def test_supports_matches_workload_kind_queries(self):
        for kind in WORKLOAD_KINDS:
            for executor in executors_supporting(kind):
                assert executor.supports(kind)
        coro_kinds = [
            kind for kind in WORKLOAD_KINDS if get_executor("CORO").supports(kind)
        ]
        assert coro_kinds == list(WORKLOAD_KINDS)  # coroutines cover everything

    def test_unsupported_workload_rejected(self):
        table = ChainedHashTable(AddressSpaceAllocator(), "h", n_buckets=8)
        table.build([1, 2], [10, 20])
        with pytest.raises(WorkloadError, match="does not support"):
            get_executor("GP").run(
                BulkLookup.hash_probe(table, [1]), ExecutionEngine(HASWELL)
            )


class TestBulkLookup:
    def test_unknown_kind_rejected(self):
        with pytest.raises(WorkloadError, match="workload kind"):
            BulkLookup("btree", None, (1,))

    def test_stream_needs_factory(self):
        with pytest.raises(WorkloadError, match="factory"):
            BulkLookup("stream", None, (1,))

    def test_batches_preserve_order_and_cover_all(self):
        tasks = BulkLookup.sorted_array(small_array(), range(10))
        batches = list(tasks.batches(4))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [v for b in batches for v in b.inputs] == list(range(10))

    def test_nonpositive_batch_rejected(self):
        tasks = BulkLookup.sorted_array(small_array(), [1])
        with pytest.raises(SchedulerError):
            list(tasks.batches(0))


class TestExecutorEquivalence:
    """Every executor agrees with run_sequential on every workload it
    supports — the refactor's correctness property."""

    @given(seed=st.integers(0, 2**16), group_size=st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_sorted_array_equivalence(self, seed, group_size):
        array = small_array(1 << 20)
        rng = np.random.RandomState(seed)
        probes = [int(v) for v in rng.randint(0, array.size, 40)]
        tasks = BulkLookup.sorted_array(array, probes)
        expected = get_executor("sequential").run(tasks, ExecutionEngine(HASWELL))
        for name in executor_names():
            executor = get_executor(name)
            if not executor.supports("sorted_array"):
                continue
            got = executor.run(
                tasks, ExecutionEngine(HASWELL), group_size=group_size
            )
            assert got == expected, name

    @given(seed=st.integers(0, 2**16), group_size=st.integers(1, 12))
    @settings(max_examples=10, deadline=None)
    def test_csb_tree_equivalence(self, seed, group_size):
        keys = list(range(0, 4_000, 2))
        tree = CSBTree(AddressSpaceAllocator(), "t", keys, [k * 3 for k in keys])
        rng = np.random.RandomState(seed)
        probes = [int(rng.choice(keys)) for _ in range(30)]
        tasks = BulkLookup.csb_tree(tree, probes)
        expected = get_executor("sequential").run(tasks, ExecutionEngine(HASWELL))
        assert expected == [p * 3 for p in probes]
        for name in executor_names():
            executor = get_executor(name)
            if not executor.supports("csb_tree"):
                continue
            got = executor.run(
                tasks, ExecutionEngine(HASWELL), group_size=group_size
            )
            assert got == expected, name

    @given(seed=st.integers(0, 2**16), group_size=st.integers(1, 12))
    @settings(max_examples=10, deadline=None)
    def test_hash_probe_equivalence(self, seed, group_size):
        rng = np.random.RandomState(seed)
        keys = np.unique(rng.randint(0, 50_000, 2_000))
        table = ChainedHashTable(AddressSpaceAllocator(), "h", n_buckets=512)
        table.build(keys, keys * 7)
        probes = [int(v) for v in rng.randint(0, 60_000, 30)]
        tasks = BulkLookup.hash_probe(table, probes)
        expected = get_executor("sequential").run(tasks, ExecutionEngine(HASWELL))
        for name in executor_names():
            executor = get_executor(name)
            if not executor.supports("hash_probe"):
                continue
            got = executor.run(
                tasks, ExecutionEngine(HASWELL), group_size=group_size
            )
            assert got == expected, name


class TestBulkPipeline:
    def test_batched_results_match_unbatched(self):
        array = small_array()
        rng = np.random.RandomState(7)
        probes = [int(v) for v in rng.randint(0, array.size, 200)]
        tasks = BulkLookup.sorted_array(array, probes)
        direct = get_executor("CORO").run(
            tasks, ExecutionEngine(HASWELL), group_size=6
        )
        piped = BulkPipeline(get_executor("CORO"), batch_size=33).run(
            tasks, ExecutionEngine(HASWELL), group_size=6
        )
        assert piped == direct

    def test_nonpositive_batch_size_rejected(self):
        with pytest.raises(SchedulerError):
            BulkPipeline(get_executor("CORO"), batch_size=0)

    def test_pipeline_emits_one_span_per_batch(self):
        array = small_array()
        tasks = BulkLookup.sorted_array(array, range(10))
        recorder = SpanRecorder()
        BulkPipeline(get_executor("CORO"), batch_size=4).run(
            tasks, ExecutionEngine(HASWELL), group_size=4, recorder=recorder
        )
        spans = [s for s in recorder.spans if s.kind == "executor"]
        assert len(spans) == 3  # 4 + 4 + 2


class TestEmptyAndOversizedWorkloads:
    """Degenerate shapes the serving layer's coalescer can produce:
    empty batches and batches smaller than the group size."""

    def test_empty_task_list_returns_empty_for_every_executor(self):
        array = small_array()
        tasks = BulkLookup.sorted_array(array, [])
        for name in executor_names():
            engine = ExecutionEngine(HASWELL)
            assert get_executor(name).run(tasks, engine) == [], name

    def test_empty_pipeline_returns_empty_and_charges_nothing(self):
        tasks = BulkLookup.sorted_array(small_array(), [])
        engine = ExecutionEngine(HASWELL)
        result = BulkPipeline(get_executor("CORO"), batch_size=8).run(
            tasks, engine, group_size=6
        )
        assert result == []
        assert engine.clock == 0

    def test_group_size_beyond_task_count_is_not_padded(self):
        array = small_array()
        probes = [3, 1, 4]
        for name in ("GP", "AMAC", "CORO", "SPP"):
            result = get_executor(name).run(
                BulkLookup.sorted_array(array, probes),
                ExecutionEngine(HASWELL),
                group_size=64,
            )
            assert result == probes, name  # implicit array: value == index

    def test_pipeline_batch_beyond_task_count_is_one_batch(self):
        array = small_array()
        probes = [5, 2]
        recorder = SpanRecorder()
        result = BulkPipeline(get_executor("CORO"), batch_size=1000).run(
            BulkLookup.sorted_array(array, probes),
            ExecutionEngine(HASWELL),
            group_size=6,
            recorder=recorder,
        )
        assert result == probes
        spans = [s for s in recorder.spans if s.kind == "executor"]
        assert len(spans) == 1
        assert spans[0].attrs["n_inputs"] == 2


class TestSpanTagging:
    def test_executor_span_carries_name_and_workload(self):
        array = small_array()
        recorder = SpanRecorder()
        get_executor("GP").run(
            BulkLookup.sorted_array(array, range(20)),
            ExecutionEngine(HASWELL),
            group_size=5,
            recorder=recorder,
        )
        spans = [s for s in recorder.spans if s.kind == "executor"]
        assert len(spans) == 1
        assert spans[0].attrs == {
            "executor": "GP",
            "workload_kind": "sorted_array",
            "group_size": 5,
            "n_inputs": 20,
        }

    def test_untraced_run_charges_identical_cycles(self):
        array = small_array()
        tasks = BulkLookup.sorted_array(array, range(50))
        plain = ExecutionEngine(HASWELL)
        get_executor("CORO").run(tasks, plain, group_size=6)
        traced = ExecutionEngine(HASWELL)
        get_executor("CORO").run(
            tasks, traced, group_size=6, recorder=SpanRecorder()
        )
        assert plain.clock == traced.clock


class TestAblationKnobs:
    def test_off_registry_coro_executor_disables_recycling(self):
        array = small_array()
        tasks = BulkLookup.sorted_array(array, range(30))
        recycled = ExecutionEngine(HASWELL)
        CoroExecutor(recycle_frames=True).run(tasks, recycled, group_size=6)
        fresh = ExecutionEngine(HASWELL)
        CoroExecutor(recycle_frames=False).run(tasks, fresh, group_size=6)
        assert fresh.clock > recycled.clock  # allocations cost cycles


class TestAdaptivePolicy:
    """choose_policy with technique=None: Inequality-1-driven selection."""

    def test_small_table_stays_sequential(self):
        table = small_array(1 << 20)  # well inside the 25 MB LLC
        from repro.interleaving.policies import choose_policy

        policy = choose_policy(HASWELL, table, 10_000, technique=None)
        assert not policy.interleave
        assert policy.group_size == 1
        assert policy.executor_name == "sequential"
        assert "cache" in policy.reason

    def test_dram_resident_table_interleaves(self):
        table = small_array(256 << 20)  # 10x the LLC
        from repro.interleaving.policies import choose_policy

        policy = choose_policy(HASWELL, table, 10_000, technique=None)
        assert policy.interleave
        assert policy.group_size > 1
        assert policy.technique in ("GP", "AMAC", "CORO")
        assert policy.executor_name == policy.technique
        # The chosen pair must be runnable straight off the registry.
        executor = get_executor(policy.executor_name)
        assert executor.supports("sorted_array")

    def test_too_few_lookups_stay_sequential(self):
        table = small_array(256 << 20)
        from repro.interleaving.policies import choose_policy

        policy = choose_policy(HASWELL, table, 2, technique=None)
        assert not policy.interleave

    def test_forced_technique_respected(self):
        table = small_array(256 << 20)
        from repro.interleaving.policies import choose_policy

        policy = choose_policy(HASWELL, table, 10_000, technique="gp")
        assert policy.interleave and policy.technique == "GP"

    def test_candidate_restriction(self):
        from repro.interleaving.policies import choose_policy_for_bytes

        policy = choose_policy_for_bytes(
            HASWELL, 256 << 20, 10_000, technique=None, candidates=("coro",)
        )
        assert policy.technique == "CORO"


class TestNoDirectSchedulerImports:
    """Acceptance: no call site outside repro.interleaving imports the
    technique entry points directly — everything goes through the
    registry. ``repro/__init__.py`` re-exports them for API
    compatibility and is exempt."""

    FORBIDDEN = {"run_sequential", "run_interleaved"}

    def _is_forbidden(self, name: str) -> bool:
        return name in self.FORBIDDEN or name.endswith("_bulk")

    def test_src_imports_go_through_registry(self):
        offenders = []
        for module in sorted((ROOT / "src" / "repro").rglob("*.py")):
            relative = module.relative_to(ROOT / "src" / "repro")
            if relative.parts[0] == "interleaving" or str(relative) == "__init__.py":
                continue
            tree = ast.parse(module.read_text())
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if not (node.module or "").startswith("repro.interleaving"):
                    continue
                for alias in node.names:
                    if self._is_forbidden(alias.name):
                        offenders.append(f"{relative}: {alias.name}")
        assert not offenders, offenders


class TestSimStateStaysInSim:
    """Acceptance: no module outside ``repro.sim`` touches the simulator's
    private state. A name is sim-only when it starts with an underscore,
    a ``repro/sim/`` class assigns it on ``self``, and no module outside
    ``repro/sim/`` assigns it on ``self`` (those own a field of the same
    name, like the hash table's ``_next``)."""

    @staticmethod
    def _self_assigned(tree: ast.AST) -> set:
        return {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr.startswith("_")
        }

    def test_no_sim_private_reads_outside_sim(self):
        package = ROOT / "src" / "repro"
        sim_assigned: set = set()
        other_assigned: set = set()
        outside: dict = {}
        for module in sorted(package.rglob("*.py")):
            relative = module.relative_to(package)
            tree = ast.parse(module.read_text())
            if relative.parts[0] == "sim":
                sim_assigned |= self._self_assigned(tree)
            else:
                other_assigned |= self._self_assigned(tree)
                outside[relative] = tree
        sim_only = sim_assigned - other_assigned
        assert {"_sets", "_in_flight", "_dtlb"} <= sim_only  # the check has teeth
        offenders = sorted(
            {
                f"{relative}: {node.attr}"
                for relative, tree in outside.items()
                for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and node.attr in sim_only
                and not (
                    isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
                )
            }
        )
        assert not offenders, offenders

"""Golden equivalence for staged-schedule replay on the default path.

``std``, ``Baseline``, ``GP``, ``AMAC``, ``CORO`` and ``sequential``
replay a staged schedule (:mod:`repro.interleaving.compiled`) whenever a job
compiles, instead of driving Python generators, and the whole
correctness contract of that replay is *bit identity*: at the pinned
16 MB golden points every technique reproduces the cycle count of
``tests/analysis/test_golden_numbers.py`` through replay, and on any
compilable job results, clock, and metrics tree equal the generator
reference exactly. If a change legitimately alters the cost model,
recapture the golden numbers in the same commit and say why.

The second half pins the *fallback* contract: workload shapes the
stager cannot flatten (CSB+-tree descents, skip-list streams) and
tracer-enabled engines must take the generator path with the reason
counted, and the counters must surface as ``compiled_fallbacks``
through a :class:`~repro.obs.metrics.MetricsRegistry` source.
"""

import pytest

from repro.analysis.experiments import measure_binary_search
from repro.config import HASWELL
from repro.indexes.csb_tree import CSBTree
from repro.indexes.skip_list import SkipList, skip_lookup_stream
from repro.indexes.sorted_array import int_array_of_bytes
from repro.interleaving import (
    BulkLookup,
    compiled_metrics_source,
    compiled_stats,
    get_executor,
    register_compiled_metrics,
    reset_compiled_stats,
)
from repro.interleaving.compiled import _generators_only
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NullRecorder, SpanRecorder
from repro.sim import ExecutionEngine
from repro.sim.allocator import AddressSpaceAllocator

#: The pinned golden numbers (identical to test_golden_numbers.py) for
#: every paper technique, all of which replay.
GOLDEN_CYCLES_PER_SEARCH = {
    "std": 856.765625,
    "Baseline": 978.515625,
    "GP": 767.609375,
    "AMAC": 1236.5625,
    "CORO": 1214.71875,
}

#: Every executor that carries a staged schedule.
REPLAYING = ("AMAC", "Baseline", "CORO", "GP", "sequential", "std")

SIZE_BYTES = 16 << 20
N_LOOKUPS = 64


def small_array(nbytes=1 << 20):
    return int_array_of_bytes(AddressSpaceAllocator(), "arr", nbytes)


class TestCompiledGoldenNumbers:
    """The default path reproduces the pinned harness numbers by replay."""

    @pytest.mark.parametrize("technique", sorted(GOLDEN_CYCLES_PER_SEARCH))
    def test_compiled_cycles_per_search_bit_identical(self, technique):
        reset_compiled_stats()
        point = measure_binary_search(SIZE_BYTES, technique, n_lookups=N_LOOKUPS)
        assert point.cycles_per_search == GOLDEN_CYCLES_PER_SEARCH[technique]
        stats = compiled_stats()
        assert stats["fallbacks"] == 0, stats["fallbacks_by_reason"]
        assert stats["replays"] >= 1  # the number came from staged replay

    @pytest.mark.parametrize("technique", sorted(GOLDEN_CYCLES_PER_SEARCH))
    def test_generator_reference_matches_golden(self, technique):
        reset_compiled_stats()
        with _generators_only():
            point = measure_binary_search(
                SIZE_BYTES, technique, n_lookups=N_LOOKUPS
            )
        assert point.cycles_per_search == GOLDEN_CYCLES_PER_SEARCH[technique]
        stats = compiled_stats()
        assert stats["replays"] == 0 and stats["fallbacks"] == 0


class TestReplayEquivalence:
    """Replay and the generator reference agree on results, clock, metrics."""

    @pytest.mark.parametrize("name", REPLAYING)
    def test_results_clock_and_metrics_identical(self, name):
        array = small_array()
        probes = [int(array.size * i // 37) * 7 + 3 for i in range(40)]
        tasks = BulkLookup.sorted_array(array, probes)
        executor = get_executor(name)

        gen_engine = ExecutionEngine(HASWELL)
        with _generators_only():
            expected = executor.run(tasks, gen_engine, group_size=4)
        reset_compiled_stats()
        replay_engine = ExecutionEngine(HASWELL)
        # A (disabled) null recorder must not trip the tracer fallback.
        got = executor.run(
            tasks, replay_engine, group_size=4, recorder=NullRecorder()
        )
        stats = compiled_stats()
        assert stats["fallbacks"] == 0
        assert stats["replays"] == 1
        assert got == expected
        assert replay_engine.clock == gen_engine.clock
        assert replay_engine.metrics.snapshot() == gen_engine.metrics.snapshot()

    def test_interleaved_alias_replays(self):
        assert get_executor("interleaved") is get_executor("CORO")
        reset_compiled_stats()
        get_executor("interleaved").run(
            BulkLookup.sorted_array(small_array(), [3, 99, 4_000]),
            ExecutionEngine(HASWELL),
            group_size=3,
        )
        assert compiled_stats()["replays"] == 1


class TestCompiledFallbacks:
    """Non-compilable shapes take the generator path, counted."""

    def _csb_tasks(self):
        keys = list(range(0, 2_000, 2))
        tree = CSBTree(AddressSpaceAllocator(), "t", keys, [k * 3 for k in keys])
        return BulkLookup.csb_tree(tree, [0, 6, 40, 1998, 777])

    def test_csb_tree_falls_back_to_generator_path(self):
        tasks = self._csb_tasks()
        with _generators_only():
            expected = get_executor("CORO").run(
                tasks, ExecutionEngine(HASWELL), group_size=4
            )
        reset_compiled_stats()
        got = get_executor("CORO").run(tasks, ExecutionEngine(HASWELL), group_size=4)
        assert got == expected
        stats = compiled_stats()
        assert stats["replays"] == 0
        assert stats["fallbacks_by_reason"] == {"workload_kind": 1}
        assert stats["fallbacks_by_executor"] == {"CORO": 1}

    def test_skip_list_stream_falls_back_to_generator_path(self):
        skiplist = SkipList(AddressSpaceAllocator(), "s")
        skiplist.build(range(0, 500, 5), range(0, 1_000, 10))
        factory = lambda key, il: skip_lookup_stream(skiplist, key, il)
        tasks = BulkLookup.stream(factory, [0, 35, 120, 495, 7])
        with _generators_only():
            expected = get_executor("CORO").run(
                tasks, ExecutionEngine(HASWELL), group_size=3
            )
        reset_compiled_stats()
        got = get_executor("CORO").run(tasks, ExecutionEngine(HASWELL), group_size=3)
        assert got == expected
        assert compiled_stats()["fallbacks_by_reason"] == {"workload_kind": 1}

    def test_tracer_enabled_engine_falls_back(self):
        array = small_array()
        tasks = BulkLookup.sorted_array(array, [3, 99, 4_000])
        reset_compiled_stats()
        engine = ExecutionEngine(HASWELL)
        get_executor("CORO").run(tasks, engine, group_size=3, recorder=SpanRecorder())
        assert compiled_stats()["fallbacks_by_reason"] == {"tracer": 1}

    def test_generator_only_executors_count_nothing(self):
        tasks = BulkLookup.sorted_array(small_array(), [3, 99, 4_000])
        reset_compiled_stats()
        get_executor("SPP").run(tasks, ExecutionEngine(HASWELL))
        stats = compiled_stats()
        assert stats["replays"] == 0 and stats["fallbacks"] == 0

    def test_fallback_counter_exported_through_metrics_registry(self):
        reset_compiled_stats()
        get_executor("CORO").run(
            self._csb_tasks(), ExecutionEngine(HASWELL), group_size=4
        )
        source = compiled_metrics_source()
        assert source["compiled_fallbacks"] == 1
        assert "fallbacks" not in source  # renamed for the metrics tree
        registry = MetricsRegistry()
        register_compiled_metrics(registry)
        mounted = registry.snapshot()["interleaving"]["compiled"]
        assert mounted["compiled_fallbacks"] == 1
        assert mounted["fallbacks_by_reason"] == {"workload_kind": 1}

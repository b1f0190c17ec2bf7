"""The sweep runner: merge order, parallel bit-identity, failure modes."""

import gc
import os
import weakref

import pytest

from repro.analysis import measure_binary_search
from repro.analysis.experiments import TECHNIQUES
from repro.config import HASWELL
from repro.errors import PerfError, SimulationError, WorkloadError
from repro.indexes.binary_search import binary_search_coro
from repro.indexes.sorted_array import int_array_of_bytes
from repro.interleaving import (
    BulkLookup,
    compiled_stats,
    get_executor,
    reset_compiled_stats,
)
from repro.perf import ResultCache, SweepRunner, Task, resolve_jobs
from repro.sim import ExecutionEngine
from repro.sim.allocator import AddressSpaceAllocator


def double(x):
    return 2 * x


def tag(x, prefix="p"):
    return f"{prefix}{x}"


def boom(x):
    raise WorkloadError(f"bad point {x}")


def die(x):
    os._exit(13)


class TestMergeOrder:
    def test_results_keyed_by_point_not_completion(self):
        # Chunking splits the points across workers; the merged list must
        # follow submission order regardless of which chunk finished first.
        runner = SweepRunner(jobs=4)
        points = list(range(23))
        assert runner.run([Task(double, (x,)) for x in points]) == [
            2 * x for x in points
        ]

    def test_serial_equals_parallel(self):
        serial = SweepRunner(jobs=1).run([Task(tag, (i,)) for i in range(10)])
        parallel = SweepRunner(jobs=3).run([Task(tag, (i,)) for i in range(10)])
        assert serial == parallel

    def test_map_merges_common_kwargs(self):
        runner = SweepRunner(jobs=1)
        out = runner.map(tag, [{"x": 1}, {"x": 2, "prefix": "q"}], common={"prefix": "z"})
        assert out == ["z1", "q2"]

    def test_single_point_avoids_pool(self):
        runner = SweepRunner(jobs=4)
        assert runner.run([Task(double, (21,))]) == [42]
        assert runner.chunks_submitted == 0


class TestEngineGarbage:
    """Engines are freed by reference counting alone, so the runner
    needs no collection between points."""

    def test_dropped_engine_dies_without_a_collection(self):
        table = int_array_of_bytes(AddressSpaceAllocator(), "t", 1 << 16)
        sorted_job = BulkLookup.sorted_array(table, list(range(0, 16_000, 97)))
        stream_job = BulkLookup.stream(
            lambda value, il: binary_search_coro(table, value, il), [1, 50, 999]
        )
        enabled = gc.isenabled()
        gc.disable()  # a cycle would survive until the next collection
        try:
            reset_compiled_stats()
            engine = ExecutionEngine(HASWELL)
            get_executor("CORO").run(sorted_job, engine, group_size=6)
            get_executor("CORO").run(stream_job, engine, group_size=6)
            assert compiled_stats()["replays"] == 1
            assert compiled_stats()["fallbacks_by_reason"] == {"workload_kind": 1}
            engine_ref = weakref.ref(engine)
            memory_ref = weakref.ref(engine.memory)
            del engine
            assert engine_ref() is None
            assert memory_ref() is None
        finally:
            if enabled:
                gc.enable()


class TestSimulatorBitIdentity:
    def test_all_techniques_parallel_equals_serial(self):
        # The acceptance property of the whole perf layer: fanning the
        # simulator across processes changes nothing in the results.
        grid = [
            {"size_bytes": 1 << 20, "technique": technique, "n_lookups": 32}
            for technique in TECHNIQUES
        ]
        serial = SweepRunner(jobs=1).map(measure_binary_search, grid)
        parallel = SweepRunner(jobs=4).map(measure_binary_search, grid)
        for technique, a, b in zip(TECHNIQUES, serial, parallel):
            assert a.cycles_per_search == b.cycles_per_search, technique
            assert a.tmam.cpi == b.tmam.cpi, technique
            assert a.loads_per_search == b.loads_per_search, technique


class TestFailureModes:
    def test_point_exception_propagates_from_worker(self):
        runner = SweepRunner(jobs=2)
        with pytest.raises(WorkloadError, match="bad point 3"):
            runner.run([Task(double, (i,)) for i in range(3)] + [Task(boom, (3,))])

    def test_point_exception_propagates_serially(self):
        with pytest.raises(WorkloadError, match="bad point 0"):
            SweepRunner(jobs=1).run([Task(boom, (0,))])

    def test_dead_worker_raises_instead_of_hanging(self):
        runner = SweepRunner(jobs=2)
        with pytest.raises(SimulationError, match="worker process died"):
            runner.run([Task(die, (i,)) for i in range(4)])

    def test_invalid_jobs_rejected(self):
        with pytest.raises(PerfError):
            SweepRunner(jobs=0)
        with pytest.raises(PerfError):
            resolve_jobs(-2)


class TestCounters:
    def test_run_and_replay_counters(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="t")
        runner = SweepRunner(jobs=1, cache=cache)
        tasks = [Task(double, (x,)) for x in range(5)]
        assert runner.run(tasks) == [0, 2, 4, 6, 8]
        assert runner.points_run == 5
        assert runner.points_replayed == 0
        assert runner.run(tasks) == [0, 2, 4, 6, 8]
        assert runner.points_replayed == 5

    def test_as_dict_and_metrics_registration(self):
        from repro.obs.metrics import MetricsRegistry

        runner = SweepRunner(jobs=1)
        runner.run([Task(double, (1,))])
        registry = MetricsRegistry()
        runner.register_metrics(registry)
        snapshot = registry.snapshot()
        assert snapshot["perf"]["sweep"]["points_run"] == 1
        assert runner.as_dict()["points_run"] == 1

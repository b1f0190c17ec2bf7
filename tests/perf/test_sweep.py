"""The sweep runner: merge order, parallel bit-identity, failure modes."""

import gc
import os
import weakref

import pytest

from repro.analysis import measure_binary_search
from repro.analysis.experiments import TECHNIQUES
from repro.errors import PerfError, SimulationError, WorkloadError
from repro.perf import ResultCache, SweepRunner, Task, resolve_jobs


def double(x):
    return 2 * x


def tag(x, prefix="p"):
    return f"{prefix}{x}"


def boom(x):
    raise WorkloadError(f"bad point {x}")


def die(x):
    os._exit(13)


class _Cycle:
    """Garbage only the cycle collector frees, like an engine and its memory."""

    def __init__(self) -> None:
        self.me = self


#: Weak references to each point's cyclic garbage, in point order.
_POINT_GARBAGE: list = []


def leave_cycle(x):
    """Count earlier points' garbage still alive, then leave some behind."""
    alive = sum(ref() is not None for ref in _POINT_GARBAGE)
    _POINT_GARBAGE.append(weakref.ref(_Cycle()))
    return alive


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


class TestPointGarbage:
    def test_each_point_collected_before_the_next(self):
        _POINT_GARBAGE.clear()
        enabled = gc.isenabled()
        gc.disable()  # only the runner's own collections may free the cycles
        try:
            alive = SweepRunner(jobs=1).run([Task(leave_cycle, (i,)) for i in range(4)])
        finally:
            if enabled:
                gc.enable()
        assert alive == [0, 0, 0, 0]
        assert gc.get_freeze_count() == 0  # the sweep's freeze is undone

    def test_application_freeze_left_alone(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            SweepRunner(jobs=1).run([Task(double, (i,)) for i in range(3)])
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()


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

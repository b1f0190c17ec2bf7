"""Differential property test: staged-schedule replay vs generators.

Every registry executor that carries a staged schedule (``std``,
``Baseline``, ``GP``, ``AMAC``, ``CORO``, ``sequential``) replays it
whenever a job compiles. Hypothesis draws the job and the machine —
architecture (Haswell or a ``scaled(k)`` hierarchy), line-fill-buffer
count, table size (1–3 elements and odd sizes included), int or string
tables, element sizes that straddle cache lines, group size, and 0–64
inputs — and the default path must equal the generator reference on a
fresh engine: results, ``engine.clock`` and the whole
``engine.metrics.snapshot()`` tree.

Dictionary ``locate`` jobs replay under ``sequential`` and ``CORO``:
Main dictionaries (int and string, implicit and materialized) through
the sorted-array recurrence, with the speculative branchy search when
sequential, implicit Delta dictionaries (256- and 48-byte nodes, and
pinned 1 GiB and 1,801-value trees) through the closed-form CSB+-tree
model, and materialized ones by draining each key's stream. Those
draws, and ``std`` jobs, also vary the engine's seed and start it cold,
warm (a settled warm-up run) or mid-flight (a warm-up run with fills
still in flight), and the engine's RNG state must match the reference
too.

Jobs that can not compile (depth-0 tables, elements that can straddle a
cache line, tracer-on engines, engine subclasses, ablation
``CoroExecutor`` instances, non-array workloads) must run the
generators and report their fallback reason.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.columnstore.dictionary import DeltaDictionary, MainDictionary
from repro.config import HASWELL, scaled
from repro.errors import SimulationError
from repro.indexes.sorted_array import (
    SortedIntArray,
    int_array_of_bytes,
    string_array_of_bytes,
)
from repro.interleaving import (
    BulkLookup,
    CoroExecutor,
    FramePool,
    compiled_stats,
    get_executor,
    reset_compiled_stats,
    run_interleaved,
)
from repro.interleaving.compiled import _generators_only
from repro.obs.spans import SpanRecorder
from repro.sim import ExecutionEngine
from repro.sim.allocator import AddressSpaceAllocator
from repro.workloads.strings import index_to_key

REPLAYING = ("std", "Baseline", "GP", "AMAC", "CORO", "sequential")

#: Haswell plus hierarchies shrunk so small tables miss every level.
ARCHES = (HASWELL, scaled(2), scaled(8), scaled(64))


def _table(kind: str, size: int, element_size: int, seed: int):
    allocator = AddressSpaceAllocator()
    if kind == "string":
        return string_array_of_bytes(allocator, "t", size * 16)
    if kind == "values":
        # Materialized, with duplicates: the non-identity probe path.
        values = sorted((seed * 7 + i * 13) % (2 * size + 1) for i in range(size))
        return SortedIntArray.from_values(allocator, "t", values, element_size)
    return int_array_of_bytes(allocator, "t", size * element_size, element_size)


def _keys(kind: str, size: int, raw: list[int]) -> list:
    if kind == "string":
        return [index_to_key(value % size) for value in raw]
    return [value % (2 * size + 3) - 1 for value in raw]


def _run(executor, tasks, arch, group_size, *, engine_cls=ExecutionEngine, recorder=None):
    engine = engine_cls(arch)
    results = executor.run(tasks, engine, group_size=group_size, recorder=recorder)
    return results, engine.clock, engine.metrics.snapshot()


def _reference(executor, tasks, arch, group_size, **kwargs):
    with _generators_only():
        return _run(executor, tasks, arch, group_size, **kwargs)


jobs = st.fixed_dictionaries(
    {
        "technique": st.sampled_from(REPLAYING),
        "arch": st.sampled_from(ARCHES),
        "lfbs": st.integers(1, 12),
        "kind": st.sampled_from(("int", "string", "values")),
        "size": st.one_of(st.integers(1, 3), st.integers(1, 4_097)),
        "element_size": st.sampled_from((4, 8, 12, 24)),
        "group_size": st.integers(1, 16),
        "raw": st.lists(st.integers(0, 1 << 30), max_size=64),
    }
)


class TestReplayMatchesGenerators:
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(job=jobs)
    @example(
        job={
            "technique": "CORO", "arch": HASWELL, "lfbs": 10, "kind": "int",
            "size": 3, "element_size": 4, "group_size": 16, "raw": [0, 1, 2, 3],
        }
    )
    @example(
        job={
            "technique": "GP", "arch": scaled(64), "lfbs": 1, "kind": "string",
            "size": 2_049, "element_size": 4, "group_size": 7,
            "raw": list(range(0, 64 * 997, 997)),
        }
    )
    def test_default_path_equals_generator_reference(self, job):
        arch = job["arch"].replace(n_line_fill_buffers=job["lfbs"])
        table = _table(job["kind"], job["size"], job["element_size"], len(job["raw"]))
        tasks = BulkLookup.sorted_array(
            table, _keys(job["kind"], job["size"], job["raw"])
        )
        executor = get_executor(job["technique"])
        group_size = job["group_size"]

        expected = _reference(executor, tasks, arch, group_size)
        reset_compiled_stats()
        got = _run(executor, tasks, arch, group_size)
        stats = compiled_stats()

        assert got[0] == expected[0]
        assert got[1] == expected[1]
        assert got[2] == expected[2]
        # String tables hold 16-byte elements whatever size was drawn.
        straddles = job["kind"] != "string" and job["element_size"] in (12, 24)
        if not tasks.inputs:
            fallbacks = {}
        elif job["size"] == 1:  # a one-element table has search depth 0
            fallbacks = {"shallow_table": 1}
        elif straddles:
            fallbacks = {"line_straddle": 1}
        else:
            fallbacks = {}
        assert stats["fallbacks_by_reason"] == fallbacks
        assert stats["replays"] == int(bool(tasks.inputs) and not fallbacks)


def _dictionary(store: str, size: int, seed: int):
    """A Main or Delta dictionary of ``size`` values, and its key maker.

    The key maker turns a raw draw into a lookup value; about half the
    values it makes are absent from the dictionary.
    """
    allocator = AddressSpaceAllocator()
    if store == "main-string":
        dictionary = MainDictionary.implicit_string(allocator, "d", size * 16)
    elif store == "main-strings":  # materialized, every third key
        values = [index_to_key(i * 3) for i in range(size)]
        dictionary = MainDictionary.from_string_values(allocator, "d", values)
    elif store == "main-implicit":
        dictionary = MainDictionary.implicit(allocator, "d", size * 4)
    elif store == "delta-implicit":
        dictionary = DeltaDictionary.implicit(allocator, "d", size * 4)
    elif store == "delta-narrow":  # 48-byte nodes: some child prefetches span lines
        dictionary = DeltaDictionary.implicit(allocator, "d", size * 4, node_size=48)
    else:  # materialized: distinct values with gaps, in scrambled order
        values = list(
            dict.fromkeys((seed * 7 + i * 13) % (4 * size + 1) for i in range(size))
        )
        store_cls = MainDictionary if store == "main-values" else DeltaDictionary
        dictionary = store_cls.from_values(allocator, "d", values)
    span = 2 * (4 * size + 1)
    if store.startswith("main-string"):
        return dictionary, lambda raw: index_to_key(raw % span)
    return dictionary, lambda raw: raw % span - 1


def _engine(arch, seed: int, state: str, warm_up) -> ExecutionEngine:
    """A cold engine, or one ``warm_up`` ran on — settled, or mid-flight."""
    engine = ExecutionEngine(arch, seed=seed)
    if state != "cold":
        with _generators_only():
            warm_up(engine)
        if state == "warm":
            engine.settle()
    return engine


def _engine_state(engine) -> tuple:
    return engine.clock, engine.metrics.snapshot(), engine._rng.getstate()


locate_jobs = st.fixed_dictionaries(
    {
        "technique": st.sampled_from(("sequential", "CORO")),
        "store": st.sampled_from(
            (
                "main-implicit", "main-string", "main-strings", "main-values",
                "delta-implicit", "delta-narrow", "delta-values",
            )
        ),
        "arch": st.sampled_from(ARCHES),
        "lfbs": st.integers(1, 12),
        "size": st.one_of(st.integers(1, 3), st.integers(1, 3_000)),
        "group_size": st.integers(1, 16),
        "state": st.sampled_from(("cold", "warm", "mid-flight")),
        "seed": st.integers(0, 2**32 - 1),
        "raw": st.lists(st.integers(0, 1 << 30), max_size=48),
    }
)


#: Keys of a 2**28-value implicit Delta: absent below, under full nodes,
#: under the right spine down to depth 1, 2, 3 and 4 (the last leaf),
#: and absent above.
_KEYS_1G = (
    -1, 0, 12_345, 265_679_999, 268_379_999, 268_433_999,
    268_435_439, 268_435_440, 268_435_455, 268_435_456, 1 << 31,
)
#: Keys of a 1,801-value implicit Delta (``width_at`` ``[1, 2, 61]``).
_KEYS_1801 = (-1, 0, 900, 1_799, 1_800, 1_801, 5_000)


def _delta_example(technique: str, size: int, keys: tuple, state: str) -> dict:
    """A ``locate_jobs`` draw over an implicit Delta, ``keys`` twice over."""
    return {
        "technique": technique, "store": "delta-implicit", "arch": HASWELL,
        "lfbs": 10, "size": size, "group_size": 4, "state": state,
        "seed": size % 97, "raw": [key + 1 for key in keys * 2],  # key_of(key + 1) == key
    }


class TestLocateReplayMatchesGenerators:
    """Dictionary locates and ``std`` searches replay bit-identically."""

    @staticmethod
    def _compare(executor, make_tasks, arch, group_size, seed, state):
        """Replay vs reference, both from one engine state; stats of replay."""
        warm = make_tasks(warm=True)
        tasks = make_tasks(warm=False)

        def warm_up(engine):
            executor.run(warm, engine, group_size=group_size)

        reference = _engine(arch, seed, state, warm_up)
        with _generators_only():
            expected = executor.run(tasks, reference, group_size=group_size)
        reset_compiled_stats()
        replayed = _engine(arch, seed, state, warm_up)
        got = executor.run(tasks, replayed, group_size=group_size)
        stats = compiled_stats()
        assert got == expected
        assert _engine_state(replayed) == _engine_state(reference)
        return tasks, expected, stats

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(job=locate_jobs)
    @example(
        job={
            "technique": "CORO", "store": "delta-implicit", "arch": HASWELL,
            "lfbs": 10, "size": 2_500, "group_size": 6, "state": "mid-flight",
            "seed": 0, "raw": list(range(0, 48 * 997, 997)),
        }
    )
    @example(
        job={
            "technique": "sequential", "store": "main-implicit", "arch": scaled(64),
            "lfbs": 2, "size": 3_000, "group_size": 1, "state": "warm",
            "seed": 7, "raw": list(range(0, 48 * 211, 211)),
        }
    )
    # A 1 GiB implicit Delta (five levels, 41 root separators, a right
    # spine of 25, 30 and 48 separators over a 16-entry last leaf) with
    # keys in every node-shape class, and a 1,801-value one whose second
    # depth-1 node has a single child (the ``SINGLE_CHILD_COST`` branch)
    # over a one-entry leaf; absent keys below and above both.
    @example(job=_delta_example("sequential", 1 << 28, _KEYS_1G, "warm"))
    @example(job=_delta_example("CORO", 1 << 28, _KEYS_1G, "mid-flight"))
    @example(job=_delta_example("sequential", 1_801, _KEYS_1801, "cold"))
    @example(job=_delta_example("CORO", 1_801, _KEYS_1801, "mid-flight"))
    def test_locate_equals_generator_reference(self, job):
        arch = job["arch"].replace(n_line_fill_buffers=job["lfbs"])
        dictionary, key_of = _dictionary(job["store"], job["size"], len(job["raw"]))

        def make_tasks(warm):
            raw = [value // 3 + 17 for value in job["raw"]] if warm else job["raw"]
            return BulkLookup.locate(dictionary, [key_of(value) for value in raw])

        tasks, expected, stats = self._compare(
            get_executor(job["technique"]), make_tasks, arch,
            job["group_size"], job["seed"], job["state"],
        )
        assert expected == [dictionary.locate(value) for value in tasks.inputs]
        assert stats["fallbacks"] == 0
        assert stats["replays"] == int(bool(tasks.inputs))

    @pytest.mark.parametrize("technique", ("sequential", "CORO"))
    @pytest.mark.parametrize("store", ("main-implicit", "delta-implicit"))
    def test_keys_beyond_int64(self, store, technique):
        """Keys numpy can not hold as int64 take the models' Python paths
        (Main's ``value_at`` walk, a Delta drain) instead of overflowing."""
        dictionary, _key_of = _dictionary(store, 1_000, 0)

        def make_tasks(warm):
            return BulkLookup.locate(dictionary, [5, 1 << 70, -(1 << 70), 999])

        tasks, expected, stats = self._compare(
            get_executor(technique), make_tasks, HASWELL, 3, 0, "cold"
        )
        assert expected == [dictionary.locate(value) for value in tasks.inputs]
        assert stats["replays"] == 1 and stats["fallbacks"] == 0

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        job=jobs,
        seed=st.integers(0, 2**32 - 1),
        state=st.sampled_from(("cold", "warm", "mid-flight")),
    )
    def test_std_equals_generator_reference(self, job, seed, state):
        arch = job["arch"].replace(n_line_fill_buffers=job["lfbs"])
        table = _table(job["kind"], job["size"], job["element_size"], len(job["raw"]))

        def make_tasks(warm):
            raw = [value // 5 + 3 for value in job["raw"]] if warm else job["raw"]
            return BulkLookup.sorted_array(table, _keys(job["kind"], job["size"], raw))

        tasks, _expected, stats = self._compare(
            get_executor("std"), make_tasks, arch, job["group_size"], seed, state
        )
        straddles = job["kind"] != "string" and job["element_size"] in (12, 24)
        compiles = job["size"] > 1 and not straddles
        assert stats["replays"] == int(bool(tasks.inputs) and compiles)


def _small_tasks(size: int = 1_000) -> BulkLookup:
    table = int_array_of_bytes(AddressSpaceAllocator(), "t", size * 4)
    return BulkLookup.sorted_array(table, [0, 7, size // 2, size - 1, size + 5])


class _CountingEngine(ExecutionEngine):
    """A subclass: replay would bypass its overrides."""


class TestFallbackReasons:
    def _assert_fallback(self, make_executor, tasks, reason, **kwargs):
        """``make_executor()`` builds the executor afresh for each run."""
        expected = _reference(make_executor(), tasks, HASWELL, 3, **kwargs)
        reset_compiled_stats()
        executor = make_executor()
        got = _run(executor, tasks, HASWELL, 3, **kwargs)
        stats = compiled_stats()
        assert got == expected
        assert stats["replays"] == 0
        assert stats["fallbacks_by_reason"] == {reason: 1}
        assert stats["fallbacks_by_executor"] == {executor.name: 1}

    @pytest.mark.parametrize("name", REPLAYING)
    def test_depth_zero_table(self, name):
        tasks = _small_tasks(size=1)
        self._assert_fallback(lambda: get_executor(name), tasks, "shallow_table")

    @pytest.mark.parametrize("name", REPLAYING)
    def test_line_straddling_elements(self, name):
        table = int_array_of_bytes(AddressSpaceAllocator(), "t", 12_000, 12)
        tasks = BulkLookup.sorted_array(table, [0, 7, 500, 999, 1_005])
        self._assert_fallback(lambda: get_executor(name), tasks, "line_straddle")

    @pytest.mark.parametrize("name", REPLAYING)
    def test_tracer_on_engine(self, name):
        self._assert_fallback(
            lambda: get_executor(name), _small_tasks(), "tracer",
            recorder=SpanRecorder(),
        )

    @pytest.mark.parametrize("name", REPLAYING)
    def test_engine_subclass(self, name):
        self._assert_fallback(
            lambda: get_executor(name), _small_tasks(), "engine_subclass",
            engine_cls=_CountingEngine,
        )

    @pytest.mark.parametrize(
        "options",
        [
            lambda: {"recycle_frames": False},
            lambda: {"switch_kind": "amac"},
            lambda: {"frame_pool": FramePool()},
        ],
        ids=["no-recycling", "switch-kind", "frame-pool"],
    )
    def test_non_default_coro_instance(self, options):
        self._assert_fallback(
            lambda: CoroExecutor(**options()), _small_tasks(), "executor_options"
        )

    def test_default_coro_instance_replays(self):
        reset_compiled_stats()
        _run(CoroExecutor(), _small_tasks(), HASWELL, 3)
        assert compiled_stats()["replays"] == 1

    @pytest.mark.parametrize("store", ("materialized", "implicit"))
    def test_delta_straddle_charges_its_staging_time(self, store):
        """A Delta job whose tree model or drain finds a straddling load
        falls back, and the staging time it took is still charged."""
        values = [(i * 37) % 1_000 for i in range(300)]
        if store == "materialized":  # drained: the 12-byte entries straddle
            delta = DeltaDictionary.from_values(
                AddressSpaceAllocator(), "d", values, element_size=12
            )
        else:  # tree model: the 12-byte separators straddle too
            delta = DeltaDictionary.implicit(
                AddressSpaceAllocator(), "d", 12_000, element_size=12
            )
        tasks = BulkLookup.locate(delta, values[:40])
        self._assert_fallback(lambda: get_executor("sequential"), tasks, "line_straddle")
        assert compiled_stats()["schedule_compile_s"] > 0

    @pytest.mark.parametrize("name", ("CORO", "sequential"))
    def test_stream_workload(self, name):
        table = int_array_of_bytes(AddressSpaceAllocator(), "t", 4_000)
        from repro.indexes.binary_search import binary_search_coro

        tasks = BulkLookup.stream(
            lambda value, il: binary_search_coro(table, value, il), [1, 50, 999]
        )
        self._assert_fallback(lambda: get_executor(name), tasks, "workload_kind")

    def test_stream_reading_its_events_stays_on_generators(self):
        """An opaque stream may branch on an event's outcome, so it can not
        be drained: Section 6's conditional suspension suspends only when
        its prefetch answers "not cached". The ablation's default
        ``CoroExecutor`` must keep running it live, exactly as
        ``run_interleaved`` does."""
        from repro.indexes.binary_search import binary_search_coro_conditional

        table = int_array_of_bytes(AddressSpaceAllocator(), "t", 64 << 10)

        def factory(value, interleave):
            return binary_search_coro_conditional(table, value, interleave)

        # Repeated values find their probe lines cached the second time.
        values = [7, 9_000, 7, 123, 9_000, 16_000, 123, 7]
        expected_engine = ExecutionEngine(HASWELL)
        expected = run_interleaved(expected_engine, factory, values, 3)
        reset_compiled_stats()
        engine = ExecutionEngine(HASWELL)
        got = CoroExecutor().run(BulkLookup.stream(factory, values), engine, group_size=3)
        stats = compiled_stats()
        assert got == expected
        assert engine.clock == expected_engine.clock
        assert engine.metrics.snapshot() == expected_engine.metrics.snapshot()
        assert engine.memory.stats.prefetch_useless  # some answers were "cached"
        assert stats["replays"] == 0
        assert stats["fallbacks_by_reason"] == {"workload_kind": 1}


class TestStagingValidation:
    """The first replay of a (technique, model, group size) checks the
    staged ops against the executor's recorded generator trace, and any
    difference is a hard error, never a silently wrong replay."""

    @pytest.fixture(autouse=True)
    def _unvalidated(self, monkeypatch):
        from repro.interleaving import compiled

        monkeypatch.setattr(compiled, "_VALIDATED", set())
        return compiled

    def _run(self, name, tasks):
        get_executor(name).run(tasks, ExecutionEngine(HASWELL), group_size=3)

    def _main(self):
        dictionary = MainDictionary.implicit(AddressSpaceAllocator(), "d", 4_000)
        return BulkLookup.locate(dictionary, [0, 7, 500, 999, 1_005])

    def test_faithful_schedules_pass(self, _unvalidated):
        delta = DeltaDictionary.implicit(AddressSpaceAllocator(), "d", 16_000)
        for name, tasks in (
            ("sequential", self._main()),
            ("CORO", self._main()),
            ("std", _small_tasks()),
            ("CORO", BulkLookup.locate(delta, [0, 5, 3_999, 4_001])),
        ):
            self._run(name, tasks)
        # One signature per class: 0 and 5 sit under full nodes, 3_999 and
        # the absent 4_001 on the tree's ragged right spine.
        assert len(_unvalidated._VALIDATED) == 5

    def test_wrong_compute_charge_raises(self, _unvalidated, monkeypatch):
        monkeypatch.setattr(_unvalidated, "EXACT_MATCH_COST", (3, 2))
        with pytest.raises(SimulationError, match="does not reproduce"):
            self._run("CORO", self._main())

    def test_wrong_prediction_raises(self, _unvalidated, monkeypatch):
        """Swapped successors: same addresses, wrong ``spec_next``."""
        probes = _unvalidated._SearchModel._identity_probes

        def swapped(model, halves, successors):
            addresses, results = probes(model, halves, successors)
            block = addresses.reshape(len(model.values), model.stride).copy()
            block[:, 1::3], block[:, 2::3] = block[:, 2::3].copy(), block[:, 1::3].copy()
            return block.ravel(), results

        monkeypatch.setattr(_unvalidated._SearchModel, "_identity_probes", swapped)
        with pytest.raises(SimulationError, match="does not reproduce"):
            self._run("sequential", self._main())

    @pytest.mark.parametrize("name", ("sequential", "CORO"))
    def test_wrong_ragged_template_raises(self, _unvalidated, monkeypatch, name):
        """The job's first keys (the whole calibration slice) sit under full
        nodes; validation still stages the ragged class's template against
        the generators through a representative key of it."""
        delta = DeltaDictionary.implicit(AddressSpaceAllocator(), "d", 16_000)
        template = _unvalidated._tree_template

        def ragged_wrong(shape, *args):
            segments = template(shape, *args)
            if shape[-1] < delta.tree.leaf_entries:  # the 10-entry last leaf
                segments[-1].append(("C", 1, 1))
            return segments

        monkeypatch.setattr(_unvalidated, "_tree_template", ragged_wrong)
        tasks = BulkLookup.locate(delta, [*range(0, 3_000, 100), 3_999])
        with pytest.raises(SimulationError, match="does not reproduce"):
            self._run(name, tasks)

    def test_wrong_interleave_rule_raises(self, _unvalidated, monkeypatch):
        delta = DeltaDictionary.implicit(AddressSpaceAllocator(), "d", 16_000)
        monkeypatch.setitem(_unvalidated._RULES, "coro", _unvalidated._rule_sequential)
        with pytest.raises(SimulationError, match="does not reproduce"):
            self._run("CORO", BulkLookup.locate(delta, [0, 5, 3_999, 4_001]))


class TestAddressModels:
    @pytest.mark.parametrize(
        "store, model",
        (
            ("main-implicit", "_SearchModel"),
            ("main-strings", "_SearchModel"),
            ("delta-implicit", "_TreeModel"),
            ("delta-narrow", "_TreeModel"),
            ("delta-values", "_DrainedModel"),
        ),
    )
    def test_store_picks_its_model(self, store, model):
        """Implicit Delta locates are staged in closed form; only
        materialized trees are drained."""
        from repro.interleaving import compiled

        dictionary, key_of = _dictionary(store, 2_000, 8)
        tasks = BulkLookup.locate(dictionary, [key_of(raw) for raw in range(0, 800, 50)])
        chosen = compiled._address_model("coro", tasks, HASWELL.line_size)
        assert chosen.reason is None
        assert type(chosen).__name__ == model


class TestScheduleMemo:
    def test_memo_evicts_least_recently_used_beyond_its_row_budget(self, monkeypatch):
        from repro.interleaving import compiled

        monkeypatch.setattr(compiled, "_SCHEDULE_MEMO", type(compiled._SCHEDULE_MEMO)())
        tasks = _small_tasks()
        coro = get_executor("CORO")
        reset_compiled_stats()
        _run(coro, tasks, HASWELL, 2)
        # CORO's row count depends on inputs and depth, not group size.
        rows = next(iter(compiled._SCHEDULE_MEMO.values()))[0].shape[1]
        monkeypatch.setattr(compiled, "_MEMO_ROW_BUDGET", 2 * rows)
        for group_size in (3, 2, 4):  # 2 again: now the most recently used
            _run(coro, tasks, HASWELL, group_size)
        assert [key[3] for key in compiled._SCHEDULE_MEMO] == [2, 4]
        stats = compiled_stats()
        assert stats["compiled_schedules"] == 3 and stats["schedule_cache_hits"] == 1
        # An evicted schedule restages and still replays bit-identically.
        assert _run(coro, tasks, HASWELL, 3) == _reference(coro, tasks, HASWELL, 3)

    def test_schedule_beyond_the_budget_is_recalled_by_the_next_replay(
        self, monkeypatch
    ):
        """A sweep point's warm-up pass stages the schedule its measured
        pass recalls, however large: the newest schedule always stays."""
        from repro.interleaving import compiled

        monkeypatch.setattr(compiled, "_SCHEDULE_MEMO", type(compiled._SCHEDULE_MEMO)())
        tasks = _small_tasks()
        gp = get_executor("GP")
        reset_compiled_stats()
        warm = _run(gp, tasks, HASWELL, 4)
        rows = compiled_stats()["memo_rows"]
        monkeypatch.setattr(compiled, "_MEMO_ROW_BUDGET", rows // 2)
        _run(gp, tasks, HASWELL, 5)  # restages over the budget, evicting G=4
        measured = _run(gp, tasks, HASWELL, 5)
        stats = compiled_stats()
        assert stats["compiled_schedules"] == 2 and stats["schedule_cache_hits"] == 1
        assert stats["memo_schedules"] == 1 and stats["memo_rows"] > rows // 2
        assert [key[3] for key in compiled._SCHEDULE_MEMO] == [5]
        assert warm == _reference(gp, tasks, HASWELL, 4)
        assert measured == _reference(gp, tasks, HASWELL, 5)

    def test_memo_holds_at_most_its_budget_and_its_newest_schedule(self, monkeypatch):
        from repro.interleaving import compiled

        monkeypatch.setattr(compiled, "_SCHEDULE_MEMO", type(compiled._SCHEDULE_MEMO)())
        memo = compiled._SCHEDULE_MEMO
        reset_compiled_stats()
        _run(get_executor("CORO"), _small_tasks(1 << 12), HASWELL, 2)
        budget = 3 * compiled_stats()["memo_rows"] // 2
        monkeypatch.setattr(compiled, "_MEMO_ROW_BUDGET", budget)
        shapes = [  # deeper tables stage longer schedules
            ("GP", 1 << 16, 4), ("Baseline", 12, 1), ("AMAC", 1 << 10, 3),
            ("CORO", 1 << 18, 6), ("CORO", 1 << 18, 6), ("std", 1 << 14, 1),
            ("GP", 40, 2), ("sequential", 1 << 20, 1), ("AMAC", 1 << 10, 3),
        ]
        for technique, size, group_size in shapes:
            _run(get_executor(technique), _small_tasks(size), HASWELL, group_size)
            stats = compiled_stats()
            held = [rows.shape[1] for rows, _totals in memo.values()]
            assert stats["memo_schedules"] == len(held)
            assert stats["memo_rows"] == sum(held)
            assert sum(held) <= budget or len(held) == 1
            assert sum(held) - held[-1] <= budget
        assert compiled_stats()["schedule_cache_hits"] == 1

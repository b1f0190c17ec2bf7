"""Unit tests for the ``repro.query`` operator layer."""

import numpy as np
import pytest

from repro.config import HASWELL
from repro.errors import QueryError
from repro.indexes.base import INVALID_CODE
from repro.query import (
    Aggregate,
    DictionaryInner,
    Filter,
    IndexJoin,
    InPredicateEncode,
    QueryPlan,
    Scan,
    SortedArrayInner,
)
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import ExecutionEngine
from repro.workloads.generators import lookup_values, make_table

TABLE_BYTES = 1 << 16


@pytest.fixture()
def table():
    return make_table(AddressSpaceAllocator(), "q/inner", TABLE_BYTES)


@pytest.fixture()
def engine():
    return ExecutionEngine(HASWELL)


def join_plan(table, keys, executor="CORO", **kwargs):
    return QueryPlan(
        IndexJoin(
            Scan.values(keys, label="keys"),
            SortedArrayInner(table),
            executor=executor,
            label="join",
            **kwargs,
        )
    )


class TestScan:
    def test_values_stream_in_batches_at_zero_cost(self, engine):
        plan = QueryPlan(Scan.values([1, 2, 3, 4, 5], batch_size=2))
        result = plan.execute(engine)
        assert result.value == [1, 2, 3, 4, 5]
        profile = result.profile("scan_values")
        assert profile.batches == 3
        assert profile.rows == 5
        assert profile.cycles == 0
        assert engine.clock == 0

    def test_needs_exactly_one_source(self):
        with pytest.raises(QueryError):
            Scan()
        with pytest.raises(QueryError):
            Scan(source=[1], column=object())

    def test_rejects_bad_batch_size(self):
        with pytest.raises(QueryError):
            Scan.values([1], batch_size=0)


class TestFilter:
    def test_drop_misses_drops_invalid_and_none(self, engine):
        child = Scan.values([3, INVALID_CODE, None, 7], label="raw")
        plan = QueryPlan(Filter.drop_misses(child))
        result = plan.execute(engine)
        assert result.value == [3, 7]
        profile = result.profile("filter_found")
        assert profile.attrs["rows_in"] == 4
        assert profile.rows == 2
        assert profile.cycles == 0

    def test_empty_result_batches_are_swallowed(self, engine):
        child = Scan.values([INVALID_CODE, INVALID_CODE], batch_size=1)
        plan = QueryPlan(Filter.drop_misses(child))
        result = plan.execute(engine)
        assert result.value == []
        assert result.profile("filter_found").batches == 0


class TestAggregate:
    def test_count(self, engine):
        plan = QueryPlan(Aggregate(Scan.values([5, 6, 7]), "count"))
        result = plan.execute(engine)
        assert result.value == 3
        assert result.extras["aggregate_count"] == 3

    def test_collect_concatenates_numpy_batches(self, engine):
        class NumpyScan(Scan):
            def run(self, ctx):
                for batch in (np.array([1, 2]), np.array([3])):
                    ctx.emit(self, batch)
                    yield batch

        plan = QueryPlan(Aggregate(NumpyScan(source=[], label="np"), "collect"))
        result = plan.execute(engine)
        assert isinstance(result.value, np.ndarray)
        assert result.value.tolist() == [1, 2, 3]

    def test_cost_model_charges_the_engine(self, engine):
        plan = QueryPlan(
            Aggregate(Scan.values([1, 2]), "count", cost_model=lambda n: 1000)
        )
        result = plan.execute(engine)
        assert result.profile("aggregate_count").cycles > 0
        assert engine.clock >= 1000

    def test_unknown_reduction_rejected(self):
        with pytest.raises(QueryError):
            Aggregate(Scan.values([1]), "median")


class TestIndexJoin:
    def test_probes_through_the_index_path(self, table, engine):
        keys = lookup_values(32, table, seed=1)
        result = join_plan(table, keys).execute(engine)
        profile = result.profile("join")
        assert profile.executor == "CORO"
        assert profile.attrs["batches_via_index"] == 1
        assert "batches_via_fallback" not in profile.attrs
        assert profile.cycles > 0
        # Every key is a table value: all of them match.
        assert len(result.value) == len(keys)
        positions = dict(result.value)
        for key, position in positions.items():
            assert table.value_at(position) == key

    def test_misses_dropped_by_default_kept_on_request(self, table, engine):
        miss = table.value_at(0) - 1
        keys = [table.value_at(0), miss]
        dropped = join_plan(table, keys).execute(ExecutionEngine(HASWELL))
        assert [key for key, _ in dropped.value] == [table.value_at(0)]
        kept = join_plan(table, keys, keep_misses=True).execute(engine)
        assert [value for _, value in kept.value] == [0, INVALID_CODE]

    def test_output_matches_sequential_reference(self, table):
        keys = lookup_values(48, table, seed=2)
        reference = join_plan(table, keys, executor="sequential").execute(
            ExecutionEngine(HASWELL)
        )
        for executor in ("std", "Baseline", "GP", "AMAC", "CORO"):
            result = join_plan(table, keys, executor=executor).execute(
                ExecutionEngine(HASWELL)
            )
            assert result.value == reference.value, executor

    def test_buffer_capacity_must_be_positive(self, table):
        with pytest.raises(QueryError):
            join_plan(table, [1], task_buffer=0)
        with pytest.raises(QueryError):
            join_plan(table, [1], match_buffer=0)

    def test_unconfigured_executor_raises_at_run(self, table, engine):
        plan = join_plan(table, [table.value_at(0)], executor=None)
        with pytest.raises(QueryError, match="no executor"):
            plan.execute(engine)

    def test_empty_outer_completes_and_settles(self, table, engine):
        result = join_plan(table, []).execute(engine)
        assert result.value == []
        assert result.profile("join").batches == 0

    def test_group_alias_spelling_rejected(self, table):
        with pytest.raises(TypeError, match="'G'"):
            join_plan(table, lookup_values(8, table, seed=3), G=2)


class TestDictionaryFallback:
    def test_executor_without_rewrite_falls_back_to_sequential(self, engine):
        from repro.columnstore import EncodedColumn

        column = EncodedColumn.from_values(
            AddressSpaceAllocator(), "c", np.arange(512)
        )
        values = [3, 9, 27]
        join = IndexJoin(
            Scan.values(values, label="keys"),
            DictionaryInner(column),
            executor="std",  # no dictionary rewrite registered for std
            keep_misses=True,
            project=lambda key, code: code,
            label="join",
        )
        result = QueryPlan(join).execute(engine)
        profile = result.profile("join")
        assert profile.attrs["batches_via_fallback"] == 1
        assert profile.executor == "sequential"
        assert result.value == [column.dictionary.locate(v) for v in values]


class TestPlanPlumbing:
    def test_describe_renders_the_tree(self, table):
        plan = join_plan(table, [1])
        text = plan.describe()
        assert "index_join[join]" in text
        assert "└── scan[keys]" in text

    def test_duplicate_labels_disambiguate(self, engine):
        left = Scan.values([1], label="scan_values")
        right = Scan.values([2], label="scan_values")

        class Both(Scan):
            def children(self):
                return (left, right)

            def run(self, ctx):
                for child in (left, right):
                    for batch in child.run(ctx):
                        ctx.emit(self, batch)
                        yield batch

        result = QueryPlan(Both(source=[], label="both")).execute(engine)
        labels = [p.label for p in result.profiles]
        assert "scan_values" in labels and "scan_values#2" in labels

    def test_unknown_profile_label_raises(self, table, engine):
        result = join_plan(table, [table.value_at(0)]).execute(engine)
        with pytest.raises(QueryError):
            result.profile("nope")


class TestInPredicateEncode:
    def test_emits_one_code_per_value_in_order(self, engine):
        from repro.columnstore import EncodedColumn

        column = EncodedColumn.from_values(
            AddressSpaceAllocator(), "c", np.arange(256)
        )
        missing = -5
        values = [10, missing, 200]
        encode = InPredicateEncode(column, values, strategy="sequential")
        result = QueryPlan(encode).execute(engine)
        expected = [column.dictionary.locate(10), INVALID_CODE,
                    column.dictionary.locate(200)]
        assert result.value == expected
        profile = result.profile("in_predicate_encode")
        assert profile.attrs["strategy"] == "sequential"
        assert profile.attrs["group_size"] >= 1

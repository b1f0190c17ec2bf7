"""Pull-based query operators (Volcano with batches).

Each operator is a node in a query plan tree. Execution is demand
driven: the consumer pulls *batches* of rows from ``run(ctx)``, a
generator, so a plan streams end to end without materializing
intermediate relations — except where an operator is explicitly
blocking (an :class:`Aggregate` sink, or the build side of a semi-join
:class:`Scan`).

The star of the layer is :class:`IndexJoin`, the paper's S |><| D join
as a streaming operator. It stages work the way graphANNIS's
``IndexJoin`` does — a producer fetch loop fills a bounded *task
buffer* of outer-key batches; a probe stage drains tasks through the
executor registry (interleaved lookups inside each batch) into a
bounded *match buffer* the consumer pulls from — and falls back the way
Hyrise's ``JoinIndex`` does: batches whose executor has no rewrite for
the inner index take a sequential probe path, counted separately from
the index path.

Every simulated cycle an operator spends is charged inside a
:meth:`PlanContext.charge` window, which both accumulates the
per-operator profile and emits an ``"operator"`` span (tagged with the
executor that served it) through ``repro.obs`` when tracing is on.

This module is internal to ``repro.query``: import operators from the
package root, which re-exports the public surface (an AST lint under
``tests/`` enforces this for the rest of the codebase).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import QueryError
from repro.indexes.base import INVALID_CODE
from repro.indexes.binary_search import DEFAULT_COSTS, SearchCosts
from repro.interleaving.executor import BulkLookup, get_executor
from repro.sim.engine import ExecutionEngine
from repro.sim.tmam import TmamStats

__all__ = [
    "PlanContext",
    "Operator",
    "Scan",
    "Filter",
    "IndexJoin",
    "InPredicateEncode",
    "Aggregate",
    "InnerIndex",
    "SortedArrayInner",
    "DictionaryInner",
]

#: Default bound of the producer-side task buffer (outer-key batches
#: fetched ahead of the probe stage) and the consumer-side match buffer.
DEFAULT_BUFFER = 8


def _merge_tmam(into: TmamStats, delta: TmamStats) -> None:
    """Accumulate one charge window's TMAM delta into a running total."""
    into.cycles += delta.cycles
    into.instructions += delta.instructions
    for category, slots in delta.slots.items():
        into.slots[category] += slots
    into.memory_stall_cycles += delta.memory_stall_cycles
    into.translation_stall_cycles += delta.translation_stall_cycles
    into.lfb_stall_cycles += delta.lfb_stall_cycles
    into.mispredicts += delta.mispredicts
    into.branches += delta.branches


class _OperatorStats:
    """Mutable per-operator accumulator (frozen into OperatorProfile)."""

    __slots__ = ("operator", "label", "cycles", "tmam", "batches", "rows", "attrs")

    def __init__(self, operator: "Operator", label: str, issue_width: int) -> None:
        self.operator = operator
        self.label = label
        self.cycles = 0
        self.tmam = TmamStats(issue_width=issue_width)
        self.batches = 0
        self.rows = 0
        self.attrs: dict = {}

    def count(self, key: str, amount: int = 1) -> None:
        self.attrs[key] = self.attrs.get(key, 0) + amount


class PlanContext:
    """Execution state threaded through one plan run.

    Owns the engine, the per-operator profiles, and the ``extras``
    side-channel sinks publish results through (keyed by operator
    label).
    """

    def __init__(self, engine: ExecutionEngine, recorder=None) -> None:
        if recorder is not None:
            engine.attach_tracer(recorder)
        self.engine = engine
        self.extras: dict[str, object] = {}
        self._stats: dict[int, _OperatorStats] = {}
        self._order: list[_OperatorStats] = []
        self._labels: set[str] = set()

    # ------------------------------------------------------------------
    # Profile accounting
    # ------------------------------------------------------------------

    def stats_for(self, operator: "Operator") -> _OperatorStats:
        stats = self._stats.get(id(operator))
        if stats is None:
            label = operator.label
            serial = 2
            while label in self._labels:  # disambiguate duplicate labels
                label = f"{operator.label}#{serial}"
                serial += 1
            self._labels.add(label)
            stats = _OperatorStats(
                operator, label, self.engine.tmam.issue_width
            )
            self._stats[id(operator)] = stats
            self._order.append(stats)
        return stats

    def profiles(self) -> list[_OperatorStats]:
        return list(self._order)

    @contextmanager
    def charge(self, operator: "Operator", **attrs):
        """Attribute the engine work done inside the block to ``operator``.

        Emits an ``"operator"`` span per window when tracing is on;
        ``attrs`` ride on the span and are merged into the profile.
        """
        engine = self.engine
        stats = self.stats_for(operator)
        begin = engine.clock
        before = engine.tmam.snapshot()
        yield stats
        end = engine.clock
        stats.cycles += end - begin
        _merge_tmam(stats.tmam, engine.tmam.delta(before))
        tracer = engine.tracer
        if tracer.enabled:
            tracer.span(
                "operator",
                begin,
                end,
                name=stats.label,
                attrs={"operator": operator.kind, **attrs},
            )

    def emit(self, operator: "Operator", batch, n_rows: int | None = None) -> None:
        """Book one output batch against the operator's profile."""
        stats = self.stats_for(operator)
        stats.batches += 1
        stats.rows += len(batch) if n_rows is None else n_rows
        if operator.tee:
            sink = self.extras.setdefault(stats.label, [])
            sink.extend(batch)


class Operator:
    """Base class: a plan node that yields batches of rows on demand."""

    kind = "operator"

    def __init__(self, *, label: str | None = None, tee: bool = False) -> None:
        self.label = label or self.kind
        #: When set, every emitted row is also appended to
        #: ``ctx.extras[label]`` — a side-channel tap for callers that
        #: need an intermediate relation (the legacy shim reads the
        #: pre-filter code list this way).
        self.tee = tee

    def children(self) -> tuple["Operator", ...]:
        return ()

    def run(self, ctx: PlanContext) -> Iterator[list]:
        raise NotImplementedError  # pragma: no cover


# ----------------------------------------------------------------------
# Scan
# ----------------------------------------------------------------------


class Scan(Operator):
    """Leaf scans: literal outer relations and column code vectors.

    Build with the classmethods:

    * :meth:`Scan.values` streams a plain sequence (the outer side an
      :class:`IndexJoin` probes with) at no simulated cost — the rows
      already live on the plan side.
    * :meth:`Scan.column_codes` streams a column's code vector through
      the simulated streaming-scan cost model, emitting the row indices
      whose code is in a build-side code set (the semi-join scan of
      Figures 1/8). The build side — an operator or a literal iterable
      — is drained first; an empty (or all-``INVALID_CODE``) set
      short-circuits to zero batches and zero cycles.
    """

    kind = "scan"

    def __init__(
        self,
        *,
        source: Sequence | None = None,
        column=None,
        build=None,
        batch_size: int | None = None,
        label: str | None = None,
        tee: bool = False,
    ) -> None:
        super().__init__(label=label, tee=tee)
        if (source is None) == (column is None):
            raise QueryError("Scan needs exactly one of source= or column=")
        if batch_size is not None and batch_size <= 0:
            raise QueryError("scan batch size must be positive")
        self.source = source
        self.column = column
        self.build = build
        self.batch_size = batch_size

    @classmethod
    def values(
        cls,
        source: Sequence,
        *,
        batch_size: int | None = None,
        label: str = "scan_values",
    ) -> "Scan":
        return cls(source=source, batch_size=batch_size, label=label)

    @classmethod
    def column_codes(
        cls,
        column,
        build,
        *,
        batch_size: int | None = None,
        label: str = "scan",
        tee: bool = False,
    ) -> "Scan":
        return cls(
            column=column, build=build, batch_size=batch_size, label=label, tee=tee
        )

    def children(self) -> tuple[Operator, ...]:
        if isinstance(self.build, Operator):
            return (self.build,)
        return ()

    def run(self, ctx: PlanContext) -> Iterator[list]:
        if self.column is None:
            yield from self._run_values(ctx)
        else:
            yield from self._run_column(ctx)

    def _run_values(self, ctx: PlanContext) -> Iterator[list]:
        ctx.stats_for(self)
        rows = list(self.source)
        step = self.batch_size or max(1, len(rows))
        for start in range(0, len(rows), step):
            batch = rows[start : start + step]
            ctx.emit(self, batch)
            yield batch

    def _run_column(self, ctx: PlanContext) -> Iterator[list]:
        from repro.columnstore.scan import scan_batch_stream

        ctx.stats_for(self)
        if isinstance(self.build, Operator):
            code_set: list = []
            for batch in self.build.run(ctx):
                code_set.extend(batch)
        else:
            code_set = list(self.build)
        live = {int(c) for c in code_set if int(c) != INVALID_CODE}
        if not live:
            # Satisfiable-by-nothing predicate: fold the scan away
            # (zero batches, zero cycles) instead of streaming the
            # whole column to select no rows.
            return
        n_rows = self.column.n_rows
        step = self.batch_size or max(1, n_rows)
        engine = ctx.engine
        for start in range(0, n_rows, step):
            stop = min(start + step, n_rows)
            with ctx.charge(self, rows_scanned=stop - start):
                matches = engine.run(
                    scan_batch_stream(self.column, live, start, stop)
                )
            ctx.emit(self, matches)
            yield matches


# ----------------------------------------------------------------------
# Filter
# ----------------------------------------------------------------------


class Filter(Operator):
    """Per-row predicate over the child's batches.

    The predicate runs on the plan side (host Python over already
    materialized rows), so it charges no simulated cycles; rows in and
    rows out are still profiled, and empty result batches are dropped.
    """

    kind = "filter"

    def __init__(
        self,
        child: Operator,
        predicate: Callable[[object], bool],
        *,
        label: str | None = None,
        tee: bool = False,
    ) -> None:
        super().__init__(label=label, tee=tee)
        self.child = child
        self.predicate = predicate

    @classmethod
    def drop_misses(cls, child: Operator, *, label: str = "filter_found") -> "Filter":
        """Keep only join hits (drops ``INVALID_CODE`` / ``None`` rows)."""
        return cls(
            child,
            lambda row: row is not None and row != INVALID_CODE,
            label=label,
        )

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def run(self, ctx: PlanContext) -> Iterator[list]:
        stats = ctx.stats_for(self)
        predicate = self.predicate
        for batch in self.child.run(ctx):
            stats.count("rows_in", len(batch))
            kept = [row for row in batch if predicate(row)]
            if kept:
                ctx.emit(self, kept)
                yield kept


# ----------------------------------------------------------------------
# IndexJoin and its inner-index adapters
# ----------------------------------------------------------------------


class InnerIndex:
    """Adapter protocol for the inner (indexed) side of an IndexJoin.

    ``job(keys, executor_name)`` returns the index-path bulk workload —
    a ``(BulkLookup, postprocess)`` pair where ``postprocess`` maps the
    executor's raw results to one join value per key — or ``None`` when
    that executor has no rewrite for this index (Hyrise's
    "chunk scanned without index" case). ``fallback_job(keys)`` is the
    sequential probe path every inner side must offer.
    """

    description = "?"

    def job(self, keys: Sequence, executor_name: str):
        raise NotImplementedError  # pragma: no cover

    def fallback_job(self, keys: Sequence):
        raise NotImplementedError  # pragma: no cover

    def is_match(self, value) -> bool:
        return value is not None and value != INVALID_CODE


class SortedArrayInner(InnerIndex):
    """Binary-searchable sorted array (the paper's Main dictionary shape).

    All registered sorted-array executors return lower-bound positions,
    so the postprocess maps misses to ``INVALID_CODE`` by membership
    check (pure Python — no simulated cycles).
    """

    description = "sorted_array"

    def __init__(self, table, costs: SearchCosts = DEFAULT_COSTS) -> None:
        self.table = table
        self.costs = costs

    def _membership(self, keys: Sequence):
        table = self.table

        def post(lows: Sequence[int]) -> list[int]:
            return [
                low if table.value_at(low) == key else INVALID_CODE
                for low, key in zip(lows, keys)
            ]

        return post

    def job(self, keys: Sequence, executor_name: str):
        job = BulkLookup.sorted_array(self.table, keys, self.costs)
        return job, self._membership(keys)

    def fallback_job(self, keys: Sequence):
        return self.job(keys, "sequential")


class DictionaryInner(InnerIndex):
    """A column's dictionary (Main or Delta) as the join's inner side.

    Routes through :meth:`EncodedColumn.locate_job`, so the per-executor
    workload choice (coroutine stream vs. sorted-array rewrite) and the
    GP/AMAC-on-Delta refusal are exactly the bulk path's: executors the
    store has no rewrite for fall back to the sequential probe path.
    """

    description = "dictionary"

    #: Executor registry keys -> encode strategies (the inverse of the
    #: column layer's strategy table, plus the identity spellings).
    _EXECUTOR_STRATEGIES = {
        "sequential": "sequential",
        "coro": "interleaved",
        "gp": "gp",
        "amac": "amac",
    }

    def __init__(self, column, costs: SearchCosts = DEFAULT_COSTS) -> None:
        self.column = column
        self.costs = costs

    def job(self, keys: Sequence, executor_name: str):
        from repro.errors import ColumnStoreError

        strategy = self._EXECUTOR_STRATEGIES.get(executor_name.lower())
        if strategy is None:
            return None  # no dictionary rewrite for this executor
        try:
            _, job, post = self.column.locate_job(keys, strategy, self.costs)
        except ColumnStoreError:
            return None  # e.g. GP/AMAC against the Delta tree
        return job, post

    def fallback_job(self, keys: Sequence):
        _, job, post = self.column.locate_job(keys, "sequential", self.costs)
        return job, post


class IndexJoin(Operator):
    """Streaming index join: outer-key batches probe an inner index.

    The operator runs three loosely coupled stages inside one pull
    loop:

    1. **Fetch** — pull batches from the outer child into a bounded
       task buffer (at most ``task_buffer`` batches in flight).
    2. **Probe** — drain one task at a time through the executor
       registry: the whole batch is handed to the configured executor,
       which interleaves the lookups within it (group size and all);
       results land in a bounded match buffer (at most ``match_buffer``
       batches). Executors with no rewrite for the inner index take the
       sequential fallback path instead; both paths are counted.
    3. **Emit** — yield match batches downstream in arrival order.

    With both buffers at size 1 the loop degenerates to fetch-one /
    probe-one / emit-one and still terminates — there is no state in
    which all three stages wait on each other.

    ``project(key, value)`` shapes the output rows (default:
    ``(key, value)`` pairs); ``keep_misses=True`` emits misses too
    (as ``INVALID_CODE``-valued rows), which the IN-predicate encode
    needs to stay positionally aligned with its input.
    """

    kind = "index_join"

    def __init__(
        self,
        outer: Operator,
        inner: InnerIndex,
        *,
        executor: str | None = None,
        group_size: int | None = None,
        task_buffer: int = DEFAULT_BUFFER,
        match_buffer: int = DEFAULT_BUFFER,
        keep_misses: bool = False,
        project: Callable[[object, object], object] | None = None,
        settle: bool = True,
        label: str | None = None,
        tee: bool = False,
    ) -> None:
        super().__init__(label=label, tee=tee)
        if task_buffer < 1 or match_buffer < 1:
            raise QueryError("task/match buffers need capacity >= 1")
        self.outer = outer
        self.inner = inner
        self.executor_name = executor
        self.group_size = group_size
        self.task_buffer = task_buffer
        self.match_buffer = match_buffer
        self.keep_misses = keep_misses
        self.project = project or (lambda key, value: (key, value))
        self.settle = settle

    def children(self) -> tuple[Operator, ...]:
        return (self.outer,)

    # Subclasses (InPredicateEncode) resolve their execution lazily.
    def _execution(self, ctx: PlanContext) -> tuple[str, int | None]:
        if self.executor_name is None:
            raise QueryError(f"index join {self.label!r} has no executor configured")
        return self.executor_name, self.group_size

    def run(self, ctx: PlanContext) -> Iterator[list]:
        stats = ctx.stats_for(self)
        executor_name, group_size = self._execution(ctx)
        executor = get_executor(executor_name)
        group_size = group_size or executor.default_group_size
        stats.attrs["group_size"] = group_size
        source = self.outer.run(ctx)
        tasks: deque = deque()
        matches: deque = deque()
        exhausted = False
        settled = not self.settle
        while True:
            while not exhausted and len(tasks) < self.task_buffer:
                try:
                    batch = next(source)
                except StopIteration:
                    exhausted = True
                    break
                if len(batch):
                    tasks.append(list(batch))
            while tasks and len(matches) < self.match_buffer:
                keys = tasks.popleft()
                final = exhausted and not tasks
                matches.append(
                    self._probe(
                        ctx, keys, executor, group_size, settle=final and not settled
                    )
                )
                if final:
                    settled = True
            if matches:
                batch = matches.popleft()
                ctx.emit(self, batch)
                yield batch
            elif exhausted and not tasks:
                break
        if not settled:
            # Nothing was probed (empty outer); still quiesce the engine
            # so downstream operators start from a settled clock.
            with ctx.charge(self, path="settle"):
                ctx.engine.settle()

    def _probe(
        self,
        ctx: PlanContext,
        keys: list,
        executor,
        group_size: int,
        *,
        settle: bool,
    ) -> list:
        inner = self.inner
        engine = ctx.engine
        indexed = inner.job(keys, executor.name)
        if indexed is not None and executor.supports(indexed[0].kind):
            job, post = indexed
            path, run_executor, run_group = "index", executor, group_size
        else:
            job, post = inner.fallback_job(keys)
            fallback = get_executor("sequential")
            if not fallback.supports(job.kind):  # pragma: no cover
                raise QueryError(
                    f"inner index {inner.description!r} has no sequential fallback"
                )
            path, run_executor, run_group = "fallback", fallback, 1
        with ctx.charge(
            self, executor=run_executor.name, path=path, n_keys=len(keys)
        ) as stats:
            raw = run_executor.run(job, engine, group_size=run_group)
            if settle:
                # The last probe quiesces outstanding fills inside the
                # same charge window, so a single-batch join costs one
                # contiguous window — bit-identical to the bulk path.
                engine.settle()
        stats.count(f"batches_via_{path}")
        stats.attrs.setdefault("executor", run_executor.name)
        values = post(raw)
        project = self.project
        if self.keep_misses:
            return [project(key, value) for key, value in zip(keys, values)]
        is_match = inner.is_match
        return [
            project(key, value)
            for key, value in zip(keys, values)
            if is_match(value)
        ]


class InPredicateEncode(IndexJoin):
    """Encode an IN-list against a column's dictionary — the index join.

    A specialized :class:`IndexJoin`: the outer side is the literal
    predicate list, the inner side the column's dictionary, and the
    output one code per input value (``INVALID_CODE`` for absent
    literals, order preserved). Strategy and group size resolve at run
    time exactly like :meth:`EncodedColumn.encode_values` — explicit
    ``strategy`` wins, else the supplied ``policy``, else the
    calibration-driven :meth:`EncodedColumn.locate_policy`.
    """

    kind = "in_predicate_encode"

    def __init__(
        self,
        column,
        values: Sequence[int],
        *,
        strategy: str | None = None,
        group_size: int | None = None,
        policy=None,
        costs: SearchCosts = DEFAULT_COSTS,
        probe_batch: int | None = None,
        task_buffer: int = DEFAULT_BUFFER,
        match_buffer: int = DEFAULT_BUFFER,
        label: str = "in_predicate_encode",
        tee: bool = False,
    ) -> None:
        self.column = column
        self.values = list(values)
        self.strategy = strategy
        self.policy = policy
        super().__init__(
            Scan.values(self.values, batch_size=probe_batch, label=f"{label}/values"),
            DictionaryInner(column, costs),
            group_size=group_size,
            task_buffer=task_buffer,
            match_buffer=match_buffer,
            keep_misses=True,
            project=lambda key, code: code,
            label=label,
            tee=tee,
        )

    def _execution(self, ctx: PlanContext) -> tuple[str, int | None]:
        from repro.columnstore.column import _STRATEGY_EXECUTORS

        strategy, group_size = self.column.resolve_locate_execution(
            ctx.engine,
            len(self.values),
            strategy=self.strategy,
            group_size=self.group_size,
            policy=self.policy,
        )
        stats = ctx.stats_for(self)
        stats.attrs["strategy"] = strategy
        return _STRATEGY_EXECUTORS[strategy], group_size


# ----------------------------------------------------------------------
# Aggregate
# ----------------------------------------------------------------------


class Aggregate(Operator):
    """Blocking sink: drain the child and reduce its rows.

    ``kind_of`` selects the reduction — ``"count"`` (number of rows) or
    ``"collect"`` (all rows, concatenated; numpy batches stay numpy).
    ``cost_model(n_rows)``, when given, is charged as plan preparation
    plus result materialization after the drain — the engine work a
    query spends outside its operators. The reduced value is yielded as
    a single one-row batch and published to ``ctx.extras[label]``.
    """

    kind = "aggregate"

    def __init__(
        self,
        child: Operator,
        kind_of: str = "count",
        *,
        cost_model: Callable[[int], int] | None = None,
        label: str | None = None,
    ) -> None:
        super().__init__(label=label or f"aggregate_{kind_of}")
        if kind_of not in ("count", "collect"):
            raise QueryError(f"unknown aggregate {kind_of!r}; use count or collect")
        self.child = child
        self.kind_of = kind_of
        self.cost_model = cost_model

    def children(self) -> tuple[Operator, ...]:
        return (self.child,)

    def run(self, ctx: PlanContext) -> Iterator[list]:
        stats = ctx.stats_for(self)
        batches: list = []
        n_rows = 0
        for batch in self.child.run(ctx):
            n_rows += len(batch)
            if self.kind_of == "collect":
                batches.append(batch)
        if self.kind_of == "count":
            value: object = n_rows
        elif not batches:
            value = np.empty(0, dtype=np.int64)
        elif all(isinstance(batch, np.ndarray) for batch in batches):
            value = np.concatenate(batches)
        else:
            value = [row for batch in batches for row in batch]
        if self.cost_model is not None:
            overhead = int(self.cost_model(n_rows))
            with ctx.charge(self, overhead=overhead):
                ctx.engine.compute(overhead, overhead)
        stats.count("rows_in", n_rows)
        ctx.extras[stats.label] = value
        ctx.emit(self, [value], n_rows=n_rows)
        yield [value]

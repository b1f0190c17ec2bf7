"""Query plans: operator trees, execution, and profiled results.

A :class:`QueryPlan` wraps an operator tree (see
:mod:`repro.query.operators`) and executes it on one engine, returning
a :class:`PlanResult`: the root's value plus one frozen
:class:`OperatorProfile` per operator — cycles, TMAM delta, batch/row
counts, and the executor that served it — in first-touch (leaf-to-root
pull) order.

:func:`in_predicate_plan` builds the repo's flagship plan, the paper's
Figure 1/8 query as a real operator pipeline::

    Aggregate(collect, plan+materialization cost)
      └── Scan(column codes, semi-join against the encoded set)
            └── Filter(drop INVALID_CODE)
                  └── InPredicateEncode(column, literals)   # the index join
                        └── Scan(IN-list literals)

With all batch sizes and buffers at their defaults (one batch, buffers
of one) it charges *exactly* the cycles the legacy two-phase
``run_in_predicate`` routine did — pinned bit-identical by golden
tests — while non-default batching streams the same rows in the same
order through bounded buffers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from repro.errors import QueryError
from repro.indexes.binary_search import DEFAULT_COSTS, SearchCosts
from repro.sim.engine import ExecutionEngine
from repro.sim.tmam import TmamStats

from repro.query.operators import (
    Aggregate,
    Filter,
    InPredicateEncode,
    Operator,
    PlanContext,
    Scan,
)

__all__ = [
    "OperatorProfile",
    "PlanResult",
    "QueryPlan",
    "in_predicate_plan",
]


@dataclass(frozen=True)
class OperatorProfile:
    """Execution accounting for one operator of one plan run."""

    label: str
    operator: str
    cycles: int
    tmam: TmamStats
    batches: int
    rows: int
    executor: str | None = None
    attrs: Mapping = field(default_factory=dict)

    @property
    def cpi(self) -> float:
        return self.tmam.cpi

    def as_dict(self) -> dict:
        """JSON-ready summary (bench documents, ``--json`` outputs)."""
        record = {
            "op": self.label,
            "kind": self.operator,
            "cycles": self.cycles,
            "batches": self.batches,
            "rows": self.rows,
        }
        if self.executor is not None:
            record["executor"] = self.executor
        for key, value in self.attrs.items():
            if key != "executor" and isinstance(value, (int, str)):
                record[key] = value
        return record


@dataclass(frozen=True)
class PlanResult:
    """One plan execution: root value, per-operator profiles, extras."""

    value: object
    profiles: tuple[OperatorProfile, ...]
    extras: Mapping

    @property
    def total_cycles(self) -> int:
        return sum(profile.cycles for profile in self.profiles)

    def profile(self, label: str) -> OperatorProfile:
        for candidate in self.profiles:
            if candidate.label == label:
                return candidate
        raise QueryError(f"plan has no operator labelled {label!r}")


class QueryPlan:
    """An operator tree plus the machinery to run and describe it."""

    def __init__(self, root: Operator) -> None:
        self.root = root

    def operators(self) -> Iterator[Operator]:
        """Post-order walk (children before parents: execution order)."""

        def walk(node: Operator) -> Iterator[Operator]:
            for child in node.children():
                yield from walk(child)
            yield node

        return walk(self.root)

    def describe(self) -> str:
        """ASCII tree of the plan, root first."""

        def render(node: Operator, depth: int) -> list[str]:
            prefix = "  " * depth + ("└── " if depth else "")
            lines = [f"{prefix}{node.kind}[{node.label}]"]
            for child in node.children():
                lines.extend(render(child, depth + 1))
            return lines

        return "\n".join(render(self.root, 0))

    def execute(
        self, engine: ExecutionEngine, *, recorder=None
    ) -> PlanResult:
        """Pull the root to exhaustion on ``engine``; profile every operator."""
        ctx = PlanContext(engine, recorder)
        for operator in self.operators():
            ctx.stats_for(operator)  # register in execution order
        batches = [batch for batch in self.root.run(ctx)]
        if isinstance(self.root, Aggregate):
            value: object = ctx.extras[ctx.stats_for(self.root).label]
        else:
            value = [row for batch in batches for row in batch]
        profiles = tuple(
            OperatorProfile(
                label=stats.label,
                operator=stats.operator.kind,
                cycles=stats.cycles,
                tmam=stats.tmam,
                batches=stats.batches,
                rows=stats.rows,
                executor=stats.attrs.get("executor"),
                attrs=MappingProxyType(dict(stats.attrs)),
            )
            for stats in ctx.profiles()
        )
        return PlanResult(
            value=value,
            profiles=profiles,
            extras=MappingProxyType(dict(ctx.extras)),
        )


def in_predicate_plan(
    column,
    predicate_values: Sequence[int],
    *,
    strategy: str | None = None,
    group_size: int | None = None,
    policy=None,
    costs: SearchCosts = DEFAULT_COSTS,
    scan_batch: int | None = None,
    probe_batch: int | None = None,
    task_buffer: int | None = None,
    match_buffer: int | None = None,
    overhead_model=None,
) -> QueryPlan:
    """Build the Figure 1/8 IN-predicate query as an operator plan.

    Defaults (no batching, buffers of one) make execution charge-for-
    charge identical to the historic two-phase routine; pass
    ``scan_batch`` / ``probe_batch`` / buffer capacities to stream.
    ``overhead_model(n_match_rows) -> cycles`` prices the work outside
    the operators (plan preparation, literal handling, result
    materialization); the default is the legacy cost model from
    :mod:`repro.columnstore.query`.
    """
    predicate_values = list(predicate_values)
    if overhead_model is None:
        from repro.columnstore.query import (
            QUERY_CYCLES_PER_PREDICATE,
            QUERY_FIXED_OVERHEAD_CYCLES,
            RESULT_CYCLES_PER_MATCH,
        )

        n_predicates = len(predicate_values)

        def overhead_model(n_rows: int) -> int:
            return (
                QUERY_FIXED_OVERHEAD_CYCLES
                + QUERY_CYCLES_PER_PREDICATE * n_predicates
                + RESULT_CYCLES_PER_MATCH * n_rows
            )

    encode = InPredicateEncode(
        column,
        predicate_values,
        strategy=strategy,
        group_size=group_size,
        policy=policy,
        costs=costs,
        probe_batch=probe_batch,
        task_buffer=task_buffer or 1,
        match_buffer=match_buffer or 1,
        tee=True,
    )
    scan = Scan.column_codes(
        column,
        Filter.drop_misses(encode),
        batch_size=scan_batch,
    )
    root = Aggregate(scan, "collect", cost_model=overhead_model, label="aggregate")
    return QueryPlan(root)

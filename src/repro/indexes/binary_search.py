"""Binary-search instruction streams: ``std``, ``Baseline``, and ``CORO``.

These are the sequential implementations of the paper's Section 5.1 plus
the coroutine of Listing 5, written as generators over the simulator's
event vocabulary. All variants implement the *same search*: the uniform
binary search of Listing 2/3 (``v <= value`` steers right), returning the
index of the last element not greater than the probe value, or 0.

* :func:`binary_search_std` — models ``std::lower_bound``: a conditional
  branch per iteration, which the simulated core predicts and
  speculatively executes (issuing the predicted next load early). Wrong
  half the time on random data — the paper's Bad Speculation column.
* :func:`binary_search_baseline` — ``Baseline``: branch-free conditional
  move; no speculation, fully serialized dependent loads.
* :func:`binary_search_coro` — ``CORO-U``: Baseline plus a prefetch and a
  suspension point guarded by ``interleave``; one code path serves both
  sequential and interleaved execution.
* :func:`binary_search_coro_sequential` / :func:`binary_search_coro_interleaved`
  — ``CORO-S``: the manually split variants the paper needed while
  compiler support was immature (Section 4, "performance considerations").

The exact-match wrapper :func:`locate_stream` adds the final equality
check a dictionary ``locate`` needs, returning ``INVALID_CODE`` on absence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CostModel
from repro.errors import IndexStructureError
from repro.indexes.base import INVALID_CODE, SearchableTable
from repro.sim.engine import InstructionStream
from repro.sim.events import SUSPEND, Compute, Load, Prefetch

__all__ = [
    "SearchCosts",
    "DEFAULT_COSTS",
    "EXACT_MATCH_COST",
    "binary_search_std",
    "binary_search_baseline",
    "binary_search_coro",
    "binary_search_coro_sequential",
    "binary_search_coro_interleaved",
    "locate_stream",
    "reference_search",
    "SEQUENTIAL_VARIANTS",
]

_COST = CostModel()

#: ``(cycles, instructions)`` of :func:`locate_stream`'s final equality
#: check.
EXACT_MATCH_COST = (2, 2)


@dataclass(frozen=True)
class SearchCosts:
    """Cycle/instruction cost of one search-loop iteration."""

    iter_cycles: int = _COST.search_iter_cycles
    iter_instructions: int = _COST.search_iter_instructions

    def for_table(self, table: SearchableTable) -> "SearchCosts":
        """Add the table's per-comparison surcharge (string keys)."""
        extra_cycles, extra_instructions = table.compare_extra
        if not extra_cycles and not extra_instructions:
            return self
        return SearchCosts(
            self.iter_cycles + extra_cycles,
            self.iter_instructions + extra_instructions,
        )


DEFAULT_COSTS = SearchCosts()


def _require_nonempty(table: SearchableTable) -> None:
    if table.size <= 0:
        raise IndexStructureError("cannot search an empty table")


def reference_search(values, value) -> int:
    """Pure-Python oracle: index of the last element <= value, else 0."""
    low = 0
    for index in range(len(values)):
        if values[index] <= value:
            low = index
        else:
            break
    return low


def binary_search_std(
    table: SearchableTable, value, costs: SearchCosts = DEFAULT_COSTS
) -> InstructionStream:
    """Speculative binary search (``std``): branches, never suspends."""
    _require_nonempty(table)
    costs = costs.for_table(table)
    size = table.size
    low = 0
    while size // 2 > 0:
        half = size // 2
        probe = low + half
        # Successor probe addresses for both branch outcomes, handed to the
        # engine so it can speculate past the unresolved comparison.
        next_size = size - half
        next_half = next_size // 2
        spec = None
        if next_half > 0:
            taken = probe + next_half  # v <= value: low becomes probe
            not_taken = low + next_half
            spec = (table.address_of(taken), table.address_of(not_taken))
        yield Load(table.address_of(probe), table.element_size, spec_next=spec)
        yield Compute(costs.iter_cycles, costs.iter_instructions)
        if table.value_at(probe) <= value:
            low = probe
        size = next_size
    return low


def binary_search_baseline(
    table: SearchableTable, value, costs: SearchCosts = DEFAULT_COSTS
) -> InstructionStream:
    """Branch-free binary search (``Baseline``, Listing 2 with a cmov)."""
    _require_nonempty(table)
    costs = costs.for_table(table)
    size = table.size
    low = 0
    while size // 2 > 0:
        half = size // 2
        probe = low + half
        yield Load(table.address_of(probe), table.element_size)
        yield Compute(costs.iter_cycles, costs.iter_instructions)
        if table.value_at(probe) <= value:  # compiled as a conditional move
            low = probe
        size -= half
    return low


def binary_search_coro(
    table: SearchableTable,
    value,
    interleave: bool,
    costs: SearchCosts = DEFAULT_COSTS,
) -> InstructionStream:
    """Listing 5: the unified coroutine (``CORO-U``).

    The body is ``Baseline`` plus a prefetch and a suspension statement
    guarded by ``interleave`` — the guard models the compile-time template
    parameter of the paper's C++ implementation.
    """
    _require_nonempty(table)
    costs = costs.for_table(table)
    size = table.size
    low = 0
    while size // 2 > 0:
        half = size // 2
        probe = low + half
        if interleave:
            yield Prefetch(table.address_of(probe), table.element_size)
            yield SUSPEND
        yield Load(table.address_of(probe), table.element_size)
        yield Compute(costs.iter_cycles, costs.iter_instructions)
        if table.value_at(probe) <= value:
            low = probe
        size -= half
    return low


def binary_search_coro_sequential(
    table: SearchableTable, value, costs: SearchCosts = DEFAULT_COSTS
) -> InstructionStream:
    """``CORO-S``, sequential half: no prefetch, no suspension, no frame."""
    return binary_search_baseline(table, value, costs)


def binary_search_coro_interleaved(
    table: SearchableTable, value, costs: SearchCosts = DEFAULT_COSTS
) -> InstructionStream:
    """``CORO-S``, interleaved half: always prefetches and suspends."""
    _require_nonempty(table)
    costs = costs.for_table(table)
    size = table.size
    low = 0
    while size // 2 > 0:
        half = size // 2
        probe = low + half
        yield Prefetch(table.address_of(probe), table.element_size)
        yield SUSPEND
        yield Load(table.address_of(probe), table.element_size)
        yield Compute(costs.iter_cycles, costs.iter_instructions)
        if table.value_at(probe) <= value:
            low = probe
        size -= half
    return low


def binary_search_coro_conditional(
    table: SearchableTable,
    value,
    interleave: bool = True,
    costs: SearchCosts = DEFAULT_COSTS,
) -> InstructionStream:
    """Section 6 "hardware support" ablation: suspend only on a miss.

    The paper wishes for "an instruction [that] tells if a memory address
    is cached; with such an instruction, we could avoid suspension when
    the data is cached". The engine's prefetch outcome plays that
    instruction: when the probe line is already cached the coroutine
    skips the suspension (and the scheduler's switch cost with it).
    """
    _require_nonempty(table)
    costs = costs.for_table(table)
    size = table.size
    low = 0
    while size // 2 > 0:
        half = size // 2
        probe = low + half
        if interleave:
            cached = yield Prefetch(table.address_of(probe), table.element_size)
            if not cached:
                yield SUSPEND
        yield Load(table.address_of(probe), table.element_size)
        yield Compute(costs.iter_cycles, costs.iter_instructions)
        if table.value_at(probe) <= value:
            low = probe
        size -= half
    return low


def locate_stream(
    table: SearchableTable,
    value,
    interleave: bool = False,
    costs: SearchCosts = DEFAULT_COSTS,
    *,
    speculative: bool = False,
) -> InstructionStream:
    """Exact-match lookup: binary search plus a final equality check.

    Returns the element's index, or :data:`INVALID_CODE` when absent.
    ``speculative=True`` uses the branchy ``std``-style search — what SAP
    HANA's sequential Main ``locate`` runs (Section 2.2 attributes Main's
    Bad-Speculation slots to exactly this); it cannot be combined with
    interleaving. The verification load usually hits the line the search
    just touched.
    """
    if speculative and interleave:
        raise IndexStructureError("speculative locate cannot interleave")
    if speculative:
        low = yield from binary_search_std(table, value, costs)
    else:
        low = yield from binary_search_coro(table, value, interleave, costs)
    yield Load(table.address_of(low), table.element_size)
    yield Compute(*EXACT_MATCH_COST)
    if table.value_at(low) == value:
        return low
    return INVALID_CODE


#: The sequential implementations of Section 5.1, name -> stream factory.
SEQUENTIAL_VARIANTS = {
    "std": binary_search_std,
    "Baseline": binary_search_baseline,
}

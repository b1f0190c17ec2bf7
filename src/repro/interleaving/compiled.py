"""Trace compilation: staged interleave schedules, replayed flat.

For a fixed (technique, group size, index shape) the suspend/resume
sequence of every scheduler in this package is *deterministic*: which
stream runs next, and whether its visit issues a prefetch, a load, or a
switch, depends only on the number of inputs, the search depth, and the
group size — never on the looked-up values. Cimple exploits exactly this
to stage interleave schedules statically, and CoroBase flattens coroutine
frames into compiler-visible state machines for the same reason. This
module does the Python-simulator equivalent:

1. **Record** — the schedule builder stages the scheduler's event stream
   once per (technique, group_size, depth, n) into a flattened *event
   schedule*: a table of ``(event_kind, address_index, cycle_cost)`` rows
   with consecutive straight-line computes pre-merged. The staging is
   verified against a real recorded trace: the first time a (technique,
   group size) pair compiles, the executor's generators run on a small
   calibration table under a recording engine, and the schedule must
   reproduce that event stream byte for byte (a mismatch is a hard
   :class:`~repro.errors.SimulationError`, never a silent wrong answer).
2. **Parameterize** — per-key divergence lives entirely in the probe
   *addresses*: every key follows the same size-halving recurrence, so
   one numpy pass computes the whole ``(n_keys, depth)`` probe matrix for
   the paper's identity arrays (a pure-Python pass covers arbitrary
   monotone ``value_fn`` tables), and schedule rows reference flat
   ``key * depth + iteration`` indexes into it.
3. **Replay** — the staged rows, the probe addresses and the schedule's
   static instruction/slot totals go to
   :meth:`ExecutionEngine.execute_rows
   <repro.sim.engine.ExecutionEngine.execute_rows>`, whose kernel in
   :mod:`repro.sim.replay` runs them against the live memory system. No
   generators, no event objects, no dispatch — and **bit-identical**
   cycle counts, search results, and counters.

This module owns only the interleaving side: which rows a technique
issues, in which order. The machine model lives in :mod:`repro.sim`,
and nothing here touches its private state.

There is no separate compiled executor: ``Baseline``, ``GP``, ``AMAC``,
``CORO`` and ``sequential`` declare a schedule key and route every run
through :func:`run_staged`, which replays when the job compiles — a
sorted-array job with search depth >= 1 whose elements never straddle a
cache line, on a plain :class:`~repro.sim.engine.ExecutionEngine` whose
tracer is off, run by a default executor instance — and otherwise runs
the executor's generators and counts the fallback by executor and by
reason (``workload_kind``, ``tracer``, ``engine_subclass``,
``shallow_table``, ``line_straddle``, ``executor_options``). The
counters are exported through ``repro.perf.metrics`` under
``interleaving.compiled``.

Staged schedules are memoized in-process as compact integer arrays,
least recently used first out once the memo holds more than
:data:`_MEMO_ROW_BUDGET` rows.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from repro.errors import SimulationError
from repro.indexes.binary_search import DEFAULT_COSTS
from repro.sim.engine import ExecutionEngine
from repro.sim.replay import OP_COMPUTE, OP_LOAD, OP_PREFETCH, _advance

__all__ = [
    "compiled_stats",
    "compiled_timings",
    "compiled_metrics_source",
    "register_compiled_metrics",
    "reset_compiled_stats",
    "run_staged",
    "search_depth",
]

# ----------------------------------------------------------------------
# Counters and timings (exported via repro.perf.metrics)
# ----------------------------------------------------------------------

_STATS = {
    "replays": 0,
    "compiled_schedules": 0,
    "schedule_cache_hits": 0,
    "validations": 0,
    "fallbacks": 0,
    "fallbacks_by_reason": {},
    "fallbacks_by_executor": {},
    "schedule_compile_s": 0.0,
    "replay_s": 0.0,
}


def compiled_stats() -> dict:
    """Plain-dict view of the compile/replay/fallback counters."""
    stats = dict(_STATS)
    stats["fallbacks_by_reason"] = dict(_STATS["fallbacks_by_reason"])
    stats["fallbacks_by_executor"] = dict(_STATS["fallbacks_by_executor"])
    return stats


def compiled_timings() -> dict:
    """Cumulative wallclock split: staging schedules vs replaying them."""
    return {
        "schedule_compile_s": _STATS["schedule_compile_s"],
        "replay_s": _STATS["replay_s"],
    }


def compiled_metrics_source() -> dict:
    """Metrics-source view of the counters (see ``register_compiled_metrics``).

    The headline counter is ``compiled_fallbacks`` — runs of a
    schedule-bearing executor that took its generators instead of
    replaying a staged schedule.
    """
    stats = compiled_stats()
    stats["compiled_fallbacks"] = stats.pop("fallbacks")
    return stats


def register_compiled_metrics(registry, prefix: str = "interleaving.compiled") -> None:
    """Mount the compile/replay/fallback counters on an obs registry.

    The counters are process-global (the schedule memo they describe
    is too), so the source is opt-in per
    :class:`~repro.obs.metrics.MetricsRegistry` rather than wired into
    every engine.
    """
    registry.register_source(prefix, compiled_metrics_source)


def reset_compiled_stats() -> None:
    """Zero every counter and timer (tests and benchmark harnesses)."""
    for key, value in list(_STATS.items()):
        if isinstance(value, dict):
            value.clear()
        elif isinstance(value, float):
            _STATS[key] = 0.0
        else:
            _STATS[key] = 0


def _count_fallback(executor_name: str, reason: str) -> None:
    _STATS["fallbacks"] += 1
    by_reason = _STATS["fallbacks_by_reason"]
    by_reason[reason] = by_reason.get(reason, 0) + 1
    by_executor = _STATS["fallbacks_by_executor"]
    by_executor[executor_name] = by_executor.get(executor_name, 0) + 1


# ----------------------------------------------------------------------
# Dispatch: replay when the job compiles, else the executor's generators
# ----------------------------------------------------------------------

_GENERATORS_ONLY = False


@contextmanager
def _generators_only():
    """Run every executor on its generators for the scope (reference runs).

    Process-local: sweep workers see it only when they fork inside the
    scope. Runs inside the scope count no fallbacks.
    """
    global _GENERATORS_ONLY
    previous = _GENERATORS_ONLY
    _GENERATORS_ONLY = True
    try:
        yield
    finally:
        _GENERATORS_ONLY = previous


def run_staged(executor, tasks, engine, group_size: int) -> list:
    """Run ``tasks`` through ``executor``'s staged schedule when it compiles.

    ``executor.schedule`` names the schedule builder and
    ``executor._fallback_reason(tasks, engine)`` says why a job can not
    replay (``None`` when it can). A job that can not runs the
    executor's generators (``executor._run``), counted as a fallback.
    """
    if _GENERATORS_ONLY or not tasks.inputs:
        return executor._run(tasks, engine, group_size)
    reason = executor._fallback_reason(tasks, engine)
    if reason is not None:
        _count_fallback(executor.name, reason)
        return executor._run(tasks, engine, group_size)
    table = tasks.target
    depth = search_depth(table.size)
    _validate_staging(executor, group_size, engine.arch)
    costs = tasks.costs.for_table(table)
    rows, totals = _schedule_rows(
        executor.schedule,
        len(tasks.inputs),
        depth,
        group_size,
        (costs.iter_cycles, costs.iter_instructions),
        engine.cost,
    )
    started = perf_counter()
    addresses, results = _probe_addresses(table, tasks.inputs, depth)
    engine.execute_rows(rows, addresses, totals)
    _STATS["replay_s"] += perf_counter() - started
    _STATS["replays"] += 1
    return results


# ----------------------------------------------------------------------
# Schedule staging: symbolic ops per technique
# ----------------------------------------------------------------------
#
# Symbolic micro-ops, exactly one per engine-visible event:
#   ("F",)          coroutine frame allocation
#   ("SW", kind)    one stream switch (kind: "coro" | "amac" | "gp")
#   ("IT",)         one search-iteration compute
#   ("L", k, it)    demand load of key k's it-th probe
#   ("P", k, it)    software prefetch of key k's it-th probe


def search_depth(size: int) -> int:
    """Iterations of the shared binary-search recurrence for ``size``."""
    depth = 0
    while size // 2 > 0:
        size -= size // 2
        depth += 1
    return depth


def _ops_sequential(n: int, depth: int, group_size: int) -> list:
    """Baseline / sequential: each key runs to completion, in order."""
    ops: list = []
    append = ops.append
    for key in range(n):
        for it in range(depth):
            append(("L", key, it))
            append(("IT",))
    return ops


def _ops_gp(n: int, depth: int, group_size: int) -> list:
    """Group prefetching: lock-step blocks, prefetch stage then load stage."""
    ops: list = []
    append = ops.append
    for start in range(0, n, group_size):
        end = min(start + group_size, n)
        for it in range(depth):
            for key in range(start, end):
                append(("P", key, it))
            for key in range(start, end):
                append(("L", key, it))
                append(("IT",))
                append(("SW", "gp"))
    return ops


def _ops_amac(n: int, depth: int, group_size: int) -> list:
    """AMAC: round-robin buffer of state machines, refill inside a visit."""
    ops: list = []
    append = ops.append
    group = min(group_size, n)
    # Slot state: [key, prefetches_issued, stage] (0 = prefetch, 1 = access).
    buffer: list = [[key, 0, 0] for key in range(group)]
    next_input = group
    not_done = group
    while not_done:
        for position in range(group):
            slot = buffer[position]
            if slot is None:
                continue
            append(("SW", "amac"))
            while True:
                if slot[2] == 1:  # access stage: consume the prefetched probe
                    append(("L", slot[0], slot[1] - 1))
                    append(("IT",))
                    slot[2] = 0
                    continue
                if slot[1] < depth:  # prefetch stage: issue and switch
                    append(("P", slot[0], slot[1]))
                    slot[1] += 1
                    slot[2] = 1
                    break
                if next_input < n:  # done: start the next key this visit
                    slot[0] = next_input
                    slot[1] = 0
                    slot[2] = 0
                    next_input += 1
                    continue
                buffer[position] = None
                not_done -= 1
                break
    return ops


def _ops_coro(n: int, depth: int, group_size: int) -> list:
    """CORO: Listing 7's round-robin with frame recycling on refill."""
    ops: list = []
    append = ops.append
    group = min(group_size, n)
    # Slot state: [key, resumes_completed]; None once retired.
    slots: list = []
    for key in range(group):
        append(("F",))  # only the first generation allocates frames
        slots.append([key, 0])
    next_input = group
    not_done = group
    while not_done:
        for position in range(group):
            slot = slots[position]
            if slot is None:
                continue
            key, resumes = slot
            if resumes <= depth:  # resumes 1 .. depth+1 do work
                append(("SW", "coro"))
                if resumes == 0:
                    append(("P", key, 0))
                elif resumes < depth:
                    append(("L", key, resumes - 1))
                    append(("IT",))
                    append(("P", key, resumes))
                else:
                    append(("L", key, depth - 1))
                    append(("IT",))
                slot[1] = resumes + 1
            elif next_input < n:  # recycled frame: no events this visit
                slots[position] = [next_input, 0]
                next_input += 1
            else:
                slots[position] = None
                not_done -= 1
    return ops


_OPS_BUILDERS = {
    "baseline": _ops_sequential,
    "sequential": _ops_sequential,
    "gp": _ops_gp,
    "amac": _ops_amac,
    "coro": _ops_coro,
}


# ----------------------------------------------------------------------
# Lowering: symbolic ops -> replay rows
# ----------------------------------------------------------------------
#
# Replay rows are the ``(opcode, address_index, advance)`` triples of
# :mod:`repro.sim.replay`: one ``OP_LOAD`` or ``OP_PREFETCH`` row per
# memory operation, with address_index = key * depth + iteration, and
# one trailing ``OP_COMPUTE`` row for the compute after the last one.
# ``advance`` is the straight-line compute block *preceding* the row's
# memory operation — switches, search iterations, and frame
# allocations merged into one pre-normalized clock advance. Merging is
# exact because the engine normalizes each compute's advance
# independently before the clock moves (integer arithmetic, order-free
# sum). The prefetch instruction's own issue compute is charged by the
# replay kernel itself, not folded into ``advance``. A staged schedule
# stores its rows column-wise in one ``(3, n_rows)`` int64 array.


def _lower_rows(ops: list, depth: int, iter_cost: tuple, cost_model) -> tuple:
    """Lower symbolic ops to a ``(3, n_rows)`` row array + static totals.

    Instruction retirement and issue-slot accounting are *static* per
    schedule — every compute charge is known at staging time, and the
    prefetch issue charge is fixed per ``P`` row — so they are summed
    here once into ``(instructions_total, core_slots_total)`` instead
    of being re-accumulated on every replay.
    """
    issue_width = cost_model.issue_width
    switch_costs = {
        "coro": cost_model.coro_switch,
        "amac": cost_model.amac_switch,
        "gp": cost_model.gp_switch,
    }
    frame_cost = (cost_model.frame_alloc_cycles, cost_model.frame_alloc_instructions)
    iter_cycles, iter_instructions = iter_cost
    iter_advance = _advance(iter_cycles, iter_instructions, issue_width)
    pf_instructions = cost_model.prefetch_issue_instructions
    pf_advance = _advance(
        cost_model.prefetch_issue_cycles, pf_instructions, issue_width
    )
    opcodes: list = []
    indexes: list = []
    advances: list = []
    pending_advance = 0
    instructions_total = 0
    advance_total = 0
    for op in ops:
        tag = op[0]
        if tag == "L" or tag == "P":
            opcodes.append(OP_LOAD if tag == "L" else OP_PREFETCH)
            indexes.append(op[1] * depth + op[2])
            advances.append(pending_advance)
            pending_advance = 0
            if tag == "P":
                instructions_total += pf_instructions
                advance_total += pf_advance
        elif tag == "IT":
            pending_advance += iter_advance
            instructions_total += iter_instructions
            advance_total += iter_advance
        else:  # "SW" or "F"
            cycles, instructions = (
                switch_costs[op[1]] if tag == "SW" else frame_cost
            )
            step = _advance(cycles, instructions, issue_width)
            pending_advance += step
            instructions_total += instructions
            advance_total += step
    if pending_advance:
        opcodes.append(OP_COMPUTE)
        indexes.append(0)
        advances.append(pending_advance)
    core_slots_total = issue_width * advance_total - instructions_total
    rows = np.array([opcodes, indexes, advances], dtype=np.int64)
    return rows, (instructions_total, core_slots_total)


#: In-process schedule memo: signature tuple -> (rows, totals), least
#: recently used first.
_SCHEDULE_MEMO: OrderedDict = OrderedDict()

#: Rows the memo keeps before it evicts its least recently used
#: schedules (24 bytes a row; the newest schedule always stays).
_MEMO_ROW_BUDGET = 1 << 21


def _schedule_rows(
    technique: str, n: int, depth: int, group_size: int, iter_cost: tuple, cost_model
) -> tuple:
    """Stage (or recall) the flattened event schedule for one shape.

    Returns ``(rows, totals)``: the ``(3, n_rows)`` row array and the
    static ``(instructions, core_slots)`` accounting of the schedule.
    """
    signature = (
        technique,
        n,
        depth,
        group_size,
        tuple(iter_cost),
        tuple(cost_model.coro_switch),
        tuple(cost_model.amac_switch),
        tuple(cost_model.gp_switch),
        (cost_model.frame_alloc_cycles, cost_model.frame_alloc_instructions),
        (cost_model.prefetch_issue_cycles, cost_model.prefetch_issue_instructions),
        cost_model.issue_width,
    )
    memo = _SCHEDULE_MEMO
    staged = memo.get(signature)
    if staged is not None:
        memo.move_to_end(signature)
        _STATS["schedule_cache_hits"] += 1
        return staged
    started = perf_counter()
    ops = _OPS_BUILDERS[technique](n, depth, group_size)
    staged = _lower_rows(ops, depth, iter_cost, cost_model)
    memo[signature] = staged
    held = sum(rows.shape[1] for rows, _totals in memo.values())
    while held > _MEMO_ROW_BUDGET and len(memo) > 1:
        _signature, (rows, _totals) = memo.popitem(last=False)
        held -= rows.shape[1]
    _STATS["compiled_schedules"] += 1
    _STATS["schedule_compile_s"] += perf_counter() - started
    return staged


# ----------------------------------------------------------------------
# Probe parameterization: one pass computes every key's address stream
# ----------------------------------------------------------------------


def _probe_addresses(table, values, depth: int) -> tuple[list, list]:
    """Flat probe-address list (key-major) and per-key search results.

    Mirrors the shared recurrence every search variant runs: ``half``
    follows the table size alone, ``low`` advances per key when
    ``value_at(probe) <= value``. Identity arrays (the paper's
    microbenchmark fill) vectorize through numpy; any other table walks
    the same recurrence in Python via ``value_at``.
    """
    base = table.region.base
    element_size = table.element_size
    n = len(values)
    if getattr(table, "is_identity", False) and all(
        isinstance(value, (int, np.integer)) for value in values
    ):
        lookups = np.asarray(values, dtype=np.int64)
        low = np.zeros(n, dtype=np.int64)
        probes = np.empty((depth, n), dtype=np.int64)
        size = table.size
        for it in range(depth):
            half = size // 2
            probe = low + half
            probes[it] = probe
            low = np.where(probe <= lookups, probe, low)
            size -= half
        addresses = (probes.T * element_size + base).ravel().tolist()
        return addresses, low.tolist()
    value_at = table.value_at
    halves = []
    size = table.size
    while size // 2 > 0:
        half = size // 2
        halves.append(half)
        size -= half
    addresses = []
    results = []
    append = addresses.append
    for value in values:
        low = 0
        for half in halves:
            probe = low + half
            append(base + probe * element_size)
            if value_at(probe) <= value:
                low = probe
        results.append(low)
    return addresses, results


# ----------------------------------------------------------------------
# Trace recording: the staging is checked against the live executor
# ----------------------------------------------------------------------


class _RecordingEngine(ExecutionEngine):
    """Engine that logs every event it executes (calibration runs only)."""

    def __init__(self, arch) -> None:
        super().__init__(arch)
        self.trace: list = []

    def compute(self, cycles, instructions):
        self.trace.append(("C", cycles, instructions))
        super().compute(cycles, instructions)

    def execute_load(self, event, ctx=None):
        self.trace.append(("L", event.addr, event.size))
        super().execute_load(event, ctx)

    def execute_prefetch(self, event):
        self.trace.append(("P", event.addr, event.size))
        return super().execute_prefetch(event)

    def execute_frame_alloc(self):
        self.trace.append(("F",))
        super().execute_frame_alloc()


#: Validation signatures already checked this process.
_VALIDATED: set = set()

#: Calibration table: 1 KB of 4-byte identity elements -> depth 8.
_CALIBRATION_BYTES = 1024


def _expand_expected(ops, addresses, depth, iter_cost, element_size, cost):
    """What a :class:`_RecordingEngine` must log for a staged schedule."""
    expected: list = []
    append = expected.append
    switch_costs = {
        "coro": cost.coro_switch,
        "amac": cost.amac_switch,
        "gp": cost.gp_switch,
    }
    for op in ops:
        tag = op[0]
        if tag == "L":
            append(("L", addresses[op[1] * depth + op[2]], element_size))
        elif tag == "P":
            append(("P", addresses[op[1] * depth + op[2]], element_size))
            append(("C", cost.prefetch_issue_cycles, cost.prefetch_issue_instructions))
        elif tag == "IT":
            append(("C", iter_cost[0], iter_cost[1]))
        elif tag == "SW":
            cycles, instructions = switch_costs[op[1]]
            append(("C", cycles, instructions))
        else:  # "F"
            append(("F",))
            append(("C", cost.frame_alloc_cycles, cost.frame_alloc_instructions))
    return expected


def _validate_staging(executor, group_size: int, arch) -> None:
    """Record the executor's generators once; the staged schedule must match.

    Runs ``executor``'s generators on a small calibration table under a
    :class:`_RecordingEngine` and compares their event stream —
    addresses, sizes, and compute charges included — against the staged
    ops expanded with the calibration probe addresses. Covers the
    schedule structure end to end: prologue allocations, refill timing,
    partial final generations, and the per-visit event mix.
    """
    technique = executor.schedule
    cost = arch.cost
    signature = (
        technique,
        group_size,
        cost.issue_width,
        tuple(cost.coro_switch),
        tuple(cost.amac_switch),
        tuple(cost.gp_switch),
        (cost.frame_alloc_cycles, cost.frame_alloc_instructions),
        (cost.prefetch_issue_cycles, cost.prefetch_issue_instructions),
    )
    if signature in _VALIDATED:
        return
    from repro.indexes.sorted_array import int_array_of_bytes
    from repro.interleaving.executor import BulkLookup
    from repro.sim.allocator import AddressSpaceAllocator

    table = int_array_of_bytes(
        AddressSpaceAllocator(), "compile-calibration", _CALIBRATION_BYTES
    )
    depth = search_depth(table.size)
    n = 2 * group_size + max(2, group_size // 2)  # 2 generations + a partial
    values = [(index * 97 + 13) % table.size for index in range(n)]
    recorder = _RecordingEngine(arch)
    recorded_results = executor._run(
        BulkLookup.sorted_array(table, values), recorder, group_size
    )
    iter_cost = (DEFAULT_COSTS.iter_cycles, DEFAULT_COSTS.iter_instructions)
    ops = _OPS_BUILDERS[technique](n, depth, group_size)
    addresses, staged_results = _probe_addresses(table, values, depth)
    expected = _expand_expected(
        ops, addresses, depth, iter_cost, table.element_size, cost
    )
    if expected != recorder.trace or list(recorded_results) != staged_results:
        raise SimulationError(
            f"staged {technique!r} schedule (group_size={group_size}) does "
            f"not reproduce the recorded generator trace; refusing to replay"
        )
    _VALIDATED.add(signature)
    _STATS["validations"] += 1

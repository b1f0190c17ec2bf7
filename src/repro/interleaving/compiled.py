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
3. **Replay** — a table-driven loop executes the schedule directly
   against the live memory system (same cache dicts, same TLB LRU
   arrays, same line-fill buffers, same ``FillRequest`` objects) with
   the engine's arithmetic inlined and all statistics accumulated in
   local integers, written back once at the end. No generators, no event
   objects, no dispatch — and **bit-identical** cycle counts, search
   results, and counters, because every arithmetic step is the same
   integer arithmetic :mod:`repro.sim.engine` performs.

There is no separate compiled executor: ``Baseline``, ``GP``, ``AMAC``,
``CORO`` and ``sequential`` declare a schedule key and route every run
through :func:`run_staged`, which replays when the job compiles — a
sorted-array job with search depth >= 1 on a plain
:class:`~repro.sim.engine.ExecutionEngine` whose tracer is off, run by
a default executor instance — and otherwise runs the executor's
generators and counts the fallback by executor and by reason
(``workload_kind``, ``tracer``, ``engine_subclass``, ``shallow_table``,
``executor_options``). The counters are exported through
``repro.perf.metrics`` under ``interleaving.compiled``.

Staged schedules are memoized in-process as compact integer arrays,
least recently used first out once the memo holds more than
:data:`_MEMO_ROW_BUDGET` rows.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from heapq import heapify, heappop, heappush
from operator import itemgetter
from textwrap import indent as _indent_text
from time import perf_counter

import numpy as np

from repro.errors import SimulationError
from repro.indexes.binary_search import DEFAULT_COSTS
from repro.sim.allocator import PAGE_TABLE_BASE
from repro.sim.engine import ExecutionEngine
from repro.sim.lfb import FillRequest
from repro.sim.tlb import PTE_SIZE

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
    out = _replay(engine, rows, totals, addresses, table.element_size, results)
    _STATS["replay_s"] += perf_counter() - started
    _STATS["replays"] += 1
    return out


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
# Replay rows are ``(opcode, flat_index, advance)`` triples:
#   (1, flat_index, adv)   demand load of addresses[flat_index]
#   (2, flat_index, adv)   software prefetch of addresses[flat_index]
#   (0, 0, adv)            trailing pure compute (end of schedule)
# where flat_index = key * depth + iteration, and adv is the
# straight-line compute block *preceding* the memory operation —
# switches, search iterations, and frame allocations merged into one
# pre-normalized clock advance. Merging is exact because the engine
# normalizes each compute's advance independently before the clock
# moves (integer arithmetic, order-free sum). The prefetch
# instruction's own issue compute is inlined in the replay handler (it
# sits between the translation and the fill, so it can never merge
# with neighbours). A staged schedule stores its rows column-wise in
# one ``(3, n_rows)`` int64 array; a replay expands it to Python ints.


def _advance(cycles: int, instructions: int, issue_width: int) -> int:
    """Clock advance of one compute charge (TMAM capacity normalization)."""
    floor = -(-instructions // issue_width)
    return cycles if cycles >= floor else floor


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
            opcodes.append(1 if tag == "L" else 2)
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
        opcodes.append(0)
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


# ----------------------------------------------------------------------
# Replay: the table-driven engine path
# ----------------------------------------------------------------------


def _replay_generic(engine: ExecutionEngine, rows, totals: tuple,
                    addresses: list, element_size: int, results: list) -> list:
    """Execute a staged schedule against the live engine state (reference).

    Performs exactly the integer arithmetic of
    :class:`~repro.sim.engine.ExecutionEngine` /
    :class:`~repro.sim.memory.MemorySystem` / :class:`~repro.sim.tlb.Tlb`
    / :class:`~repro.sim.lfb.LineFillBuffers`, against the same live
    dicts and ``FillRequest`` objects, with statistics accumulated in
    locals and written back once. The hot paths — DTLB hit, L1 hit, LFB
    hit — are inlined straight into the row loop; the cold paths (page
    walks, fill starts, completions, straddling accesses) live in
    closures. Any behavioural divergence from the simulator modules is a
    bug; the golden equivalence tests pin bit-identity.
    """
    arch = engine.arch
    cost = engine.cost
    memory = engine.memory
    issue_width = cost.issue_width
    ooo_hide = cost.ooo_hide
    walk_base = cost.page_walk_base_cycles
    prefetch_advance = _advance(
        cost.prefetch_issue_cycles, cost.prefetch_issue_instructions, issue_width
    )
    line_size = memory.line_size

    tlb = memory.tlb
    page_size = tlb._page_size
    stlb_latency = tlb._stlb_latency
    dtlb = tlb._dtlb
    stlb = tlb._stlb
    dtlb_sets, dtlb_n, dtlb_assoc = dtlb._sets, dtlb.n_sets, dtlb.associativity
    stlb_sets, stlb_n, stlb_assoc = stlb._sets, stlb.n_sets, stlb.associativity
    walks_by_level = tlb.stats.walks_by_level

    l1, l2, l3 = memory.l1, memory.l2, memory.l3
    l1_sets, l1_n, l1_assoc, l1_latency = l1._sets, l1.n_sets, l1.associativity, l1.latency
    l2_sets, l2_n, l2_assoc, l2_latency = l2._sets, l2.n_sets, l2.associativity, l2.latency
    l3_sets, l3_n, l3_assoc, l3_latency = l3._sets, l3.n_sets, l3.associativity, l3.latency
    # An L1 hit's exposed latency is a constant (usually negative: the
    # out-of-order window hides short latencies entirely).
    l1_exposed = l1_latency - ooo_hide

    lfbs = memory.lfbs
    in_flight = lfbs._in_flight
    in_flight_get = in_flight.get
    lfb_capacity = lfbs.capacity
    dram_latency = arch.dram_latency + memory.extra_dram_latency

    infinity = float("inf")
    next_completion = lfbs._next_completion
    clock = engine.clock
    entry_clock = clock

    # One vectorized pass replaces the per-row address arithmetic:
    # every row needs only its cache-line index (first/last) and its
    # virtual page number. ``tolist`` yields Python ints, keeping the
    # replay's arithmetic (and the engine clock) in exact int land.
    addresses_np = np.asarray(addresses, dtype=np.int64)
    lines_first = (addresses_np // line_size).tolist()
    lines_last = ((addresses_np + (element_size - 1)) // line_size).tolist()
    vpns = (addresses_np // page_size).tolist()

    # Deferred statistic deltas (plain ints; written back once at the end).
    memory_slots = 0
    memory_stall = translation_stall = lfb_stall = 0
    dtlb_hits = stlb_hits = walk_cycles_delta = 0
    l1_hits = l1_misses = l1_installs = l1_evictions = 0
    l2_hits = l2_misses = l2_installs = l2_evictions = 0
    l3_hits = l3_misses = l3_installs = l3_evictions = 0
    fills_issued = 0
    acquire_stall = 0
    peak_occupancy = lfbs.peak_occupancy
    loads_l1 = loads_lfb = loads_l2 = loads_l3 = loads_dram = 0
    prefetch_count = prefetch_useless = 0

    def drain(now):
        nonlocal next_completion
        nonlocal l1_installs, l1_evictions, l2_installs, l2_evictions
        nonlocal l3_installs, l3_evictions
        # Single pass: collect completed fills and the next completion
        # horizon together (completing a fill never adds new fills, so
        # the surviving minimum is final).
        done = []
        horizon = infinity
        for request in in_flight.values():
            completion = request.completion_cycle
            if completion <= now:
                done.append(request)
            elif completion < horizon:
                horizon = completion
        for request in done:
            line = request.line
            del in_flight[line]
            source = request.source_level
            if request.non_temporal:
                if source == "DRAM":
                    ways = l3_sets[line % l3_n]
                    if line in ways:
                        del ways[line]
                    elif len(ways) >= l3_assoc:
                        del ways[next(iter(ways))]
                        l3_evictions += 1
                    ways[line] = None
                    l3_installs += 1
            elif source == "DRAM":
                ways = l3_sets[line % l3_n]
                if line in ways:
                    del ways[line]
                elif len(ways) >= l3_assoc:
                    del ways[next(iter(ways))]
                    l3_evictions += 1
                ways[line] = None
                l3_installs += 1
                ways = l2_sets[line % l2_n]
                if line in ways:
                    del ways[line]
                elif len(ways) >= l2_assoc:
                    del ways[next(iter(ways))]
                    l2_evictions += 1
                ways[line] = None
                l2_installs += 1
            elif source == "L3":
                ways = l2_sets[line % l2_n]
                if line in ways:
                    del ways[line]
                elif len(ways) >= l2_assoc:
                    del ways[next(iter(ways))]
                    l2_evictions += 1
                ways[line] = None
                l2_installs += 1
            ways = l1_sets[line % l1_n]
            if line in ways:
                del ways[line]
            elif len(ways) >= l1_assoc:
                del ways[next(iter(ways))]
                l1_evictions += 1
            ways[line] = None
            l1_installs += 1
        next_completion = horizon

    def start_fill(line, now, non_temporal, is_prefetch):
        # Caller guarantees `line` is neither in L1 nor in flight, and
        # has already drained at `now`. Returns (completion, source,
        # issue_stall) exactly like MemorySystem._start_fill.
        nonlocal next_completion, fills_issued, peak_occupancy, acquire_stall
        nonlocal l2_hits, l2_misses, l3_hits, l3_misses
        start = now
        while len(in_flight) >= lfb_capacity:
            earliest = next_completion
            acquire_stall += earliest - start
            start = earliest
            drain(start)
        ways = l2_sets[line % l2_n]
        if line in ways:
            l2_hits += 1
            del ways[line]
            ways[line] = None
            source, latency = "L2", l2_latency
        else:
            l2_misses += 1
            ways = l3_sets[line % l3_n]
            if line in ways:
                l3_hits += 1
                del ways[line]
                ways[line] = None
                source, latency = "L3", l3_latency
            else:
                l3_misses += 1
                source, latency = "DRAM", dram_latency
        completion = start + latency
        in_flight[line] = FillRequest(
            line, start, completion, source, non_temporal, is_prefetch
        )
        if completion < next_completion:
            next_completion = completion
        fills_issued += 1
        occupancy = len(in_flight)
        if occupancy > peak_occupancy:
            peak_occupancy = occupancy
        return completion, source, start - now

    def translate_slow(vpn, now):
        # DTLB miss (the caller handled the hit): STLB probe, then the
        # page walk with its leaf-PTE access through the data caches.
        # Returns the advanced clock.
        nonlocal stlb_hits, walk_cycles_delta
        nonlocal memory_stall, translation_stall, memory_slots
        nonlocal l1_hits, l1_misses
        stlb_ways = stlb_sets[vpn % stlb_n]
        dtlb_ways = dtlb_sets[vpn % dtlb_n]
        if vpn in stlb_ways:
            del stlb_ways[vpn]
            stlb_ways[vpn] = None
            stlb_hits += 1
            if vpn in dtlb_ways:
                del dtlb_ways[vpn]
            elif len(dtlb_ways) >= dtlb_assoc:
                del dtlb_ways[next(iter(dtlb_ways))]
            dtlb_ways[vpn] = None
            memory_stall += stlb_latency
            translation_stall += stlb_latency
            memory_slots += issue_width * stlb_latency
            return now + stlb_latency
        # Page walk: fixed overhead + the PTE load (never recorded in
        # loads_by_level), partially hidden by out-of-order execution.
        probe_at = now + walk_base
        pte_line = (PAGE_TABLE_BASE + vpn * PTE_SIZE) // line_size
        if probe_at >= next_completion:
            drain(probe_at)
        ways = l1_sets[pte_line % l1_n]
        if ways.pop(pte_line, 0) is None:
            ways[pte_line] = None
            l1_hits += 1
            ready = probe_at + l1_latency
            level = "L1"
        else:
            l1_misses += 1
            request = in_flight_get(pte_line)
            if request is not None:
                request.non_temporal = False
                request.is_prefetch = False
                completion = request.completion_cycle
                ready = completion if completion > probe_at else probe_at
                level = request.source_level
            else:
                ready, level, _stall = start_fill(pte_line, probe_at, False, False)
        cycles = walk_base + (ready - probe_at)
        bucket = "PW-" + level
        walks_by_level[bucket] = walks_by_level.get(bucket, 0) + 1
        walk_cycles_delta += cycles
        if vpn in stlb_ways:
            del stlb_ways[vpn]
        elif len(stlb_ways) >= stlb_assoc:
            del stlb_ways[next(iter(stlb_ways))]
        stlb_ways[vpn] = None
        if vpn in dtlb_ways:
            del dtlb_ways[vpn]
        elif len(dtlb_ways) >= dtlb_assoc:
            del dtlb_ways[next(iter(dtlb_ways))]
        dtlb_ways[vpn] = None
        charged = cycles - ooo_hide
        if charged < walk_base:
            charged = walk_base
        memory_stall += charged
        translation_stall += charged
        memory_slots += issue_width * charged
        return now + charged

    for op, a, advance in rows:
        if advance:  # the compute block preceding this memory operation
            clock += advance
        if op == 1:  # demand load
            vpn = vpns[a]
            dtlb_ways = dtlb_sets[vpn % dtlb_n]
            if dtlb_ways.pop(vpn, 0) is None:
                dtlb_ways[vpn] = None
                dtlb_hits += 1
            else:
                clock = translate_slow(vpn, clock)
            if clock >= next_completion:
                drain(clock)
            line = lines_first[a]
            if line == lines_last[a]:
                ways = l1_sets[line % l1_n]
                if ways.pop(line, 0) is None:  # L1 hit
                    ways[line] = None
                    l1_hits += 1
                    loads_l1 += 1
                    if l1_exposed > 0:
                        memory_stall += l1_exposed
                        memory_slots += issue_width * l1_exposed
                        clock += l1_exposed
                    continue
                l1_misses += 1
                request = in_flight_get(line)
                if request is not None:  # LFB hit: demand merge
                    request.non_temporal = False
                    request.is_prefetch = False
                    loads_lfb += 1
                    exposed = request.completion_cycle - clock - ooo_hide
                    if exposed > 0:
                        memory_stall += exposed
                        memory_slots += issue_width * exposed
                        clock += exposed
                    continue
                ready, source, stall = start_fill(line, clock, False, False)
                if stall:
                    memory_stall += stall
                    lfb_stall += stall
                    memory_slots += issue_width * stall
                    clock += stall
                if source == "L2":
                    loads_l2 += 1
                elif source == "L3":
                    loads_l3 += 1
                else:
                    loads_dram += 1
                exposed = ready - clock - ooo_hide
                if exposed > 0:
                    memory_stall += exposed
                    memory_slots += issue_width * exposed
                    clock += exposed
                continue
            # Straddling load (element sizes that divide the line size
            # never take this path; kept for exactness).
            ready = clock
            level = "L1"
            for line in range(line, lines_last[a] + 1):
                if clock >= next_completion:
                    drain(clock)
                ways = l1_sets[line % l1_n]
                if ways.pop(line, 0) is None:
                    ways[line] = None
                    l1_hits += 1
                    line_ready = clock + l1_latency
                    line_level = "L1"
                    loads_l1 += 1
                else:
                    l1_misses += 1
                    request = in_flight_get(line)
                    if request is not None:
                        request.non_temporal = False
                        request.is_prefetch = False
                        completion = request.completion_cycle
                        line_ready = completion if completion > clock else clock
                        line_level = "LFB"
                        loads_lfb += 1
                    else:
                        line_ready, line_level, stall = start_fill(
                            line, clock, False, False
                        )
                        if stall:
                            memory_stall += stall
                            lfb_stall += stall
                            memory_slots += issue_width * stall
                            clock += stall
                        if line_level == "L2":
                            loads_l2 += 1
                        elif line_level == "L3":
                            loads_l3 += 1
                        else:
                            loads_dram += 1
                if line_ready >= ready:
                    ready = line_ready
                    level = line_level
            exposed = ready - clock - ooo_hide
            if exposed > 0:
                memory_stall += exposed
                memory_slots += issue_width * exposed
                clock += exposed
        elif op == 2:  # software prefetch (PREFETCHNTA)
            vpn = vpns[a]
            dtlb_ways = dtlb_sets[vpn % dtlb_n]
            if dtlb_ways.pop(vpn, 0) is None:
                dtlb_ways[vpn] = None
                dtlb_hits += 1
            else:
                clock = translate_slow(vpn, clock)
            # The prefetch instruction's own issue slot (statically
            # accounted in ``totals``; only the clock moves here).
            clock += prefetch_advance
            line = lines_first[a]
            last = lines_last[a]
            while True:
                if clock >= next_completion:
                    drain(clock)
                prefetch_count += 1
                # Membership checks only: no LRU reorder, no hit/miss
                # counting (MemorySystem.prefetch_line uses contains/find).
                if line in l1_sets[line % l1_n] or line in in_flight:
                    prefetch_useless += 1
                else:
                    _completion, _source, stall = start_fill(line, clock, True, True)
                    if stall:
                        memory_stall += stall
                        lfb_stall += stall
                        memory_slots += issue_width * stall
                        clock += stall
                if line == last:
                    break
                line += 1
        # op == 0: trailing pure-compute row, handled above.

    # One write-back: every deferred delta lands on the live objects.
    engine.clock = clock
    tmam = engine.tmam
    tmam.cycles += clock - entry_clock
    instructions_total, core_slots_total = totals
    tmam.instructions += instructions_total
    slots = tmam.slots
    slots["Retiring"] += instructions_total
    slots["Core"] += core_slots_total
    slots["Memory"] += memory_slots
    tmam.memory_stall_cycles += memory_stall
    tmam.translation_stall_cycles += translation_stall
    tmam.lfb_stall_cycles += lfb_stall
    mem_stats = memory.stats
    by_level = mem_stats.loads_by_level
    by_level["L1"] += loads_l1
    by_level["LFB"] += loads_lfb
    by_level["L2"] += loads_l2
    by_level["L3"] += loads_l3
    by_level["DRAM"] += loads_dram
    mem_stats.prefetches += prefetch_count
    mem_stats.prefetch_useless += prefetch_useless
    tlb_stats = tlb.stats
    tlb_stats.dtlb_hits += dtlb_hits
    tlb_stats.stlb_hits += stlb_hits
    tlb_stats.walk_cycles += walk_cycles_delta
    l1.stats.hits += l1_hits
    l1.stats.misses += l1_misses
    l1.stats.installs += l1_installs
    l1.stats.evictions += l1_evictions
    l2.stats.hits += l2_hits
    l2.stats.misses += l2_misses
    l2.stats.installs += l2_installs
    l2.stats.evictions += l2_evictions
    l3.stats.hits += l3_hits
    l3.stats.misses += l3_misses
    l3.stats.installs += l3_installs
    l3.stats.evictions += l3_evictions
    lfbs.fills_issued += fills_issued
    lfbs.issue_stall_cycles += acquire_stall
    lfbs.peak_occupancy = peak_occupancy
    lfbs._next_completion = next_completion
    return results


# ----------------------------------------------------------------------
# Stage 2: machine-specialized replay loops
# ----------------------------------------------------------------------
#
# ``_replay_generic`` interprets a staged schedule with the machine
# parameters held in locals and closures. The second staging level goes
# further: for a fixed machine geometry (cache/TLB shapes, latencies,
# LFB capacity) every parameter is a *constant*, so we generate the
# replay loop's source with those constants folded in as literals and
# every helper (drain, fill start, page walk) inlined — no closure
# cells, no call overhead, branches on constants eliminated at
# generation time. The source is compiled once with ``exec`` and
# memoized per geometry signature. ``_replay_generic`` remains the
# exact reference and the fallback for line-straddling accesses
# (element sizes that do not divide the cache line).

_IMPL_CACHE: dict = {}


def _drain_src(now: str, C: dict) -> str:
    """LFB drain + cache-install block (LineFillBuffers.drain inlined).

    Completions come off a min-heap of ``(completion, seq, line)``
    entries instead of scanning ``in_flight``. When several fills
    complete in one drain, installs happen in fill-*start* order
    (``seq``), which is exactly ``in_flight``'s dict insertion order —
    the order the live ``LineFillBuffers.drain`` uses.
    """
    def install(level: str) -> str:
        return f"""\
d_ways = {level}_sets[d_line % {C[level + '_n']}]
if d_line in d_ways:
    del d_ways[d_line]
elif LEN(d_ways) >= {C[level + '_a']}:
    for d_evict in d_ways:
        break
    del d_ways[d_evict]
    {level}_evictions += 1
d_ways[d_line] = None
{level}_installs += 1"""

    return f"""\
if {now} >= next_completion:
    d_entry = heappop(heap)
    if heap and heap[0][0] <= {now}:
        d_done = [d_entry]
        while heap and heap[0][0] <= {now}:
            d_done.append(heappop(heap))
        d_done.sort(key=BYSEQ)
    else:
        d_done = (d_entry,)
    for d_entry in d_done:
        d_line = d_entry[2]
        d_req = in_flight.pop(d_line)
        occ -= 1
        pool.append(d_req)
        d_src = d_req.source_level
        if d_src == "DRAM":
{_indent_text(install("l3"), "            ")}
            if not d_req.non_temporal:
{_indent_text(install("l2"), "                ")}
        elif d_src == "L3" and not d_req.non_temporal:
{_indent_text(install("l2"), "            ")}
{_indent_text(install("l1"), "        ")}
    next_completion = heap[0][0] if heap else INF"""


def _start_fill_src(line: str, now: str, nt: str, pf: str, C: dict) -> str:
    """Fill start (MemorySystem._start_fill inlined).

    Leaves ``fill_completion``, ``fill_source`` and ``f_start`` bound;
    the caller derives the issue stall from ``f_start - {now}``.
    """
    return f"""\
f_start = {now}
while occ >= {C["cap"]}:
    f_earliest = next_completion
    acquire_stall += f_earliest - f_start
    f_start = f_earliest
{_indent_text(_drain_src("f_start", C), "    ")}
f_ways = l2_sets[{line} % {C["l2_n"]}]
if f_ways.pop({line}, 0) is None:
    f_ways[{line}] = None
    l2_hits += 1
    fill_source = "L2"
    fill_completion = f_start + {C["l2_lat"]}
else:
    l2_misses += 1
    f_ways = l3_sets[{line} % {C["l3_n"]}]
    if f_ways.pop({line}, 0) is None:
        f_ways[{line}] = None
        l3_hits += 1
        fill_source = "L3"
        fill_completion = f_start + {C["l3_lat"]}
    else:
        l3_misses += 1
        fill_source = "DRAM"
        fill_completion = f_start + {C["dram"]}
if pool:
    f_req = pool.pop()
    f_req.line = {line}
    f_req.issue_cycle = f_start
    f_req.completion_cycle = fill_completion
    f_req.source_level = fill_source
    f_req.non_temporal = {nt}
    f_req.is_prefetch = {pf}
else:
    f_req = FillRequest({line}, f_start, fill_completion, fill_source, {nt}, {pf})
in_flight[{line}] = f_req
heappush(heap, (fill_completion, seq, {line}))
seq += 1
occ += 1
if fill_completion < next_completion:
    next_completion = fill_completion
fills_issued += 1
if occ > peak_occupancy:
    peak_occupancy = occ"""


def _translate_src(C: dict) -> str:
    """DTLB probe + STLB probe + page walk (Tlb.translate inlined).

    Binds ``t_ways`` to the DTLB set for ``vpn``; in the walk path the
    re-install checks of the live code are dropped because ``vpn`` is
    provably absent (the DTLB pop missed without mutating, the STLB pop
    returned a miss, and PTE cache traffic never touches the TLBs).
    """
    iw, stlb_lat, walk_base, ooo = C["iw"], C["stlb_lat"], C["walk_base"], C["ooo"]
    walk_l1_cycles = walk_base + C["l1_lat"]
    walk_l1_charged = max(walk_base, walk_l1_cycles - ooo)
    return f"""\
vpn = vpns[a]
t_ways = dtlb_sets[vpn % {C["dtlb_n"]}]
if t_ways.pop(vpn, 0) is None:
    t_ways[vpn] = None
    dtlb_hits += 1
else:
    w_stlb = stlb_sets[vpn % {C["stlb_n"]}]
    if w_stlb.pop(vpn, 0) is None:
        w_stlb[vpn] = None
        stlb_hits += 1
        if LEN(t_ways) >= {C["dtlb_a"]}:
            for t_evict in t_ways:
                break
            del t_ways[t_evict]
        t_ways[vpn] = None
        translation_stall += {stlb_lat}
        clock += {stlb_lat}
    else:
        probe_at = clock + {walk_base}
        pte_line = pte_lines[a]
{_indent_text(_drain_src("probe_at", C), "        ")}
        w_ways = l1_sets[pte_line % {C["l1_n"]}]
        if w_ways.pop(pte_line, 0) is None:
            w_ways[pte_line] = None
            l1_hits += 1
            walks_by_level["PW-L1"] = walks_by_level.get("PW-L1", 0) + 1
            walk_cycles_delta += {walk_l1_cycles}
            w_charged = {walk_l1_charged}
        else:
            l1_misses += 1
            w_req = in_flight.get(pte_line)
            if w_req is not None:
                w_req.non_temporal = False
                w_req.is_prefetch = False
                w_c = w_req.completion_cycle
                w_ready = w_c if w_c > probe_at else probe_at
                w_level = w_req.source_level
            else:
{_indent_text(_start_fill_src("pte_line", "probe_at", "False", "False", C), "                ")}
                w_ready = fill_completion
                w_level = fill_source
            w_cycles = {walk_base} + (w_ready - probe_at)
            w_bucket = "PW-" + w_level
            walks_by_level[w_bucket] = walks_by_level.get(w_bucket, 0) + 1
            walk_cycles_delta += w_cycles
            w_charged = w_cycles - {ooo}
            if w_charged < {walk_base}:
                w_charged = {walk_base}
        if LEN(w_stlb) >= {C["stlb_a"]}:
            for w_evict in w_stlb:
                break
            del w_stlb[w_evict]
        w_stlb[vpn] = None
        if LEN(t_ways) >= {C["dtlb_a"]}:
            for t_evict in t_ways:
                break
            del t_ways[t_evict]
        t_ways[vpn] = None
        translation_stall += w_charged
        clock += w_charged"""


def _issue_stall_src(C: dict) -> str:
    """Charge the LFB issue stall after an inlined fill start."""
    return """\
if f_start > clock:
    lfb_stall += f_start - clock
    clock = f_start"""


def _build_impl(C: dict):
    """Generate + compile the specialized replay loop for geometry ``C``."""
    iw, ooo = C["iw"], C["ooo"]
    l1_exposed = C["l1_lat"] - ooo
    if l1_exposed > 0:
        l1_hit_tail = f"""\
                exposed_stall += {l1_exposed}
                clock += {l1_exposed}
"""
    else:
        l1_hit_tail = ""
    source = f"""\
def _staged_replay(rows, lines, vpns, pte_lines, in_flight, heap, seq,
                   l1_sets, l2_sets, l3_sets, dtlb_sets, stlb_sets,
                   walks_by_level, FillRequest,
                   clock, next_completion, peak_occupancy,
                   INF=float("inf"), heappush=_heappush, heappop=_heappop,
                   BYSEQ=_byseq, LEN=len):
    occ = LEN(in_flight)
    pool = []
    exposed_stall = translation_stall = lfb_stall = 0
    dtlb_hits = stlb_hits = walk_cycles_delta = 0
    l1_hits = l1_misses = l1_installs = l1_evictions = 0
    l2_hits = l2_misses = l2_installs = l2_evictions = 0
    l3_hits = l3_misses = l3_installs = l3_evictions = 0
    fills_issued = acquire_stall = 0
    loads_l1 = loads_lfb = loads_l2 = loads_l3 = loads_dram = 0
    prefetch_count = prefetch_useless = 0
    for op, a, advance in rows:
        if advance:
            clock += advance
        if op == 1:
{_indent_text(_translate_src(C), "            ")}
{_indent_text(_drain_src("clock", C), "            ")}
            line = lines[a]
            ways = l1_sets[line % {C["l1_n"]}]
            if ways.pop(line, 0) is None:
                ways[line] = None
                l1_hits += 1
                loads_l1 += 1
{l1_hit_tail}                continue
            l1_misses += 1
            req = in_flight.get(line)
            if req is not None:
                req.non_temporal = False
                req.is_prefetch = False
                loads_lfb += 1
                exposed = req.completion_cycle - clock - {ooo}
                if exposed > 0:
                    exposed_stall += exposed
                    clock += exposed
                continue
{_indent_text(_start_fill_src("line", "clock", "False", "False", C), "            ")}
{_indent_text(_issue_stall_src(C), "            ")}
            if fill_source == "L2":
                loads_l2 += 1
            elif fill_source == "L3":
                loads_l3 += 1
            else:
                loads_dram += 1
            exposed = fill_completion - clock - {ooo}
            if exposed > 0:
                exposed_stall += exposed
                clock += exposed
        elif op == 2:
{_indent_text(_translate_src(C), "            ")}
            clock += {C["pf_adv"]}
{_indent_text(_drain_src("clock", C), "            ")}
            line = lines[a]
            prefetch_count += 1
            if line in l1_sets[line % {C["l1_n"]}] or line in in_flight:
                prefetch_useless += 1
            else:
{_indent_text(_start_fill_src("line", "clock", "True", "True", C), "                ")}
{_indent_text(_issue_stall_src(C), "                ")}
    return (clock, next_completion, peak_occupancy,
            exposed_stall, translation_stall, lfb_stall,
            dtlb_hits, stlb_hits, walk_cycles_delta,
            l1_hits, l1_misses, l1_installs, l1_evictions,
            l2_hits, l2_misses, l2_installs, l2_evictions,
            l3_hits, l3_misses, l3_installs, l3_evictions,
            fills_issued, acquire_stall,
            loads_l1, loads_lfb, loads_l2, loads_l3, loads_dram,
            prefetch_count, prefetch_useless)
"""
    namespace: dict = {
        "_heappush": heappush,
        "_heappop": heappop,
        "_byseq": itemgetter(1),
    }
    exec(compile(source, "<staged-replay>", "exec"), namespace)  # noqa: S102
    return namespace["_staged_replay"]


def _specialized_impl(engine: ExecutionEngine):
    """Memoized specialization for this engine's machine geometry."""
    cost = engine.cost
    memory = engine.memory
    tlb = memory.tlb
    dtlb, stlb = tlb._dtlb, tlb._stlb
    l1, l2, l3 = memory.l1, memory.l2, memory.l3
    iw = cost.issue_width
    pf_ins = cost.prefetch_issue_instructions
    pf_adv = _advance(cost.prefetch_issue_cycles, pf_ins, iw)
    C = {
        "iw": iw,
        "ooo": cost.ooo_hide,
        "walk_base": cost.page_walk_base_cycles,
        "stlb_lat": tlb._stlb_latency,
        "pf_adv": pf_adv,
        "pf_ins": pf_ins,
        "pf_core": iw * pf_adv - pf_ins,
        "l1_n": l1.n_sets, "l1_a": l1.associativity, "l1_lat": l1.latency,
        "l2_n": l2.n_sets, "l2_a": l2.associativity, "l2_lat": l2.latency,
        "l3_n": l3.n_sets, "l3_a": l3.associativity, "l3_lat": l3.latency,
        "dtlb_n": dtlb.n_sets, "dtlb_a": dtlb.associativity,
        "stlb_n": stlb.n_sets, "stlb_a": stlb.associativity,
        "cap": memory.lfbs.capacity,
        "dram": engine.arch.dram_latency + memory.extra_dram_latency,
    }
    key = tuple(sorted(C.items()))
    impl = _IMPL_CACHE.get(key)
    if impl is None:
        impl = _build_impl(C)
        _IMPL_CACHE[key] = impl
    return impl


def _replay(engine: ExecutionEngine, rows, totals: tuple, addresses: list,
            element_size: int, results: list) -> list:
    """Replay a staged ``(3, n_rows)`` schedule: specialized loop, generic fallback."""
    rows = zip(*rows.tolist())
    memory = engine.memory
    line_size = memory.line_size
    addresses_np = np.asarray(addresses, dtype=np.int64)
    lines_np = addresses_np // line_size
    if element_size > 1 and bool(
        (((addresses_np + (element_size - 1)) // line_size) != lines_np).any()
    ):
        # Line-straddling accesses: the specialized loop does not emit
        # the multi-line paths; use the reference interpreter.
        return _replay_generic(engine, rows, totals, addresses, element_size, results)
    tlb = memory.tlb
    vpns_np = addresses_np // tlb._page_size
    pte_lines = ((PAGE_TABLE_BASE + vpns_np * PTE_SIZE) // line_size).tolist()
    lfbs = memory.lfbs
    # Seed the completion heap from fills already in flight; dict
    # insertion order is fill-start order, which the sequence numbers
    # preserve for same-cycle install ordering.
    in_flight = lfbs._in_flight
    heap = [
        (request.completion_cycle, index, line)
        for index, (line, request) in enumerate(in_flight.items())
    ]
    heapify(heap)
    entry_clock = engine.clock
    (clock, next_completion, peak_occupancy,
     exposed_stall, translation_stall, lfb_stall,
     dtlb_hits, stlb_hits, walk_cycles_delta,
     l1_hits, l1_misses, l1_installs, l1_evictions,
     l2_hits, l2_misses, l2_installs, l2_evictions,
     l3_hits, l3_misses, l3_installs, l3_evictions,
     fills_issued, acquire_stall,
     loads_l1, loads_lfb, loads_l2, loads_l3, loads_dram,
     prefetch_count, prefetch_useless) = _specialized_impl(engine)(
        rows, lines_np.tolist(), vpns_np.tolist(), pte_lines,
        in_flight, heap, len(heap),
        memory.l1._sets, memory.l2._sets, memory.l3._sets,
        tlb._dtlb._sets, tlb._stlb._sets,
        tlb.stats.walks_by_level, FillRequest,
        entry_clock, lfbs._next_completion, lfbs.peak_occupancy,
    )
    engine.clock = clock
    tmam = engine.tmam
    tmam.cycles += clock - entry_clock
    instructions_total, core_slots_total = totals
    tmam.instructions += instructions_total
    slots = tmam.slots
    slots["Retiring"] += instructions_total
    slots["Core"] += core_slots_total
    # Every memory-stall charge pessimizes issue slots at full width, so
    # the Memory slot total is a product, not a separate accumulator.
    memory_stall = exposed_stall + translation_stall + lfb_stall
    slots["Memory"] += engine.cost.issue_width * memory_stall
    tmam.memory_stall_cycles += memory_stall
    tmam.translation_stall_cycles += translation_stall
    tmam.lfb_stall_cycles += lfb_stall
    by_level = memory.stats.loads_by_level
    by_level["L1"] += loads_l1
    by_level["LFB"] += loads_lfb
    by_level["L2"] += loads_l2
    by_level["L3"] += loads_l3
    by_level["DRAM"] += loads_dram
    memory.stats.prefetches += prefetch_count
    memory.stats.prefetch_useless += prefetch_useless
    tlb_stats = tlb.stats
    tlb_stats.dtlb_hits += dtlb_hits
    tlb_stats.stlb_hits += stlb_hits
    tlb_stats.walk_cycles += walk_cycles_delta
    l1 = memory.l1
    l1.stats.hits += l1_hits
    l1.stats.misses += l1_misses
    l1.stats.installs += l1_installs
    l1.stats.evictions += l1_evictions
    l2 = memory.l2
    l2.stats.hits += l2_hits
    l2.stats.misses += l2_misses
    l2.stats.installs += l2_installs
    l2.stats.evictions += l2_evictions
    l3 = memory.l3
    l3.stats.hits += l3_hits
    l3.stats.misses += l3_misses
    l3.stats.installs += l3_installs
    l3.stats.evictions += l3_evictions
    lfbs.fills_issued += fills_issued
    lfbs.issue_stall_cycles += acquire_stall
    lfbs.peak_occupancy = peak_occupancy
    lfbs._next_completion = next_completion
    return results

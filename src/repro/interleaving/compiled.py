"""Trace compilation: staged interleave schedules, replayed flat.

Whichever stream a scheduler in this package resumes next, and whether
its visit issues a prefetch, a load, or a switch, depends only on how
many resumes each lookup takes and on the group size — never on the
looked-up values. Cimple exploits exactly this to stage interleave
schedules from one lookup description, and CoroBase flattens coroutine
frames into compiler-visible state machines for the same reason. This
module does the Python-simulator equivalent, in two parts:

* an **address model** per workload kind gives each key's *segments* —
  the events between two suspension points, one segment per resume —
  its probe addresses, and its result:

  - :class:`_SearchModel` covers binary searches over a sorted table:
    sorted-array jobs (the branchy ``std`` search included) and Main
    dictionary locates (the search plus the exact-match load). Every
    key follows the same size-halving recurrence, so its segments are
    one template, and one numpy pass computes the whole probe matrix
    for identity arrays (a pure-Python pass covers arbitrary monotone
    tables). Its schedules are memoized per shape;
  - :class:`_TreeModel` covers integer locates in an implicit Delta
    dictionary (Delta's CSB+-tree walk with code-dereferencing leaves,
    on an identity :class:`~repro.indexes.csb_tree_synthetic.
    ImplicitCSBTree`): one numpy recurrence per depth gives every key's
    addresses and code from the tree's geometry, and keys fall into at
    most ``height + 1`` node-shape classes, one segment template each;
  - :class:`_DrainedModel` covers the locates nothing closed-form does
    (materialized or non-identity trees, non-integer keys): each key's
    stream runs once, engine-free, and is split at every suspension.
  Tree and drained rows belong to one job.

* an **interleave rule** per technique orders the segments:
  ``sequential``, ``Baseline`` and ``std`` run each key's segments back
  to back, CORO resumes a group round-robin by each key's own segment
  count, and GP and AMAC (rewrites for sorted arrays only) step through
  the search depth.

The ordered events are lowered to the ``(opcode, address_index,
advance)`` rows of :mod:`repro.sim.replay` with consecutive
straight-line computes pre-merged, plus the schedule's static
instruction/slot totals, and :meth:`ExecutionEngine.execute_rows
<repro.sim.engine.ExecutionEngine.execute_rows>` runs them against the
live memory system. No generators, no event objects, no dispatch — and
**bit-identical** cycle counts, search results, counters and engine RNG
draws. The staging is verified against a real recorded trace: the
first time a (technique, address model, group size) combination
replays a class of keys, the executor's generators run a calibration
slice of the job (with a key of every class it would otherwise lack)
under a recording engine, and the schedule must reproduce that event
stream byte for byte (a mismatch is a hard
:class:`~repro.errors.SimulationError`, never a silent wrong answer).

This module owns only the interleaving side: which rows a technique
issues, in which order. The machine model lives in :mod:`repro.sim`,
and nothing here touches its private state.

There is no separate compiled executor: ``std``, ``Baseline``, ``GP``,
``AMAC``, ``CORO`` and ``sequential`` declare a schedule key and route
every run through :func:`run_staged`, which replays when the job
compiles — a sorted-array or dictionary-locate job whose loads never
straddle a cache line, on a plain
:class:`~repro.sim.engine.ExecutionEngine` whose tracer is off, run by a
default executor instance — and otherwise runs the executor's
generators and counts the fallback by executor and by reason
(``workload_kind``, ``tracer``, ``engine_subclass``, ``shallow_table``,
``line_straddle``, ``executor_options``). Opaque stream jobs never
replay: a stream may read the outcome of its own events. The counters
are exported through ``repro.perf.metrics`` under
``interleaving.compiled``.

Staged search schedules are memoized in-process as compact integer
arrays, least recently used first out once the memo holds more than
:data:`_MEMO_ROW_BUDGET` rows.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import numpy as np

from repro.errors import SimulationError
from repro.indexes.base import INVALID_CODE
from repro.indexes.binary_search import EXACT_MATCH_COST
from repro.indexes.csb_tree import ROUTE_COST, SINGLE_CHILD_COST
from repro.sim.engine import ExecutionEngine
from repro.sim.events import Compute, Load, Prefetch, Suspend
from repro.sim.replay import (
    NO_PREDICTION,
    OP_COMPUTE,
    OP_LOAD,
    OP_PREFETCH,
    OP_PREFETCH_LINES,
    OP_SPEC_LOAD,
    _advance,
)

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
    """Plain-dict view of the compile/replay/fallback counters.

    ``memo_schedules`` and ``memo_rows`` say what the schedule memo holds
    now; unlike the counters, they are not zeroed by a reset.
    """
    stats = dict(_STATS)
    stats["fallbacks_by_reason"] = dict(_STATS["fallbacks_by_reason"])
    stats["fallbacks_by_executor"] = dict(_STATS["fallbacks_by_executor"])
    stats["memo_schedules"] = len(_SCHEDULE_MEMO)
    stats["memo_rows"] = _memo_rows()
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

    ``executor.schedule`` names the interleave rule and
    ``executor._fallback_reason(tasks, engine)`` says why a job can not
    replay (``None`` when it can); a tree or drained job can still turn
    out not to compile (an access that straddles a cache line, an event
    the kernel has no row for). A job that can not runs the executor's
    generators (``executor._run``), counted as a fallback.
    """
    if _GENERATORS_ONLY or not tasks.inputs:
        return executor._run(tasks, engine, group_size)
    technique = executor.schedule
    reason = executor._fallback_reason(tasks, engine)
    if reason is None:
        model = _address_model(technique, tasks, engine.arch.line_size)
        reason = model.reason
    if reason is not None:
        _count_fallback(executor.name, reason)
        return executor._run(tasks, engine, group_size)
    _validate_staging(executor, tasks, model, group_size, engine.arch)
    rows, totals = model.schedule(technique, group_size, engine.cost)
    started = perf_counter()
    addresses, results = model.probes()
    engine.execute_rows(rows, addresses, totals)
    _STATS["replay_s"] += perf_counter() - started
    _STATS["replays"] += 1
    return results


# ----------------------------------------------------------------------
# Symbolic ops
# ----------------------------------------------------------------------
#
# Exactly one op per engine-visible event; address ops carry the flat
# index of their address and the access size (the size only matters to
# staging validation: replay loads one line per load):
#   ("L", i, size)    demand load of addresses[i]
#   ("SL", i, size)   branchy-search load of addresses[i]; addresses[i + 1]
#                     and [i + 2] are the predicted successors, or
#                     NO_PREDICTION (see repro.sim.replay)
#   ("P", i, size)    PREFETCHNTA of addresses[i] (one line)
#   ("PL", i, size)   PREFETCHNTA of addresses[i] .. addresses[i + 1]
#   ("IT",)           one search-iteration compute
#   ("C", c, i)       any other compute of c cycles and i instructions
#   ("SW", kind)      one stream switch (kind: "coro" | "amac" | "gp")
#   ("F",)            coroutine frame allocation
# Interleave rules also emit ("S", key, segment): run the events of one
# key's segment, the stretch between two suspension points.

_ITER = ("IT",)
_FRAME = ("F",)
_SWITCH = {kind: ("SW", kind) for kind in ("coro", "amac", "gp")}


def _halves(size: int) -> list:
    """``half`` of each iteration of the shared binary-search recurrence."""
    halves = []
    while size // 2 > 0:
        halves.append(size // 2)
        size -= size // 2
    return halves


def search_depth(size: int) -> int:
    """Iterations of the shared binary-search recurrence for ``size``."""
    return len(_halves(size))


# ----------------------------------------------------------------------
# Interleave rules: the order of each technique's events
# ----------------------------------------------------------------------


def _rule_sequential(counts: list, group_size: int) -> list:
    """Baseline / sequential / std: each key runs to completion, in order."""
    return [
        ("S", key, segment)
        for key, count in enumerate(counts)
        for segment in range(count)
    ]


def _rule_coro(counts: list, group_size: int) -> list:
    """CORO: Listing 7's round-robin with frame recycling on refill.

    ``counts[key]`` is the number of resumes key's coroutine takes (its
    suspensions plus one); each resume is one switch and one segment.
    """
    n = len(counts)
    ops: list = []
    append = ops.append
    switch = _SWITCH["coro"]
    group = min(group_size, n)
    # Slot state: [key, resumes_completed]; None once retired.
    slots: list = []
    for key in range(group):
        append(_FRAME)  # only the first generation allocates frames
        slots.append([key, 0])
    next_input = group
    not_done = group
    while not_done:
        for position in range(group):
            slot = slots[position]
            if slot is None:
                continue
            key, resumes = slot
            if resumes < counts[key]:
                append(switch)
                append(("S", key, resumes))
                slot[1] = resumes + 1
            elif next_input < n:  # recycled frame: no events this visit
                slots[position] = [next_input, 0]
                next_input += 1
            else:
                slots[position] = None
                not_done -= 1
    return ops


def _rule_gp(model, n: int, group_size: int) -> list:
    """Group prefetching: lock-step blocks, prefetch stage then load stage."""
    ops: list = []
    append = ops.append
    switch = _SWITCH["gp"]
    for start in range(0, n, group_size):
        end = min(start + group_size, n)
        for it in range(model.depth):
            for key in range(start, end):
                append(model.prefetch(key, it))
            for key in range(start, end):
                append(model.load(key, it))
                append(_ITER)
                append(switch)
    return ops


def _rule_amac(model, n: int, group_size: int) -> list:
    """AMAC: round-robin buffer of state machines, refill inside a visit."""
    ops: list = []
    append = ops.append
    switch = _SWITCH["amac"]
    depth = model.depth
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
            append(switch)
            while True:
                if slot[2] == 1:  # access stage: consume the prefetched probe
                    append(model.load(slot[0], slot[1] - 1))
                    append(_ITER)
                    slot[2] = 0
                    continue
                if slot[1] < depth:  # prefetch stage: issue and switch
                    append(model.prefetch(slot[0], slot[1]))
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


#: Rules over per-key segment counts: any address model.
_RULES = {
    "baseline": _rule_sequential,
    "sequential": _rule_sequential,
    "std": _rule_sequential,
    "coro": _rule_coro,
}

#: Rules that exist only for the sorted-array search (Table 5's
#: rewrites): they read the model's probe ops directly.
_SEARCH_RULES = {"gp": _rule_gp, "amac": _rule_amac}


def _schedule_ops(technique: str, model, group_size: int) -> list:
    """The technique's ops over ``model``'s keys, segments expanded."""
    builder = _SEARCH_RULES.get(technique)
    if builder is not None:
        return builder(model, len(model.values), group_size)
    ops: list = []
    extend = ops.extend
    append = ops.append
    segment = model.segment
    for op in _RULES[technique](model.counts(), group_size):
        if op[0] == "S":
            extend(segment(op[1], op[2]))
        else:
            append(op)
    return ops


# ----------------------------------------------------------------------
# Lowering: symbolic ops -> replay rows
# ----------------------------------------------------------------------
#
# Replay rows are the ``(opcode, address_index, advance)`` triples of
# :mod:`repro.sim.replay`: one row per memory operation, and one
# trailing ``OP_COMPUTE`` row for the compute after the last one.
# ``advance`` is the straight-line compute block *preceding* the row's
# memory operation — switches, search iterations, and frame
# allocations merged into one pre-normalized clock advance. Merging is
# exact because the engine normalizes each compute's advance
# independently before the clock moves (integer arithmetic, order-free
# sum). The prefetch instruction's own issue compute is charged by the
# replay kernel itself, not folded into ``advance``. A staged schedule
# stores its rows column-wise in one ``(3, n_rows)`` int32 array.

_OPCODES = {
    "L": OP_LOAD,
    "SL": OP_SPEC_LOAD,
    "P": OP_PREFETCH,
    "PL": OP_PREFETCH_LINES,
}


def _lower_rows(ops: list, iter_cost: tuple, cost_model) -> tuple:
    """Lower symbolic ops to a ``(3, n_rows)`` row array + static totals.

    Instruction retirement and issue-slot accounting are *static* per
    schedule — every compute charge is known at staging time, and the
    prefetch issue charge is fixed per prefetch row — so they are
    summed here once into ``(instructions_total, core_slots_total)``
    instead of being re-accumulated on every replay.
    """
    issue_width = cost_model.issue_width
    fixed = {
        _FRAME: (cost_model.frame_alloc_cycles, cost_model.frame_alloc_instructions),
        _SWITCH["coro"]: cost_model.coro_switch,
        _SWITCH["amac"]: cost_model.amac_switch,
        _SWITCH["gp"]: cost_model.gp_switch,
    }
    if iter_cost is not None:  # drained models carry their computes as "C"
        fixed[_ITER] = iter_cost
    steps = {
        op: (_advance(cycles, instructions, issue_width), instructions)
        for op, (cycles, instructions) in fixed.items()
    }
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
        opcode = _OPCODES.get(op[0])
        if opcode is not None:
            opcodes.append(opcode)
            indexes.append(op[1])
            advances.append(pending_advance)
            pending_advance = 0
            if opcode == OP_PREFETCH or opcode == OP_PREFETCH_LINES:
                instructions_total += pf_instructions
                advance_total += pf_advance
            continue
        step = steps.get(op)
        if step is None:  # ("C", cycles, instructions)
            step = steps[op] = (_advance(op[1], op[2], issue_width), op[2])
        pending_advance += step[0]
        instructions_total += step[1]
        advance_total += step[0]
    if pending_advance:
        opcodes.append(OP_COMPUTE)
        indexes.append(0)
        advances.append(pending_advance)
    core_slots_total = issue_width * advance_total - instructions_total
    rows = np.array([opcodes, indexes, advances], dtype=np.int32)
    return rows, (instructions_total, core_slots_total)


#: In-process schedule memo: signature tuple -> (rows, totals), least
#: recently used first.
_SCHEDULE_MEMO: OrderedDict = OrderedDict()

#: Rows the memo keeps before it evicts its least recently used
#: schedules (12 bytes a row; the newest schedule always stays). Sweeps
#: recall a schedule on the pass right after it stages (a point's
#: warm-up, then its measured pass), and a serving run's whole schedule
#: set is about 55,000 rows, so a larger memo only holds dead schedules.
_MEMO_ROW_BUDGET = 1 << 16


def _memo_rows() -> int:
    """Rows the schedule memo holds."""
    return sum(rows.shape[1] for rows, _totals in _SCHEDULE_MEMO.values())


# ----------------------------------------------------------------------
# Address models: each key's segments, addresses and result
# ----------------------------------------------------------------------


def _address_model(technique: str, tasks, line_size: int):
    """The address model of a job ``_fallback_reason`` let through.

    Sorted-array jobs, and locates in a dictionary that binary-searches
    a sorted table (a Main dictionary exposes it as ``array``), get a
    :class:`_SearchModel`; integer locates in a dictionary indexed by an
    identity implicit CSB+-tree (an implicit Delta) a :class:`_TreeModel`;
    every other locate job is drained.
    """
    interleave = technique == "coro"
    if tasks.kind == "sorted_array":  # executor.SORTED_ARRAY (it imports us)
        return _SearchModel(
            tasks.target, tasks.inputs, tasks.costs,
            interleave=interleave, speculative=technique == "std", verify=False,
        )
    table = getattr(tasks.target, "array", None)
    if table is not None:
        # Main's locate: the branchy speculative search when sequential,
        # the coroutine when interleaved, then the exact-match check.
        return _SearchModel(
            table, tasks.inputs, tasks.costs,
            interleave=interleave, speculative=not interleave, verify=True,
        )
    tree = getattr(tasks.target, "tree", None)
    if (
        getattr(tree, "is_identity", False)
        and hasattr(tasks.target, "dict_view")
        and _int64_values(tasks.inputs)
    ):
        return _TreeModel(tasks.target, tasks.inputs, tasks.costs, interleave, line_size)
    from repro.interleaving.executor import _stream_factory

    return _DrainedModel(_stream_factory(tasks), tasks.inputs, interleave, line_size)


def _int64_values(values) -> bool:
    """Whether every value is an integer numpy can hold as ``int64``."""
    return all(
        isinstance(value, (int, np.integer)) and -(1 << 63) <= value < (1 << 63)
        for value in values
    )


class _AddressModel:
    """What every address model gives the interleave rules.

    ``templates[c]`` lists class ``c``'s segments (op lists whose address
    indexes are relative to a key's block of ``stride`` addresses),
    ``key_class[key]`` is the class of each key, ``kind`` names the model
    in signatures, and :meth:`probes` returns the flat addresses and
    per-key results. ``reason`` says why the job can not replay, if so.
    """

    reason = None
    stride = 0

    def counts(self) -> list:
        """Resumes (segments) of every key."""
        sizes = [len(segments) for segments in self.templates]
        return [sizes[c] for c in self.key_class.tolist()]

    def segment(self, key: int, segment: int) -> list:
        """Key's ``segment``-th segment, its address indexes made absolute."""
        base = key * self.stride
        return [
            (op[0], op[1] + base, op[2]) if op[0] in _OPCODES else op
            for op in self.templates[self.key_class[key]][segment]
        ]

    def representatives(self) -> dict:
        """Validation class -> the first key of it (one class by default)."""
        return {(): 0}

    def schedule(self, technique: str, group_size: int, cost_model) -> tuple:
        """Stage this job's rows and totals (they belong to the job)."""
        started = perf_counter()
        ops = _schedule_ops(technique, self, group_size)
        staged = _lower_rows(ops, self.iter_cost, cost_model)
        _STATS["compiled_schedules"] += 1
        _STATS["schedule_compile_s"] += perf_counter() - started
        return staged


class _SearchModel(_AddressModel):
    """A binary search over a sorted table: one recurrence for every key.

    Every key runs the size-halving recurrence of the shared search, so
    the schedule — which rows, in which order — depends only on the
    number of keys, the search depth and the group size: it is staged
    once per shape and memoized, and per-key divergence lives entirely in
    the probe *addresses*. Each key owns a block of ``stride``
    addresses: probe ``it`` at ``width * it`` (a branchy search follows
    each probe with its two predicted successors, ``width`` 3), then the
    exact-match load of a locate. All keys are one class.
    """

    def __init__(self, table, values, costs, *, interleave, speculative, verify):
        self.table = table
        self.values = values
        self.halves = _halves(table.size)  # the table size alone sets them
        self.depth = len(self.halves)
        self.interleave = interleave
        self.speculative = speculative
        self.verify = verify
        self.width = 3 if speculative else 1
        self.stride = self.depth * self.width + verify
        self.size = table.element_size
        costs = costs.for_table(table)
        self.iter_cost = (costs.iter_cycles, costs.iter_instructions)
        self.kind = ("search", speculative, verify)

    def counts(self) -> list:
        resumes = self.depth + 1 if self.interleave else 1
        return [resumes] * len(self.values)

    def load(self, key: int, it: int) -> tuple:
        tag = "SL" if self.speculative else "L"
        return (tag, key * self.stride + it * self.width, self.size)

    def prefetch(self, key: int, it: int) -> tuple:
        return ("P", key * self.stride + it, self.size)

    def segment(self, key: int, segment: int) -> list:
        """Resume ``segment`` of key's search (the whole search unless
        interleaved): the load and iteration the previous suspension
        waited for, then the next prefetch, or the exact-match check."""
        ops: list = []
        if not self.interleave:
            for it in range(self.depth):
                ops += (self.load(key, it), _ITER)
        else:
            if segment:
                ops += (self.load(key, segment - 1), _ITER)
            if segment < self.depth:
                ops.append(self.prefetch(key, segment))
                return ops
        if self.verify:
            check = ("L", key * self.stride + self.stride - 1, self.size)
            ops += (check, ("C", *EXACT_MATCH_COST))
        return ops

    def schedule(self, technique: str, group_size: int, cost_model) -> tuple:
        """Stage (or recall) the flattened rows and totals for this shape."""
        signature = (
            technique,
            len(self.values),
            self.depth,
            group_size,
            self.iter_cost,
            tuple(cost_model.coro_switch),
            tuple(cost_model.amac_switch),
            tuple(cost_model.gp_switch),
            (cost_model.frame_alloc_cycles, cost_model.frame_alloc_instructions),
            (cost_model.prefetch_issue_cycles, cost_model.prefetch_issue_instructions),
            cost_model.issue_width,
            self.kind,
        )
        memo = _SCHEDULE_MEMO
        staged = memo.get(signature)
        if staged is not None:
            memo.move_to_end(signature)
            _STATS["schedule_cache_hits"] += 1
            return staged
        started = perf_counter()
        ops = _schedule_ops(technique, self, group_size)
        staged = _lower_rows(ops, self.iter_cost, cost_model)
        memo[signature] = staged
        held = _memo_rows()
        while held > _MEMO_ROW_BUDGET and len(memo) > 1:
            _signature, (rows, _totals) = memo.popitem(last=False)
            held -= rows.shape[1]
        _STATS["compiled_schedules"] += 1
        _STATS["schedule_compile_s"] += perf_counter() - started
        return staged

    def probes(self) -> tuple:
        """Flat address list (key-major blocks) and per-key results.

        Mirrors the shared recurrence every search variant runs: ``half``
        follows the table size alone, ``low`` advances per key when
        ``value_at(probe) <= value``. Identity arrays (the paper's
        microbenchmark fill and implicit dictionaries) vectorize through
        numpy; any other table walks the same recurrence in Python via
        ``value_at``. Results are lower-bound positions, or a locate's
        code (``INVALID_CODE`` when the value is absent).
        """
        table, values, halves = self.table, self.values, self.halves
        # A branchy search predicts probe it + 1 at ``half[it + 1]`` past
        # either successor of ``low``; the last probe predicts nothing.
        successors = halves[1:] + [0]
        if getattr(table, "is_identity", False) and _int64_values(values):
            return self._identity_probes(halves, successors)
        base = table.region.base
        element_size = table.element_size
        value_at = table.value_at
        speculative = self.speculative
        addresses: list = []
        results: list = []
        append = addresses.append
        for value in values:
            low = 0
            for half, successor in zip(halves, successors):
                probe = low + half
                append(base + probe * element_size)
                if speculative:
                    if successor:
                        append(base + (probe + successor) * element_size)
                        append(base + (low + successor) * element_size)
                    else:
                        append(NO_PREDICTION)
                        append(NO_PREDICTION)
                if value_at(probe) <= value:
                    low = probe
            if self.verify:
                append(base + low * element_size)
                results.append(low if value_at(low) == value else INVALID_CODE)
            else:
                results.append(low)
        return addresses, results

    def _identity_probes(self, halves: list, successors: list) -> tuple:
        """:meth:`probes` for ``value_at(i) == i``, one numpy pass per level."""
        lookups = np.asarray(self.values, dtype=np.int64)
        low = np.zeros(lookups.size, dtype=np.int64)
        block = np.empty((lookups.size, self.stride), dtype=np.int64)
        width = self.width
        for it, (half, successor) in enumerate(zip(halves, successors)):
            probe = low + half
            column = it * width
            block[:, column] = probe
            if self.speculative:
                if successor:
                    block[:, column + 1] = probe + successor
                    block[:, column + 2] = low + successor
                else:
                    block[:, column + 1 : column + 3] = -1
            low = np.where(probe <= lookups, probe, low)
        if self.verify:
            block[:, -1] = low
            low = np.where(low == lookups, low, INVALID_CODE)
        table = self.table
        addresses = block * table.element_size + table.region.base
        if self.speculative:
            addresses[block < 0] = NO_PREDICTION
        return addresses.ravel(), low.tolist()


class _TreeModel(_AddressModel):
    """Delta locates on an identity implicit CSB+-tree, in closed form.

    :func:`~repro.columnstore.dictionary.delta_locate_stream` binary-
    searches each inner node's separators, picks and (interleaved)
    prefetches the child, and at the leaf compares through the
    dictionary array: it loads a code slot, then (after a prefetch and a
    suspension, interleaved) the entry that code names. On an implicit
    tree whose keys are its entry numbers, all of it follows from the
    tree's layout methods, which take an array of node indexes
    (``key_entries``, ``key_addresses``, ``child_indexes``,
    ``node_addresses``, ``leaf_value_addresses``, ``leaf_values``), and
    the view's ``address_of``: one numpy recurrence per depth gives every
    key's separator probes, child prefetch lines, leaf code-slot and
    entry addresses, and result. The dictionary array must hold key
    ``e`` at code ``leaf_value(e)``, as a Delta dictionary's does.

    Which events a key's walk issues depends only on its *node shape*:
    the separator count of each node on its path and its leaf's entry
    count. Keys with one shape are one class with one segment template
    (a child prefetch is always a line range, whichever lines the child
    spans: a one-line range replays exactly as a one-line prefetch). Every
    node off the right spine of a left-full tree is full, so a job has
    at most ``height + 1`` classes, and all but one lie on the ragged
    right spine. Each key's address block holds a column per separator
    probe of each depth, the child prefetch's first and last byte
    (interleaved), and a code slot and entry per leaf comparison, the
    final one last; a class uses the columns its shape reaches.
    """

    kind = ("tree",)

    def __init__(self, dictionary, values, costs, interleave: bool, line_size: int):
        self.values = values
        self.iter_cost = (costs.iter_cycles, costs.iter_instructions)
        started = perf_counter()
        try:
            self._walk(dictionary.tree, dictionary.dict_view, interleave, line_size)
        finally:
            _STATS["schedule_compile_s"] += perf_counter() - started

    def _walk(self, tree, view, interleave: bool, line_size: int) -> None:
        keys = np.asarray(self.values, dtype=np.int64)
        key_size, node_size = tree.key_size, tree.node_size
        entry_size = view.element_size
        leaf_depth = tree.height - 1
        columns: list = []  # address columns: one array each, an entry per key
        shape: list = []  # node-shape columns
        loads: list = []  # (addresses, size) of every demand load issued
        layout: list = []  # per inner depth: (first probe column, prefetch column)
        node = np.zeros(keys.size, dtype=np.int64)
        for depth in range(leaf_depth):
            first, step, separators = tree.key_entries(depth, node)
            probe_column = len(columns)
            low = np.zeros_like(node)
            size = separators.copy()
            for _ in range(search_depth(int(separators.max()))):
                half = size // 2
                probe = low + half
                address = tree.key_addresses(depth, node, probe)
                columns.append(address)
                loads.append((address[half > 0], key_size))
                low = np.where(first + probe * step <= keys, probe, low)
                size -= half
            right = (separators > 0) & (first + low * step <= keys)
            node = tree.child_indexes(depth, node, np.where(right, low + 1, 0))
            shape.append(separators)
            layout.append((probe_column, len(columns)))
            if interleave:
                child = tree.node_addresses(depth + 1, node)
                columns += (child, child + node_size - 1)
        first, step, count = tree.key_entries(leaf_depth, node)
        shape.append(count)
        low = np.zeros_like(node)
        size = count.copy()
        compared: list = []  # leaf position of each comparison; the final last
        for _ in range(search_depth(int(count.max()))):
            half = size // 2
            probe = low + half
            compared.append((probe, half > 0))
            low = np.where(first + probe * step <= keys, probe, low)
            size -= half
        compared.append((low, np.ones_like(low, dtype=bool)))
        leaf_column = len(columns)
        for position, issued in compared:
            code = tree.leaf_values(node, position)
            slot = tree.leaf_value_addresses(node, position)
            entry = view.address_of(code)
            columns += (slot, entry)
            loads += ((slot[issued], entry_size), (entry[issued], entry_size))
        if any(
            (addresses % line_size + size > line_size).any() for addresses, size in loads
        ):
            self.reason = "line_straddle"
            return
        # ``code`` is the final comparison's: the key's code if it matched.
        self.results = np.where(first + low * step == keys, code, INVALID_CODE).tolist()
        self.addresses = np.stack(columns, axis=1).ravel()
        self.stride = len(columns)
        classes, firsts, inverse = np.unique(
            np.stack(shape, axis=1), axis=0, return_index=True, return_inverse=True
        )
        self.key_class = inverse.reshape(-1)
        self.shapes = [tuple(row) for row in classes.tolist()]
        self.firsts = firsts.tolist()
        final = len(compared) - 1
        geometry = (key_size, node_size, entry_size, leaf_column, final)
        self.templates = [
            _tree_template(row, layout, geometry, interleave) for row in self.shapes
        ]

    def representatives(self) -> dict:
        return dict(zip(self.shapes, self.firsts))

    def probes(self) -> tuple:
        return self.addresses, self.results


def _tree_template(shape: tuple, layout: list, geometry: tuple, interleave: bool) -> list:
    """The segments of one node-shape class of :class:`_TreeModel`, ops
    in the order ``delta_locate_stream`` issues them."""
    key_size, node_size, entry_size, leaf_column, final = geometry
    segments: list = [[]]
    ops = segments[-1]
    shape = iter(shape)
    for probe_column, prefetch_column in layout:
        separators = next(shape)
        if separators:
            for it in range(search_depth(separators)):
                ops += (("L", probe_column + it, key_size), _ITER)
            ops.append(("C", *ROUTE_COST))
        else:
            ops.append(("C", *SINGLE_CHILD_COST))
        if interleave:  # a line range, even when the node fits one line
            ops.append(("PL", prefetch_column, node_size))
            ops = []
            segments.append(ops)
    for compare in (*range(search_depth(next(shape))), final):
        slot = leaf_column + 2 * compare
        ops.append(("L", slot, entry_size))
        if interleave:
            ops.append(("P", slot + 1, entry_size))
            ops = []
            segments.append(ops)
        ops += (("L", slot + 1, entry_size), _ITER)
    ops.append(("C", *EXACT_MATCH_COST))
    return segments


class _DrainedModel(_AddressModel):
    """Lookups whose streams are each drained once, engine-free.

    Runs every key's stream to completion without an engine and splits
    its events at each suspension point into *segments*, one per resume.
    This is exact only for streams that never read the outcome of an
    event (a ``Prefetch`` answer, say) — the dictionary ``locate``
    streams, whose control flow depends on the looked-up values alone.
    It stages what nothing closed-form covers: materialized CSB+-trees,
    non-identity trees and non-integer keys. Each key is its own class
    (its ops carry absolute address indexes); drained rows belong to one
    job, so they bypass the schedule memo. ``reason`` names why the job
    can not replay: an access straddling a cache line, or an event the
    kernel has no row for.
    """

    kind = ("drained",)
    iter_cost = None

    def __init__(self, factory, values, interleave: bool, line_size: int) -> None:
        self.values = values
        started = perf_counter()
        try:
            self.reason = self._drain(factory, interleave, line_size)
        finally:
            _STATS["schedule_compile_s"] += perf_counter() - started

    def _drain(self, factory, interleave: bool, line_size: int) -> str | None:
        addresses: list = []
        results: list = []
        segments: list = []
        add = addresses.append
        for value in self.values:
            stream = factory(value, interleave)
            send = stream.send
            current: list = []
            key_segments = [current]
            append = current.append
            try:
                while True:
                    event = send(None)
                    kind = type(event)
                    if kind is Load:
                        addr, size = event.addr, event.size
                        if event.spec_next is not None:
                            return "workload_kind"
                        if addr % line_size + size > line_size:
                            return "line_straddle"
                        append(("L", len(addresses), size))
                        add(addr)
                    elif kind is Compute:
                        append(("C", event.cycles, event.instructions))
                    elif kind is Suspend:
                        current = []
                        key_segments.append(current)
                        append = current.append
                    elif kind is Prefetch and event.nta:
                        addr, size = event.addr, event.size
                        last = addr + size - 1
                        if addr // line_size == last // line_size:
                            append(("P", len(addresses), size))
                            add(addr)
                        else:
                            append(("PL", len(addresses), size))
                            add(addr)
                            add(last)
                    else:
                        return "workload_kind"
            except StopIteration as stop:
                results.append(stop.value)
            segments.append(key_segments)
        self.addresses = addresses
        self.results = results
        self.templates = segments
        self.key_class = np.arange(len(segments))
        return None

    def probes(self) -> tuple:
        return self.addresses, self.results


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
        self.trace.append(("L", event.addr, event.size, event.spec_next))
        super().execute_load(event, ctx)

    def execute_prefetch(self, event):
        self.trace.append(("P", event.addr, event.size))
        return super().execute_prefetch(event)

    def execute_frame_alloc(self):
        self.trace.append(("F",))
        super().execute_frame_alloc()


#: Validation signatures already checked this process.
_VALIDATED: set = set()


def _expand_expected(ops, addresses, iter_cost, cost):
    """What a :class:`_RecordingEngine` must log for a staged schedule."""
    expected: list = []
    append = expected.append
    computes = {
        _ITER: iter_cost,
        _SWITCH["coro"]: cost.coro_switch,
        _SWITCH["amac"]: cost.amac_switch,
        _SWITCH["gp"]: cost.gp_switch,
    }
    issue = ("C", cost.prefetch_issue_cycles, cost.prefetch_issue_instructions)
    for op in ops:
        tag = op[0]
        if tag == "L":
            append(("L", addresses[op[1]], op[2], None))
        elif tag == "SL":
            index = op[1]
            spec = None
            if addresses[index + 1] != NO_PREDICTION:
                spec = (addresses[index + 1], addresses[index + 2])
            append(("L", addresses[index], op[2], spec))
        elif tag == "P" or tag == "PL":
            append(("P", addresses[op[1]], op[2]))
            append(issue)
        elif tag == "C":
            append(op)
        elif tag == "F":
            append(("F",))
            append(("C", cost.frame_alloc_cycles, cost.frame_alloc_instructions))
        else:  # "IT" or "SW"
            append(("C", *computes[op]))
    return expected


def _validate_staging(executor, tasks, model, group_size: int, arch) -> None:
    """Record the executor's generators once; the staged schedule must match.

    The first time a (technique, address model, group size, cost model)
    combination replays a class of keys, ``executor``'s generators run a
    calibration slice of the job — its own target, with enough of its
    inputs (reused cyclically) for two full generations and a partial
    one, plus the first key of each such class the slice lacks — under a
    :class:`_RecordingEngine`. Their event stream (addresses, sizes,
    ``spec_next`` predictions and compute charges included) must equal
    the staged ops expanded with the model's addresses, and the results
    the model's. Covers the schedule structure end to end: prologue allocations,
    refill timing, partial final generations, per-key segment counts,
    the per-visit event mix, and every class's template.
    """
    technique = executor.schedule
    cost = arch.cost
    signature = (
        technique,
        model.kind,
        group_size,
        cost.issue_width,
        tuple(cost.coro_switch),
        tuple(cost.amac_switch),
        tuple(cost.gp_switch),
        (cost.frame_alloc_cycles, cost.frame_alloc_instructions),
        (cost.prefetch_issue_cycles, cost.prefetch_issue_instructions),
    )
    missing = {
        shape: key
        for shape, key in model.representatives().items()
        if signature + (shape,) not in _VALIDATED
    }
    if not missing:
        return
    n = 2 * group_size + max(2, group_size // 2)  # 2 generations + a partial
    inputs = tasks.inputs
    picks = [i % len(inputs) for i in range(n)]
    picks += sorted(key for key in missing.values() if key >= n)
    calibration = replace(tasks, inputs=tuple(inputs[i] for i in picks))
    calibrated = _address_model(technique, calibration, arch.line_size)
    recorder = _RecordingEngine(arch)
    recorded_results = executor._run(calibration, recorder, group_size)
    faithful = calibrated.reason is None
    if faithful:
        ops = _schedule_ops(technique, calibrated, group_size)
        addresses, staged_results = calibrated.probes()
        addresses = np.asarray(addresses).tolist()
        expected = _expand_expected(ops, addresses, calibrated.iter_cost, cost)
        faithful = (
            expected == recorder.trace
            and list(recorded_results) == list(staged_results)
        )
    if not faithful:
        raise SimulationError(
            f"staged {technique!r} schedule (group_size={group_size}, "
            f"model {model.kind}) does not reproduce the recorded generator "
            f"trace; refusing to replay"
        )
    for shape in calibrated.representatives():
        _VALIDATED.add(signature + (shape,))
    _STATS["validations"] += 1

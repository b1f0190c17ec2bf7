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
  as one template per class of keys, plus every key's probe addresses
  and result, all in closed form:

  - :class:`_SearchModel` covers binary searches over a sorted table:
    sorted-array jobs (the branchy ``std`` search included) and Main
    dictionary locates (the search plus the exact-match load). Every
    key follows the same size-halving recurrence, so all keys are one
    class, and one numpy pass computes the whole probe matrix for
    identity arrays (a pure-Python pass covers arbitrary monotone
    tables). Its schedules are memoized per shape;
  - :class:`_TreeModel` covers integer locates in an implicit Delta
    dictionary (Delta's CSB+-tree walk with code-dereferencing leaves,
    on an identity :class:`~repro.indexes.csb_tree_synthetic.
    ImplicitCSBTree`): one numpy recurrence per depth gives every key's
    addresses and code from the tree's geometry, and keys fall into at
    most ``height + 1`` classes by their probe counts. Its rows belong
    to one job.

* an **interleave rule** per technique orders the segments by each
  key's segment count: ``sequential``, ``Baseline`` and ``std`` run a
  key's segments back to back, CORO resumes a group round-robin, and GP
  and AMAC (rewrites for sorted arrays only) step a group, or a
  refilling buffer, through alternating prefetch and access stages.

Templates and rules speak one op vocabulary, in which every compute the
generators issue is a ``("C", cycles, instructions)`` op. The ordered
ops are lowered to the ``(opcode, address_index, advance)`` rows of
:mod:`repro.sim.replay`, consecutive computes pre-merged, plus static
instruction/slot totals, and :meth:`ExecutionEngine.execute_rows
<repro.sim.engine.ExecutionEngine.execute_rows>` runs them against the
live memory system: **bit-identical** cycle counts, results, counters
and engine RNG draws, without generators or event objects. The first
time a schedule signature (:func:`_signature`) replays a class of keys,
the executor's generators run a calibration slice of the job (with a
key of every class it would otherwise lack) on an engine that logs
their events and simulates nothing, and the same ops, their address
indexes resolved, must equal that log (a mismatch is a hard
:class:`~repro.errors.SimulationError`, never a silent wrong answer).

This module owns only the interleaving side: which rows a technique
issues, in which order. The machine model lives in :mod:`repro.sim`,
and nothing here touches its private state.

There is no separate compiled executor: ``std``, ``Baseline``, ``GP``,
``AMAC``, ``CORO`` and ``sequential`` declare a schedule key and route
every run through :func:`run_staged`, which alone decides whether a job
replays: a sorted-array job or a locate an address model covers, whose
loads never straddle a cache line, on a plain
:class:`~repro.sim.engine.ExecutionEngine` whose tracer is off, run by
an executor without ``executor_options``. Every other job runs the
executor's generators and counts the fallback by executor and by reason
(``workload_kind``, ``tracer``, ``engine_subclass``, ``shallow_table``,
``line_straddle``, ``executor_options``). Opaque stream jobs never
replay: a stream may read the outcome of its own events.
:func:`compiled_stats` is the one view of the counters.

Staged search schedules are memoized in-process as compact integer
arrays under the same signature, least recently used first out once the
memo holds more than :data:`_MEMO_ROW_BUDGET` rows.
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
    "reset_compiled_stats",
    "run_staged",
    "search_depth",
]

# ----------------------------------------------------------------------
# Counters and timings
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
    "validation_s": 0.0,
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
    """Cumulative wallclock split: staging schedules, validating them
    against their generators, and replaying them."""
    return {
        key: _STATS[key] for key in ("schedule_compile_s", "validation_s", "replay_s")
    }


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

    ``executor.schedule`` names the interleave rule. A job that
    :func:`_fallback_reason` turns away, that no address model covers
    (``workload_kind``), or whose tree model finds a load straddling a
    cache line, runs the executor's generators (``executor._run``),
    counted as a fallback.
    """
    if _GENERATORS_ONLY or not tasks.inputs:
        return executor._run(tasks, engine, group_size)
    technique = executor.schedule
    reason = _fallback_reason(executor, tasks, engine)
    if reason is None:
        started = perf_counter()
        model = _address_model(technique, tasks, engine.arch.line_size)
        if model is None:
            reason = "workload_kind"
        else:  # building a model (a tree walk) is staging, even if it refuses
            _STATS["schedule_compile_s"] += perf_counter() - started
            reason = model.reason
    if reason is not None:
        _count_fallback(executor.name, reason)
        return executor._run(tasks, engine, group_size)
    signature = _signature(technique, model, group_size, engine.cost)
    _validate_staging(executor, tasks, model, signature, engine.arch)
    rows, totals = model.schedule(technique, group_size, engine.cost, signature)
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
# Exactly one op per engine-visible event. Address ops carry an index
# into the job's flat address list, relative to the base of the key's
# block when they sit in a segment template; the access size only
# matters to staging validation (replay loads one line per load):
#   ("L", i, size)    demand load of addresses[i]
#   ("SL", i, size)   branchy-search load of addresses[i]; addresses[i + 1]
#                     and [i + 2] are the predicted successors, or
#                     NO_PREDICTION (see repro.sim.replay)
#   ("P", i, size)    PREFETCHNTA of addresses[i] (one line)
#   ("PL", i)         PREFETCHNTA of the bytes addresses[i] .. addresses[i + 1]
#   ("C", c, i)       a compute of c cycles and i instructions: a search
#                     iteration, a stream switch, any other straight line
#   ("F",)            coroutine frame allocation
# Interleave rules also emit ("S", key, segment): run the events of one
# key's segment, the stretch between two suspension points. The engine
# charges a prefetch's issue and a frame allocation itself, so the
# lowering charges them, not the ops.

_FRAME = ("F",)


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
# Interleave rules: the order of each technique's segments
# ----------------------------------------------------------------------
#
# A rule sees only each key's segment count, the group size and the
# cost model its switches are charged from.


def _rule_sequential(counts: list, group_size: int, cost) -> list:
    """Baseline / sequential / std: each key runs to completion, in order."""
    return [
        ("S", key, segment)
        for key, count in enumerate(counts)
        for segment in range(count)
    ]


def _rule_coro(counts: list, group_size: int, cost) -> list:
    """CORO: Listing 7's round-robin with frame recycling on refill.

    ``counts[key]`` is the number of resumes key's coroutine takes (its
    suspensions plus one); each resume is one switch and one segment.
    """
    n = len(counts)
    ops: list = []
    append = ops.append
    switch = ("C", *cost.coro_switch)
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


def _rule_gp(counts: list, group_size: int, cost) -> list:
    """Group prefetching: lock-step blocks. A key's segments alternate a
    prefetch stage and an access stage, as many for every key of a block;
    each iteration runs the block's prefetch stages, then its access
    stages, each followed by GP's per-stream bookkeeping."""
    ops: list = []
    append = ops.append
    switch = ("C", *cost.gp_switch)
    for start in range(0, len(counts), group_size):
        block = range(start, min(start + group_size, len(counts)))
        for stage in range(0, counts[start], 2):
            for key in block:
                append(("S", key, stage))
            for key in block:
                append(("S", key, stage + 1))
                append(switch)
    return ops


def _rule_amac(counts: list, group_size: int, cost) -> list:
    """AMAC: round-robin buffer of state machines, refill inside a visit.
    A key's segments alternate a prefetch stage (even) and an access
    stage (odd); each visit switches in and runs the slot's segments up
    to the next prefetch stage, starting the next key in a finished
    key's slot."""
    n = len(counts)
    ops: list = []
    append = ops.append
    switch = ("C", *cost.amac_switch)
    group = min(group_size, n)
    # Slot state: [key, segments_run]; None once retired.
    buffer: list = [[key, 0] for key in range(group)]
    next_input = group
    not_done = group
    while not_done:
        for position in range(group):
            slot = buffer[position]
            if slot is None:
                continue
            append(switch)
            while True:
                key, segment = slot
                if segment < counts[key]:
                    append(("S", key, segment))
                    slot[1] = segment + 1
                    if segment % 2 == 0:  # a prefetch stage: switch out
                        break
                elif next_input < n:  # done: start the next key this visit
                    slot[:] = (next_input, 0)
                    next_input += 1
                else:
                    buffer[position] = None
                    not_done -= 1
                    break
    return ops


_RULES = {
    "baseline": _rule_sequential,
    "sequential": _rule_sequential,
    "std": _rule_sequential,
    "coro": _rule_coro,
    "gp": _rule_gp,
    "amac": _rule_amac,
}


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
# replay kernel itself, not folded into ``advance``. Instruction and
# issue-slot totals are *static* per schedule, summed once at staging
# instead of on every replay. A staged schedule stores its rows
# column-wise in one ``(3, n_rows)`` int32 array.

_OPCODES = {
    "L": OP_LOAD,
    "SL": OP_SPEC_LOAD,
    "P": OP_PREFETCH,
    "PL": OP_PREFETCH_LINES,
}


def _lower_rows(technique: str, model, group_size: int, cost) -> tuple:
    """Stage ``model``'s keys in ``technique``'s order: the row array and
    its ``(instructions_total, core_slots_total)``.

    Each template segment is lowered once, to its memory rows ``(opcode,
    index, advance)`` and the compute after them; each run of it appends
    those rows with the key's base address index added.
    """
    issue_width = cost.issue_width
    frame = cost.frame_alloc_instructions
    steps = {_FRAME: (_advance(cost.frame_alloc_cycles, frame, issue_width), frame)}
    prefetch = cost.prefetch_issue_instructions
    issue = (_advance(cost.prefetch_issue_cycles, prefetch, issue_width), prefetch)

    def charge(op) -> tuple:
        """A compute's or frame allocation's ``(advance, instructions)``."""
        step = steps.get(op)
        if step is None:  # ("C", cycles, instructions)
            step = steps[op] = (_advance(op[1], op[2], issue_width), op[2])
        return step

    def lower(segment) -> tuple:
        rows: list = []
        pending = instructions = advance = 0
        for op in segment:
            opcode = _OPCODES.get(op[0])
            if opcode is None:
                step = charge(op)
                pending += step[0]
            else:
                rows.append((opcode, op[1], pending))
                pending = 0
                step = issue if opcode in (OP_PREFETCH, OP_PREFETCH_LINES) else (0, 0)
            advance += step[0]
            instructions += step[1]
        return rows, pending, instructions, advance

    templates, key_class = model.templates, model.key_class.tolist()
    lowered = [[lower(segment) for segment in template] for template in templates]
    stride = model.stride
    opcodes: list = []
    indexes: list = []
    advances: list = []
    pending = instructions_total = advance_total = 0
    for op in _RULES[technique]([len(templates[c]) for c in key_class], group_size, cost):
        if op[0] == "S":
            key = op[1]
            base = key * stride
            rows, tail, instructions, advance = lowered[key_class[key]][op[2]]
            for opcode, index, before in rows:
                opcodes.append(opcode)
                indexes.append(index + base)
                advances.append(pending + before)
                pending = 0
            pending += tail
        else:  # the rule's own switch or frame allocation
            advance, instructions = charge(op)
            pending += advance
        instructions_total += instructions
        advance_total += advance
    if pending:
        opcodes.append(OP_COMPUTE)
        indexes.append(0)
        advances.append(pending)
    core_slots_total = issue_width * advance_total - instructions_total
    rows = np.array([opcodes, indexes, advances], dtype=np.int32)
    return rows, (instructions_total, core_slots_total)


def _signature(technique: str, model, group_size: int, cost) -> tuple:
    """What a job's staged rows depend on besides its keys and classes.

    The rule, the model's kind and iteration cost, the group size (at
    index 3), and every cost-model charge the rules and the lowering
    read. The memo keys a schedule by it plus the model's ``memo_key``,
    and validation a class by it plus the class.
    """
    return (
        technique, model.kind, model.iter_cost, group_size, cost.issue_width,
        cost.coro_switch, cost.amac_switch, cost.gp_switch,
        cost.frame_alloc_cycles, cost.frame_alloc_instructions,
        cost.prefetch_issue_cycles, cost.prefetch_issue_instructions,
    )


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
# Address models: which jobs replay, each key's segments and addresses
# ----------------------------------------------------------------------


def _fallback_reason(executor, tasks, engine) -> str | None:
    """Why ``tasks`` can not replay, judged before any model is built.

    ``None`` lets the job through to :func:`_address_model`. Reasons are
    checked, and so counted, in this order.
    """
    # Workload kinds as executor.py names them (it imports this module).
    if tasks.kind == "sorted_array":
        table = tasks.target
    elif tasks.kind == "locate":
        table = getattr(tasks.target, "array", None)  # Main's sorted table
    else:
        # Opaque streams may branch on their own events' outcomes.
        return "workload_kind"
    if engine.tracer.enabled:
        return "tracer"  # span recorders need the live event stream
    if type(engine) is not ExecutionEngine:
        return "engine_subclass"
    if tasks.kind == "sorted_array" and table.size < 2:
        return "shallow_table"  # search depth 0
    if table is not None:
        element_size = table.element_size
        if engine.arch.line_size % element_size or table.region.base % element_size:
            return "line_straddle"  # replay loads exactly one line per probe
    if executor.executor_options:
        return "executor_options"
    return None


def _address_model(technique: str, tasks, line_size: int):
    """The address model of a job :func:`_fallback_reason` let through.

    Sorted-array jobs, and locates in a dictionary that binary-searches
    a sorted table (a Main dictionary exposes it as ``array``), get a
    :class:`_SearchModel`; integer locates in a dictionary indexed by an
    identity implicit CSB+-tree (an implicit Delta) a :class:`_TreeModel`.
    Any other locate (a materialized ``CSBTree`` Delta, a non-identity
    tree, keys numpy can not hold as ``int64``) has none: ``None``.
    """
    interleave = technique == "coro"
    if tasks.kind == "sorted_array":
        return _SearchModel(
            tasks.target, tasks.inputs, tasks.costs, technique,
            speculative=technique == "std", verify=False,
        )
    table = getattr(tasks.target, "array", None)
    if table is not None:
        # Main's locate: the branchy speculative search when sequential,
        # the coroutine when interleaved, then the exact-match check.
        return _SearchModel(
            table, tasks.inputs, tasks.costs, technique,
            speculative=not interleave, verify=True,
        )
    tree = getattr(tasks.target, "tree", None)
    if (
        getattr(tree, "is_identity", False)
        and hasattr(tasks.target, "dict_view")
        and _int64_values(tasks.inputs)
    ):
        return _TreeModel(tasks.target, tasks.inputs, tasks.costs, interleave, line_size)
    return None


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
    in signatures, ``iter_cost`` is one search iteration's ``(cycles,
    instructions)``, and :meth:`probes` returns the flat addresses and
    per-key results. ``reason`` says why the job can not replay, if so.
    ``memo_key`` is what the rows depend on besides the job's
    :func:`_signature`, or ``None`` when they belong to one job.
    """

    reason = None
    memo_key = None

    def representatives(self) -> dict:
        """Validation class -> the first key of it (one class by default)."""
        return {(): 0}

    def schedule(self, technique: str, group_size: int, cost, signature: tuple) -> tuple:
        """Stage this job's rows and totals, or recall them from the memo."""
        memo = _SCHEDULE_MEMO
        if self.memo_key is not None:
            signature += self.memo_key
            staged = memo.get(signature)
            if staged is not None:
                memo.move_to_end(signature)
                _STATS["schedule_cache_hits"] += 1
                return staged
        started = perf_counter()
        staged = _lower_rows(technique, self, group_size, cost)
        if self.memo_key is not None:
            memo[signature] = staged
            held = _memo_rows()
            while held > _MEMO_ROW_BUDGET and len(memo) > 1:
                _key, (rows, _totals) = memo.popitem(last=False)
                held -= rows.shape[1]
        _STATS["compiled_schedules"] += 1
        _STATS["schedule_compile_s"] += perf_counter() - started
        return staged


class _SearchModel(_AddressModel):
    """A binary search over a sorted table: one recurrence for every key.

    Every key runs the size-halving recurrence of the shared search, so
    all keys are one class, and the schedule — which rows, in which
    order — depends only on the number of keys, the search depth and the
    group size: it is staged once per shape and memoized, and per-key
    divergence lives entirely in the probe *addresses*. Each key owns a
    block of ``stride`` addresses: probe ``it`` at ``width * it`` (a
    branchy search follows each probe with its two predicted successors,
    ``width`` 3), then the exact-match load of a locate.
    """

    def __init__(self, table, values, costs, technique, *, speculative, verify):
        self.table = table
        self.values = values
        self.halves = _halves(table.size)  # the table size alone sets them
        self.depth = len(self.halves)
        self.technique = technique
        self.speculative = speculative
        self.verify = verify
        self.width = 3 if speculative else 1
        self.stride = self.depth * self.width + verify
        self.size = table.element_size
        costs = costs.for_table(table)
        self.iter_cost = (costs.iter_cycles, costs.iter_instructions)
        self.kind = ("search", speculative, verify)
        self.memo_key = (len(values), self.depth)

    @property
    def templates(self) -> list:
        """The one class's segments. GP and AMAC alternate a prefetch
        stage and an access stage per iteration; CORO resumes with the
        load and iteration the previous suspension waited for, then
        issues the next prefetch; any other rule runs the whole search as
        one segment. A locate ends with its exact-match check."""
        size, width = self.size, self.width
        step = ("C", *self.iter_cost)
        if self.technique in ("gp", "amac"):
            return [[
                stage
                for it in range(self.depth)
                for stage in ([("P", it, size)], [("L", it, size), step])
            ]]
        load = "SL" if self.speculative else "L"
        segments: list = []
        ops: list = []
        for it in range(self.depth):
            if self.technique == "coro":
                ops.append(("P", it, size))
                segments.append(ops)
                ops = []
            ops += ((load, it * width, size), step)
        if self.verify:
            ops += (("L", self.stride - 1, size), ("C", *EXACT_MATCH_COST))
        segments.append(ops)
        return [segments]

    @property
    def key_class(self) -> np.ndarray:
        return np.zeros(len(self.values), dtype=np.intp)

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

    Which events a key's walk issues depends only on its *probe counts*:
    the separator probes at each inner depth (-1 for a node with a
    single child, which routes without a search) and its leaf's
    comparisons before the final one. Keys with one tuple of counts are
    one class with one segment template (a child prefetch is always a
    line range, whichever lines the child spans: a one-line range
    replays exactly as a one-line prefetch). Every node off the right
    spine of a left-full tree is full, so a job has at most ``height +
    1`` classes, and all but one lie on the ragged right spine. Each
    key's address block holds a column per separator probe of each
    depth, the child prefetch's first and last byte (interleaved), and a
    code slot and entry per leaf comparison, the final one last; a class
    uses the columns its counts reach.
    """

    kind = ("tree",)

    def __init__(self, dictionary, values, costs, interleave: bool, line_size: int):
        self.values = values
        self.iter_cost = (costs.iter_cycles, costs.iter_instructions)
        tree, view = dictionary.tree, dictionary.dict_view
        keys = np.asarray(values, dtype=np.int64)
        key_size, node_size = tree.key_size, tree.node_size
        entry_size = view.element_size
        leaf_depth = tree.height - 1
        columns: list = []  # address columns: one array each, an entry per key
        counts: list = []  # probe-count columns, one per depth
        loads: list = []  # (addresses, size) of every demand load issued
        layout: list = []  # per inner depth: (first probe column, prefetch column)
        node = np.zeros(keys.size, dtype=np.int64)
        for depth in range(leaf_depth):
            first, step, separators = tree.key_entries(depth, node)
            probe_column = len(columns)
            low = np.zeros_like(node)
            size = separators.copy()
            probes = np.where(separators > 0, 0, -1)
            for _ in range(search_depth(int(separators.max()))):
                half = size // 2
                probe = low + half
                address = tree.key_addresses(depth, node, probe)
                columns.append(address)
                loads.append((address[half > 0], key_size))
                low = np.where(first + probe * step <= keys, probe, low)
                size -= half
                probes += half > 0
            right = (separators > 0) & (first + low * step <= keys)
            node = tree.child_indexes(depth, node, np.where(right, low + 1, 0))
            counts.append(probes)
            layout.append((probe_column, len(columns)))
            if interleave:
                child = tree.node_addresses(depth + 1, node)
                columns += (child, child + node_size - 1)
        first, step, count = tree.key_entries(leaf_depth, node)
        low = np.zeros_like(node)
        size = count.copy()
        probes = np.zeros_like(node)
        compared: list = []  # leaf position of each comparison; the final last
        for _ in range(search_depth(int(count.max()))):
            half = size // 2
            probe = low + half
            compared.append((probe, half > 0))
            low = np.where(first + probe * step <= keys, probe, low)
            size -= half
            probes += half > 0
        counts.append(probes)
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
            np.stack(counts, axis=1), axis=0, return_index=True, return_inverse=True
        )
        self.key_class = inverse.reshape(-1)
        self.classes = [tuple(row) for row in classes.tolist()]
        self.firsts = firsts.tolist()
        geometry = (key_size, entry_size, leaf_column, len(compared) - 1, self.iter_cost)
        self.templates = [
            _tree_template(row, layout, geometry, interleave) for row in self.classes
        ]

    def representatives(self) -> dict:
        return dict(zip(self.classes, self.firsts))

    def probes(self) -> tuple:
        return self.addresses, self.results


def _tree_template(probes: tuple, layout: list, geometry: tuple, interleave: bool) -> list:
    """The segments of one probe-count class of :class:`_TreeModel`, ops
    in the order ``delta_locate_stream`` issues them."""
    key_size, entry_size, leaf_column, final, iter_cost = geometry
    step = ("C", *iter_cost)
    segments: list = [[]]
    ops = segments[-1]
    for (probe_column, prefetch_column), count in zip(layout, probes):
        if count < 0:
            ops.append(("C", *SINGLE_CHILD_COST))
        else:
            for it in range(count):
                ops += (("L", probe_column + it, key_size), step)
            ops.append(("C", *ROUTE_COST))
        if interleave:  # a line range, even when the node fits one line
            ops.append(("PL", prefetch_column))
            ops = []
            segments.append(ops)
    for compare in (*range(probes[-1]), final):
        slot = leaf_column + 2 * compare
        ops.append(("L", slot, entry_size))
        if interleave:
            ops.append(("P", slot + 1, entry_size))
            ops = []
            segments.append(ops)
        ops += (("L", slot + 1, entry_size), step)
    ops.append(("C", *EXACT_MATCH_COST))
    return segments


# ----------------------------------------------------------------------
# Trace recording: the staging is checked against the live executor
# ----------------------------------------------------------------------


class _RecordingEngine(ExecutionEngine):
    """Engine that logs the loads, prefetches, computes and frame
    allocations it is handed, and executes none of them.

    No replaying executor's events depend on machine state, so a
    calibration run needs no memory system, and the engine's own charges
    for prefetch issue and frame allocation are the lowering's to add. A
    prefetch answers "not cached": only the conditional-suspension
    ablation reads that answer, and it never replays.
    """

    def __init__(self, arch) -> None:
        super().__init__(arch)
        self.trace: list = []

    def compute(self, cycles, instructions):
        self.trace.append(("C", cycles, instructions))

    def execute_load(self, event, ctx=None):
        self.trace.append(("L", event.addr, event.size, event.spec_next))

    def execute_prefetch(self, event):
        self.trace.append(("P", event.addr, event.size))
        return False

    def execute_frame_alloc(self):
        self.trace.append(_FRAME)


#: Validation signatures (a :func:`_signature` plus a class) already
#: checked this process.
_VALIDATED: set = set()


def _expand_expected(technique: str, model, group_size: int, cost, addresses) -> list:
    """What a :class:`_RecordingEngine` must log for ``model``'s keys in
    ``technique``'s order: every address index resolved, and a line
    range sized by its staged last byte. Computes and frame allocations
    are logged as they are staged."""
    templates, key_class = model.templates, model.key_class.tolist()
    addresses = np.asarray(addresses).tolist()
    expected: list = []
    append = expected.append
    for item in _RULES[technique]([len(templates[c]) for c in key_class], group_size, cost):
        ops, base = (item,), 0
        if item[0] == "S":
            ops, base = templates[key_class[item[1]]][item[2]], item[1] * model.stride
        for op in ops:
            tag = op[0]
            if tag == "L":
                append(("L", addresses[op[1] + base], op[2], None))
            elif tag == "SL":
                index = op[1] + base
                spec = None
                if addresses[index + 1] != NO_PREDICTION:
                    spec = (addresses[index + 1], addresses[index + 2])
                append(("L", addresses[index], op[2], spec))
            elif tag == "P":
                append(("P", addresses[op[1] + base], op[2]))
            elif tag == "PL":
                first, last = addresses[op[1] + base : op[1] + base + 2]
                append(("P", first, last - first + 1))
            else:  # ("C", cycles, instructions) or ("F",)
                append(op)
    return expected


def _validate_staging(executor, tasks, model, signature: tuple, arch) -> None:
    """Record the executor's generators once; the staged schedule must match.

    The first time a :func:`_signature` replays a class of keys,
    ``executor``'s generators run a calibration slice of the job — its
    own target, with enough of its inputs (reused cyclically) for two
    full generations and a partial one, plus the first key of each such
    class the slice lacks — under a :class:`_RecordingEngine`. Their
    event stream (addresses, sizes, ``spec_next`` predictions and
    compute charges included) must equal the staged ops with their
    address indexes resolved, and the results the model's: prologue
    allocations, refill timing, partial final generations, per-key
    segment counts and every class's template. Charged to ``validation_s``.
    """
    missing = {
        cls: key
        for cls, key in model.representatives().items()
        if signature + (cls,) not in _VALIDATED
    }
    if not missing:
        return
    started = perf_counter()
    technique, group_size = signature[0], signature[3]
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
        addresses, staged_results = calibrated.probes()
        expected = _expand_expected(technique, calibrated, group_size, arch.cost, addresses)
        faithful = (
            expected == recorder.trace and list(recorded_results) == list(staged_results)
        )
    _STATS["validation_s"] += perf_counter() - started
    if not faithful:
        raise SimulationError(
            f"staged {technique!r} schedule (group_size={group_size}, "
            f"model {model.kind}) does not reproduce the recorded generator "
            f"trace; refusing to replay"
        )
    for cls in calibrated.representatives():
        _VALIDATED.add(signature + (cls,))
    _STATS["validations"] += 1

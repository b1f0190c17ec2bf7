"""Batch replay: the memory-system model as one generated kernel.

:meth:`ExecutionEngine.execute_rows <repro.sim.engine.ExecutionEngine.execute_rows>`
executes a whole stream of computes, demand loads and software
prefetches in one call, against the live machine state — the same
cache sets, TLB arrays, line-fill buffers and ``FillRequest`` objects
the event-at-a-time path uses — and ends with every counter exactly
where issuing the stream through :meth:`~ExecutionEngine.compute`,
:meth:`~ExecutionEngine.execute_load` and
:meth:`~ExecutionEngine.execute_prefetch` would have left it.

A stream is a ``(3, n_rows)`` integer array whose columns are
``(opcode, address_index, advance)`` rows:

* ``(OP_LOAD, i, adv)`` — demand load of ``addresses[i]``;
* ``(OP_PREFETCH, i, adv)`` — ``PREFETCHNTA`` of ``addresses[i]``, its
  issue charge included;
* ``(OP_SPEC_LOAD, i, adv)`` — demand load of ``addresses[i]`` by a
  branchy search (``Load`` with ``spec_next``): it first resolves the
  pending branch prediction (a mispredict costs the penalty), and unless
  ``addresses[i + 1]`` is :data:`NO_PREDICTION` it predicts the next
  probe — ``addresses[i + 1]`` or ``addresses[i + 2]``, drawn from the
  engine's RNG exactly as ``execute_load`` draws — and starts its fill
  early: an uncharged shadow translation, then a prefetch fill that is
  not non-temporal, both at the speculative issue cycle;
* ``(OP_PREFETCH_LINES, i, adv)`` — one ``PREFETCHNTA`` of the bytes
  ``addresses[i]`` .. ``addresses[i + 1]``, one fill per line touched
  (a CSB+-tree node);
* ``(OP_COMPUTE, 0, adv)`` — pure compute;

where ``adv`` is the clock advance of the straight-line compute that
precedes the row's memory operation, already normalized by
:func:`_advance`. Instruction and issue-slot accounting does not depend
on the machine state, so the caller passes it once as the stream's
``(instructions, core_slots)`` totals. A prediction never outlives its
stream: the last load of a branchy search resolves it without
predicting again.

The kernel performs the integer arithmetic of :mod:`~repro.sim.engine`,
:mod:`~repro.sim.memory`, :mod:`~repro.sim.tlb`, :mod:`~repro.sim.lfb`
and :mod:`~repro.sim.cache` with every helper (LFB drain, fill start,
page walk) inlined into one loop and the statistics held in local
integers, written back once at the end. Each machine step appears once
per role: every memory row runs the one charged translation and the one
drain at ``clock``, both loads share one demand-load body (its L1 hit,
LFB merge and fill start yield ``ready``, and one exposed-stall charge
follows), and both prefetches share one loop over the lines they touch,
draining between lines. Its source is generated from the templates below
and compiled once per process; the machine's geometry, latencies and LFB
capacity are arguments, so one kernel serves every machine and every
fault-injected change to it.
"""

from __future__ import annotations

from functools import cache
from heapq import heapify, heappop, heappush
from operator import itemgetter
from textwrap import indent

import numpy as np

from repro.sim.allocator import PAGE_TABLE_BASE
from repro.sim.lfb import FillRequest
from repro.sim.tlb import PTE_SIZE

__all__ = [
    "NO_PREDICTION",
    "OP_COMPUTE",
    "OP_LOAD",
    "OP_PREFETCH",
    "OP_PREFETCH_LINES",
    "OP_SPEC_LOAD",
]

#: Row opcodes.
OP_COMPUTE = 0
OP_LOAD = 1
OP_PREFETCH = 2
OP_SPEC_LOAD = 3
OP_PREFETCH_LINES = 4

#: ``addresses`` entry marking a speculative load with no prediction.
NO_PREDICTION = -1


def _advance(cycles: int, instructions: int, issue_width: int) -> int:
    """Clock advance of one compute charge (TMAM capacity normalization)."""
    floor = -(-instructions // issue_width)
    return cycles if cycles >= floor else floor


# ----------------------------------------------------------------------
# Source templates
# ----------------------------------------------------------------------


def _drain_src(now: str) -> str:
    """LFB drain + cache installs (``LineFillBuffers.drain`` inlined).

    Completions come off a min-heap of ``(completion, seq, line)``
    entries instead of scanning ``in_flight``. When several fills
    complete in one drain, installs happen in fill-*start* order
    (``seq``), which is exactly ``in_flight``'s dict insertion order —
    the order the live drain hands them to ``MemorySystem._complete_fill``.
    Completed requests go to ``pool`` for the next fill start.
    """

    def install(level: str) -> str:
        return f"""\
d_ways = {level}_sets[d_line % {level}_n]
if d_line in d_ways:
    del d_ways[d_line]
elif LEN(d_ways) >= {level}_a:
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
{indent(install("l3"), " " * 12)}
            if not d_req.non_temporal:
{indent(install("l2"), " " * 16)}
        elif d_src == "L3" and not d_req.non_temporal:
{indent(install("l2"), " " * 12)}
{indent(install("l1"), " " * 8)}
    next_completion = heap[0][0] if heap else INF"""


def _start_fill_src(line: str, now: str, non_temporal: str, is_prefetch: str) -> str:
    """Fill start (``LineFillBuffers.acquire`` + ``MemorySystem._start_fill``).

    Leaves ``fill_completion``, ``fill_source`` and ``f_start`` bound;
    the caller derives the issue stall from ``f_start - {now}``. The
    caller has drained at ``{now}``; ``{non_temporal}`` and
    ``{is_prefetch}`` are the literals ``True`` or ``False``: a demand
    fill sets neither, ``PREFETCHNTA`` both, and the speculative fill of
    a predicted load only ``is_prefetch``.
    """
    return f"""\
f_start = {now}
while occ >= lfb_capacity:
    f_earliest = next_completion
    acquire_stall += f_earliest - f_start
    f_start = f_earliest
{indent(_drain_src("f_start"), " " * 4)}
f_ways = l2_sets[{line} % l2_n]
if f_ways.pop({line}, 0) is None:
    f_ways[{line}] = None
    l2_hits += 1
    fill_source = "L2"
    fill_completion = f_start + l2_latency
else:
    l2_misses += 1
    f_ways = l3_sets[{line} % l3_n]
    if f_ways.pop({line}, 0) is None:
        f_ways[{line}] = None
        l3_hits += 1
        fill_source = "L3"
        fill_completion = f_start + l3_latency
    else:
        l3_misses += 1
        fill_source = "DRAM"
        fill_completion = f_start + dram_latency
if pool:
    f_req = pool.pop()
    f_req.line = {line}
    f_req.issue_cycle = f_start
    f_req.completion_cycle = fill_completion
    f_req.source_level = fill_source
    f_req.non_temporal = {non_temporal}
    f_req.is_prefetch = {is_prefetch}
else:
    f_req = FillRequest({line}, f_start, fill_completion, fill_source, {non_temporal}, {is_prefetch})
in_flight[{line}] = f_req
heappush(heap, (fill_completion, seq, {line}))
seq += 1
occ += 1
if fill_completion < next_completion:
    next_completion = fill_completion
fills_issued += 1
if occ > peak_occupancy:
    peak_occupancy = occ"""


#: Charge the LFB issue stall after an inlined fill start.
_ISSUE_STALL_SRC = """\
if f_start > clock:
    lfb_stall += f_start - clock
    clock = f_start"""


def _translate_src(index: str = "a", now: str = "clock", charged: bool = True) -> str:
    """DTLB probe + STLB probe + page walk (``Tlb.translate`` inlined).

    Translates ``vpns[{index}]`` at cycle ``{now}``. Binds ``t_ways`` to
    the DTLB set for ``vpn``; in the walk path the re-install checks of
    the live code are dropped because ``vpn`` is provably absent (the
    DTLB pop missed without mutating, the STLB pop returned a miss, and
    PTE cache traffic never touches the TLBs). ``charged`` adds the
    engine's stall charge (``ExecutionEngine._translate``); without it
    this is the shadow translation of a speculatively issued load, which
    updates TLB and cache state but overlaps the current stall.
    """
    stlb_charge = walk_charge = walk_l1_charge = translation_charge = ""
    if charged:
        stlb_charge = """
        translation_stall += stlb_latency
        clock += stlb_latency"""
        walk_l1_charge = """
            w_charged = walk_l1_charged"""
        walk_charge = """
            w_charged = w_cycles - ooo_hide
            if w_charged < walk_base:
                w_charged = walk_base"""
        translation_charge = """
        translation_stall += w_charged
        clock += w_charged"""
    return f"""\
vpn = vpns[{index}]
t_ways = dtlb_sets[vpn % dtlb_n]
if t_ways.pop(vpn, 0) is None:
    t_ways[vpn] = None
    dtlb_hits += 1
else:
    w_stlb = stlb_sets[vpn % stlb_n]
    if w_stlb.pop(vpn, 0) is None:
        w_stlb[vpn] = None
        stlb_hits += 1
        if LEN(t_ways) >= dtlb_a:
            for t_evict in t_ways:
                break
            del t_ways[t_evict]
        t_ways[vpn] = None{stlb_charge}
    else:
        probe_at = {now} + walk_base
        pte_line = pte_lines[{index}]
{indent(_drain_src("probe_at"), " " * 8)}
        w_ways = l1_sets[pte_line % l1_n]
        if w_ways.pop(pte_line, 0) is None:
            w_ways[pte_line] = None
            l1_hits += 1
            walks_by_level["PW-L1"] = walks_by_level.get("PW-L1", 0) + 1
            walk_cycles_delta += walk_l1_cycles{walk_l1_charge}
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
{indent(_start_fill_src("pte_line", "probe_at", "False", "False"), " " * 16)}
                w_ready = fill_completion
                w_level = fill_source
            w_cycles = walk_base + (w_ready - probe_at)
            w_bucket = "PW-" + w_level
            walks_by_level[w_bucket] = walks_by_level.get(w_bucket, 0) + 1
            walk_cycles_delta += w_cycles{walk_charge}
        if LEN(w_stlb) >= stlb_a:
            for w_evict in w_stlb:
                break
            del w_stlb[w_evict]
        w_stlb[vpn] = None
        if LEN(t_ways) >= dtlb_a:
            for t_evict in t_ways:
                break
            del t_ways[t_evict]
        t_ways[vpn] = None{translation_charge}"""


def _kernel_src() -> str:
    """The whole replay loop: one function over rows and machine parameters.

    Every memory row runs one charged translation and one drain at
    ``clock``; between them sits its kind's pre-step (a speculative
    load's branch resolution, a prefetch's issue advance). Loads then
    share one demand-load body, and prefetches one loop over the lines
    they touch (one line for ``OP_PREFETCH``).
    """
    return f"""\
def kernel(rows, lines, vpns, pte_lines, in_flight, heap, seq,
           l1_sets, l2_sets, l3_sets, dtlb_sets, stlb_sets, walks_by_level,
           clock, next_completion, peak_occupancy, *,
           l1_n, l1_a, l2_n, l2_a, l2_latency, l3_n, l3_a, l3_latency,
           dram_latency, dtlb_n, dtlb_a, stlb_n, stlb_a, stlb_latency,
           lfb_capacity, ooo_hide, walk_base, walk_l1_cycles, walk_l1_charged,
           prefetch_advance, l1_latency, ooo_hide_spec, spec_delay,
           mispredict_penalty, choice,
           INF=float("inf"), heappush=heappush, heappop=heappop,
           BYSEQ=itemgetter(1), LEN=len, FillRequest=FillRequest,
           CANDIDATES=(1, 2)):
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
    branches = mispredicts = 0
    predicted = -1  # line the pending branch prediction fetched (-1: none)
    for op, a, advance in rows:
        if advance:
            clock += advance
        if op == {OP_COMPUTE}:
            continue
{indent(_translate_src(), " " * 8)}
        if op != {OP_LOAD}:
            if op == {OP_SPEC_LOAD}:
                if predicted >= 0:
                    branches += 1
                    if predicted != lines[a]:
                        mispredicts += 1
                        clock += mispredict_penalty
                    predicted = -1
                issued_at = clock
            else:
                clock += prefetch_advance
{indent(_drain_src("clock"), " " * 8)}
        line = lines[a]
        if op == {OP_LOAD} or op == {OP_SPEC_LOAD}:
            ways = l1_sets[line % l1_n]
            if ways.pop(line, 0) is None:
                ways[line] = None
                l1_hits += 1
                loads_l1 += 1
                ready = clock + l1_latency
            else:
                l1_misses += 1
                req = in_flight.get(line)
                if req is not None:
                    req.non_temporal = False
                    req.is_prefetch = False
                    loads_lfb += 1
                    # Drained at ``clock``: a fill still in flight
                    # completes after it.
                    ready = req.completion_cycle
                else:
{indent(_start_fill_src("line", "clock", "False", "False"), " " * 20)}
{indent(_ISSUE_STALL_SRC, " " * 20)}
                    if fill_source == "L2":
                        loads_l2 += 1
                    elif fill_source == "L3":
                        loads_l3 += 1
                    else:
                        loads_dram += 1
                    ready = fill_completion
            if op == {OP_SPEC_LOAD} and lines[a + 1] >= 0:
                spec = a + choice(CANDIDATES)
                spec_issue = ready - ooo_hide_spec
                if spec_issue < issued_at:
                    spec_issue = issued_at
                elif spec_issue > issued_at + spec_delay:
                    spec_issue = issued_at + spec_delay
{indent(_translate_src("spec", "spec_issue", charged=False), " " * 16)}
{indent(_drain_src("spec_issue"), " " * 16)}
                line = lines[spec]
                prefetch_count += 1
                if line in l1_sets[line % l1_n] or line in in_flight:
                    prefetch_useless += 1
                else:
{indent(_start_fill_src("line", "spec_issue", "False", "True"), " " * 20)}
                predicted = line
                exposed = ready - clock - ooo_hide_spec
            else:
                exposed = ready - clock - ooo_hide
            if exposed > 0:
                exposed_stall += exposed
                clock += exposed
        else:
            last = lines[a + 1] if op == {OP_PREFETCH_LINES} else line
            while True:
                prefetch_count += 1
                if line in l1_sets[line % l1_n] or line in in_flight:
                    prefetch_useless += 1
                else:
{indent(_start_fill_src("line", "clock", "True", "True"), " " * 20)}
{indent(_ISSUE_STALL_SRC, " " * 20)}
                if line == last:
                    break
                line += 1
{indent(_drain_src("clock"), " " * 16)}
    return (clock, next_completion, peak_occupancy,
            exposed_stall, translation_stall, lfb_stall,
            dtlb_hits, stlb_hits, walk_cycles_delta,
            l1_hits, l1_misses, l1_installs, l1_evictions,
            l2_hits, l2_misses, l2_installs, l2_evictions,
            l3_hits, l3_misses, l3_installs, l3_evictions,
            fills_issued, acquire_stall,
            loads_l1, loads_lfb, loads_l2, loads_l3, loads_dram,
            prefetch_count, prefetch_useless, branches, mispredicts)
"""


@cache
def _kernel():
    """Generate and compile the replay kernel (once per process)."""
    namespace = {
        "heappush": heappush,
        "heappop": heappop,
        "itemgetter": itemgetter,
        "FillRequest": FillRequest,
    }
    exec(compile(_kernel_src(), "<replay-kernel>", "exec"), namespace)  # noqa: S102
    return namespace["kernel"]


# ----------------------------------------------------------------------
# Entry point (ExecutionEngine.execute_rows) and the single write-back
# ----------------------------------------------------------------------


def _replay_rows(engine, rows, addresses, totals: tuple) -> None:
    """Run ``rows`` through the kernel on ``engine`` and write back its counters."""
    cost = engine.cost
    memory = engine.memory
    line_size = memory.line_size
    l1, l2, l3 = memory.l1, memory.l2, memory.l3
    tlb = memory.tlb
    dtlb, stlb = tlb._dtlb, tlb._stlb
    lfbs = memory.lfbs
    addresses = np.asarray(addresses, dtype=np.int64)
    vpns = addresses // tlb._page_size
    # Seed the completion heap from fills already in flight; dict
    # insertion order is fill-start order, which the sequence numbers
    # preserve for same-cycle install ordering.
    in_flight = lfbs._in_flight
    heap = [
        (request.completion_cycle, seq, line)
        for seq, (line, request) in enumerate(in_flight.items())
    ]
    heapify(heap)
    ooo_hide = cost.ooo_hide
    walk_base = cost.page_walk_base_cycles
    walk_l1_cycles = walk_base + l1.latency
    entry_clock = engine.clock
    (clock, next_completion, peak_occupancy,
     exposed_stall, translation_stall, lfb_stall,
     dtlb_hits, stlb_hits, walk_cycles_delta,
     l1_hits, l1_misses, l1_installs, l1_evictions,
     l2_hits, l2_misses, l2_installs, l2_evictions,
     l3_hits, l3_misses, l3_installs, l3_evictions,
     fills_issued, acquire_stall,
     loads_l1, loads_lfb, loads_l2, loads_l3, loads_dram,
     prefetch_count, prefetch_useless, branches, mispredicts) = _kernel()(
        zip(*rows.tolist()),
        (addresses // line_size).tolist(),
        vpns.tolist(),
        ((PAGE_TABLE_BASE + vpns * PTE_SIZE) // line_size).tolist(),
        in_flight, heap, len(heap),
        l1._sets, l2._sets, l3._sets, dtlb._sets, stlb._sets,
        tlb.stats.walks_by_level,
        entry_clock, lfbs._next_completion, lfbs.peak_occupancy,
        l1_n=l1.n_sets, l1_a=l1.associativity,
        l2_n=l2.n_sets, l2_a=l2.associativity, l2_latency=l2.latency,
        l3_n=l3.n_sets, l3_a=l3.associativity, l3_latency=l3.latency,
        dram_latency=engine.arch.dram_latency + memory.extra_dram_latency,
        dtlb_n=dtlb.n_sets, dtlb_a=dtlb.associativity,
        stlb_n=stlb.n_sets, stlb_a=stlb.associativity,
        stlb_latency=tlb._stlb_latency,
        lfb_capacity=lfbs.capacity,
        ooo_hide=ooo_hide,
        walk_base=walk_base,
        # A page walk whose PTE hits L1 always costs the same.
        walk_l1_cycles=walk_l1_cycles,
        walk_l1_charged=max(walk_base, walk_l1_cycles - ooo_hide),
        prefetch_advance=_advance(
            cost.prefetch_issue_cycles, cost.prefetch_issue_instructions,
            cost.issue_width,
        ),
        l1_latency=l1.latency,
        ooo_hide_spec=cost.ooo_hide_speculative,
        spec_delay=cost.spec_issue_delay,
        mispredict_penalty=cost.mispredict_penalty,
        choice=engine._rng.choice,
    )
    engine.clock = clock
    tmam = engine.tmam
    # Mispredict penalties are on the clock already; charge_mispredict
    # books their cycles a second time, so take them off the advance.
    tmam.cycles += clock - entry_clock - mispredicts * cost.mispredict_penalty
    tmam.branches += branches
    for _ in range(mispredicts):
        tmam.charge_mispredict(cost.mispredict_penalty)
    instructions_total, core_slots_total = totals
    tmam.instructions += instructions_total
    slots = tmam.slots
    slots["Retiring"] += instructions_total
    slots["Core"] += core_slots_total
    # Every memory-stall charge pessimizes issue slots at full width, so
    # the Memory slot total is a product, not a separate accumulator.
    memory_stall = exposed_stall + translation_stall + lfb_stall
    slots["Memory"] += cost.issue_width * memory_stall
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
    for cache_level, hits, misses, installs, evictions in (
        (l1, l1_hits, l1_misses, l1_installs, l1_evictions),
        (l2, l2_hits, l2_misses, l2_installs, l2_evictions),
        (l3, l3_hits, l3_misses, l3_installs, l3_evictions),
    ):
        stats = cache_level.stats
        stats.hits += hits
        stats.misses += misses
        stats.installs += installs
        stats.evictions += evictions
    lfbs.fills_issued += fills_issued
    lfbs.issue_stall_cycles += acquire_stall
    lfbs.peak_occupancy = peak_occupancy
    lfbs._next_completion = next_completion

"""Property test: the batch replay kernel against the live engine.

``ExecutionEngine.execute_rows`` runs a stream of computes, demand loads
and software prefetches through one generated kernel. Issuing the same
stream one event at a time through ``compute`` / ``execute_load`` /
``execute_prefetch`` on a twin engine must leave both machines equal:
clock, the whole ``metrics.snapshot()`` tree, cache and TLB contents in
LRU order, the fills still in flight, and the engine's RNG. The stream
mixes every row kind: single-line loads and prefetches, speculative
loads (``Load`` with ``spec_next`` on one stream context, or without it
to resolve the pending prediction) and ``PREFETCHNTA`` of several lines.

Hypothesis draws the machine (Haswell or a ``scaled(k)`` hierarchy,
1–12 line-fill buffers, 0–800 extra DRAM cycles), a live prefix that
leaves fills in flight and the caches and TLBs warm, an optional LFB
shrink below the current occupancy (what the ``LfbShrink`` fault does),
and the stream. Addresses come from a small pool whose lines collide in
one set of every cache and whose pages collide in one set of both TLBs,
so short streams reach every hit level, evictions, STLB hits and page
walks at every PTE level (``test_pool_reaches_every_level``).
"""

import dataclasses
import random

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import HASWELL, scaled
from repro.sim import ExecutionEngine, StreamContext
from repro.sim import replay
from repro.sim.events import Load, Prefetch
from repro.sim.replay import (
    NO_PREDICTION,
    OP_COMPUTE,
    OP_LOAD,
    OP_PREFETCH,
    OP_PREFETCH_LINES,
    OP_SPEC_LOAD,
    _advance,
)

ARCHES = (HASWELL, scaled(2), scaled(8), scaled(64))

#: Pages 640 apart share a set in the DTLB and the STLB, and their lines
#: at one page offset share a set in L1, L2 and L3 (on Haswell and on
#: every ``scaled(k)``, whose set counts divide Haswell's). 24 pages
#: overflow every one of those sets. Each of the last six pages is the
#: neighbour of a colliding page and shares its leaf-PTE line; the page
#: offsets put data lines in the L1 sets the PTE lines use, so PTE lines
#: get evicted too.
COLLIDING = [(1 << 20) + j * 640 for j in range(24)]
PAGES = COLLIDING + [page + 1 for page in COLLIDING[:6]]
OFFSETS = (0, 16 * 64, 40 * 64 + 8)
POOL = [page * 4096 + offset for page in PAGES for offset in OFFSETS]


def _at(page: int, offset: int = 0) -> int:
    """Pool index of ``PAGES[page]`` at ``OFFSETS[offset]``."""
    return page * len(OFFSETS) + offset


#: Loads and prefetches stay inside one cache line.
ACCESS_SIZE = 8

compute = st.tuples(
    st.just("C"),
    st.sampled_from((0, 1, 3, 12, 40, 200, 400, 1_000)),
    st.integers(0, 60),
    st.booleans(),  # a row of its own, or folded into the next row's advance
)
#: A first colliding page and its neighbour: drawn often, so loads meet
#: their own prefetches in flight and walks meet in-flight PTE fills.
HOT = [_at(page, offset) for page in (0, 24) for offset in range(len(OFFSETS))]

pool_index = st.one_of(st.integers(0, len(POOL) - 1), st.sampled_from(HOT))
access = st.tuples(st.sampled_from(("L", "P")), pool_index)
#: A branchy-search load: its predicted successors, or None (resolve only).
speculative = st.tuples(
    st.just("S"), pool_index, st.one_of(st.none(), st.tuples(pool_index, pool_index))
)
#: A prefetch of several lines (a CSB+-tree node, or one crossing a page).
multi_line = st.tuples(st.just("M"), pool_index, st.sampled_from((65, 128, 256, 300)))
streams = st.lists(
    st.one_of(compute, access, access, speculative, multi_line), max_size=200
)

#: Rare interleavings, pinned. A prefix that leaves page 0's line only
#: in L3 (nine later lines evict it from the 8-way L1 and L2 sets) ...
_L3_ONLY = [("L", _at(page)) for page in range(10)]
#: ... then a DRAM prefetch and an L3 prefetch into one L1 set, completed
#: by one drain: installs must follow fill-start order, not completion.
_ONE_DRAIN = [("P", _at(10)), ("P", _at(0)), ("C", 1_000, 0, False), ("L", _at(11, 1))]
#: A walk whose leaf PTE is in L1: the neighbour of a page just walked.
_PTE_IN_L1 = [("L", _at(0)), ("C", 400, 8, True), ("L", _at(24, 2))]
#: A demand load merging into its own prefetch, and a walk whose leaf
#: PTE is still in flight for the neighbour's walk.
_IN_FLIGHT = [("P", _at(2)), ("L", _at(2)), ("P", _at(0)), ("P", _at(24, 1))]
#: A branchy search: a prediction that comes true (the next load merges
#: into the speculative fill), one that does not, and the last load,
#: which only resolves; then a node prefetch over lines already fetched.
_BRANCHY = [
    ("S", _at(0), (_at(1), _at(1))),
    ("S", _at(1), (_at(2), _at(3))),
    ("C", 40, 8, False),
    ("S", _at(4), None),
    ("M", _at(1), 256),
]

#: L1 hits outlast the out-of-order window (20 cycles against 12, or 16
#: behind a branch), so every L1 hit stalls, speculative or not, and so
#: does a page walk whose leaf PTE is in L1.
SLOW_L1 = HASWELL.replace(
    name="slow-l1", l1d=dataclasses.replace(HASWELL.l1d, latency=20)
)
_L1_HITS = [
    ("L", _at(0)), ("L", _at(1)), ("C", 400, 0, False),
    ("L", _at(0)), ("S", _at(1), (_at(0), _at(1))), ("S", _at(0), None),
    ("L", _at(24)), ("C", 400, 8, True), ("L", _at(1)),
]
#: A prediction that goes wrong, resolved by a load that predicts
#: nothing; the next branchy search then starts with no prediction.
_MISPREDICT_THEN_NONE = [
    ("S", _at(0), (_at(1), _at(1))),
    ("S", _at(2), None),
    ("S", _at(3), (_at(4), _at(5))),
    ("L", _at(4)),
]
#: An L2 that answers in no cycles: a node prefetch's first line, found
#: only in L2 (page 24's line, pushed out of its L1 set by eight colliding
#: lines that live in another L2 set), completes before the second line
#: issues, so the drain between lines installs it.
ZERO_L2 = HASWELL.replace(
    name="zero-l2", l2=dataclasses.replace(HASWELL.l2, latency=0)
)
_IN_L2_ONLY = [("L", _at(24))] + [("L", _at(page)) for page in range(8)]


def _lower(ops, cost) -> tuple:
    """``ops`` as an ``execute_rows`` stream: rows, addresses, static totals.

    Speculative loads and multi-line prefetches index address slots
    appended after ``POOL``: the load and its two predicted successors
    (or ``NO_PREDICTION``), the prefetch's first and last byte.
    """
    issue_width = cost.issue_width
    prefetch_advance = _advance(
        cost.prefetch_issue_cycles, cost.prefetch_issue_instructions, issue_width
    )
    addresses = list(POOL)
    columns: list = []
    pending = instructions = advance_total = 0
    for op in ops:
        if op[0] == "C":
            _tag, cycles, op_instructions, own_row = op
            step = _advance(cycles, op_instructions, issue_width)
            instructions += op_instructions
            advance_total += step
            if own_row:
                columns.append((OP_COMPUTE, 0, pending + step))
                pending = 0
            else:
                pending += step
            continue
        if op[0] == "S":
            columns.append((OP_SPEC_LOAD, len(addresses), pending))
            successors = op[2]
            addresses.append(POOL[op[1]])
            addresses.extend(
                (NO_PREDICTION, NO_PREDICTION)
                if successors is None
                else (POOL[successors[0]], POOL[successors[1]])
            )
        elif op[0] == "M":
            columns.append((OP_PREFETCH_LINES, len(addresses), pending))
            addresses.extend((POOL[op[1]], POOL[op[1]] + op[2] - 1))
        else:
            columns.append((OP_LOAD if op[0] == "L" else OP_PREFETCH, op[1], pending))
        pending = 0
        if op[0] in ("P", "M"):
            instructions += cost.prefetch_issue_instructions
            advance_total += prefetch_advance
    if pending:
        columns.append((OP_COMPUTE, 0, pending))
    rows = np.array(list(zip(*columns)) or [[], [], []], dtype=np.int64)
    return rows, addresses, (instructions, issue_width * advance_total - instructions)


def _live(engine, ops) -> None:
    """Issue ``ops`` one event at a time; speculative loads share a context."""
    ctx = StreamContext()
    for op in ops:
        if op[0] == "C":
            engine.compute(op[1], op[2])
        elif op[0] == "L":
            engine.execute_load(Load(POOL[op[1]], ACCESS_SIZE))
        elif op[0] == "S":
            successors = op[2] and (POOL[op[2][0]], POOL[op[2][1]])
            engine.execute_load(Load(POOL[op[1]], ACCESS_SIZE, spec_next=successors), ctx)
        elif op[0] == "M":
            engine.execute_prefetch(Prefetch(POOL[op[1]], op[2]))
        else:
            engine.execute_prefetch(Prefetch(POOL[op[1]], ACCESS_SIZE))


def _state(engine) -> tuple:
    memory = engine.memory
    tlb = memory.tlb
    return (
        engine.clock,
        engine.metrics.snapshot(),
        [list(ways) for level in (memory.l1, memory.l2, memory.l3) for ways in level._sets],
        [list(ways) for lru in (tlb._dtlb, tlb._stlb) for ways in lru._sets],
        [
            (r.line, r.issue_cycle, r.completion_cycle, r.source_level,
             r.non_temporal, r.is_prefetch)
            for r in memory.lfbs._in_flight.values()
        ],
        memory.lfbs._next_completion,
        engine._rng.getstate(),
    )


def _twins(arch, prefix, extra_dram_latency=0, shrink=None, seed=0) -> tuple:
    """Two engines in the same state: ``prefix`` run live, then faults."""
    engines = (ExecutionEngine(arch, seed=seed), ExecutionEngine(arch, seed=seed))
    for engine in engines:
        _live(engine, prefix)
        memory = engine.memory
        memory.extra_dram_latency = extra_dram_latency
        occupancy = memory.lfbs.occupancy
        if shrink is not None and occupancy > 1:
            memory.lfbs.set_capacity(1 + shrink % (occupancy - 1))
    return engines


class TestKernelMatchesLiveEngine:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        arch=st.sampled_from(ARCHES),
        lfbs=st.integers(1, 12),
        extra_dram_latency=st.integers(0, 800),
        prefix=st.lists(st.one_of(compute, access, access), max_size=60),
        shrink=st.one_of(st.none(), st.integers(0, 11)),
        ops=streams,
        seed=st.integers(0, 2**32 - 1),
    )
    @example(
        arch=HASWELL, lfbs=10, extra_dram_latency=0, prefix=_L3_ONLY,
        shrink=None, ops=_ONE_DRAIN, seed=0,
    )
    @example(
        arch=HASWELL, lfbs=10, extra_dram_latency=0, prefix=[], shrink=None,
        ops=_PTE_IN_L1, seed=0,
    )
    @example(
        arch=HASWELL, lfbs=10, extra_dram_latency=0, prefix=[], shrink=None,
        ops=_IN_FLIGHT, seed=0,
    )
    @example(
        arch=scaled(8), lfbs=6, extra_dram_latency=400,
        prefix=[("P", _at(page, 1)) for page in range(6)], shrink=3,
        ops=[("P", _at(page, 2)) for page in range(6)] + [("L", _at(0, 1))],
        seed=0,
    )
    @example(
        arch=HASWELL, lfbs=10, extra_dram_latency=0, prefix=[], shrink=None,
        ops=_BRANCHY, seed=1,
    )
    @example(  # speculative and node fills wait for a buffer
        arch=scaled(8), lfbs=2, extra_dram_latency=300,
        prefix=[("P", _at(page, 1)) for page in range(4)], shrink=0,
        ops=_BRANCHY + [("M", _at(page)) + (300,) for page in range(5, 8)],
        seed=3,
    )
    @example(
        arch=SLOW_L1, lfbs=10, extra_dram_latency=0, prefix=[], shrink=None,
        ops=_L1_HITS, seed=2,
    )
    @example(
        arch=HASWELL, lfbs=10, extra_dram_latency=0, prefix=[], shrink=None,
        ops=_MISPREDICT_THEN_NONE, seed=0,
    )
    @example(
        arch=ZERO_L2, lfbs=10, extra_dram_latency=0, prefix=_IN_L2_ONLY,
        shrink=None, ops=[("C", 1_000, 0, False), ("M", _at(24), 256)], seed=0,
    )
    def test_execute_rows_equals_event_by_event(
        self, arch, lfbs, extra_dram_latency, prefix, shrink, ops, seed
    ):
        arch = arch.replace(n_line_fill_buffers=lfbs)
        batch, live = _twins(arch, prefix, extra_dram_latency, shrink, seed)
        assert _state(batch) == _state(live)
        rows, addresses, totals = _lower(ops, arch.cost)
        batch.execute_rows(rows, addresses, totals)
        _live(live, ops)
        assert _state(batch) == _state(live)

    def test_pool_reaches_every_level(self):
        chooser = random.Random(7)
        ops = []
        prefetched = 0
        for _ in range(600):
            draw = chooser.random()
            if draw < 0.3:
                ops.append(("C", chooser.choice((0, 5, 40, 200, 400)), 8, False))
            elif draw < 0.4:  # the last prefetch's line, maybe still in flight
                ops.append(("L", prefetched))
            elif draw < 0.7:
                ops.append(("L", chooser.randrange(len(POOL))))
            else:
                prefetched = chooser.randrange(len(POOL))
                ops.append(("P", prefetched))
        engine = ExecutionEngine(HASWELL)
        rows, addresses, totals = _lower(ops, HASWELL.cost)
        engine.execute_rows(rows, addresses, totals)
        metrics = engine.metrics.snapshot()
        assert all(metrics["memory"]["loads_by_level"].values())
        assert all(metrics["cache"][level]["evictions"] for level in ("l1", "l2", "l3"))
        assert metrics["tlb"]["stlb_hits"]
        assert set(metrics["tlb"]["walks_by_level"]) == {
            "PW-L1", "PW-L2", "PW-L3", "PW-DRAM"
        }

    def test_speculation_reaches_both_outcomes(self):
        """Branchy searches over the pool predict right and wrong, merge
        demand loads into speculative fills, and stall on full buffers."""
        chooser = random.Random(11)
        ops = []
        for _ in range(40):  # searches of 1-6 loads, successors near the probe
            probe = chooser.randrange(len(POOL) - 8)
            for _ in range(chooser.randrange(5)):
                ops.append(("S", probe, (probe + 1, probe + 4)))
                probe += chooser.choice((1, 4))
            ops.append(("S", probe, None))
            ops.append(("M", chooser.randrange(len(POOL)), 256))
        arch = HASWELL.replace(n_line_fill_buffers=3)
        batch, live = _twins(arch, [], seed=5)
        rows, addresses, totals = _lower(ops, arch.cost)
        batch.execute_rows(rows, addresses, totals)
        _live(live, ops)
        assert _state(batch) == _state(live)
        tmam = batch.tmam
        assert 0 < tmam.mispredicts < tmam.branches
        assert batch.memory.stats.loads_by_level["LFB"]
        assert batch.memory.stats.prefetch_useless
        assert batch.memory.lfbs.issue_stall_cycles


def test_kernel_is_generated_once_for_every_machine():
    ops = [("P", 0), ("L", 3), ("C", 40, 8, True), ("L", 0)]
    for arch in (HASWELL, scaled(8).replace(n_line_fill_buffers=2)):
        engine = ExecutionEngine(arch)
        engine.memory.extra_dram_latency = 300
        rows, addresses, totals = _lower(ops, arch.cost)
        engine.execute_rows(rows, addresses, totals)
    assert replay._kernel.cache_info().misses == 1

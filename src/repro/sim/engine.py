"""The execution engine: a cycle-cost model of one out-of-order core.

The engine advances a global cycle clock while consuming instruction-stream
events (:mod:`repro.sim.events`). It implements the mechanisms the paper's
evaluation hinges on:

* **Exposed memory latency** — a demand load stalls for its remaining fill
  latency minus a fixed out-of-order hiding window (dependent-chain loads,
  as in index lookups, cannot overlap with each other; short L1/L2
  latencies disappear, L3/DRAM latencies do not).
* **Software prefetching** — non-blocking for data, *blocking for address
  translation* (Section 5.4.3), bounded by line-fill buffers.
* **Branch speculation** — for branchy code (``std`` binary search) the
  engine plays predictor: while a load stalls it issues the predicted next
  load's fill early; a wrong prediction costs the misprediction penalty
  and books Bad-Speculation slots. This reproduces the paper's finding
  that speculation, though wrong half the time, beats waiting for DRAM.
* **TMAM accounting** — every cycle lands in exactly one category.

Schedulers (sequential, GP, AMAC, coroutines) sit *above* the engine: they
decide in which order stream events are consumed and charge their own
switch overhead via :meth:`ExecutionEngine.charge_switch`.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from typing import Generator, Iterable

from repro.config import HASWELL, ArchSpec
from repro.errors import AddressError, SimulationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_RECORDER, NullRecorder
from repro.sim.address import lines_touched
from repro.sim.events import Compute, Event, FrameAlloc, Load, Prefetch, Store, Suspend
from repro.sim.memory import MemorySystem
from repro.sim.replay import _replay_rows
from repro.sim.tmam import TmamStats

__all__ = ["StreamContext", "EngineSnapshot", "ExecutionEngine", "InstructionStream"]

#: An instruction stream: a generator yielding events and returning a result.
InstructionStream = Generator[Event, None, object]


def _engine_source(engine: "ExecutionEngine"):
    """The engine's own metrics source, holding the engine weakly.

    The registry belongs to the engine; a bound method here would make
    every engine a reference cycle that outlives its last reference.
    A registry that outlives its engine reports no engine counters.
    """
    ref = weakref.ref(engine)

    def source() -> dict:
        live = ref()
        if live is None:
            return {}
        return {"cycles": live.clock, "issue_width": live.cost.issue_width}

    return source


@dataclass
class StreamContext:
    """Per-instruction-stream engine state (branch-prediction bookkeeping)."""

    predicted_line: int | None = None


@dataclass(frozen=True)
class EngineSnapshot:
    """Immutable copy of the engine counters at one point in time."""

    cycles: int
    tmam: TmamStats
    memory: "object"  # MemoryStats; typed loosely to avoid an import cycle


class ExecutionEngine:
    """Consumes instruction-stream events and charges simulated cycles."""

    def __init__(
        self,
        arch: ArchSpec = HASWELL,
        memory: MemorySystem | None = None,
        *,
        seed: int = 0,
        tracer: NullRecorder | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.arch = arch
        self.cost = arch.cost
        self.memory = memory if memory is not None else MemorySystem(arch)
        if self.memory.arch is not arch:
            raise SimulationError("memory system built for a different ArchSpec")
        self.clock = 0
        self.tmam = TmamStats(issue_width=arch.cost.issue_width)
        self._rng = random.Random(seed)
        #: Span recorder; the shared null recorder unless a run is traced.
        self.tracer = tracer if tracer is not None else NULL_RECORDER
        #: Unified metrics registry covering engine, TMAM, and memory stats.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.register_source("engine", _engine_source(self))
        self.tmam.register_metrics(self.metrics)
        self.memory.register_metrics(self.metrics)
        # Type-keyed event dispatch: one dict probe replaces the
        # per-event ``type(event) is ...`` chain on the hottest loop in
        # the simulator. Every handler takes (engine, event, ctx) and
        # returns the event's outcome. The table holds the class's
        # functions, not bound methods, so the engine is no reference
        # cycle and subclass overrides still dispatch.
        cls = type(self)
        self._handlers = {
            Load: cls.execute_load,
            Compute: cls._handle_compute,
            Store: cls._handle_store,
            Prefetch: cls._handle_prefetch,
            FrameAlloc: cls._handle_frame_alloc,
        }

    def attach_tracer(self, tracer: NullRecorder) -> None:
        """Record spans of subsequent execution into ``tracer``."""
        self.tracer = tracer

    # ------------------------------------------------------------------
    # Primitives
    # ------------------------------------------------------------------

    def compute(self, cycles: int, instructions: int) -> None:
        """Advance the clock by straight-line computation."""
        self.tmam.charge_compute(cycles, instructions)
        advance = max(cycles, -(-instructions // self.cost.issue_width))
        if self.tracer.enabled and advance:
            self.tracer.span("compute", self.clock, self.clock + advance)
        self.clock += advance

    def charge_switch(self, kind: str) -> None:
        """Charge one instruction-stream switch for technique ``kind``."""
        try:
            cycles, instructions = getattr(self.cost, f"{kind}_switch")
        except AttributeError:
            raise SimulationError(f"unknown switch kind {kind!r}") from None
        start = self.clock
        self.compute(cycles, instructions)
        if self.tracer.enabled:
            self.tracer.span("switch", start, self.clock, name=f"{kind} switch")

    def charge_fault(self, cycles: int, name: str = "fault") -> None:
        """Advance the clock through an injected outage window.

        The cycles are booked as memory stalls — the core is alive but
        can make no progress, which is how a stall on a dead resource
        presents to TMAM — and traced as a named ``fault`` span so
        chaos runs are legible in the timeline viewer.
        """
        if cycles < 0:
            raise SimulationError("fault stall cannot be negative")
        if not cycles:
            return
        self.tmam.charge_memory_stall(cycles)
        if self.tracer.enabled:
            self.tracer.span(
                "fault", self.clock, self.clock + cycles, name=name
            )
        self.clock += cycles

    def _translate(self, addr: int) -> None:
        """Translate ``addr``, charging any stall to the Memory category.

        Page walks are partially hidden by out-of-order execution
        (Section 5.4.3: "the latencies of L1D and L2 are partially hidden
        by out-of-order execution, [so] the two first jumps are small"),
        but never below the fixed walker overhead.
        """
        result = self.memory.translate(addr, self.clock)
        charged = result.cycles
        if charged and result.walked:
            cost = self.cost
            charged = max(cost.page_walk_base_cycles, charged - cost.ooo_hide)
        tracer = self.tracer
        if charged:
            self.tmam.charge_memory_stall(charged, translation=True)
            if tracer.enabled:
                tracer.span(
                    "stall",
                    self.clock,
                    self.clock + charged,
                    name="translation",
                    attrs={"level": result.level, "translation": True},
                )
            self.clock += charged
        if tracer.enabled:
            tracer.counter(
                "tlb_walks", self.clock, self.memory.tlb.stats.walks
            )

    def execute_load(self, event: Load, ctx: StreamContext | None = None) -> None:
        """Execute a demand load, stalling for exposed latency."""
        self._translate(event.addr)
        # Hot path: bind collaborators once (every index probe lands
        # here), and skip list construction for single-line accesses.
        memory = self.memory
        tmam = self.tmam
        tracer = self.tracer
        cost = self.cost
        line_size = self.arch.line_size
        addr = event.addr
        size = event.size
        if size <= 0:
            raise AddressError(f"access size must be positive, got {size}")
        first = addr // line_size
        last = (addr + size - 1) // line_size
        lines = (first,) if first == last else range(first, last + 1)
        # Branch-speculation resolution: if the previous iteration predicted
        # a successor address, compare it with what the stream actually did.
        if ctx is not None and ctx.predicted_line is not None:
            tmam.note_branch()
            if ctx.predicted_line != first:
                tmam.charge_mispredict(cost.mispredict_penalty)
                if tracer.enabled:
                    tracer.span(
                        "stall",
                        self.clock,
                        self.clock + cost.mispredict_penalty,
                        name="mispredict",
                        attrs={"mispredict": True},
                    )
                self.clock += cost.mispredict_penalty
            ctx.predicted_line = None

        issued_at = self.clock
        ready = self.clock
        level = "L1"
        for line in lines:
            outcome = memory.load_line(line, self.clock)
            if outcome.issue_stall:
                tmam.charge_memory_stall(outcome.issue_stall, lfb=True)
                if tracer.enabled:
                    tracer.span(
                        "stall",
                        self.clock,
                        self.clock + outcome.issue_stall,
                        name="lfb full",
                        attrs={"lfb": True},
                    )
                self.clock += outcome.issue_stall
            if outcome.ready >= ready:
                ready = outcome.ready
                level = outcome.level

        # Speculative issue of the predicted next load while this one stalls.
        hide = cost.ooo_hide
        if event.spec_next is not None and ctx is not None:
            hide = cost.ooo_hide_speculative
            predicted = self._rng.choice(event.spec_next)
            spec_issue = min(
                max(ready - hide, issued_at),
                issued_at + cost.spec_issue_delay,
            )
            spec_line = predicted // line_size
            # The shadow translation updates TLB state but its latency
            # overlaps the current stall, so it is not charged.
            memory.translate(predicted, spec_issue)
            memory.prefetch_line(spec_line, spec_issue, nta=False)
            ctx.predicted_line = spec_line

        exposed = ready - self.clock - hide
        if exposed > 0:
            tmam.charge_memory_stall(exposed)
            if tracer.enabled:
                tracer.span(
                    "stall",
                    self.clock,
                    self.clock + exposed,
                    name=f"load {level}",
                    attrs={"level": level},
                )
            self.clock += exposed
        if tracer.enabled:
            tracer.counter(
                "lfb_occupancy", self.clock, memory.lfbs.occupancy
            )

    def execute_store(self, event: Store) -> None:
        """Execute a store (read-for-ownership on a miss).

        The store buffer decouples retirement from the fill, so the
        charged stall is the fill latency beyond a generous hiding
        window (the speculative window doubles as the store-buffer
        depth in this model).
        """
        self._translate(event.addr)
        hide = self.cost.ooo_hide + self.cost.spec_issue_delay // 3
        ready = self.clock
        for line in lines_touched(event.addr, event.size, self.arch.line_size):
            outcome = self.memory.load_line(line, self.clock, record=False)
            if outcome.issue_stall:
                self.tmam.charge_memory_stall(outcome.issue_stall, lfb=True)
                self.clock += outcome.issue_stall
            ready = max(ready, outcome.ready)
        exposed = max(0, ready - self.clock - hide)
        if exposed:
            self.tmam.charge_memory_stall(exposed)
            if self.tracer.enabled:
                self.tracer.span(
                    "stall",
                    self.clock,
                    self.clock + exposed,
                    name="store",
                    attrs={"store": True},
                )
            self.clock += exposed

    def execute_prefetch(self, event: Prefetch) -> bool:
        """Issue a software prefetch (blocking only for translation/LFBs).

        Returns whether every touched line was already cached or in
        flight — the "is this address cached?" answer Section 6 wishes
        hardware exposed, used by the conditional-suspension ablation.
        """
        self._translate(event.addr)
        self.compute(
            self.cost.prefetch_issue_cycles, self.cost.prefetch_issue_instructions
        )
        cached = True
        for line in lines_touched(event.addr, event.size, self.arch.line_size):
            self.memory.lfbs.drain(self.clock)
            if not self.memory.l1.contains(line) and self.memory.lfbs.find(line) is None:
                cached = False
            after = self.memory.prefetch_line(line, self.clock, nta=event.nta)
            if after > self.clock:
                self.tmam.charge_memory_stall(after - self.clock, lfb=True)
                if self.tracer.enabled:
                    self.tracer.span(
                        "stall",
                        self.clock,
                        after,
                        name="lfb full",
                        attrs={"lfb": True},
                    )
                self.clock = after
        if self.tracer.enabled:
            self.tracer.counter(
                "lfb_occupancy", self.clock, self.memory.lfbs.occupancy
            )
        return cached

    def execute_frame_alloc(self) -> None:
        start = self.clock
        self.compute(self.cost.frame_alloc_cycles, self.cost.frame_alloc_instructions)
        if self.tracer.enabled:
            self.tracer.span("alloc", start, self.clock, name="frame alloc")

    def execute_rows(self, rows, addresses, totals: tuple) -> None:
        """Execute a staged stream of computes, loads and prefetches at once.

        ``rows`` is a ``(3, n_rows)`` integer array of ``(opcode,
        address_index, advance)`` columns (see :mod:`repro.sim.replay`),
        ``addresses`` the flat list of byte addresses its loads and
        prefetches index, and ``totals`` the stream's static
        ``(instructions, core_slots)`` compute accounting. The clock,
        every counter and the engine's RNG end exactly where
        :meth:`compute`, :meth:`execute_load` (speculative loads with
        ``spec_next`` included, each search on its own stream context)
        and :meth:`execute_prefetch` (``PREFETCHNTA``) would leave them,
        provided each load lies within one cache line. The batch records
        no spans and calls no subclass override.
        """
        _replay_rows(self, rows, addresses, totals)

    # ------------------------------------------------------------------
    # Stream driving
    # ------------------------------------------------------------------

    def _handle_compute(self, event: Compute, ctx: StreamContext) -> None:
        self.compute(event.cycles, event.instructions)

    def _handle_store(self, event: Store, ctx: StreamContext) -> None:
        self.execute_store(event)

    def _handle_prefetch(self, event: Prefetch, ctx: StreamContext) -> bool:
        return self.execute_prefetch(event)

    def _handle_frame_alloc(self, event: FrameAlloc, ctx: StreamContext) -> None:
        self.execute_frame_alloc()

    def _dispatch_unknown(self, event: object) -> None:
        """Error path for events without a handler (cold, shared)."""
        if type(event) is Suspend:
            raise SimulationError(
                "Suspend reached the engine: this stream was driven without "
                "an interleaving scheduler (run it with interleave=False or "
                "use run_interleaved)"
            )
        raise SimulationError(f"unknown event {event!r}")

    def dispatch(self, event: Event, ctx: StreamContext) -> object:
        """Execute one event (``Suspend`` must be handled by the caller).

        Returns the event's outcome, which drivers feed back into the
        stream via ``send`` — e.g. ``Prefetch`` answers whether the data
        was already cached (Section 6's conditional-switch ablation).
        """
        handler = self._handlers.get(type(event))
        if handler is None:
            self._dispatch_unknown(event)
        return handler(self, event, ctx)

    def run(self, stream: InstructionStream, ctx: StreamContext | None = None):
        """Drive a non-suspending stream to completion; return its result."""
        ctx = ctx or StreamContext()
        # Hot loop: bind the generator's send and the dispatch table to
        # locals so each iteration is two lookups, not five.
        send = stream.send
        handlers = self._handlers
        outcome: object = None
        try:
            while True:
                event = send(outcome)
                handler = handlers.get(type(event))
                if handler is None:
                    self._dispatch_unknown(event)
                outcome = handler(self, event, ctx)
        except StopIteration as stop:
            return stop.value

    def run_all(self, streams: Iterable[InstructionStream]) -> list[object]:
        """Drive streams one after another (plain sequential execution)."""
        return [self.run(stream) for stream in streams]

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def snapshot(self) -> EngineSnapshot:
        return EngineSnapshot(
            cycles=self.clock,
            tmam=self.tmam.snapshot(),
            memory=self.memory.stats.snapshot(),
        )

    def settle(self) -> None:
        """Complete outstanding fills (call between measured phases)."""
        self.memory.settle(self.clock)

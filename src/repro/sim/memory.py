"""The memory-system facade: caches + line-fill buffers + TLB.

This is the component the execution engine talks to. It implements the
load/prefetch semantics the paper's analysis rests on (Section 5.4.2):

* a load that hits L1D costs its load-to-use latency;
* a load whose line is already being fetched is an **LFB hit** and waits
  only for the remaining fill time;
* otherwise a fill is started from the first level that has the line
  (L2, L3, or DRAM), bounded by line-fill-buffer availability;
* ``PREFETCHNTA`` starts the same fill non-blockingly and installs the
  line into L1 only (non-temporal — no L2/L3 pollution).

An inclusive hierarchy is modeled: demand fills install the line at every
level between the source and L1.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.config import ArchSpec
from repro.errors import SimulationError
from repro.sim.cache import SetAssociativeCache
from repro.sim.lfb import FillRequest, LineFillBuffers
from repro.sim.tlb import TranslationResult, Tlb

__all__ = ["LoadOutcome", "MemoryStats", "MemorySystem", "HIT_LEVELS"]

#: Load classification buckets, in the order Figure 6 of the paper uses.
HIT_LEVELS = ("L1", "LFB", "L2", "L3", "DRAM")


@dataclass(frozen=True)
class LoadOutcome:
    """Result of one demand load: when the data is usable, and from where."""

    ready: int  # cycle at which the loaded value is available
    level: str  # one of HIT_LEVELS
    issue_stall: int = 0  # cycles spent waiting for a line-fill buffer


@dataclass
class MemoryStats:
    """Demand-load classification counters (page-walk traffic excluded)."""

    loads_by_level: dict[str, int] = field(
        default_factory=lambda: {level: 0 for level in HIT_LEVELS}
    )
    prefetches: int = 0
    prefetch_useless: int = 0  # prefetches of lines already in L1

    @property
    def loads(self) -> int:
        return sum(self.loads_by_level.values())

    @property
    def l1d_misses(self) -> int:
        return self.loads - self.loads_by_level["L1"]

    def snapshot(self) -> "MemoryStats":
        copy = MemoryStats()
        copy.loads_by_level = dict(self.loads_by_level)
        copy.prefetches = self.prefetches
        copy.prefetch_useless = self.prefetch_useless
        return copy

    def as_dict(self) -> dict:
        """Plain-dict view (metrics-registry source)."""
        return {
            "loads": self.loads,
            "loads_by_level": dict(self.loads_by_level),
            "l1d_misses": self.l1d_misses,
            "prefetches": self.prefetches,
            "prefetch_useless": self.prefetch_useless,
        }

    def delta(self, earlier: "MemoryStats") -> "MemoryStats":
        """Return the counters accumulated since ``earlier``."""
        diff = MemoryStats()
        diff.loads_by_level = {
            level: self.loads_by_level[level] - earlier.loads_by_level[level]
            for level in HIT_LEVELS
        }
        diff.prefetches = self.prefetches - earlier.prefetches
        diff.prefetch_useless = self.prefetch_useless - earlier.prefetch_useless
        return diff


class MemorySystem:
    """L1D/L2/L3 caches, line-fill buffers, and TLB behind one interface."""

    def __init__(self, arch: ArchSpec) -> None:
        self.arch = arch
        self.line_size = arch.line_size
        self.l1 = SetAssociativeCache(arch.l1d, arch.line_size)
        self.l2 = SetAssociativeCache(arch.l2, arch.line_size)
        self.l3 = SetAssociativeCache(arch.l3, arch.line_size)
        # The LFBs and the TLB call back into this memory system. The
        # callbacks hold it weakly, so it is no reference cycle and a
        # dropped memory system (caches included) is freed at once.
        this = weakref.ref(self)
        complete_fill = type(self)._complete_fill
        pte_probe = type(self)._pte_probe
        self.lfbs = LineFillBuffers(
            arch.n_line_fill_buffers,
            lambda request: complete_fill(this(), request),
        )
        self.tlb = Tlb(
            arch.dtlb, arch.stlb, arch.page_size, arch.cost,
            lambda addr, now: pte_probe(this(), addr, now),
        )
        self.stats = MemoryStats()
        #: Extra cycles added to every DRAM access (0 = local socket).
        #: Raised by the NUMA ablation to model remote-socket memory.
        self.extra_dram_latency = 0

    def register_metrics(self, registry, prefix: str = "memory") -> None:
        """Mount every memory-side counter in a metrics registry.

        One call covers the demand-load classification plus the per-level
        cache, LFB, and TLB counters — the engine calls this so that
        ``engine.metrics.snapshot()`` is the whole machine.
        """
        registry.register_source(prefix, self.stats.as_dict)
        self.l1.register_metrics(registry, "cache.l1")
        self.l2.register_metrics(registry, "cache.l2")
        self.l3.register_metrics(registry, "cache.l3")
        self.lfbs.register_metrics(registry, "lfb")
        self.tlb.register_metrics(registry, "tlb")

    # ------------------------------------------------------------------
    # Fill plumbing
    # ------------------------------------------------------------------

    def _complete_fill(self, request: FillRequest) -> None:
        """Install a completed fill into the hierarchy (LFB callback).

        Demand fills populate every level between the source and L1.
        Non-temporal fills (PREFETCHNTA) match Haswell semantics: they
        populate L1 and the last-level cache but bypass L2.
        """
        if request.non_temporal:
            if request.source_level == "DRAM":
                self.l3.install(request.line)
        else:
            if request.source_level == "DRAM":
                self.l3.install(request.line)
                self.l2.install(request.line)
            elif request.source_level == "L3":
                self.l2.install(request.line)
        self.l1.install(request.line)

    def _start_fill(
        self, line: int, now: int, *, non_temporal: bool, is_prefetch: bool
    ) -> tuple[FillRequest, int]:
        """Begin fetching ``line``; returns the request and the issue stall."""
        start = self.lfbs.acquire(now)
        issue_stall = start - now
        if self.l2.lookup(line):
            source, latency = "L2", self.l2.latency
        elif self.l3.lookup(line):
            source, latency = "L3", self.l3.latency
        else:
            source, latency = "DRAM", self.arch.dram_latency + self.extra_dram_latency
        request = FillRequest(
            line=line,
            issue_cycle=start,
            completion_cycle=start + latency,
            source_level=source,
            non_temporal=non_temporal,
            is_prefetch=is_prefetch,
        )
        return self.lfbs.add(request), issue_stall

    # ------------------------------------------------------------------
    # Public operations
    # ------------------------------------------------------------------

    def translate(self, addr: int, now: int) -> TranslationResult:
        """Translate a data address (see :class:`repro.sim.tlb.Tlb`)."""
        return self.tlb.translate(addr, now)

    def load_line(self, line: int, now: int, *, record: bool = True) -> LoadOutcome:
        """Perform a demand load of ``line`` issued at cycle ``now``."""
        if now < 0:
            raise SimulationError("load issued at negative cycle")
        self.lfbs.drain(now)
        if self.l1.lookup(line):
            outcome = LoadOutcome(now + self.l1.latency, "L1")
        else:
            in_flight = self.lfbs.find(line)
            if in_flight is not None:
                # Demand merge: the line stops being non-temporal/prefetch.
                in_flight.non_temporal = False
                in_flight.is_prefetch = False
                outcome = LoadOutcome(max(now, in_flight.completion_cycle), "LFB")
            else:
                request, stall = self._start_fill(
                    line, now, non_temporal=False, is_prefetch=False
                )
                outcome = LoadOutcome(
                    request.completion_cycle, request.source_level, stall
                )
        if record:
            self.stats.loads_by_level[outcome.level] += 1
        return outcome

    def prefetch_line(self, line: int, now: int, *, nta: bool = True) -> int:
        """Issue a software prefetch of ``line``; returns the cycle after issue.

        Non-blocking for data: the caller continues as soon as a line-fill
        buffer is allocated (which may itself stall when all are busy).
        """
        self.lfbs.drain(now)
        self.stats.prefetches += 1
        if self.l1.contains(line) or self.lfbs.find(line) is not None:
            self.stats.prefetch_useless += 1
            return now
        _, issue_stall = self._start_fill(line, now, non_temporal=nta, is_prefetch=True)
        return now + issue_stall

    def _pte_probe(self, addr: int, now: int) -> tuple[int, str]:
        """Cached load of a leaf PTE on behalf of the page walker."""
        line = addr // self.line_size
        outcome = self.load_line(line, now, record=False)
        if outcome.level == "LFB":
            in_flight_source = self.lfbs.find(line)
            level = in_flight_source.source_level if in_flight_source else "L1"
        else:
            level = outcome.level
        return outcome.ready - now, level

    # ------------------------------------------------------------------
    # Helpers for tests and benchmarks
    # ------------------------------------------------------------------

    def warm_lines(self, lines: list[int]) -> None:
        """Install lines at every level without charging any cycles."""
        for line in lines:
            self.l3.install(line)
            self.l2.install(line)
            self.l1.install(line)

    def settle(self, now: int) -> None:
        """Complete all in-flight fills (end-of-run bookkeeping)."""
        self.lfbs.flush(now)

    def flush_all(self) -> None:
        """Empty caches, TLBs, and in-flight fills (statistics preserved)."""
        self.lfbs.flush(0)
        self.l1.flush()
        self.l2.flush()
        self.l3.flush()
        self.tlb.flush()

    def flush_private(self) -> None:
        """Empty the core-private state only: L1, L2, TLB, in-flight fills.

        The fault-injection cache-flush event uses this so that a
        per-shard flush does not wipe the *shared* LLC other shards
        still benefit from (``CacheFlush(llc=True)`` flushes that
        separately).
        """
        self.lfbs.flush(0)
        self.l1.flush()
        self.l2.flush()
        self.tlb.flush()

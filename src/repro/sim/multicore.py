"""Multi-core execution: private L1/L2 per core, shared LLC.

The paper pins its microbenchmarks to one core, but argues that "given
an amount of work, interleaving techniques reduce the necessary
execution cycles in both single- and multi-threaded execution"
(Section 3). This module lets that claim be tested: a
:class:`MultiCoreSystem` builds one :class:`~repro.sim.memory.
MemorySystem` per core with private L1D/L2/TLB but a *shared* L3 (and a
shared DRAM latency), mirroring the evaluation machine's topology
(Table 4: the LLC is shared among the cores of a socket).

The model is deliberately contention-free in time: each core runs its
own clock, and cores interact only through shared-LLC state (what one
core installs, another can hit). That is the first-order effect for
read-only index lookups; memory-controller queueing under load can be
approximated with :attr:`MemorySystem.extra_dram_latency`.

Work is partitioned round-robin across cores; the reported makespan is
the slowest core's clock, and throughput is total lookups divided by
the makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.config import HASWELL, ArchSpec
from repro.errors import ConfigurationError
from repro.sim.cache import SetAssociativeCache
from repro.sim.engine import ExecutionEngine
from repro.sim.memory import MemorySystem

__all__ = ["CoreResult", "MultiCoreResult", "MultiCoreSystem"]


@dataclass(frozen=True)
class CoreResult:
    """Outcome of one core's share of the work."""

    core: int
    cycles: int
    n_items: int
    results: list


@dataclass(frozen=True)
class MultiCoreResult:
    """Aggregate outcome of a multi-core run."""

    cores: list[CoreResult]

    @property
    def makespan(self) -> int:
        """Cycles until the slowest core finishes."""
        return max((core.cycles for core in self.cores), default=0)

    @property
    def total_items(self) -> int:
        return sum(core.n_items for core in self.cores)

    @property
    def throughput(self) -> float:
        """Items completed per cycle across the socket."""
        makespan = self.makespan
        return self.total_items / makespan if makespan else 0.0

    def results_in_order(self) -> list:
        """Re-assemble per-item results in original input order."""
        n_cores = len(self.cores)
        merged: list = [None] * self.total_items
        for core in self.cores:
            for position, value in enumerate(core.results):
                merged[position * n_cores + core.core] = value
        return merged


class MultiCoreSystem:
    """N cores with private L1/L2/TLB sharing one last-level cache."""

    def __init__(
        self,
        n_cores: int,
        arch: ArchSpec = HASWELL,
        *,
        extra_dram_latency: int = 0,
    ) -> None:
        if n_cores <= 0:
            raise ConfigurationError("need at least one core")
        self.arch = arch
        self.n_cores = n_cores
        shared_l3 = SetAssociativeCache(arch.l3, arch.line_size)
        self.memories: list[MemorySystem] = []
        for _ in range(n_cores):
            memory = MemorySystem(arch)
            memory.l3 = shared_l3  # share the LLC across cores
            memory.extra_dram_latency = extra_dram_latency
            self.memories.append(memory)
        self.shared_l3 = shared_l3

    def engines(self, seed: int = 0) -> list[ExecutionEngine]:
        """Fresh engines (one per core) over the current memory state."""
        return [
            ExecutionEngine(self.arch, memory, seed=seed + index)
            for index, memory in enumerate(self.memories)
        ]

    def run(
        self,
        runner: Callable[[ExecutionEngine, Sequence[object]], list],
        items: Sequence[object],
        *,
        seed: int = 0,
    ) -> MultiCoreResult:
        """Partition ``items`` round-robin and run ``runner`` per core.

        ``runner(engine, shard) -> list`` executes one core's shard —
        any of the schedulers (sequential, interleaved, GP, AMAC) works
        unchanged.
        """
        items = list(items)
        engines = self.engines(seed)
        cores = []
        for index, engine in enumerate(engines):
            shard = items[index :: self.n_cores]
            results = runner(engine, shard) if shard else []
            engine.settle()
            cores.append(
                CoreResult(
                    core=index,
                    cycles=engine.clock,
                    n_items=len(shard),
                    results=list(results),
                )
            )
        return MultiCoreResult(cores=cores)

    def run_bulk(
        self,
        executor_name: str,
        tasks,
        *,
        group_size: int | None = None,
        batch_size: int = 4096,
        seed: int = 0,
    ) -> MultiCoreResult:
        """Partition a :class:`~repro.interleaving.executor.BulkLookup`
        across cores, each core draining its shard through a
        :class:`~repro.interleaving.executor.BulkPipeline`.

        The registry-name counterpart of :meth:`run`: pick a technique
        by name (``"CORO"``, ``"GP"``, ...) and let the pipeline bound
        each core's scheduler group-fill loops to ``batch_size`` inputs.
        """
        # Imported here: repro.interleaving imports repro.sim at module
        # load, so the reverse edge must stay lazy.
        from dataclasses import replace as _replace

        from repro.interleaving.executor import BulkPipeline, get_executor

        pipeline = BulkPipeline(get_executor(executor_name), batch_size)
        engines = self.engines(seed)
        cores = []
        for index, engine in enumerate(engines):
            shard = tasks.inputs[index :: self.n_cores]
            results = (
                pipeline.run(
                    _replace(tasks, inputs=shard), engine, group_size=group_size
                )
                if shard
                else []
            )
            engine.settle()
            cores.append(
                CoreResult(
                    core=index,
                    cycles=engine.clock,
                    n_items=len(shard),
                    results=list(results),
                )
            )
        return MultiCoreResult(cores=cores)

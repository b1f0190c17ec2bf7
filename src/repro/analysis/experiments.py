"""Shared measurement harness used by all benchmarks.

Methodology (mirroring Section 5.1 of the paper):

* implicit arrays/trees let sizes sweep 1 MB–2 GB;
* lookup lists come from MT19937 seed 0;
* every measured run is preceded by a **warm-up** run of the same
  technique over a *different* lookup list (the paper averages 100
  executions — steady state — but repeating identical values would let
  even the deepest probe lines stay LLC-resident, which the paper's own
  load profiles show does not happen);
* structures that fit the last-level cache are installed there first
  ("the 1 MB dictionary fits in the processor caches"), so in-cache
  points reflect warm caches;
* the measured pass runs on a fresh engine sharing the warmed memory
  system, and all counters are reported as deltas.

Benchmark scale: ``REPRO_BENCH_SCALE=full`` selects the paper's full
1 MB–2 GB grid with more lookups; the default ``quick`` grid brackets
the LLC boundary with fewer points so the suite finishes in CI time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.config import HASWELL, ArchSpec
from repro.errors import WorkloadError
from repro.indexes.binary_search import DEFAULT_COSTS, SearchCosts
from repro.interleaving.executor import BulkLookup, get_executor, paper_techniques
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import ExecutionEngine
from repro.sim.memory import HIT_LEVELS, MemorySystem
from repro.sim.tmam import TmamStats
from repro.workloads.generators import (
    PAPER_SIZE_GRID,
    QUICK_SIZE_GRID,
    lookup_values,
    make_table,
    sorted_lookup_values,
)

__all__ = [
    "TECHNIQUES",
    "DEFAULT_GROUP_SIZES",
    "BinarySearchPoint",
    "QueryPoint",
    "bench_scale",
    "size_grid",
    "lookups_per_point",
    "binary_sweep_grid",
    "warm_llc_resident",
    "warmed_engine",
    "run_binary_search_technique",
    "measure_binary_search",
    "measure_query",
]

#: The five implementations of Section 5.1, in the paper's order —
#: exactly the registry executors flagged as paper techniques.
TECHNIQUES = paper_techniques()

#: Best group sizes from Section 5.4.5 (GP capped by the 10 LFBs),
#: as declared by each registered executor.
DEFAULT_GROUP_SIZES = {
    technique: get_executor(technique).default_group_size
    for technique in TECHNIQUES
}


def bench_scale() -> str:
    """``quick`` (default) or ``full`` (paper grid), from the environment."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "quick").lower()
    if scale not in ("quick", "full"):
        raise WorkloadError(f"REPRO_BENCH_SCALE must be quick or full, not {scale!r}")
    return scale


def size_grid() -> list[int]:
    return PAPER_SIZE_GRID if bench_scale() == "full" else QUICK_SIZE_GRID


def lookups_per_point(default_quick: int = 400, default_full: int = 10_000) -> int:
    return default_full if bench_scale() == "full" else default_quick


def binary_sweep_grid(sizes: list[int] | None = None) -> list[dict]:
    """The standard (technique x size) grid, as sweep-runner kwargs.

    One point per paper technique per size, each with its Section-5.4.5
    default group size — the shape every Figure-3-family sweep shares.
    Results from :meth:`repro.perf.SweepRunner.map` over this grid come
    back grouped by technique first, sizes in grid order within each.
    """
    sizes = size_grid() if sizes is None else list(sizes)
    return [
        {
            "size_bytes": size,
            "technique": technique,
            "group_size": DEFAULT_GROUP_SIZES[technique],
        }
        for technique in TECHNIQUES
        for size in sizes
    ]


@dataclass
class BinarySearchPoint:
    """One (technique, size) measurement of the microbenchmark sweep."""

    technique: str
    size_bytes: int
    element: str
    group_size: int
    n_lookups: int
    cycles_per_search: float
    tmam: TmamStats
    loads_per_search: dict[str, float]
    walks_per_search: dict[str, float]
    translation_stall_per_search: float

    @property
    def cycles_by_category_per_search(self) -> dict[str, float]:
        return {
            category: cycles / self.n_lookups
            for category, cycles in self.tmam.cycles_by_category().items()
        }


@dataclass
class QueryPoint:
    """One IN-predicate query measurement (Figures 1 and 8, Tables 1-2)."""

    store: str
    strategy: str
    dict_bytes: int
    n_predicates: int
    n_rows: int
    total_cycles: int
    locate_cycles: int
    scan_cycles: int
    locate_tmam: TmamStats
    #: Per-operator profile rows (``OperatorProfile.as_dict()``) of the
    #: underlying ``repro.query`` plan run. Plain dicts so points stay
    #: picklable for the perf result cache; excluded from equality so
    #: pre-plan cached points still compare.
    operators: tuple = field(default=(), compare=False, repr=False)

    @property
    def response_ms(self) -> float:
        return HASWELL.cycles_to_ms(self.total_cycles)

    @property
    def locate_fraction(self) -> float:
        return self.locate_cycles / self.total_cycles if self.total_cycles else 0.0


def warm_llc_resident(memory: MemorySystem, regions) -> None:
    """Install regions' lines into the LLC when they collectively fit.

    Models steady state for cache-resident structures; L1/L2 contents are
    left to the warm-up run. Oversized inputs are left cold — capacity
    decides what stays, exactly as on hardware.
    """
    line = memory.arch.line_size
    total = sum(region.size for region in regions)
    if total > memory.arch.l3.size:
        return
    for region in regions:
        memory.l3.install_range(
            region.base // line, (region.base + region.size - 1) // line + 1
        )


def warmed_engine(
    arch: ArchSpec,
    warm_regions,
    warm_up,
    *,
    recorder=None,
) -> ExecutionEngine:
    """Warm-up pass + fresh measurement engine over one memory system.

    The shared methodology of every measurement in this module (and of
    :mod:`repro.analysis.tracing`): install cache-resident structures
    into the LLC, run ``warm_up(engine)`` over a throwaway engine to
    reach steady state, settle outstanding fills, and return a fresh
    engine — optionally span-traced via ``recorder`` — sharing the
    warmed memory system. Counters read from the returned engine are
    deltas of the measured pass alone.
    """
    memory = MemorySystem(arch)
    warm_llc_resident(memory, warm_regions)
    warm_up(ExecutionEngine(arch, memory))
    memory.settle(10**15)
    return ExecutionEngine(arch, memory, tracer=recorder)


def run_binary_search_technique(
    engine: ExecutionEngine,
    technique: str,
    table,
    values,
    group_size: int,
    costs: SearchCosts = DEFAULT_COSTS,
) -> list[int]:
    """Dispatch one bulk binary search through the executor registry."""
    return get_executor(technique).run(
        BulkLookup.sorted_array(table, values, costs),
        engine,
        group_size=group_size,
    )


def measure_binary_search(
    size_bytes: int,
    technique: str,
    *,
    element: str = "int",
    group_size: int | None = None,
    n_lookups: int | None = None,
    sort_lookups: bool = False,
    warm_with_same_values: bool = False,
    arch: ArchSpec = HASWELL,
    seed: int = 0,
) -> BinarySearchPoint:
    """Measure one sweep point (warm-up pass + measured pass).

    ``warm_with_same_values=True`` reproduces the paper's repetition
    methodology (the same lookup list executed repeatedly, steady state
    = warm paths subject to cache capacity); the default warms with a
    *different* list, modeling steady state across distinct queries.
    Figure 4's sorted-lookup experiment needs the former — its benefit
    is precisely about reuse distance under repetition.
    """
    if technique not in DEFAULT_GROUP_SIZES:
        raise WorkloadError(f"unknown technique {technique!r}")
    group_size = group_size or DEFAULT_GROUP_SIZES[technique]
    n_lookups = n_lookups or lookups_per_point()
    allocator = AddressSpaceAllocator(page_size=arch.page_size)
    table = make_table(allocator, "array", size_bytes, element)
    values_fn = sorted_lookup_values if sort_lookups else lookup_values
    values = values_fn(n_lookups, table, seed, element)
    warm_seed = seed if warm_with_same_values else seed + 977
    warm_values = values_fn(n_lookups, table, warm_seed, element)

    engine = warmed_engine(
        arch,
        [table.region],
        lambda warm: run_binary_search_technique(
            warm, technique, table, warm_values, group_size
        ),
    )
    memory = engine.memory
    memory_before = memory.stats.snapshot()
    walks_before = dict(memory.tlb.stats.walks_by_level)
    translation_before = 0  # fresh engine: tmam starts at zero
    results = run_binary_search_technique(
        engine, technique, table, values, group_size
    )
    engine.settle()
    if len(results) != n_lookups:
        raise WorkloadError("technique lost lookups")  # pragma: no cover

    loads = memory.stats.delta(memory_before).loads_by_level
    walks_now = memory.tlb.stats.walks_by_level
    walks_delta = {
        level: walks_now.get(level, 0) - walks_before.get(level, 0)
        for level in set(walks_now) | set(walks_before)
    }
    return BinarySearchPoint(
        technique=technique,
        size_bytes=size_bytes,
        element=element,
        group_size=group_size,
        n_lookups=n_lookups,
        cycles_per_search=engine.clock / n_lookups,
        tmam=engine.tmam.snapshot(),
        loads_per_search={
            level: loads[level] / n_lookups for level in HIT_LEVELS
        },
        walks_per_search={
            level: count / n_lookups for level, count in sorted(walks_delta.items())
        },
        translation_stall_per_search=(
            engine.tmam.translation_stall_cycles / n_lookups
        ),
    )


def measure_query(
    dict_bytes: int,
    store: str,
    strategy: str,
    *,
    n_predicates: int = 10_000,
    n_rows: int | None = None,
    group_size: int = 6,
    arch: ArchSpec = HASWELL,
    seed: int = 0,
) -> QueryPoint:
    """Measure one IN-predicate query point over Main or Delta."""
    import numpy as np

    from repro.columnstore.column import EncodedColumn
    from repro.columnstore.dictionary import DeltaDictionary, MainDictionary
    from repro.columnstore.query import run_in_predicate

    if n_rows is None:
        # Keep the scan:encode ratio scale-independent (the paper's full
        # workload pairs 10 K predicates with a multi-million-row scan).
        n_rows = 400 * n_predicates
    allocator = AddressSpaceAllocator(page_size=arch.page_size)
    if store == "main":
        dictionary = MainDictionary.implicit(allocator, "dict", dict_bytes)
        warm_regions = [dictionary.array.region]
    elif store == "delta":
        dictionary = DeltaDictionary.implicit(allocator, "dict", dict_bytes)
        warm_regions = [dictionary.tree.region, dictionary.dict_view.region]
    else:
        raise WorkloadError(f"store must be main or delta, not {store!r}")

    n_values = dictionary.n_values
    rng = np.random.RandomState(seed)
    codes = rng.randint(0, n_values, n_rows)
    column = EncodedColumn(dictionary, codes, allocator, "col")

    predicates = rng.randint(0, n_values, n_predicates).tolist()
    warm_predicates = np.random.RandomState(seed + 977).randint(
        0, n_values, n_predicates
    ).tolist()

    engine = warmed_engine(
        arch,
        warm_regions,
        lambda warm: run_in_predicate(
            warm, column, warm_predicates,
            strategy=strategy, group_size=group_size,
        ),
    )
    result = run_in_predicate(
        engine, column, predicates, strategy=strategy, group_size=group_size
    )
    return QueryPoint(
        store=store,
        strategy=strategy,
        dict_bytes=dict_bytes,
        n_predicates=n_predicates,
        n_rows=n_rows,
        total_cycles=result.total_cycles,
        locate_cycles=result.locate.cycles,
        scan_cycles=result.scan.cycles,
        locate_tmam=result.locate.tmam,
        operators=tuple(op.as_dict() for op in result.operators),
    )

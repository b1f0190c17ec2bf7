"""Host wall-clock benchmark for the ``repro.perf`` layer itself.

Every other file in this suite measures *simulated* cycles, which the
perf layer must leave bit-identical. This one measures what the layer is
allowed to change: host seconds. It times the Figure 7 quick grid five
ways — serial, parallel across worker processes, cold and warm through
a result cache, all four on the executors' generators, and serial on
the default path, where every grid point replays a staged schedule —
checks that all five produce identical simulated results, and writes
the timings (plus micro-timings of the optimized hot loops) to
``benchmarks/results/BENCH_wallclock.json`` under the
``repro.wallclock/1`` schema.

Assertions are calibrated to the host:

* cache-warm replay must beat a cold run by >= 10x everywhere — replay
  does no simulation, so this holds on any machine;
* the parallel-vs-serial speedup (>= 2.5x at 4 workers) is only
  asserted when the host actually has >= 4 CPUs. ``host_cpus`` is
  recorded in the artifact so CI trend tracking can interpret the
  speedup field; on smaller hosts the assertion degrades to a serial
  floor (>= 0.5x) instead of disappearing — parallel mode must stay
  correct and must not collapse, even when it cannot be faster;
* the default-path (replay) sweep must beat the serial generator
  sweep by >= 5x on every host (single-process replay vs
  single-process generators — no CPU-count dependence), with schedule
  staging warmed first and reported separately in ``micro_timings_s``
  (``schedule_compile_s`` vs ``compiled_replay_s``), and no grid point
  may fall back to its generators.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import time

from repro import perf
from repro.analysis import lookups_per_point, measure_binary_search
from repro.interleaving.compiled import (
    _generators_only,
    compiled_stats,
    compiled_timings,
    reset_compiled_stats,
)
from repro.config import HASWELL
from repro.sim import ExecutionEngine
from repro.sim.cache import SetAssociativeCache
from repro.sim.events import Compute, Load
from repro.sim.memory import MemorySystem

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SCHEMA = "repro.wallclock/1"

#: The Figure 7 grid at wall-clock-friendly size: every interleaving
#: technique across a band of group sizes on the 256 MB array.
GRID_TECHNIQUES = ("GP", "AMAC", "CORO")
GRID_GROUPS = (2, 4, 6, 8)


def _grid() -> list[dict]:
    return [
        {"size_bytes": 256 << 20, "technique": technique, "group_size": g}
        for technique in GRID_TECHNIQUES
        for g in GRID_GROUPS
    ]


def _point_fingerprint(point) -> tuple:
    """The simulated outcome of one point, reduced to comparable data."""
    return (
        point.technique,
        point.group_size,
        point.cycles_per_search,
        point.tmam.cpi,
        tuple(sorted(point.loads_per_search.items())),
    )


def _timed_sweep(jobs: int, cache, grid: list[dict], n: int):
    runner = perf.SweepRunner(jobs=jobs, cache=cache)
    start = time.perf_counter()
    points = runner.map(measure_binary_search, grid, common={"n_lookups": n})
    return time.perf_counter() - start, [_point_fingerprint(p) for p in points]


def _grid_checksum(points: list[tuple]) -> str:
    """Stable digest of a sweep's fingerprints (for cross-mode equality)."""
    return hashlib.sha256(repr(points).encode()).hexdigest()[:16]


def _micro_cache_lookup(repeats: int = 30_000) -> float:
    """Seconds for ``repeats`` L1 lookup/install pairs (the hottest loop)."""
    cache = SetAssociativeCache(HASWELL.l1d, HASWELL.line_size)
    start = time.perf_counter()
    for line in range(repeats):
        if not cache.lookup(line & 0x3FFF):
            cache.install(line & 0x3FFF)
    return time.perf_counter() - start


def _micro_dispatch(repeats: int = 6_000) -> float:
    """Seconds to dispatch a compute/load-heavy instruction stream."""

    def stream():
        for i in range(repeats):
            yield Compute(1, 1)
            yield Load((i * 64) & 0xFFFFF, 8)
        return None

    engine = ExecutionEngine(HASWELL, MemorySystem(HASWELL))
    start = time.perf_counter()
    engine.run(stream())
    return time.perf_counter() - start


def _micro_translate(repeats: int = 20_000) -> float:
    """Seconds for ``repeats`` TLB translations with page locality."""
    memory = MemorySystem(HASWELL)
    page = HASWELL.page_size
    start = time.perf_counter()
    for i in range(repeats):
        memory.tlb.translate((i % 64) * page + (i & 0xFFF), i)
    return time.perf_counter() - start


def test_wallclock_speedup_and_cache(benchmark, record_table, tmp_path):
    host_cpus = os.cpu_count() or 1
    parallel_jobs = min(4, max(2, host_cpus))
    n = min(lookups_per_point(), 200)
    grid = _grid()

    def compute():
        # The perf-layer modes run on the generator reference, so their
        # timings stay comparable with earlier artifacts. Worker
        # processes fork inside the scope and inherit it.
        cache = perf.ResultCache(tmp_path / "wallclock-cache")
        with _generators_only():
            serial_s, serial_points = _timed_sweep(1, None, grid, n)
            parallel_s, parallel_points = _timed_sweep(parallel_jobs, None, grid, n)
            cold_s, cold_points = _timed_sweep(parallel_jobs, cache, grid, n)
            warm_s, warm_points = _timed_sweep(1, cache, grid, n)
        # Default path: one untimed pass stages (and validates) every
        # schedule, then the timed pass measures pure replay — the
        # staging cost is reported on its own in micro_timings_s.
        reset_compiled_stats()
        _timed_sweep(1, None, grid, n)
        compiled_s, compiled_points = _timed_sweep(1, None, grid, n)
        micro = {
            "cache_lookup_s": _micro_cache_lookup(),
            "engine_dispatch_s": _micro_dispatch(),
            "tlb_translate_s": _micro_translate(),
            "schedule_compile_s": compiled_timings()["schedule_compile_s"],
            "compiled_replay_s": compiled_timings()["replay_s"],
        }
        return {
            "serial_s": serial_s,
            "parallel_s": parallel_s,
            "cache_cold_s": cold_s,
            "cache_warm_s": warm_s,
            "compiled_s": compiled_s,
            "points": {
                "serial": serial_points,
                "parallel": parallel_points,
                "cold": cold_points,
                "warm": warm_points,
                "compiled": compiled_points,
            },
            "cache_stats": cache.as_dict(),
            "compiled_stats": compiled_stats(),
            "micro": micro,
        }

    out = benchmark.pedantic(compute, rounds=1, iterations=1)

    # Parallel execution, cache replay, and staged-schedule replay are
    # pure host-side mechanisms: every mode must reproduce the serial
    # sweep bit for bit.
    for mode in ("parallel", "cold", "warm", "compiled"):
        assert out["points"][mode] == out["points"]["serial"], mode
    # Every grid point is compilable: any fallback means the default
    # sweep silently measured the generator path.
    assert out["compiled_stats"]["fallbacks"] == 0, (
        f"default sweep fell back: {out['compiled_stats']['fallbacks_by_reason']}"
    )
    assert out["compiled_stats"]["replays"] >= 2 * len(grid)
    # The warm pass replayed every point instead of simulating.
    assert out["cache_stats"]["hits"] >= len(grid)
    warm_speedup = out["cache_cold_s"] / out["cache_warm_s"]
    assert warm_speedup >= 10, f"warm replay only {warm_speedup:.1f}x faster"
    speedup = out["serial_s"] / out["parallel_s"]
    if host_cpus >= 4:
        assert speedup >= 2.5, f"parallel speedup {speedup:.2f}x at jobs=4"
    else:
        # On small hosts parallel mode can't be faster, but it must not
        # collapse either: worker processes still time-slice the same
        # cores, so the sweep should finish within ~2x of serial. The
        # 0.5x floor brackets the 0.872x measured on the 1-CPU reference
        # host (ROADMAP PR 5) with headroom for scheduler noise — the
        # assertion now arms everywhere instead of silently passing.
        assert speedup >= 0.5, (
            f"parallel sweep {speedup:.2f}x of serial on {host_cpus} "
            f"CPU(s) — worse than the documented serial floor"
        )
    # The replay pass races the serial generator sweep in the same
    # single process, so the >= 5x bar arms on every host — including
    # 1-CPU runners where the parallel assertion degrades to its floor.
    compiled_speedup = out["serial_s"] / out["compiled_s"]
    assert compiled_speedup >= 5, (
        f"replay only {compiled_speedup:.2f}x over serial generators"
    )

    doc = {
        "schema": SCHEMA,
        "host_cpus": host_cpus,
        "jobs": parallel_jobs,
        "grid_points": len(grid),
        "n_lookups": n,
        "serial_s": round(out["serial_s"], 4),
        "parallel_s": round(out["parallel_s"], 4),
        "speedup": round(speedup, 3),
        "cache_cold_s": round(out["cache_cold_s"], 4),
        "cache_warm_s": round(out["cache_warm_s"], 4),
        "cache_warm_speedup": round(warm_speedup, 2),
        "compiled_s": round(out["compiled_s"], 4),
        "compiled_speedup": round(compiled_speedup, 3),
        "compiled_fallbacks": out["compiled_stats"]["fallbacks"],
        "grid_checksum_serial": _grid_checksum(out["points"]["serial"]),
        "grid_checksum_compiled": _grid_checksum(out["points"]["compiled"]),
        "micro_timings_s": {
            name: round(seconds, 5) for name, seconds in out["micro"].items()
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    artifact = RESULTS_DIR / "BENCH_wallclock.json"
    artifact.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    rows = [
        ["serial sweep", f"{doc['serial_s']:.2f}"],
        [f"parallel sweep (jobs={parallel_jobs})", f"{doc['parallel_s']:.2f}"],
        ["speedup", f"{doc['speedup']:.2f}x"],
        ["cache cold", f"{doc['cache_cold_s']:.2f}"],
        ["cache warm", f"{doc['cache_warm_s']:.2f}"],
        ["warm speedup", f"{doc['cache_warm_speedup']:.1f}x"],
        ["replay sweep (default path)", f"{doc['compiled_s']:.2f}"],
        ["replay speedup", f"{doc['compiled_speedup']:.2f}x"],
    ]
    from repro.analysis import format_table

    record_table(
        "wallclock",
        format_table(
            ["phase", "seconds"],
            rows,
            title=f"Host wall-clock: sweep runner + result cache "
            f"({host_cpus} CPUs)",
        ),
    )

"""Tests for the measurement harness (uses small sizes to stay fast)."""

import numpy as np
import pytest

from repro.analysis.experiments import (
    DEFAULT_GROUP_SIZES,
    TECHNIQUES,
    bench_scale,
    lookups_per_point,
    measure_binary_search,
    measure_query,
    size_grid,
    warm_llc_resident,
)
from repro.config import HASWELL
from repro.errors import WorkloadError
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.memory import MemorySystem

MB = 1 << 20


class TestScaleSelection:
    def test_default_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == "quick"
        assert len(size_grid()) == 6
        assert lookups_per_point() == 400

    def test_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "full")
        assert bench_scale() == "full"
        assert len(size_grid()) == 12
        assert lookups_per_point() == 10_000

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "huge")
        with pytest.raises(WorkloadError):
            bench_scale()


class TestWarmLlc:
    def test_small_region_installed(self):
        memory = MemorySystem(HASWELL)
        alloc = AddressSpaceAllocator()
        region = alloc.allocate("r", 1 * MB)
        warm_llc_resident(memory, [region])
        assert memory.l3.contains(region.base // 64)
        assert memory.l3.contains((region.end - 1) // 64)

    def test_oversized_region_skipped(self):
        memory = MemorySystem(HASWELL)
        alloc = AddressSpaceAllocator()
        region = alloc.allocate("r", 64 * MB)
        warm_llc_resident(memory, [region])
        assert memory.l3.resident_lines == 0


class TestMeasureBinarySearch:
    def test_point_fields(self):
        point = measure_binary_search(1 * MB, "CORO", n_lookups=50)
        assert point.technique == "CORO"
        assert point.group_size == DEFAULT_GROUP_SIZES["CORO"]
        assert point.cycles_per_search > 0
        assert point.tmam.cycles > 0
        assert abs(sum(point.tmam.breakdown().values()) - 1.0) < 1e-9
        assert all(v >= 0 for v in point.loads_per_search.values())

    def test_unknown_technique(self):
        with pytest.raises(WorkloadError):
            measure_binary_search(1 * MB, "SPP", n_lookups=10)

    def test_deterministic(self):
        a = measure_binary_search(1 * MB, "GP", n_lookups=60)
        b = measure_binary_search(1 * MB, "GP", n_lookups=60)
        assert a.cycles_per_search == b.cycles_per_search

    def test_sorted_lookups_speed_up_repeated_queries(self):
        """Figure 4: sorting the lookup list increases temporal locality.

        The gain is about reuse distance under the paper's repetition
        methodology: warm with the same values and run enough lookups
        that the unsorted paths overflow the LLC (a scaled hierarchy
        recreates the capacity relationship at test size).
        """
        from repro.config import scaled

        arch = scaled(64)  # L3 = 400 KB
        common = dict(n_lookups=500, arch=arch, warm_with_same_values=True)
        unsorted = measure_binary_search(32 * MB, "Baseline", **common)
        sorted_ = measure_binary_search(
            32 * MB, "Baseline", sort_lookups=True, **common
        )
        assert sorted_.cycles_per_search < 0.8 * unsorted.cycles_per_search

    def test_string_element_slower_than_int(self):
        int_point = measure_binary_search(4 * MB, "Baseline", n_lookups=100)
        str_point = measure_binary_search(
            4 * MB, "Baseline", element="string", n_lookups=100
        )
        assert str_point.cycles_per_search > int_point.cycles_per_search

    def test_all_techniques_run(self):
        for technique in TECHNIQUES:
            point = measure_binary_search(1 * MB, technique, n_lookups=30)
            assert point.cycles_per_search > 0


class TestMeasureQuery:
    def test_main_point(self):
        point = measure_query(
            1 * MB, "main", "sequential", n_predicates=100, n_rows=10_000
        )
        assert point.total_cycles == (
            point.locate_cycles + point.scan_cycles
        ) + (point.total_cycles - point.locate_cycles - point.scan_cycles)
        assert 0 < point.locate_fraction < 1
        assert point.response_ms > 0

    def test_delta_point(self):
        point = measure_query(
            1 * MB, "delta", "interleaved", n_predicates=100, n_rows=10_000
        )
        assert point.store == "delta"
        assert point.locate_cycles > 0

    def test_unknown_store(self):
        with pytest.raises(WorkloadError):
            measure_query(1 * MB, "warm", "sequential", n_predicates=10, n_rows=100)

    def test_interleaving_beats_sequential_beyond_llc(self):
        seq = measure_query(
            64 * MB, "main", "sequential", n_predicates=300, n_rows=10_000
        )
        inter = measure_query(
            64 * MB, "main", "interleaved", n_predicates=300, n_rows=10_000
        )
        assert inter.locate_cycles < seq.locate_cycles


class TestFig7Calibration:
    def test_result_cache_answers_the_g1_profiles(self, monkeypatch, tmp_path):
        """The calibration profiles GP, AMAC and CORO at G=1 with the
        arguments of three of Figure 7's sweep points, so a result cache
        answers them, and the document does not change."""
        from repro import perf
        from repro.analysis import figures
        from repro.perf import ResultCache

        monkeypatch.setattr(figures, "lookups_per_point", lambda: 8)
        monkeypatch.setattr(perf, "_config", perf._PerfConfig(jobs=1))
        uncached = figures.fig7_data()
        cache = ResultCache(tmp_path)
        with perf.overrides(cache=cache):
            cached = figures.fig7_data()
        assert cached == uncached
        # 36 sweep points and the Baseline profile miss; the G=1 profiles hit.
        assert (cache.hits, cache.misses, cache.stores) == (3, 37, 37)

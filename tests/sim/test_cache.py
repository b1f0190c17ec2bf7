"""Unit and property tests for the set-associative LRU cache."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import CacheSpec
from repro.errors import ConfigurationError
from repro.sim.cache import SetAssociativeCache


def make_cache(size=1024, assoc=2, line=64):
    return SetAssociativeCache(CacheSpec("T", size, assoc, 4), line)


class TestGeometry:
    def test_n_sets(self):
        cache = make_cache(size=1024, assoc=2, line=64)
        assert cache.n_sets == 8

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(CacheSpec("T", 100, 3, 4), 64)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheSpec("T", 0, 2, 4)


class TestLookupInstall:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert not cache.lookup(5)
        cache.install(5)
        assert cache.lookup(5)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction_within_set(self):
        cache = make_cache(size=1024, assoc=2, line=64)  # 8 sets
        # Lines 0, 8, 16 all map to set 0 in an 8-set cache.
        cache.install(0)
        cache.install(8)
        evicted = cache.install(16)
        assert evicted == 0
        assert not cache.contains(0)
        assert cache.contains(8) and cache.contains(16)

    def test_lookup_promotes_to_mru(self):
        cache = make_cache(size=1024, assoc=2, line=64)
        cache.install(0)
        cache.install(8)
        assert cache.lookup(0)  # 0 becomes MRU, 8 becomes LRU
        evicted = cache.install(16)
        assert evicted == 8

    def test_reinstall_refreshes_lru(self):
        cache = make_cache(size=1024, assoc=2, line=64)
        cache.install(0)
        cache.install(8)
        cache.install(0)  # refresh
        assert cache.install(16) == 8

    def test_contains_does_not_touch_lru_or_stats(self):
        cache = make_cache(size=1024, assoc=2, line=64)
        cache.install(0)
        cache.install(8)
        assert cache.contains(0)
        assert cache.stats.hits == 0 and cache.stats.misses == 0
        assert cache.install(16) == 0  # 0 was still LRU

    def test_invalidate(self):
        cache = make_cache()
        cache.install(3)
        assert cache.invalidate(3)
        assert not cache.invalidate(3)
        assert not cache.contains(3)

    def test_flush_preserves_stats(self):
        cache = make_cache()
        cache.install(1)
        cache.lookup(1)
        cache.flush()
        assert cache.resident_lines == 0
        assert cache.stats.hits == 1

    def test_different_sets_do_not_conflict(self):
        cache = make_cache(size=1024, assoc=2, line=64)
        for line in range(8):  # one line per set
            cache.install(line)
        assert cache.resident_lines == 8
        assert all(cache.contains(line) for line in range(8))


class TestProperties:
    @given(
        lines=st.lists(st.integers(min_value=0, max_value=200), max_size=300),
        assoc=st.sampled_from([1, 2, 4, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_capacity_never_exceeded(self, lines, assoc):
        cache = SetAssociativeCache(CacheSpec("T", 64 * assoc * 4, assoc, 1), 64)
        for line in lines:
            cache.install(line)
            assert cache.resident_lines <= assoc * cache.n_sets
        for ways in cache._sets:
            assert len(ways) <= assoc

    @given(lines=st.lists(st.integers(min_value=0, max_value=50), max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_install_makes_resident_until_evicted(self, lines):
        cache = make_cache(size=512, assoc=2, line=64)  # 4 sets
        resident: set[int] = set()
        for line in lines:
            evicted = cache.install(line)
            resident.add(line)
            if evicted is not None:
                resident.discard(evicted)
            assert cache.contains(line)
        assert {l for l in resident if cache.contains(l)} == resident

    @given(lines=st.lists(st.integers(min_value=0, max_value=100), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_hits_plus_misses_equals_accesses(self, lines):
        cache = make_cache()
        for line in lines:
            if cache.lookup(line):
                pass
            else:
                cache.install(line)
        assert cache.stats.accesses == len(lines)


def _state(cache):
    return [list(ways) for ways in cache._sets], cache.stats.installs, cache.stats.evictions


class TestInstallRange:
    """``install_range`` equals one ``install`` per line, in order."""

    @given(
        assoc=st.sampled_from([1, 2, 4, 16]),
        n_sets=st.sampled_from([1, 3, 8, 16]),
        before=st.lists(st.integers(min_value=0, max_value=400), max_size=120),
        ranges=st.lists(
            st.tuples(st.integers(0, 300), st.integers(0, 200)), min_size=1, max_size=4
        ),
    )
    # An LLC warm-up's shape: a region, then one above it with more lines
    # a set than ways, into a cold cache and a pre-populated one.
    @example(assoc=16, n_sets=64, before=[], ranges=[(3, 12 * 64 + 7), (2_000, 40 * 64)])
    @example(
        assoc=16, n_sets=64, before=[5, 69], ranges=[(3, 12 * 64 + 7), (2_000, 40 * 64)]
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_per_line_installs(self, assoc, n_sets, before, ranges):
        # Pre-populated sets (re-installs of resident lines included) and
        # ranges from empty to many more lines per set than ways.
        spec = CacheSpec("T", 64 * assoc * n_sets, assoc, 4)
        bulk, reference = SetAssociativeCache(spec, 64), SetAssociativeCache(spec, 64)
        for line in before:
            bulk.install(line)
            reference.install(line)
        for first, count in ranges:
            bulk.install_range(first, first + count)
            for line in range(first, first + count):
                reference.install(line)
            assert _state(bulk) == _state(reference)

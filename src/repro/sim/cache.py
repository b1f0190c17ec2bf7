"""Set-associative cache model with LRU replacement.

The cache tracks *which* line numbers are resident — never their contents.
Lookups and installs are O(associativity); LRU order is maintained with an
insertion-ordered dict per set (Python dicts preserve insertion order, so
"re-insert" is "move to most-recently-used").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import CacheSpec

__all__ = ["CacheStats", "SetAssociativeCache"]


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    hits: int = 0
    misses: int = 0
    installs: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.installs, self.evictions)

    def as_dict(self) -> dict:
        """Plain-dict view (metrics-registry source)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "installs": self.installs,
            "evictions": self.evictions,
            "accesses": self.accesses,
            "hit_rate": self.hit_rate,
        }


class SetAssociativeCache:
    """One level of the cache hierarchy, keyed by cache-line number.

    ``lookup``/``install`` sit on the simulator's hottest path (every
    demand load probes up to three levels), so both use a precomputed
    set-index mask when the set count is a power of two — ``line & mask``
    selects exactly the same set as ``line % n_sets`` for the
    non-negative line numbers the simulator produces — and bind their
    per-set dict and stats object to locals once per call.
    """

    def __init__(self, spec: CacheSpec, line_size: int) -> None:
        self.spec = spec
        self.line_size = line_size
        self.n_sets = spec.n_sets(line_size)
        self.associativity = spec.associativity
        self.latency = spec.latency
        # One insertion-ordered dict per set: line number -> None.
        # First key is LRU, last key is MRU.
        self._sets: list[dict[int, None]] = [dict() for _ in range(self.n_sets)]
        #: ``n_sets - 1`` when n_sets is a power of two, else None.
        self._mask: int | None = (
            self.n_sets - 1 if self.n_sets & (self.n_sets - 1) == 0 else None
        )
        self.stats = CacheStats()

    def _set_of(self, line: int) -> dict[int, None]:
        mask = self._mask
        return self._sets[line & mask if mask is not None else line % self.n_sets]

    def lookup(self, line: int) -> bool:
        """Probe for ``line``; on a hit, promote it to most recently used."""
        mask = self._mask
        ways = self._sets[line & mask if mask is not None else line % self.n_sets]
        stats = self.stats
        if line in ways:
            stats.hits += 1
            del ways[line]
            ways[line] = None
            return True
        stats.misses += 1
        return False

    def contains(self, line: int) -> bool:
        """Probe without updating LRU order or statistics."""
        mask = self._mask
        return line in (
            self._sets[line & mask if mask is not None else line % self.n_sets]
        )

    def install(self, line: int) -> int | None:
        """Insert ``line`` as MRU; return the evicted line number, if any.

        Re-installing a resident line just refreshes its LRU position.
        """
        mask = self._mask
        ways = self._sets[line & mask if mask is not None else line % self.n_sets]
        evicted = None
        if line in ways:
            del ways[line]
        elif len(ways) >= self.associativity:
            evicted = next(iter(ways))
            del ways[evicted]
            self.stats.evictions += 1
        ways[line] = None
        self.stats.installs += 1
        return evicted

    def install_range(self, first: int, stop: int) -> None:
        """Install lines ``first .. stop - 1`` in order, as that many
        :meth:`install` calls would: the same LRU order in every set and
        the same ``installs`` and ``evictions``, re-installs of resident
        lines included.

        One loop with its state in locals instead of a call per line.
        """
        count = stop - first
        if count <= 0:
            return
        n_sets = self.n_sets
        assoc = self.associativity
        sets = self._sets
        evictions = 0
        for line in range(first, stop):
            ways = sets[line % n_sets]
            if line in ways:
                del ways[line]
            elif len(ways) >= assoc:
                del ways[next(iter(ways))]
                evictions += 1
            ways[line] = None
        self.stats.installs += count
        self.stats.evictions += evictions

    def register_metrics(self, registry, prefix: str) -> None:
        """Mount this level's counters in a metrics registry."""

        def source() -> dict:
            counters = self.stats.as_dict()
            counters["resident_lines"] = self.resident_lines
            return counters

        registry.register_source(prefix, source)

    def invalidate(self, line: int) -> bool:
        """Drop ``line`` if resident; return whether it was present."""
        ways = self._set_of(line)
        if line in ways:
            del ways[line]
            return True
        return False

    def flush(self) -> None:
        """Empty the cache (statistics are preserved)."""
        for ways in self._sets:
            ways.clear()

    @property
    def resident_lines(self) -> int:
        """Number of lines currently cached (for tests and diagnostics)."""
        return sum(len(ways) for ways in self._sets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{self.spec.name}: {self.resident_lines} lines, "
            f"{self.stats.hits} hits / {self.stats.misses} misses>"
        )

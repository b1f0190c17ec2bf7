"""Fixed-bucket log-scale latency histograms with trace-id exemplars.

Two things live here, both shared across the serving and reporting
layers:

* :func:`nearest_rank` — **the** nearest-rank percentile. The service
  report, the load generator, and the chaos benchmark all need exact
  percentiles over a sorted latency list; they used to each hand-roll
  the ceil-rank arithmetic. This is now the single implementation,
  pinned by ``tests/obs/test_hist.py``.
* :class:`ExemplarHistogram` — a histogram over *fixed* log-scale
  buckets (quarter-octave: four buckets per power of two) where every
  bucket additionally retains an **exemplar**: the id of the *worst*
  observation that landed in it. The serving layer feeds it
  ``(latency, trace_id)`` pairs, so "show me a p99 request" is one
  bucket walk followed by one trace lookup — no post-hoc search
  through raw request lists. ``python -m repro explain`` is built on
  exactly this.

Bucket bounds are fixed at construction (pure function of the bucket
count), never adaptive — two runs that observe the same values produce
the identical bucket vector, which is what lets the ``repro.slo/1``
document diff cleanly across commits.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from repro.errors import SimulationError

__all__ = [
    "BUCKETS_PER_OCTAVE",
    "DEFAULT_N_BUCKETS",
    "Exemplar",
    "ExemplarHistogram",
    "exemplar_from_dict",
    "nearest_rank",
]

#: Log-scale resolution: buckets per power of two (quarter-octave).
BUCKETS_PER_OCTAVE = 4

#: Default bucket count: 120 quarter-octaves cover [1, 2^30) cycles —
#: comfortably past any simulated end-to-end latency in this repo.
DEFAULT_N_BUCKETS = 120


def nearest_rank(sorted_values, q: float):
    """Nearest-rank percentile of an ascending-sorted sequence.

    The canonical implementation behind every exact percentile in the
    repo: rank ``ceil(n * q / 100)`` (1-based), clamped to at least 1.
    Returns 0 for an empty sequence; raises outside ``(0, 100]``.
    """
    if not sorted_values:
        return 0
    if not 0 < q <= 100:
        raise SimulationError(f"percentile {q!r} outside (0, 100]")
    rank = max(1, -(-len(sorted_values) * q // 100))  # ceil(n*q/100)
    return sorted_values[int(rank) - 1]


@dataclass(frozen=True)
class Exemplar:
    """The representative worst observation of one histogram bucket."""

    bucket: int
    value: int
    trace_id: str

    def as_dict(self) -> dict:
        return {"bucket": self.bucket, "value": self.value, "trace_id": self.trace_id}


class ExemplarHistogram:
    """Fixed log2-scale buckets, each keeping its worst observation's id.

    Bucket ``0`` holds values below 1; bucket ``i`` (``i >= 1``) holds
    ``[2**((i-1)/4), 2**(i/4))``. Observations carry an opaque exemplar
    id (a request trace id in the serving layer); each bucket remembers
    the id of its **maximum** value seen — the worst request that still
    fell in that latency band. :meth:`exemplar_for` then answers "which
    request sits at pN" by cumulative-count walk.
    """

    __slots__ = ("n_buckets", "_bounds", "counts", "count", "total", "_exemplars")

    def __init__(self, n_buckets: int = DEFAULT_N_BUCKETS) -> None:
        if n_buckets < 2:
            raise SimulationError("exemplar histogram needs at least two buckets")
        self.n_buckets = n_buckets
        # bounds[i] is the *lower* bound of bucket i+1; bisect_right over
        # them maps a value to its bucket index.
        self._bounds = [
            2.0 ** (i / BUCKETS_PER_OCTAVE) for i in range(n_buckets - 1)
        ]
        self.counts = [0] * n_buckets
        self.count = 0
        self.total = 0
        self._exemplars: dict[int, tuple[int, str]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def bucket_index(self, value) -> int:
        """Bucket holding ``value`` (clamped into the fixed range)."""
        if value < 0:
            raise SimulationError("exemplar histogram: negative observation")
        return min(bisect_right(self._bounds, value), self.n_buckets - 1)

    def bucket_bounds(self, index: int) -> tuple[float, float]:
        """``[low, high)`` bounds of bucket ``index`` (inf-capped at top)."""
        low = 0.0 if index == 0 else self._bounds[index - 1]
        high = (
            float("inf") if index >= self.n_buckets - 1 else self._bounds[index]
        )
        return low, high

    def observe(self, value: int, trace_id: str) -> None:
        """Record one observation tagged with its exemplar id."""
        index = self.bucket_index(value)
        self.counts[index] += 1
        self.count += 1
        self.total += value
        worst = self._exemplars.get(index)
        if worst is None or value > worst[0]:
            self._exemplars[index] = (value, trace_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def percentile_bucket(self, q: float) -> int | None:
        """Bucket containing the nearest-rank pN observation."""
        if not self.count:
            return None
        if not 0 < q <= 100:
            raise SimulationError(f"percentile {q!r} outside (0, 100]")
        rank = max(1, -(-self.count * q // 100))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                return index
        return self.n_buckets - 1  # pragma: no cover - rank <= count

    def exemplar_for(self, q: float) -> Exemplar | None:
        """The worst request of the bucket holding the pN observation.

        Every non-empty bucket has an exemplar by construction, so this
        is ``None`` only on an empty histogram.
        """
        index = self.percentile_bucket(q)
        if index is None:
            return None
        value, trace_id = self._exemplars[index]
        return Exemplar(bucket=index, value=value, trace_id=trace_id)

    def exemplars(self) -> list[Exemplar]:
        """Every bucket exemplar, in bucket order."""
        return [
            Exemplar(bucket=index, value=value, trace_id=trace_id)
            for index, (value, trace_id) in sorted(self._exemplars.items())
        ]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        """Plain-dict view for the ``repro.slo/1`` document."""
        return {
            "buckets_per_octave": BUCKETS_PER_OCTAVE,
            "n_buckets": self.n_buckets,
            "count": self.count,
            "total": self.total,
            "counts": list(self.counts),
            "exemplars": [e.as_dict() for e in self.exemplars()],
        }


def exemplar_from_dict(record: dict, q: float) -> Exemplar | None:
    """The pN exemplar out of a serialized histogram (``as_dict`` form).

    The same cumulative-count walk as :meth:`ExemplarHistogram.
    exemplar_for`, but over the plain-dict view — so a consumer of a
    ``repro.slo/1`` document (or the ``explain`` verb reading a sweep
    outcome) can resolve "the p99 request" without the live object.
    """
    count = record["count"]
    if not count:
        return None
    if not 0 < q <= 100:
        raise SimulationError(f"percentile {q!r} outside (0, 100]")
    rank = max(1, -(-count * q // 100))
    seen = 0
    target = len(record["counts"]) - 1
    for index, bucket_count in enumerate(record["counts"]):
        seen += bucket_count
        if seen >= rank:
            target = index
            break
    for entry in record["exemplars"]:
        if entry["bucket"] == target:
            return Exemplar(**entry)
    raise SimulationError(
        f"histogram record has no exemplar for bucket {target}"
    )

"""Pluggable arrival processes for the serving layer, in simulated cycles.

An online serving path cannot choose its workload — the arrival process
*is* the experiment knob. Three processes cover the classic shapes:

* :class:`PoissonArrivals` — open-loop memoryless traffic at a fixed
  offered load (requests per kilocycle), the M/x/c baseline.
* :class:`BurstyArrivals` — open-loop traffic alternating between a
  burst rate and a base rate on a fixed period: the overload-recovery
  shape admission control exists for.
* :class:`ClosedLoopArrivals` — a fixed client population, each issuing
  its next request ``think_cycles`` after its previous one completed:
  the self-throttling shape (offered load tracks service capacity).
* :class:`DiurnalArrivals` — open-loop traffic from ``n_regions``
  geographic regions, each on its own phase-shifted sinusoidal
  day/night cycle: the planet-scale shape the cluster layer routes by
  region. Each arrival is tagged with its originating region
  (``.regions``, parallel to the emitted times).

Every process takes an **explicit RNG seed** and owns a private
``random.Random`` — no global RNG state is touched, so two runs with the
same seed produce bit-identical arrival sequences (pinned by
``tests/service/test_arrivals.py``). Times are integer cycles; the
sequence each process emits is non-decreasing.
"""

from __future__ import annotations

import heapq
import math
import random

from repro.errors import WorkloadError

__all__ = [
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "PoissonArrivals",
    "BurstyArrivals",
    "ClosedLoopArrivals",
    "DiurnalArrivals",
    "check_arrival_params",
    "make_arrivals",
]


class ArrivalProcess:
    """Common interface the server's event loop drives.

    ``peek`` returns the next arrival cycle without consuming it (or
    ``None`` when no arrival is currently scheduled), ``pop`` consumes
    it, and ``notify_completion`` lets closed-loop processes schedule
    follow-up arrivals. Open-loop processes pre-generate their whole
    schedule on construction.
    """

    kind = "?"

    def __init__(self, n_requests: int, seed: int) -> None:
        if n_requests <= 0:
            raise WorkloadError("arrival process needs at least one request")
        self.n_requests = n_requests
        self.seed = seed
        self._rng = random.Random(seed)
        self._issued = 0

    @property
    def issued(self) -> int:
        """Arrivals handed out via :meth:`pop` so far."""
        return self._issued

    def peek(self) -> int | None:
        raise NotImplementedError  # pragma: no cover

    def pop(self) -> int:
        raise NotImplementedError  # pragma: no cover

    def notify_completion(self, cycle: int) -> None:
        """A request completed at ``cycle`` (open-loop: ignored)."""

    def drain(self) -> list[int]:
        """Consume every currently schedulable arrival (for tests)."""
        times = []
        while self.peek() is not None:
            times.append(self.pop())
        return times


class _OpenLoop(ArrivalProcess):
    """Pre-generated arrival schedule; completions do not feed back."""

    def __init__(self, n_requests: int, seed: int) -> None:
        super().__init__(n_requests, seed)
        self._times = self._generate()
        if any(b < a for a, b in zip(self._times, self._times[1:])):
            raise WorkloadError("arrival times must be non-decreasing")

    def _generate(self) -> list[int]:
        raise NotImplementedError  # pragma: no cover

    def peek(self) -> int | None:
        return self._times[self._issued] if self._issued < len(self._times) else None

    def pop(self) -> int:
        cycle = self._times[self._issued]
        self._issued += 1
        return cycle


def _positive(value) -> bool:
    return value > 0


#: Valid range of every arrival parameter: (test, what it must be).
_PARAM_RANGES = {
    "rate_per_kcycle": (_positive, "positive"),
    "base_rate_per_kcycle": (_positive, "positive"),
    "burst_rate_per_kcycle": (_positive, "positive"),
    "burst_cycles": (_positive, "a phase of at least one cycle"),
    "gap_cycles": (_positive, "a phase of at least one cycle"),
    "n_regions": (
        lambda value: isinstance(value, int) and value >= 1,
        "a whole number of regions, at least one",
    ),
    "day_cycles": (_positive, "at least one cycle"),
    "amplitude": (lambda value: 0.0 <= value <= 1.0, "in [0, 1]"),
    "n_clients": (_positive, "at least one client"),
    "think_cycles": (_positive, "positive"),
}


def check_arrival_params(**params) -> None:
    """Raise :class:`WorkloadError` for the first parameter out of range.

    The one range check of arrival parameters: every process runs it on
    construction, and :class:`~repro.scenario.ScenarioSpec` runs it on
    the parameters a spec sets, before any sweep starts.
    """
    for name, value in params.items():
        valid, expected = _PARAM_RANGES[name]
        if not valid(value):
            raise WorkloadError(f"{name} must be {expected}, not {value!r}")


class PoissonArrivals(_OpenLoop):
    """Memoryless open-loop arrivals at ``rate_per_kcycle`` offered load."""

    kind = "poisson"

    def __init__(self, rate_per_kcycle: float, n_requests: int, seed: int) -> None:
        check_arrival_params(rate_per_kcycle=rate_per_kcycle)
        self.rate_per_kcycle = rate_per_kcycle
        super().__init__(n_requests, seed)

    def _generate(self) -> list[int]:
        rate = self.rate_per_kcycle / 1000.0
        clock = 0.0
        times = []
        for _ in range(self.n_requests):
            clock += self._rng.expovariate(rate)
            times.append(int(clock))
        return times


class BurstyArrivals(_OpenLoop):
    """Open-loop arrivals alternating burst and base rates.

    Each period of ``burst_cycles + gap_cycles`` starts with a burst
    phase at ``burst_rate_per_kcycle`` and relaxes to
    ``base_rate_per_kcycle`` for the remainder — a deterministic-phase,
    random-increment approximation of a Markov-modulated Poisson
    process, chosen so the phase schedule itself never depends on the
    RNG (two seeds see the same bursts, at the same cycles).
    """

    kind = "bursty"

    def __init__(
        self,
        base_rate_per_kcycle: float,
        burst_rate_per_kcycle: float,
        burst_cycles: int,
        gap_cycles: int,
        n_requests: int,
        seed: int,
    ) -> None:
        check_arrival_params(
            base_rate_per_kcycle=base_rate_per_kcycle,
            burst_rate_per_kcycle=burst_rate_per_kcycle,
            burst_cycles=burst_cycles,
            gap_cycles=gap_cycles,
        )
        self.base_rate_per_kcycle = base_rate_per_kcycle
        self.burst_rate_per_kcycle = burst_rate_per_kcycle
        self.burst_cycles = burst_cycles
        self.gap_cycles = gap_cycles
        super().__init__(n_requests, seed)

    def _rate_at(self, cycle: float) -> float:
        period = self.burst_cycles + self.gap_cycles
        in_burst = (cycle % period) < self.burst_cycles
        rate = self.burst_rate_per_kcycle if in_burst else self.base_rate_per_kcycle
        return rate / 1000.0

    def _generate(self) -> list[int]:
        clock = 0.0
        times = []
        for _ in range(self.n_requests):
            clock += self._rng.expovariate(self._rate_at(clock))
            times.append(int(clock))
        return times


class DiurnalArrivals(_OpenLoop):
    """Open-loop planet traffic: phase-shifted day/night cycles by region.

    ``n_regions`` regions each modulate a shared base rate with a
    sinusoid of period ``day_cycles``; region ``r`` is phase-shifted by
    ``r / n_regions`` of a day, so peak load rotates around the planet
    the way follow-the-sun traffic does. The instantaneous total rate is
    the base rate times the mean region weight, and each arrival draws
    its originating region proportionally to the weights at that moment
    — recorded in :attr:`regions`, parallel to the emitted times, so the
    cluster loadgen can map regions onto home nodes.

    Weights are floored at 0.05 (night-time traffic never fully stops),
    and ``amplitude`` sets how deep the swing is (0 = flat Poisson).
    """

    kind = "diurnal"

    def __init__(
        self,
        base_rate_per_kcycle: float,
        n_requests: int,
        seed: int,
        n_regions: int = 4,
        day_cycles: int = 200_000,
        amplitude: float = 0.8,
    ) -> None:
        check_arrival_params(
            base_rate_per_kcycle=base_rate_per_kcycle,
            n_regions=n_regions,
            day_cycles=day_cycles,
            amplitude=amplitude,
        )
        self.base_rate_per_kcycle = base_rate_per_kcycle
        self.n_regions = n_regions
        self.day_cycles = day_cycles
        self.amplitude = amplitude
        #: Originating region per arrival, parallel to the emitted times.
        self.regions: list[int] = []
        super().__init__(n_requests, seed)

    def _weights_at(self, cycle: float) -> list[float]:
        phase = cycle / self.day_cycles
        return [
            max(
                0.05,
                1.0
                + self.amplitude
                * math.sin(2.0 * math.pi * (phase + r / self.n_regions)),
            )
            for r in range(self.n_regions)
        ]

    def _generate(self) -> list[int]:
        base = self.base_rate_per_kcycle / 1000.0
        clock = 0.0
        times = []
        for _ in range(self.n_requests):
            weights = self._weights_at(clock)
            total_rate = base * (sum(weights) / self.n_regions)
            clock += self._rng.expovariate(total_rate)
            times.append(int(clock))
            # Draw the originating region from the weights at the
            # *arrival* instant (recomputed: the sinusoid moved).
            weights = self._weights_at(clock)
            draw = self._rng.uniform(0.0, sum(weights))
            cumulative = 0.0
            region = self.n_regions - 1
            for index, weight in enumerate(weights):
                cumulative += weight
                if draw <= cumulative:
                    region = index
                    break
            self.regions.append(region)
        return times


class ClosedLoopArrivals(ArrivalProcess):
    """A fixed population of clients with think time between requests.

    ``n_clients`` requests are scheduled up front (staggered uniformly
    over one think time so clients do not arrive in lockstep); every
    completion schedules that client's next arrival ``think_cycles``
    later (with ±20% seeded jitter), until ``n_requests`` have been
    issued. Offered load therefore tracks completion rate — the closed
    system can overrun a queue only up to its own population size.
    """

    kind = "closed"

    def __init__(
        self,
        n_clients: int,
        think_cycles: int,
        n_requests: int,
        seed: int,
    ) -> None:
        check_arrival_params(n_clients=n_clients, think_cycles=think_cycles)
        super().__init__(n_requests, seed)
        self.n_clients = min(n_clients, n_requests)
        self.think_cycles = think_cycles
        self._scheduled = 0
        self._heap: list[int] = []
        for _ in range(self.n_clients):
            heapq.heappush(self._heap, int(self._rng.uniform(0, think_cycles)))
            self._scheduled += 1

    def peek(self) -> int | None:
        return self._heap[0] if self._heap else None

    def pop(self) -> int:
        self._issued += 1
        return heapq.heappop(self._heap)

    def notify_completion(self, cycle: int) -> None:
        if self._scheduled >= self.n_requests:
            return
        jitter = self._rng.uniform(0.8, 1.2)
        heapq.heappush(self._heap, cycle + max(1, int(self.think_cycles * jitter)))
        self._scheduled += 1


#: Arrival process kinds, keyed for scenario descriptions and the CLI.
ARRIVAL_KINDS = {
    "poisson": PoissonArrivals,
    "bursty": BurstyArrivals,
    "closed": ClosedLoopArrivals,
    "diurnal": DiurnalArrivals,
}


def make_arrivals(
    kind: str, n_requests: int, seed: int, **params: object
) -> ArrivalProcess:
    """Build an arrival process by kind name (scenario plumbing)."""
    cls = ARRIVAL_KINDS.get(kind)
    if cls is None:
        raise WorkloadError(
            f"unknown arrival kind {kind!r}; expected one of "
            f"{', '.join(sorted(ARRIVAL_KINDS))}"
        )
    return cls(n_requests=n_requests, seed=seed, **params)

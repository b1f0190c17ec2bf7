"""The simulated-time online server: arrivals → admission → batches → shards.

:class:`ServiceServer` runs a discrete-event simulation over the same
cycle domain as the execution engine. Requests arrive via an
:class:`~repro.service.arrivals.ArrivalProcess`; the
:class:`~repro.service.admission.AdmissionController` bounds the waiting
room; the :class:`~repro.service.coalescer.Coalescer` forms groups; each
group dispatches through the executor registry onto the least-loaded of
``n_shards`` engine shards (private L1/L2/TLB, shared LLC — one
:class:`~repro.sim.multicore.MultiCoreSystem` under the hood). The
executor charges exactly the cycles the offline bulk path charges, so
the serving layer's latency numbers sit on the same calibrated cost
model as every figure in the repo.

Event loop invariant: simulated time advances to the earliest of the
next arrival, the next due retry, the next pending point fault, and the
next feasible dispatch (batch trigger *and* an available shard);
arrivals at or before any other event are admitted first so they can
still join the batch. Shed requests (overload policy ``"shed"``) run
ungrouped on a dedicated sequential overflow engine.

**Fault injection** (optional, via a :class:`~repro.faults.schedule.
FaultSchedule`): stall/crash windows delay dispatch; a crash landing
inside a batch's execution window fails it — members re-enter the queue
through bounded retry with exponential backoff and deterministic jitter
(drawn from the schedule's private RNG), or fail outright once their
budget is spent. Latency spikes and LFB shrinkage degrade the memory
environment a batch executes under; cache flushes land between events.
Resilience responses — per-request deadlines, hedged dispatch to a
second shard, adaptive Inequality-1 group-size degradation, overflow-
lane fallback — are all off by default, so a no-fault run is
bit-identical to a server that predates this machinery.

Everything observable lands in a :class:`~repro.obs.metrics.
MetricsRegistry`: admission counters, queue-depth gauge, per-phase
latency histograms (``service.latency.*``), and — only when chaos is
actually exercised — fault/retry/hedge counters (``service.faults.*``,
``service.retries``, ...). The :class:`ServiceReport` adds exact
percentiles (nearest-rank over the full latency list) and SLO
attainment.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from repro.config import HASWELL, ArchSpec
from repro.control import AdaptiveController, ControllerConfig
from repro.errors import ConfigurationError, SimulationError
from repro.faults.events import FAULT_KINDS
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.interleaving.executor import BulkLookup, get_executor
from repro.interleaving.policies import degraded_group_size
from repro.obs.hist import ExemplarHistogram, nearest_rank
from repro.obs.metrics import MetricsRegistry
from repro.obs.rtrace import NULL_REQUEST_TRACER
from repro.obs.slo import burn_analysis
from repro.service.admission import (
    OVERLOAD_POLICIES,
    AdmissionController,
    TokenBucket,
)
from repro.service.arrivals import ArrivalProcess
from repro.service.coalescer import Coalescer
from repro.service.request import Request
from repro.sim.engine import ExecutionEngine
from repro.sim.multicore import MultiCoreSystem

__all__ = [
    "PERCENTILES",
    "RESILIENCE_KEYS",
    "ServiceConfig",
    "ServiceReport",
    "ServiceServer",
]

#: The SLO percentiles every report carries.
PERCENTILES = (50, 95, 99)

#: Resilience counters a report zero-fills (present only when exercised).
RESILIENCE_KEYS = (
    "timeouts",
    "retries",
    "failed",
    "hedges",
    "hedge_wins",
    "batch_failures",
    "degraded_batches",
    "fallback_batches",
    "outage_delays",
)

#: Degradation policies :attr:`ServiceConfig.degradation` accepts.
DEGRADATION_POLICIES = ("off", "adaptive")

#: Request shapes :attr:`ServiceConfig.request_kind` accepts. ``"lookup"``
#: runs each batch as a raw bulk lookup (the historic path, byte-stable);
#: ``"plan"`` runs it as a ``repro.query`` index-join plan — the batch's
#: values become the outer side of a streaming join against the served
#: table, probed through the same configured executor.
REQUEST_KINDS = ("lookup", "plan")


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning of one serving run (technique, batching, admission, SLO)."""

    technique: str = "CORO"
    #: ``None`` -> the executor's paper default (Section 5.4.5).
    group_size: int | None = None
    max_batch: int = 32
    max_wait_cycles: int = 4000
    queue_capacity: int = 256
    overload_policy: str = "reject"
    #: Token-bucket refill rate; ``None`` disables rate limiting.
    rate_limit_per_kcycle: float | None = None
    rate_limit_burst: int = 32
    n_shards: int = 2
    #: Per-shard untimed lookups before serving starts (warm caches).
    warmup_requests: int = 32
    #: End-to-end latency SLO in cycles; ``None`` skips attainment.
    slo_cycles: int | None = None
    #: Fraction of requests the SLO promises within ``slo_cycles``; the
    #: error budget ``1 - slo_target`` is what burn rates are measured
    #: against (see :mod:`repro.obs.slo`).
    slo_target: float = 0.99
    #: Per-request deadline enforced at dispatch; ``None`` disables.
    timeout_cycles: int | None = None
    #: Crash-retry budget per request (0 = a crash fails the request).
    max_retries: int = 0
    #: Base retry backoff in cycles; doubles with each attempt, plus
    #: deterministic jitter from the fault schedule's private RNG.
    retry_backoff_cycles: int = 2000
    #: Duplicate a batch onto a second shard once it has waited this
    #: long past its trigger; ``None`` disables hedging.
    hedge_after_cycles: int | None = None
    #: ``"adaptive"`` re-evaluates Inequality 1 under the active fault
    #: environment before each dispatch; ``"off"`` keeps the configured
    #: group size regardless.
    degradation: str = "off"
    #: When every shard is fault-stalled past the overflow lane's
    #: availability, serve the batch there (sequential, ungrouped).
    overflow_fallback: bool = False
    #: Shape of each dispatched batch: ``"lookup"`` (raw bulk lookups,
    #: the historic byte-stable path) or ``"plan"`` (a ``repro.query``
    #: streaming index-join plan per batch).
    request_kind: str = "lookup"
    #: Attach a :class:`~repro.control.ControllerConfig` to run the
    #: adaptive control plane; ``None`` (the default) keeps the server
    #: bit-identical to the pre-control code path.
    controller: ControllerConfig | None = None

    def __post_init__(self) -> None:
        if self.group_size is not None and self.group_size < 1:
            raise ConfigurationError("group_size must be at least 1 (or None)")
        if self.max_batch < 1:
            raise ConfigurationError("max_batch must be at least 1")
        if self.max_wait_cycles < 0:
            raise ConfigurationError("max_wait_cycles cannot be negative")
        if self.queue_capacity < 1:
            raise ConfigurationError("queue_capacity must be at least 1")
        if self.overload_policy not in OVERLOAD_POLICIES:
            raise ConfigurationError(
                f"unknown overload policy {self.overload_policy!r}; expected "
                f"one of {OVERLOAD_POLICIES}"
            )
        if (
            self.rate_limit_per_kcycle is not None
            and self.rate_limit_per_kcycle <= 0
        ):
            raise ConfigurationError(
                "rate_limit_per_kcycle must be positive (or None)"
            )
        if self.rate_limit_burst < 1:
            raise ConfigurationError("rate_limit_burst must be at least 1")
        if self.n_shards < 1:
            raise ConfigurationError("server needs at least one shard")
        if self.warmup_requests < 0:
            raise ConfigurationError("warmup_requests cannot be negative")
        if not 0.0 < self.slo_target < 1.0:
            raise ConfigurationError("slo_target must lie strictly in (0, 1)")
        if self.timeout_cycles is not None and self.timeout_cycles <= 0:
            raise ConfigurationError("timeout_cycles must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries cannot be negative")
        if self.retry_backoff_cycles < 0:
            raise ConfigurationError("retry_backoff_cycles cannot be negative")
        if self.hedge_after_cycles is not None and self.hedge_after_cycles < 0:
            raise ConfigurationError("hedge_after_cycles cannot be negative")
        if self.degradation not in DEGRADATION_POLICIES:
            raise ConfigurationError(
                f"unknown degradation policy {self.degradation!r}; expected "
                f"one of {DEGRADATION_POLICIES}"
            )
        if self.request_kind not in REQUEST_KINDS:
            raise ConfigurationError(
                f"unknown request kind {self.request_kind!r}; expected "
                f"one of {REQUEST_KINDS}"
            )
        if self.controller is not None and not isinstance(
            self.controller, ControllerConfig
        ):
            raise ConfigurationError(
                "controller must be a ControllerConfig (or None)"
            )


@dataclass
class ServiceReport:
    """Everything one serving run measured."""

    technique: str
    config: ServiceConfig
    requests: list[Request]
    makespan: int
    metrics: MetricsRegistry
    #: End-to-end latency histogram of answered requests, each bucket
    #: keeping its worst request's trace id (see repro.obs.hist).
    exemplars: ExemplarHistogram | None = None
    #: Per-lane execution-cycle histograms ("shard0".., "overflow").
    shard_exemplars: dict[str, ExemplarHistogram] = field(default_factory=dict)
    #: The control plane's decision stream (``None`` = no controller).
    control: dict | None = None
    #: Ascending end-to-end latencies of batch-completed requests.
    latencies: list[int] = field(init=False)
    #: Ascending end-to-end latencies of shed (overflow-lane) requests.
    shed_latencies: list[int] = field(init=False)

    def __post_init__(self) -> None:
        self.latencies = sorted(
            r.latency for r in self.requests if r.outcome == "completed"
        )
        self.shed_latencies = sorted(
            r.latency for r in self.requests if r.outcome == "shed" and r.finished
        )

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def served(self) -> int:
        """Requests that got an answer (batched + shed lane)."""
        return self.completed + len(self.shed_latencies)

    @property
    def throughput_per_kcycle(self) -> float:
        """Answered requests per kilocycle of simulated wall time."""
        return self.served * 1000.0 / self.makespan if self.makespan else 0.0

    @property
    def counters(self) -> dict:
        tree = self.metrics.snapshot()["service"]
        return {
            key: tree[key]
            for key in (
                "arrivals",
                "admitted",
                "rejected",
                "rate_limited",
                "dropped",
                "shed",
                "completed",
                "batches",
            )
        }

    @property
    def resilience(self) -> dict:
        """Fault/retry/hedge counters, zero-filled for absent keys.

        Lazily created (a counter exists only once its event happened),
        so this view normalises across runs with different chaos.
        """
        tree = self.metrics.snapshot()["service"]
        summary = {key: int(tree.get(key, 0)) for key in RESILIENCE_KEYS}
        faults = tree.get("faults", {})
        summary["faults"] = {
            kind: int(faults.get(kind, 0)) for kind in FAULT_KINDS
        }
        return summary

    @property
    def peak_queue_depth(self) -> int:
        return int(self.metrics.snapshot()["service"]["queue_depth"]["peak"])

    def latency_percentiles(self) -> dict[str, int]:
        return {f"p{q}": int(nearest_rank(self.latencies, q)) for q in PERCENTILES}

    def mean_decomposition(self) -> dict[str, float]:
        """Mean cycles per completed request, by serving phase."""
        done = [r for r in self.requests if r.outcome == "completed"]
        n = len(done) or 1
        return {
            "queue_wait": sum(r.queue_wait for r in done) / n,
            "batch_wait": sum(r.batch_wait for r in done) / n,
            "execution": sum(r.execution_cycles for r in done) / n,
        }

    @property
    def slo_attainment(self) -> float | None:
        """Fraction of answered requests within the SLO (``None`` = no SLO)."""
        slo = self.config.slo_cycles
        if slo is None:
            return None
        if not self.served:
            return 0.0
        within = sum(1 for v in self.latencies if v <= slo)
        within += sum(1 for v in self.shed_latencies if v <= slo)
        return within / self.served

    def mean_batch_size(self) -> float:
        batches = self.counters["batches"]
        return self.completed / batches if batches else 0.0

    # ------------------------------------------------------------------
    # Exemplars and SLO burn accounting
    # ------------------------------------------------------------------

    def exemplar_for(self, q: float):
        """The worst request of the pN latency bucket (``None`` = none)."""
        if self.exemplars is None:
            return None
        return self.exemplars.exemplar_for(q)

    def slo_events(self) -> list[tuple[int, bool]]:
        """One ``(terminal_cycle, ok)`` pair per terminal request.

        A request is *good* iff it finished within the SLO; refusals,
        timeouts, and retry-exhausted failures all burn budget. The
        event is stamped at completion for finished requests and at
        arrival for refused/unfinished ones (the cycle the client
        learned its fate, as far as the simulation can tell).
        """
        slo = self.config.slo_cycles
        if slo is None:
            raise SimulationError(
                "burn accounting needs slo_cycles on the service config"
            )
        events = []
        for request in self.requests:
            if request.finished:
                events.append((request.completion, request.latency <= slo))
            else:
                events.append((request.arrival, False))
        return events

    def burn_analysis(
        self,
        *,
        target: float | None = None,
        short_window: int | None = None,
        long_window: int | None = None,
    ) -> dict | None:
        """Multi-window error-budget burn of this run (``None`` = no SLO)."""
        if self.config.slo_cycles is None:
            return None
        return burn_analysis(
            self.slo_events(),
            makespan=self.makespan,
            slo_cycles=self.config.slo_cycles,
            target=self.config.slo_target if target is None else target,
            short_window=short_window,
            long_window=long_window,
        )


@dataclass
class _Shard:
    engine: ExecutionEngine
    busy_until: int = 0


@dataclass
class _Leg:
    """One dispatch leg of a batch (hedging launches two)."""

    shard_index: int
    start: int
    #: ``None`` when an injected crash killed the leg mid-execution.
    completion: int | None
    crash: object
    group_size: int


class ServiceServer:
    """One table, one technique, N engine shards, simulated online time."""

    def __init__(
        self,
        table,
        config: ServiceConfig,
        *,
        arch: ArchSpec = HASWELL,
        seed: int = 0,
        faults: FaultSchedule | None = None,
        tracer=NULL_REQUEST_TRACER,
    ) -> None:
        self.table = table
        self.config = config
        self.arch = arch
        self.seed = seed
        self.tracer = tracer
        self.executor = get_executor(config.technique)
        self.group_size = config.group_size or self.executor.default_group_size
        #: Report label: the *configured* technique, captured before any
        #: online switching moves ``self.executor``.
        self._technique_name = self.executor.name
        self.metrics = MetricsRegistry()
        rate = config.rate_limit_per_kcycle
        self.admission = AdmissionController(
            config.queue_capacity,
            policy=config.overload_policy,
            rate_limiter=(
                TokenBucket(rate, config.rate_limit_burst) if rate else None
            ),
            metrics=self.metrics,
            tracer=tracer,
        )
        self.coalescer = Coalescer(
            self.admission, config.max_batch, config.max_wait_cycles, tracer
        )
        # Exemplar histograms are always on: fixed buckets, O(log n)
        # per observation, and kept out of the metrics registry and the
        # serialized point dict so existing documents stay byte-stable.
        self.exemplars = ExemplarHistogram()
        self.shard_exemplars: dict[str, ExemplarHistogram] = {}
        self._completed = self.metrics.counter("service.completed")
        self._batches = self.metrics.counter("service.batches")
        self._hist = {
            phase: self.metrics.histogram(f"service.latency.{phase}")
            for phase in ("e2e", "queue_wait", "batch_wait", "execution")
        }
        self._shed_hist = self.metrics.histogram("service.latency.shed_e2e")

        self._build_shards(arch, seed)
        # The overflow lane: its own engine over its own memory, so shed
        # traffic degrades its own latency rather than the batched path's.
        # Fault schedules deliberately cannot target it.
        self._overflow = _Shard(ExecutionEngine(arch, seed=seed + 7919))

        # Control-plane actuation points. With no controller these stay
        # frozen at their configured values, so dispatch planning reads
        # exactly what it read before the control plane existed.
        self._active_shards = len(self.shards)
        self._overflow_armed = config.overflow_fallback
        self._consolidate_ok = True
        self._controller = (
            AdaptiveController(config.controller)
            if config.controller is not None
            else None
        )

        # Chaos plumbing. An empty/absent schedule leaves the injector
        # unset, making the no-fault path bit-identical to a server
        # without any of this machinery.
        self._injector: FaultInjector | None = None
        self._jitter_rng = None
        if faults:
            self._injector = self._make_injector(faults)
            self._jitter_rng = faults.jitter_rng()
            if self.tracer.enabled:
                self.tracer.record_schedule(faults)
        self._retry_heap: list[tuple[int, int, Request]] = []
        self._retry_seq = 0

        self._warm_up()

    # ------------------------------------------------------------------
    # Construction seams (the cluster layer overrides these)
    # ------------------------------------------------------------------

    def _build_shards(self, arch: ArchSpec, seed: int) -> None:
        """Materialise the engine shards behind one shared LLC.

        ``ClusterServer`` overrides this to build one
        :class:`MultiCoreSystem` per node and concatenate their shards.
        """
        self.system = MultiCoreSystem(self.config.n_shards, arch)
        self.shards = [
            _Shard(engine) for engine in self.system.engines(seed)
        ]

    def _make_injector(self, faults: FaultSchedule) -> FaultInjector:
        """Build the fault injector over this server's memory domains."""
        return FaultInjector(
            faults, self.system.memories, shared_l3=self.system.shared_l3
        )

    def _lane_name(self, shard_index: int) -> str:
        """Exemplar-histogram lane name for a shard."""
        return f"shard{shard_index}"

    def _lane_tag(self, shard_index: int):
        """Request-trace attempt lane tag for a shard."""
        return shard_index

    # ------------------------------------------------------------------
    # Warm-up
    # ------------------------------------------------------------------

    def _warm_up(self) -> None:
        n = self.config.warmup_requests
        if not n:
            return
        rng = np.random.RandomState(self.seed + 101)
        values = [int(v) for v in rng.randint(0, self.table.size, n)]
        tasks = BulkLookup.sorted_array(self.table, values)
        for shard in self.shards:
            self.executor.run(tasks, shard.engine, group_size=self.group_size)
            shard.engine.settle()
        get_executor("sequential").run(tasks, self._overflow.engine)
        self._overflow.engine.settle()
        # Warm-up cycles are not service time: shards start idle at 0.
        for shard in (*self.shards, self._overflow):
            shard.busy_until = 0

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------

    def _execute(self, shard: _Shard, values: list, executor, group_size: int) -> tuple[list, int]:
        """Run one batch on ``shard``'s engine; return (results, cycles)."""
        if self.config.request_kind == "plan":
            return self._execute_plan(shard, values, executor, group_size)
        before = shard.engine.clock
        results = executor.run(
            BulkLookup.sorted_array(self.table, values),
            shard.engine,
            group_size=group_size,
        )
        shard.engine.settle()
        return results, shard.engine.clock - before

    def _execute_plan(
        self, shard: _Shard, values: list, executor, group_size: int
    ) -> tuple[list, int]:
        """Run one batch as a streaming index-join plan.

        The batch's values form the outer side of an
        :class:`~repro.query.IndexJoin` against the served table; the
        probe runs through the same configured executor (or whatever
        ``executor`` the caller degraded/fell back to), so the serving
        economics — switch overhead vs. stall overlap — are unchanged.
        Misses are kept: every request gets an answer slot.
        """
        from repro.query import IndexJoin, QueryPlan, Scan, SortedArrayInner

        plan = QueryPlan(
            IndexJoin(
                Scan.values(values, label="batch_values"),
                SortedArrayInner(self.table),
                executor=executor.name,
                group_size=group_size,
                keep_misses=True,
            )
        )
        before = shard.engine.clock
        result = plan.execute(shard.engine)
        return list(result.value), shard.engine.clock - before

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump a lazily-created resilience counter under ``service.``."""
        self.metrics.counter(f"service.{name}").inc(amount)

    def _observe_answer(self, request: Request, lane: str) -> None:
        """Feed one answered request into the exemplar histograms."""
        if self._controller is not None:
            self._controller.on_answer(request.completion, request.latency)
        self.exemplars.observe(request.latency, request.trace_id)
        hist = self.shard_exemplars.get(lane)
        if hist is None:
            hist = self.shard_exemplars[lane] = ExemplarHistogram()
        hist.observe(request.execution_cycles, request.trace_id)

    # ------------------------------------------------------------------
    # The event loop
    # ------------------------------------------------------------------

    def serve(self, arrivals: ArrivalProcess, values) -> ServiceReport:
        """Drive the arrival process to exhaustion; return the report.

        ``values`` supplies the probe value of each request by arrival
        index (any indexable; typically a seeded numpy draw).
        """
        requests: list[Request] = []
        now = 0
        makespan = 0
        index = 0

        def at_or_before(cycle, *others):
            return all(other is None or cycle <= other for other in others)

        while True:
            next_arrival = arrivals.peek()
            next_retry = self._retry_heap[0][0] if self._retry_heap else None
            next_fault = (
                self._injector.next_pending_at()
                if self._injector is not None
                else None
            )
            next_control = (
                self._controller.next_boundary()
                if self._controller is not None
                else None
            )
            plan = self._plan_dispatch()
            dispatch_at = plan[0] if plan is not None else None
            if (
                next_arrival is None
                and next_retry is None
                and next_fault is None
                and dispatch_at is None
            ):
                # Window boundaries are not kept alive on their own:
                # with no work left the run is over and the controller
                # flushes its trailing windows from the report path.
                break
            if next_arrival is not None and at_or_before(
                next_arrival, dispatch_at, next_retry, next_fault, next_control
            ):
                now = max(now, arrivals.pop())
                request = Request(index, values[index], arrival=now)
                index += 1
                requests.append(request)
                if self._controller is not None:
                    self._controller.on_arrival(now)
                verdict = self.admission.offer(request)
                if verdict == "shed":
                    completion = self._run_shed(request, now)
                    arrivals.notify_completion(completion)
                    makespan = max(makespan, completion)
                elif verdict != "admit":
                    # Refused requests leave the system immediately; a
                    # closed-loop client retries after thinking.
                    arrivals.notify_completion(now)
                continue
            if next_retry is not None and at_or_before(
                next_retry, dispatch_at, next_fault, next_control
            ):
                now = max(now, next_retry)
                self._release_retries(now)
                continue
            if next_fault is not None and at_or_before(
                next_fault, dispatch_at, next_control
            ):
                now = max(now, next_fault)
                for event in self._injector.apply_pending(now):
                    self._count(f"faults.{event.kind}")
                    if self.tracer.enabled:
                        self.tracer.on_fault_point(event)
                continue
            if next_control is not None and at_or_before(
                next_control, dispatch_at
            ):
                # Roll the decision window *before* planning dispatch so
                # a changed deadline/technique governs the next batch.
                now = max(now, next_control)
                self._controller.roll_to(now, self)
                continue
            now = max(now, dispatch_at)
            completion = self._run_batch(now, plan, arrivals)
            makespan = max(makespan, completion)
        return self._make_report(requests, makespan)

    def _make_report(self, requests: list[Request], makespan: int) -> ServiceReport:
        """Assemble the run's report (the cluster layer widens this)."""
        return ServiceReport(
            technique=self._technique_name,
            config=self.config,
            requests=requests,
            makespan=makespan,
            metrics=self.metrics,
            exemplars=self.exemplars,
            shard_exemplars=self.shard_exemplars,
            control=self._control_summary(makespan),
        )

    def _control_summary(self, makespan: int) -> dict | None:
        """Flush and serialize the control plane (``None`` = no controller)."""
        if self._controller is None:
            return None
        self._controller.finish(makespan, self)
        return self._controller.summary()

    def _plan_dispatch(self) -> tuple[int, int, int | None, bool] | None:
        """Plan the next feasible batch launch.

        Returns ``(start, trigger, shard_index, fault_delayed)`` — or
        ``None`` while nothing waits. ``shard_index`` is ``None`` when
        the batch should fall back to the overflow lane (every shard is
        fault-stalled past the lane's availability). Without an
        injector this reduces exactly to "least-loaded shard, start at
        ``max(trigger, busy_until)``".
        """
        trigger = self.coalescer.next_trigger()
        if trigger is None:
            return None
        best_key: tuple[int, int, int] | None = None
        for idx in range(self._active_shards):
            shard = self.shards[idx]
            start = max(trigger, shard.busy_until)
            if self._injector is not None:
                start = self._injector.available_from(idx, start)
            key = (start, shard.busy_until, idx)
            if best_key is None or key < best_key:
                best_key = key
        start, _, shard_index = best_key
        fault_delayed = start > max(
            trigger, self.shards[shard_index].busy_until
        )
        if (
            fault_delayed
            and self._overflow_armed
            and self._injector is not None
        ):
            overflow_start = max(trigger, self._overflow.busy_until)
            if overflow_start < start:
                return (overflow_start, trigger, None, True)
        return (start, trigger, shard_index, fault_delayed)

    def _run_batch(self, now: int, plan, arrivals: ArrivalProcess) -> int:
        """Launch the planned batch; returns its resolution cycle."""
        _, trigger, shard_index, fault_delayed = plan
        batch = self.coalescer.take(trigger)
        if fault_delayed:
            self._count("outage_delays")
        batch = self._expire_timeouts(batch, now, arrivals)
        if not batch:
            return now
        if shard_index is None:
            return self._run_fallback(batch, now, arrivals)
        return self._dispatch_group(batch, trigger, shard_index, now, arrivals)

    def _expire_timeouts(
        self, batch: list[Request], now: int, arrivals: ArrivalProcess
    ) -> list[Request]:
        """Deadline enforcement at dispatch: a request whose deadline
        passed while its batch waited times out unserved."""
        if self.config.timeout_cycles is None:
            return batch
        alive = []
        for request in batch:
            if now > request.arrival + self.config.timeout_cycles:
                request.outcome = "timeout"
                self._count("timeouts")
                if self.tracer.enabled:
                    self.tracer.on_timeout(request, now)
                arrivals.notify_completion(now)
            else:
                alive.append(request)
        return alive

    def _dispatch_group(
        self,
        batch: list[Request],
        trigger: int,
        shard_index: int,
        now: int,
        arrivals: ArrivalProcess,
    ) -> int:
        """Dispatch one coalesced group onto its planned shard (plus a
        hedge leg when the policy fires); returns its resolution cycle."""
        shard = self.shards[shard_index]
        start = max(now, shard.busy_until)
        for request in batch:
            request.attempts += 1
        probe_values = [r.value for r in batch]
        legs = [self._launch(shard_index, probe_values, start)]
        if (
            self.config.hedge_after_cycles is not None
            and len(self.shards) > 1
            and start - trigger > self.config.hedge_after_cycles
        ):
            among = self._hedge_candidates(shard_index, batch)
            # A restricted candidate set (cluster layer) may leave no
            # legal secondary; the unrestricted default always has one.
            if among is None or any(idx != shard_index for idx in among):
                hedge_index = self._plan_hedge(shard_index, start, among=among)
                self._count("hedges")
                hedge_start = max(start, self.shards[hedge_index].busy_until)
                if self._injector is not None:
                    hedge_start = self._injector.available_from(
                        hedge_index, hedge_start
                    )
                legs.append(self._launch(hedge_index, probe_values, hedge_start))

        survivors = [leg for leg in legs if leg.completion is not None]
        winner = (
            min(survivors, key=lambda leg: (leg.completion, leg.start))
            if survivors
            else None
        )
        if self.tracer.enabled:
            self._trace_attempts(batch, legs, winner)
        if winner is None:
            # Every leg crashed: the batch fails when the last hope dies.
            failure_at = max(leg.crash.at for leg in legs)
            return self._fail_batch(batch, failure_at, arrivals)
        if len(legs) > 1 and winner is not legs[0]:
            self._count("hedge_wins")
        resolved = winner.completion
        self._batches.inc()
        self._on_batch_served(winner, batch)
        lane = self._lane_name(winner.shard_index)
        for request in batch:
            completion = self._member_completion(request, winner)
            request.dispatch = winner.start
            request.completion = completion
            self._completed.inc()
            self._hist["e2e"].observe(request.latency)
            self._hist["queue_wait"].observe(request.queue_wait)
            self._hist["batch_wait"].observe(request.batch_wait)
            self._hist["execution"].observe(request.execution_cycles)
            self._observe_answer(request, lane)
            arrivals.notify_completion(completion)
            resolved = max(resolved, completion)
        return resolved

    def _on_batch_served(self, winner: "_Leg | None", batch: list[Request]) -> None:
        """One batch just got answers (``winner is None`` = overflow lane).

        A no-op here; the cluster layer hangs its per-node accounting on
        this seam.
        """

    def _hedge_candidates(self, primary: int, batch: list[Request]):
        """Shard indexes a hedge may target; ``None`` = any other shard.

        The cluster layer narrows this to the batch's replica nodes so a
        hedge lands where the keys actually live.
        """
        return None

    def _member_completion(self, request: Request, winner: _Leg) -> int:
        """Completion cycle of one batch member on the winning leg.

        The cluster layer adds the interconnect cost of returning the
        answer to the request's home node.
        """
        return winner.completion

    def _trace_attempts(self, batch, legs: list[_Leg], winner: _Leg | None) -> None:
        """Record every dispatch leg of one batch as attempt spans.

        A crashed leg closes at its crash cycle (restart attached); a
        hedge loser closes at the *winner's* completion — cancel on
        first answer — with its planned completion kept as an attribute
        so the trace shows both where it was cut and where it would
        have run to.
        """
        dispatch_id = self.tracer.begin_dispatch()
        for leg in legs:
            hedge = leg is not legs[0]
            faults = self._leg_fault_kinds(leg)
            if leg.crash is not None and (
                winner is None or leg.crash.at <= winner.completion
            ):
                self.tracer.on_attempt(
                    batch,
                    dispatch_id=dispatch_id,
                    lane=self._lane_tag(leg.shard_index),
                    start=leg.start,
                    end=leg.crash.at,
                    group_size=leg.group_size,
                    status="crashed",
                    hedge=hedge,
                    restart_until=leg.crash.until,
                    faults=faults,
                )
            elif leg is not winner:
                # A losing leg — surviving or crashing only after the
                # winner already answered — is *cancelled* the moment
                # the first answer lands: whatever happens to the shard
                # afterwards is no longer this request's story.
                planned = (
                    leg.completion if leg.crash is None else leg.crash.at
                )
                # A leg whose start was pushed past the winner's answer
                # is cancelled before it ever ran (zero-width span).
                start = min(leg.start, winner.completion)
                end = max(start, min(planned, winner.completion))
                self.tracer.on_attempt(
                    batch,
                    dispatch_id=dispatch_id,
                    lane=self._lane_tag(leg.shard_index),
                    start=start,
                    end=end,
                    group_size=leg.group_size,
                    status="cancelled",
                    hedge=hedge,
                    planned_end=planned,
                    planned_start=leg.start if leg.start != start else None,
                    faults=faults,
                )
            else:
                self.tracer.on_attempt(
                    batch,
                    dispatch_id=dispatch_id,
                    lane=self._lane_tag(leg.shard_index),
                    start=leg.start,
                    end=leg.completion,
                    group_size=leg.group_size,
                    status="ok",
                    winner=True,
                    hedge=hedge,
                    faults=faults,
                )

    def _leg_fault_kinds(self, leg: _Leg) -> tuple:
        """Kinds of fault windows this leg executed under (annotation)."""
        if self._injector is None:
            return ()
        end = leg.completion if leg.completion is not None else leg.crash.until
        return self._injector.window_kinds_between(
            leg.shard_index, leg.start, end
        )

    def _launch(self, shard_index: int, values: list, start: int) -> _Leg:
        """Execute one leg on a shard.

        The returned leg's ``completion`` is ``None`` when an injected
        crash landed inside the execution window — the shard then stays
        down until the crash's restart cycle.
        """
        shard = self.shards[shard_index]
        group = self._effective_group_size(shard_index, start)
        if self._injector is not None:
            env = self._injector.environment(shard_index, start)
            if env.extra_latency:
                self._count("faults.latency_spike")
            if env.lfb_capacity is not None:
                self._count("faults.lfb_shrink")
            with self._injector.applied(shard_index, start):
                _, cycles = self._execute(shard, values, self.executor, group)
        else:
            _, cycles = self._execute(shard, values, self.executor, group)
        completion = start + cycles
        crash = (
            self._injector.crash_between(shard_index, start, completion)
            if self._injector is not None
            else None
        )
        if crash is not None:
            self._count("batch_failures")
            self._count("faults.shard_crash")
            shard.busy_until = crash.until
            return _Leg(shard_index, start, None, crash, group)
        shard.busy_until = completion
        return _Leg(shard_index, start, completion, None, group)

    def _plan_hedge(self, primary: int, start: int, among=None) -> int:
        """Pick the secondary shard for a hedged dispatch.

        ``among`` restricts the candidate shard indexes (the cluster
        layer passes the batch's replica shards); ``None`` considers
        every shard but the primary.
        """
        candidates = range(len(self.shards)) if among is None else among
        best_key = None
        for idx in candidates:
            if idx == primary:
                continue
            shard = self.shards[idx]
            leg_start = max(start, shard.busy_until)
            if self._injector is not None:
                leg_start = self._injector.available_from(idx, leg_start)
            key = (leg_start, shard.busy_until, idx)
            if best_key is None or key < best_key:
                best_key = key
        return best_key[2]

    def _effective_group_size(self, shard_index: int, start: int) -> int:
        """Group size for one leg, degraded per Inequality 1 if adaptive."""
        group = self.group_size
        if self.config.degradation != "adaptive" or self._injector is None:
            return group
        env = self._injector.environment(shard_index, start)
        kind = getattr(self.executor, "switch_kind", None)
        if not env or kind not in ("gp", "amac", "coro"):
            return group
        degraded = degraded_group_size(
            self.arch,
            kind,
            extra_dram_latency=env.extra_latency,
            lfb_capacity=env.lfb_capacity,
        )
        if degraded != group:
            self._count("degraded_batches")
        return degraded

    def _fail_batch(
        self, batch: list[Request], failure_at: int, arrivals: ArrivalProcess
    ) -> int:
        """Crash resolution: requeue with backoff+jitter, or fail for good."""
        backoff = self.config.retry_backoff_cycles
        for request in batch:
            if request.attempts <= self.config.max_retries:
                delay = backoff * (2 ** (request.attempts - 1)) if backoff else 0
                if self._jitter_rng is not None and backoff:
                    delay += self._jitter_rng.randrange(max(1, backoff // 4))
                self._count("retries")
                self._retry_seq += 1
                heapq.heappush(
                    self._retry_heap,
                    (failure_at + delay, self._retry_seq, request),
                )
                if self.tracer.enabled:
                    self.tracer.on_backoff(
                        request, failure_at, failure_at + delay
                    )
            else:
                request.outcome = "failed"
                self._count("failed")
                if self.tracer.enabled:
                    self.tracer.on_failed(request, failure_at)
                arrivals.notify_completion(failure_at)
        return failure_at

    def _release_retries(self, now: int) -> None:
        """Move every due retry back into the waiting room (no re-offer:
        a retried request was already admitted once).

        Due retries are requeued *ahead* of waiting arrivals: a crash
        victim is the oldest work in the system (it was dispatched before
        anything now queued arrived), so queue order stays FIFO by
        arrival. Tail-requeuing would make an overloaded server punish
        exactly the requests a fault already delayed — each retry would
        sink behind a backlog that never drains.
        """
        due: list[Request] = []
        while self._retry_heap and self._retry_heap[0][0] <= now:
            _, _, request = heapq.heappop(self._retry_heap)
            due.append(request)
        for request in reversed(due):
            self.admission.requeue(request)
            if self.tracer.enabled:
                self.tracer.on_requeue(request, now)

    def _run_fallback(
        self, batch: list[Request], now: int, arrivals: ArrivalProcess
    ) -> int:
        """Every shard is down: serve the batch on the overflow lane."""
        lane = self._overflow
        start = max(now, lane.busy_until)
        self._count("fallback_batches")
        _, cycles = self._execute(
            lane, [r.value for r in batch], get_executor("sequential"), 1
        )
        completion = start + cycles
        lane.busy_until = completion
        self._batches.inc()
        self._on_batch_served(None, batch)
        if self.tracer.enabled:
            self.tracer.on_attempt(
                batch,
                dispatch_id=self.tracer.begin_dispatch(),
                lane="overflow",
                start=start,
                end=completion,
                group_size=1,
                status="ok",
                winner=True,
            )
        for request in batch:
            request.attempts += 1
            request.dispatch = start
            request.completion = completion
            self._completed.inc()
            self._hist["e2e"].observe(request.latency)
            self._hist["queue_wait"].observe(request.queue_wait)
            self._hist["batch_wait"].observe(request.batch_wait)
            self._hist["execution"].observe(request.execution_cycles)
            self._observe_answer(request, "overflow")
            arrivals.notify_completion(completion)
        return completion

    def _run_shed(self, request: Request, now: int) -> int:
        """Serve one shed request ungrouped on the overflow engine."""
        lane = self._overflow
        start = max(now, lane.busy_until)
        _, cycles = self._execute(lane, [request.value], get_executor("sequential"), 1)
        completion = start + cycles
        lane.busy_until = completion
        request.trigger = start
        request.dispatch = start
        request.completion = completion
        self._shed_hist.observe(request.latency)
        self._observe_answer(request, "overflow")
        if self.tracer.enabled:
            self.tracer.on_attempt(
                [request],
                dispatch_id=self.tracer.begin_dispatch(),
                lane="overflow",
                start=start,
                end=completion,
                group_size=1,
                status="ok",
                winner=True,
            )
        return completion

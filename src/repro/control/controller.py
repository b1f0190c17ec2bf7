"""The adaptive control plane: a deterministic window controller.

:class:`AdaptiveController` is an autoscaler for the simulated fleet.
It runs *inside* :class:`~repro.service.server.ServiceServer` (and its
cluster subclass) on tumbling windows of simulated cycles: at each
window boundary it snapshots already-exported signals — the window's
observed p99, the admission queue depth, the fault injector's memory
environment (latency spikes, LFB shrinkage), shard availability, and
batch-failure marks — and actuates the serving knobs the paper's
Inequality 1 says should move with conditions:

* **technique switch** between the configured candidate executors
  (interleaved under pressure, sequential in deep lulls);
* **group size**, re-evaluating Inequality 1 under the degraded memory
  environment (:func:`~repro.interleaving.policies.degraded_group_size`);
* **batch deadline**, shortening the coalescer's wait in light windows
  so sparse traffic stops paying for company that never arrives;
* **shard allocation**, consolidating light traffic onto one shard to
  keep its private caches warm;
* **overflow lane**, arming the sequential fallback while shards are
  failing and disarming it once windows run clean.

Every boundary emits one cycle-stamped ``control.window`` event holding
the window's signals, the actions taken, and a human-readable reason,
so ``explain`` can show *why* a window switched. The stream is a pure
function of the run's seed: same scenario, same seed, same decisions,
bit for bit. A server constructed without a controller executes exactly
the pre-control code path — bit-identity is pinned by golden tests.

This module deliberately does not import the serving layer (the server
imports *us*); the controller talks to it duck-typed through the small
actuation surface documented on :meth:`AdaptiveController.roll_to`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.interleaving.executor import get_executor
from repro.interleaving.policies import degraded_group_size
from repro.obs.hist import nearest_rank

__all__ = [
    "CONTROL_SCHEMA",
    "CONTROL_EVENT",
    "SIGNAL_NAMES",
    "ACTION_NAMES",
    "ControllerConfig",
    "AdaptiveController",
]

#: Schema tag of every document that carries controller decisions.
CONTROL_SCHEMA = "repro.control/1"

#: Event name stamped on every window record (the ``control.*`` stream).
CONTROL_EVENT = "control.window"

#: Exported signals a window snapshot may reference, and nothing else —
#: the schema checker validates decision records against this list.
SIGNAL_NAMES = (
    "arrivals",
    "completed",
    "p99",
    "queue_depth",
    "extra_latency",
    "lfb_capacity",
    "down_shards",
    "batch_failures",
)

#: Actuators a window decision may move, and nothing else.
ACTION_NAMES = (
    "technique",
    "group_size",
    "max_wait_cycles",
    "active_shards",
    "overflow_lane",
)

#: Executor switch kinds Inequality 1 applies to (interleaved probes).
_INTERLEAVED_KINDS = ("gp", "amac", "coro")


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning of the adaptive control plane (all knobs deterministic).

    Attach one to :attr:`~repro.service.server.ServiceConfig.controller`
    to enable the control plane for a serving run; ``None`` (the
    default) keeps the server byte-identical to the pre-control code.
    """

    #: Tumbling decision-window width in simulated cycles.
    window_cycles: int = 10_000
    #: Candidate executors for online switching, in preference order:
    #: the first *interleaved* candidate is the pressure choice, the
    #: first non-interleaved one the deep-lull choice. Empty disables
    #: technique switching (the other actuators still run).
    techniques: tuple[str, ...] = ()
    #: A window is under pressure when its p99 exceeds
    #: ``slo_cycles * slo_fraction_high``.
    slo_fraction_high: float = 1.0
    #: ...and calm when p99 sits below ``slo_cycles * slo_fraction_low``.
    slo_fraction_low: float = 0.5
    #: Queue depth at a boundary that counts as pressure on its own.
    queue_high: int = 16
    #: A window with at most this many arrivals (and an empty queue) is
    #: *light*: deadlines shorten and shards consolidate.
    idle_arrivals: int = 4
    #: Coalescer deadline used in light windows (restored otherwise).
    min_wait_cycles: int = 500
    #: Re-evaluate Inequality 1 each window under the injector's memory
    #: environment and resize the group accordingly.
    resize_groups: bool = True
    #: Consolidate light traffic onto shard 0 (single-node only).
    consolidate_shards: bool = True
    #: Arm the overflow lane while shards fail; disarm on clean windows.
    manage_overflow: bool = True

    def __post_init__(self) -> None:
        if self.window_cycles < 1:
            raise ConfigurationError("controller window must be positive")
        if not 0.0 < self.slo_fraction_low <= self.slo_fraction_high:
            raise ConfigurationError(
                "controller SLO fractions need 0 < low <= high"
            )
        if self.queue_high < 1:
            raise ConfigurationError("controller queue_high must be positive")
        if self.idle_arrivals < 0:
            raise ConfigurationError("idle_arrivals cannot be negative")
        if self.min_wait_cycles < 1:
            raise ConfigurationError("min_wait_cycles must be positive")
        if not isinstance(self.techniques, tuple):
            object.__setattr__(self, "techniques", tuple(self.techniques))

    def to_dict(self) -> dict:
        """Plain-JSON form (the spec layer round-trips this)."""
        return {
            "window_cycles": self.window_cycles,
            "techniques": list(self.techniques),
            "slo_fraction_high": self.slo_fraction_high,
            "slo_fraction_low": self.slo_fraction_low,
            "queue_high": self.queue_high,
            "idle_arrivals": self.idle_arrivals,
            "min_wait_cycles": self.min_wait_cycles,
            "resize_groups": self.resize_groups,
            "consolidate_shards": self.consolidate_shards,
            "manage_overflow": self.manage_overflow,
        }


class AdaptiveController:
    """Windowed feedback controller bound to one serving run.

    The server calls :meth:`on_arrival` / :meth:`on_answer` as requests
    move, treats :meth:`next_boundary` as one more event source in its
    loop, and calls :meth:`roll_to` when simulated time crosses a
    boundary. :meth:`finish` flushes trailing windows so the recorded
    stream tiles ``[0, makespan)`` contiguously.

    Actuation surface read/written on the server: ``executor``,
    ``group_size``, ``coalescer.max_wait_cycles``, ``_active_shards``,
    ``_overflow_armed``, plus read-only ``admission.queue``, ``config``,
    ``arch``, ``metrics``, ``_injector`` and ``_consolidate_ok``.
    """

    def __init__(self, config: ControllerConfig) -> None:
        self.config = config
        self.events: list[dict] = []
        self._next_index = 0
        self._arrivals: dict[int, int] = {}
        self._latencies: dict[int, list[int]] = {}
        self._seen_batch_failures = 0

    # ------------------------------------------------------------------
    # Observation hooks
    # ------------------------------------------------------------------

    def on_arrival(self, cycle: int) -> None:
        bucket = cycle // self.config.window_cycles
        self._arrivals[bucket] = self._arrivals.get(bucket, 0) + 1

    def on_answer(self, completion: int, latency: int) -> None:
        bucket = completion // self.config.window_cycles
        self._latencies.setdefault(bucket, []).append(latency)

    def next_boundary(self) -> int:
        """Cycle of the next window roll (an event-loop event source)."""
        return (self._next_index + 1) * self.config.window_cycles

    # ------------------------------------------------------------------
    # Window rolling
    # ------------------------------------------------------------------

    def roll_to(self, now: int, server) -> None:
        """Roll every window whose end has passed ``now``."""
        while self.next_boundary() <= now:
            self._roll_window(server)

    def finish(self, makespan: int, server) -> None:
        """Flush trailing windows so events tile ``[0, makespan)``."""
        width = self.config.window_cycles
        while self._next_index * width < makespan:
            self._roll_window(server)

    def summary(self) -> dict:
        """The report/point payload: the full decision stream."""
        return {
            "window_cycles": self.config.window_cycles,
            "decisions": sum(1 for e in self.events if e["actions"]),
            "windows": list(self.events),
        }

    def _roll_window(self, server) -> None:
        index = self._next_index
        width = self.config.window_cycles
        start, end = index * width, (index + 1) * width
        signals = self._signals(index, end, server)
        actions, reasons = self._decide(signals, server)
        self.events.append(
            {
                "event": CONTROL_EVENT,
                "window": index,
                "start": start,
                "end": end,
                "cycle": end,
                "signals": signals,
                "actions": actions,
                "reason": "; ".join(reasons) if reasons else "steady",
            }
        )
        server.metrics.counter("control.windows").inc()
        if actions:
            server.metrics.counter("control.decisions").inc()
        self._next_index = index + 1

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------

    def _signals(self, index: int, end: int, server) -> dict:
        latencies = sorted(self._latencies.pop(index, ()))
        arrivals = self._arrivals.pop(index, 0)
        extra_latency = 0
        lfb_capacity = None
        down = 0
        injector = server._injector
        if injector is not None:
            for shard_index in range(len(server.shards)):
                env = injector.environment(shard_index, end)
                extra_latency = max(extra_latency, env.extra_latency)
                if env.lfb_capacity is not None:
                    lfb_capacity = (
                        env.lfb_capacity
                        if lfb_capacity is None
                        else min(lfb_capacity, env.lfb_capacity)
                    )
                if injector.available_from(shard_index, end) > end:
                    down += 1
        failures = int(
            server.metrics.snapshot()
            .get("service", {})
            .get("batch_failures", 0)
        )
        window_failures = failures - self._seen_batch_failures
        self._seen_batch_failures = failures
        return {
            "arrivals": arrivals,
            "completed": len(latencies),
            "p99": int(nearest_rank(latencies, 99)) if latencies else None,
            "queue_depth": len(server.admission.queue),
            "extra_latency": extra_latency,
            "lfb_capacity": lfb_capacity,
            "down_shards": down,
            "batch_failures": window_failures,
        }

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _decide(self, signals: dict, server) -> tuple[dict, list[str]]:
        actions: dict = {}
        reasons: list[str] = []
        cfg = self.config
        slo = server.config.slo_cycles
        p99 = signals["p99"]
        queue_depth = signals["queue_depth"]
        degraded = bool(
            signals["extra_latency"]
            or signals["lfb_capacity"] is not None
            or signals["down_shards"]
            or signals["batch_failures"]
        )
        light = (
            signals["arrivals"] <= cfg.idle_arrivals
            and queue_depth == 0
            and not degraded
        )
        pressure = queue_depth >= cfg.queue_high or (
            p99 is not None
            and slo is not None
            and p99 > slo * cfg.slo_fraction_high
        )
        calm = light and (
            p99 is None or slo is None or p99 <= slo * cfg.slo_fraction_low
        )

        self._decide_technique(
            pressure, calm, p99, queue_depth, actions, reasons, server
        )
        self._decide_group(signals, actions, reasons, server)
        self._decide_deadline(light, actions, reasons, server)
        self._decide_shards(light, signals, actions, reasons, server)
        self._decide_overflow(signals, actions, reasons, server)
        return actions, reasons

    def _decide_technique(
        self, pressure, calm, p99, queue_depth, actions, reasons, server
    ) -> None:
        if len(self.config.techniques) < 2:
            return
        interleaved = [
            name
            for name in self.config.techniques
            if self._switch_kind(name) in _INTERLEAVED_KINDS
        ]
        plain = [
            name
            for name in self.config.techniques
            if self._switch_kind(name) not in _INTERLEAVED_KINDS
        ]
        target = None
        if pressure and interleaved:
            target = interleaved[0]
            why = f"pressure (p99={p99}, queue={queue_depth})"
        elif calm and plain:
            target = plain[0]
            why = "deep lull"
        if target is None or get_executor(target).name == server.executor.name:
            return
        server.executor = get_executor(target)
        server.group_size = self._base_group(server)
        actions["technique"] = server.executor.name
        actions["group_size"] = server.group_size
        reasons.append(f"switch to {server.executor.name}: {why}")

    def _decide_group(self, signals, actions, reasons, server) -> None:
        if not self.config.resize_groups:
            return
        kind = getattr(server.executor, "switch_kind", None)
        if kind not in _INTERLEAVED_KINDS:
            return
        if signals["extra_latency"] or signals["lfb_capacity"] is not None:
            target = degraded_group_size(
                server.arch,
                kind,
                extra_dram_latency=signals["extra_latency"],
                lfb_capacity=signals["lfb_capacity"],
            )
            why = (
                f"Inequality 1 under +{signals['extra_latency']} latency, "
                f"lfb={signals['lfb_capacity']}"
            )
        else:
            target = self._base_group(server)
            why = "clean window, restore base group"
        if target == server.group_size:
            return
        server.group_size = target
        actions["group_size"] = target
        reasons.append(f"group -> {target}: {why}")

    def _decide_deadline(self, light, actions, reasons, server) -> None:
        base = server.config.max_wait_cycles
        target = min(self.config.min_wait_cycles, base) if light else base
        if target == server.coalescer.max_wait_cycles:
            return
        server.coalescer.max_wait_cycles = target
        actions["max_wait_cycles"] = target
        reasons.append(
            f"deadline -> {target}: "
            + ("light window" if light else "load is back")
        )

    def _decide_shards(self, light, signals, actions, reasons, server) -> None:
        if not (self.config.consolidate_shards and server._consolidate_ok):
            return
        total = len(server.shards)
        target = 1 if (light and total > 1) else total
        if target == server._active_shards:
            return
        server._active_shards = target
        actions["active_shards"] = target
        reasons.append(
            f"shards -> {target}: "
            + ("consolidate light traffic" if target == 1 else "fan back out")
        )

    def _decide_overflow(self, signals, actions, reasons, server) -> None:
        if not self.config.manage_overflow or server._injector is None:
            return
        armed = bool(
            server.config.overflow_fallback
            or signals["batch_failures"]
            or signals["down_shards"]
        )
        if armed == server._overflow_armed:
            return
        server._overflow_armed = armed
        actions["overflow_lane"] = armed
        reasons.append(
            "arm overflow lane: shards failing"
            if armed
            else "disarm overflow lane: window ran clean"
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    @staticmethod
    def _switch_kind(name: str):
        return getattr(get_executor(name), "switch_kind", None)

    @staticmethod
    def _base_group(server) -> int:
        """The group size the run would use without degradation.

        The configured override only applies to the *configured*
        technique; after an online switch the executor's paper default
        governs.
        """
        kind = getattr(server.executor, "switch_kind", None)
        if kind not in _INTERLEAVED_KINDS:
            return 1
        if (
            server.config.group_size
            and server.executor.name == get_executor(server.config.technique).name
        ):
            return server.config.group_size
        return server.executor.default_group_size

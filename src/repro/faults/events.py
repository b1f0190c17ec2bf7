"""Fault events: the vocabulary of deterministic chaos.

Every fault is a frozen, cycle-stamped dataclass in the *service-time*
cycle domain (the same clock the serving event loop advances). Two
shapes exist:

* **window faults** — active over ``[at, at + duration)``: a memory
  latency spike, a shard stall, a shard crash (stall + the in-flight
  batch fails), an LFB shrinkage. Window faults are *stateless*: the
  injector answers "what is active at cycle t" by interval arithmetic,
  so replaying the same schedule is trivially bit-identical.
* **point faults** — applied exactly once at ``at``: a cache flush
  (private levels of one shard, optionally the shared LLC too).

``shard`` selects a target engine shard; ``None`` means every shard.
The overflow lane is deliberately un-targetable — it is the degraded
path the server falls back to, so chaos never touches it.

A third scope exists for the cluster layer: **node faults**
(:class:`NodeCrash`, :class:`NodeSlow`) target a whole node — a machine,
not a core. They are invisible to the shard-scope injector
(``targets()`` is always ``False``); ``ClusterServer`` *lowers* them
into per-shard events over the crashed node's shard range before
building its injector, so the single-node service path never has to
know nodes exist.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from repro.errors import ConfigurationError

__all__ = [
    "FAULT_KINDS",
    "NODE_FAULT_KINDS",
    "FaultEvent",
    "LatencySpike",
    "ShardStall",
    "ShardCrash",
    "CacheFlush",
    "LfbShrink",
    "NodeCrash",
    "NodeSlow",
]


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: a cycle stamp plus a target shard."""

    at: int
    shard: int | None = None

    #: Class-level tag used in metrics names and data documents.
    kind = "?"
    #: Window faults span ``[at, at + duration)``; point faults do not.
    is_window = False

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError(f"{self.kind} fault at negative cycle {self.at}")
        duration = getattr(self, "duration", None)
        if self.is_window and (duration is None or duration <= 0):
            raise ConfigurationError(
                f"{self.kind} fault needs a positive duration, not {duration!r}"
            )

    @property
    def until(self) -> int:
        """First cycle past the fault's active window (``at`` for points)."""
        return self.at + getattr(self, "duration", 0)

    def active_at(self, cycle: int) -> bool:
        """Whether this window fault covers ``cycle``."""
        return self.is_window and self.at <= cycle < self.until

    def targets(self, shard: int) -> bool:
        """Whether this fault applies to shard ``shard``."""
        return self.shard is None or self.shard == shard

    def as_dict(self) -> dict:
        """Plain-dict view (data documents and debugging)."""
        record = {"kind": self.kind}
        record.update(asdict(self))
        return record


@dataclass(frozen=True)
class LatencySpike(FaultEvent):
    """Effective DRAM latency rises by ``extra_latency`` cycles.

    Models memory-controller queueing / a noisy co-tenant saturating the
    channel — exactly the "unpredictable miss latency" AMAC motivates
    hiding. Applied as :attr:`MemorySystem.extra_dram_latency` on the
    target shard's memory while the window is active.
    """

    duration: int = 0
    extra_latency: int = 0
    kind = "latency_spike"
    is_window = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra_latency <= 0:
            raise ConfigurationError("latency spike needs a positive extra_latency")


@dataclass(frozen=True)
class ShardStall(FaultEvent):
    """The shard stops taking batches for ``duration`` cycles.

    A GC pause / noisy-neighbour preemption: already-dispatched work
    finishes, but nothing new starts inside the window.
    """

    duration: int = 0
    kind = "shard_stall"
    is_window = True


@dataclass(frozen=True)
class ShardCrash(FaultEvent):
    """The shard dies at ``at`` and restarts ``duration`` cycles later.

    Unlike a stall, a batch *executing* when the crash hits fails: its
    requests re-enter the queue through the server's bounded-retry path
    (exponential backoff + deterministic jitter), or fail outright once
    their retry budget is spent.
    """

    duration: int = 0
    kind = "shard_crash"
    is_window = True


@dataclass(frozen=True)
class CacheFlush(FaultEvent):
    """Point fault: the shard's private L1/L2/TLB are emptied.

    ``llc=True`` additionally flushes the *shared* last-level cache —
    a socket-wide cold restart rather than a per-core context switch.
    Statistics are preserved; only cached state is lost.
    """

    llc: bool = False
    kind = "cache_flush"
    is_window = False


@dataclass(frozen=True)
class LfbShrink(FaultEvent):
    """The shard's line-fill-buffer pool shrinks to ``capacity``.

    Models sibling-hyperthread pressure on the shared fill-buffer pool:
    memory-level parallelism — the resource every interleaving technique
    converts into robustness — is capped below the architectural ten
    while the window is active. Inequality 1's group size shrinks with
    it (see ``repro.interleaving.policies.degraded_group_size``).
    """

    duration: int = 0
    capacity: int = 0
    kind = "lfb_shrink"
    is_window = True

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.capacity < 1:
            raise ConfigurationError("LFB shrink needs capacity for one fill")


@dataclass(frozen=True)
class NodeFault(FaultEvent):
    """Base for node-scope faults: targets a machine, not a core shard.

    ``node`` selects a cluster node; ``None`` means every node. Node
    faults never match a shard directly — :meth:`targets` is ``False``
    so a shard-scope :class:`~repro.faults.injector.FaultInjector`
    handed an un-lowered schedule simply ignores them. The cluster
    server translates each node fault into the equivalent per-shard
    events over the node's shard range (crash -> per-shard crash,
    slow -> per-shard latency spike) before injection.
    """

    node: int | None = None
    is_window = True

    def targets(self, shard: int) -> bool:
        return False


@dataclass(frozen=True)
class NodeCrash(NodeFault):
    """The whole node dies at ``at`` and rejoins ``duration`` cycles later.

    :class:`ShardCrash` lifted to machine scope: every shard the node
    hosts fails at once, in-flight batches on any of them fail, and the
    consistent-hash ring routes the node's keys to their surviving
    replicas until it rejoins.
    """

    duration: int = 0
    kind = "node_crash"


@dataclass(frozen=True)
class NodeSlow(NodeFault):
    """Every shard on the node sees ``extra_latency`` more DRAM cycles.

    A machine-wide brown-out — thermal throttling, a noisy co-tenant
    saturating the socket — rather than a single channel's spike. The
    hedging policy exists for exactly this: a replica on a healthy node
    beats the slow primary.
    """

    duration: int = 0
    extra_latency: int = 0
    kind = "node_slow"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.extra_latency <= 0:
            raise ConfigurationError("node slow-down needs a positive extra_latency")


#: Every fault kind, in documentation order (counters iterate this).
#: Node kinds are deliberately *not* listed here: shard-scope resilience
#: counters (``resilience["faults"]``, ``faults_by_kind``) keep their
#: exact historical key set, and node events surface through the
#: per-shard events they lower into.
FAULT_KINDS = tuple(
    cls.kind for cls in (LatencySpike, ShardStall, ShardCrash, CacheFlush, LfbShrink)
)

#: Node-scope fault kinds (cluster layer), in documentation order.
NODE_FAULT_KINDS = tuple(cls.kind for cls in (NodeCrash, NodeSlow))

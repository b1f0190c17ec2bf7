"""The executor framework: one seam for every interleaving technique.

Before this module, every layer of the repository hard-coded which
technique it ran: the columnstore branched on ``run_sequential`` vs
``run_interleaved``, the measurement harness switch-cased over five
per-technique bulk entry points, and the tracing/multicore/benchmark
layers each re-implemented the same dispatch. This module cuts the seam
the paper itself argues for (the execution policy is separate from the
lookup logic — Listing 7's two schedulers share every coroutine), the
way CoroBase hides the interleaving mechanism behind an engine-level
policy and Cimple's scheduler abstraction makes GP/AMAC/coroutine
schedules drop-in interchangeable:

* :class:`Executor` — the protocol all techniques implement:
  ``run(tasks, engine, *, group_size, recorder) -> results`` plus
  ``name`` and ``supports(workload_kind)``.
* :class:`BulkLookup` — one bulk index-join job: a workload *kind*
  (sorted array, CSB+-tree, hash probe, dictionary locate, or a raw
  stream factory), the probed structure, and the input values.
* :data:`EXECUTOR_REGISTRY` — string-keyed registry populated by the
  :func:`register_executor` decorator; every technique declares which
  workload kinds it supports, so callers ask the registry instead of
  switch-casing. Adding a technique is now a one-file change: implement
  the adapter, decorate it, done — every call site (columnstore,
  experiments, tracing, multicore, benchmarks, CLI) picks it up.
* :class:`BulkPipeline` — chunks large task lists into bounded batches
  before handing them to an executor: the batching seam sharding/async
  work builds on, and what :class:`~repro.sim.multicore.MultiCoreSystem`
  partitions work through.

Executors charge exactly the cycles the underlying technique entry
points charge — the golden-number regression test pins cycles/search
for all five paper techniques across this refactor — and when a span
recorder is attached, each run is wrapped in an ``executor`` span whose
attributes carry the executor name and workload kind.

``std``, ``Baseline``, ``GP``, ``AMAC``, ``CORO`` and ``sequential``
also carry a ``schedule`` key: jobs that compile replay the technique's
staged interleave schedule (:mod:`repro.interleaving.compiled`) with the
same cycles, and every other job runs the generators, counted as a
fallback. ``SPP`` always runs its generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Protocol, Sequence, runtime_checkable

from repro.errors import SchedulerError, WorkloadError
from repro.indexes.binary_search import (
    DEFAULT_COSTS,
    SearchCosts,
    binary_search_baseline,
    binary_search_coro,
    binary_search_std,
)
from repro.interleaving import compiled
from repro.interleaving.amac import (
    BinarySearchMachine,
    CsbLookupMachine,
    HashProbeMachine,
    amac_run_bulk,
)
from repro.interleaving.gp import gp_binary_search_bulk
from repro.interleaving.handle import FramePool
from repro.interleaving.interleaved import run_interleaved
from repro.interleaving.sequential import StreamFactory, run_sequential
from repro.interleaving.spp import spp_binary_search_bulk
from repro.sim.engine import ExecutionEngine

__all__ = [
    "WORKLOAD_KINDS",
    "SORTED_ARRAY",
    "CSB_TREE",
    "HASH_PROBE",
    "LOCATE",
    "STREAM",
    "BulkLookup",
    "Executor",
    "EXECUTOR_REGISTRY",
    "register_executor",
    "get_executor",
    "executor_names",
    "paper_techniques",
    "executors_supporting",
    "BulkPipeline",
]

# ----------------------------------------------------------------------
# Workload kinds
# ----------------------------------------------------------------------

#: Bulk binary search over a :class:`~repro.indexes.base.SearchableTable`.
SORTED_ARRAY = "sorted_array"
#: Bulk lookups in a CSB+-tree (``repro.indexes.csb_tree.TreeInterface``).
CSB_TREE = "csb_tree"
#: Bulk probes of a :class:`~repro.indexes.hash_table.ChainedHashTable`.
HASH_PROBE = "hash_probe"
#: Bulk ``locate`` in a column dictionary: each lookup is the
#: dictionary's own ``locate_stream`` coroutine (Main or Delta).
LOCATE = "locate"
#: Arbitrary coroutine lookups from a user-supplied stream factory.
STREAM = "stream"

#: Every workload kind an executor may declare support for.
WORKLOAD_KINDS = (SORTED_ARRAY, CSB_TREE, HASH_PROBE, LOCATE, STREAM)


@dataclass(frozen=True)
class BulkLookup:
    """One bulk index-join job: probe ``target`` with every input.

    ``kind`` names the workload so executors can pick the matching
    rewrite (the coroutine, the GP loop, the AMAC machine); ``factory``
    is only set for :data:`STREAM` workloads, where the caller supplies
    the lookup coroutine directly.
    """

    kind: str
    target: object
    inputs: tuple
    costs: SearchCosts = DEFAULT_COSTS
    factory: StreamFactory | None = None

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise WorkloadError(
                f"unknown workload kind {self.kind!r}; "
                f"expected one of {WORKLOAD_KINDS}"
            )
        if self.kind == STREAM and self.factory is None:
            raise WorkloadError("stream workloads need a stream factory")

    # ------------------------------------------------------------------
    # Constructors (one per workload kind)
    # ------------------------------------------------------------------

    @classmethod
    def sorted_array(
        cls, table, values: Sequence[object], costs: SearchCosts = DEFAULT_COSTS
    ) -> "BulkLookup":
        return cls(SORTED_ARRAY, table, tuple(values), costs)

    @classmethod
    def csb_tree(
        cls, tree, values: Sequence[object], costs: SearchCosts = DEFAULT_COSTS
    ) -> "BulkLookup":
        return cls(CSB_TREE, tree, tuple(values), costs)

    @classmethod
    def hash_probe(cls, table, keys: Sequence[int]) -> "BulkLookup":
        return cls(HASH_PROBE, table, tuple(keys))

    @classmethod
    def locate(
        cls, dictionary, values: Sequence[object], costs: SearchCosts = DEFAULT_COSTS
    ) -> "BulkLookup":
        """Locate every value in ``dictionary``, one code per input.

        ``dictionary.locate_stream(value, interleave, costs)`` is the
        lookup coroutine. Unlike an opaque :meth:`stream` job, a locate
        stream never reads the outcome of its events, so the staged
        replay can model it in closed form: a dictionary whose locate
        binary-searches a sorted table exposes that table as ``array``
        (Main), and an implicit Delta exposes its identity CSB+-tree as
        ``tree`` and its entries as ``dict_view`` (replayed for keys that
        fit in ``int64``). Any other locate runs its executor's
        generators.
        """
        return cls(LOCATE, dictionary, tuple(values), costs)

    @classmethod
    def stream(cls, factory: StreamFactory, inputs: Sequence[object]) -> "BulkLookup":
        return cls(STREAM, None, tuple(inputs), factory=factory)

    def __len__(self) -> int:
        return len(self.inputs)

    def batches(self, batch_size: int) -> Iterator["BulkLookup"]:
        """Split into jobs of at most ``batch_size`` inputs, in order."""
        if batch_size <= 0:
            raise SchedulerError("batch size must be positive")
        for start in range(0, len(self.inputs), batch_size):
            yield replace(self, inputs=self.inputs[start : start + batch_size])


# ----------------------------------------------------------------------
# The Executor protocol and registry
# ----------------------------------------------------------------------


@runtime_checkable
class Executor(Protocol):
    """One execution technique, dispatchable by name.

    Implementations translate a :class:`BulkLookup` into the technique's
    bulk entry point; ``supports`` advertises which workload kinds the
    technique has a rewrite for (Table 5's maintenance cost, encoded).
    """

    name: str

    def supports(self, workload_kind: str) -> bool:
        """Whether this technique can run ``workload_kind`` jobs."""

    def run(
        self,
        tasks: BulkLookup,
        engine: ExecutionEngine,
        *,
        group_size: int,
        recorder=None,
    ) -> list:
        """Run the job on ``engine``; one result per input, in order."""


#: Registry of executors, keyed by lower-cased name (aliases included).
EXECUTOR_REGISTRY: dict[str, Executor] = {}


def register_executor(cls=None, *, aliases: Sequence[str] = ()):
    """Class decorator: instantiate and register an executor.

    The executor is keyed by its ``name`` (case-insensitively) plus any
    ``aliases`` — e.g. the columnstore's historical ``"interleaved"``
    strategy resolves to the CORO executor.
    """

    def register(executor_cls):
        executor = executor_cls()
        for key in (executor.name, *aliases):
            key = key.lower()
            if key in EXECUTOR_REGISTRY:
                raise SchedulerError(f"duplicate executor name {key!r}")
            EXECUTOR_REGISTRY[key] = executor
        return executor_cls

    return register(cls) if cls is not None else register


def get_executor(name: str) -> Executor:
    """Look up an executor by name (case-insensitive; aliases resolve)."""
    executor = EXECUTOR_REGISTRY.get(str(name).lower())
    if executor is None:
        raise WorkloadError(
            f"unknown executor {name!r}; registered: {', '.join(executor_names())}"
        )
    return executor


def executor_names() -> list[str]:
    """Canonical executor names, in registration (paper) order."""
    seen: list[str] = []
    for executor in EXECUTOR_REGISTRY.values():
        if executor.name not in seen:
            seen.append(executor.name)
    return seen


def paper_techniques() -> tuple[str, ...]:
    """The Section 5.1 techniques, in the paper's order."""
    return tuple(
        name for name in executor_names() if get_executor(name).paper_technique
    )


def executors_supporting(workload_kind: str) -> list[Executor]:
    """Every registered executor that can run ``workload_kind`` jobs."""
    return [
        get_executor(name)
        for name in executor_names()
        if get_executor(name).supports(workload_kind)
    ]


# ----------------------------------------------------------------------
# Technique adapters
# ----------------------------------------------------------------------


class _ExecutorBase:
    """Shared plumbing: support checks, recorder attach, span tagging."""

    name = "?"
    workload_kinds: tuple[str, ...] = ()
    #: One of the five Section 5.1 implementations (sweeps iterate these).
    paper_technique = False
    #: Best group size from Section 5.4.5 (1 for sequential executors).
    default_group_size = 1
    #: Key into the architecture cost model for this technique's switch.
    switch_kind: str | None = None
    #: Staged-schedule builder (:mod:`repro.interleaving.compiled`) that
    #: replays this technique's compilable jobs; ``None`` always runs
    #: the generators.
    schedule: str | None = None
    #: Whether this instance runs options its staged schedule does not
    #: model (its jobs then run the generators).
    executor_options = False

    def supports(self, workload_kind: str) -> bool:
        return workload_kind in self.workload_kinds

    def run(
        self,
        tasks: BulkLookup,
        engine: ExecutionEngine,
        *,
        group_size: int | None = None,
        recorder=None,
    ) -> list:
        if not self.supports(tasks.kind):
            raise WorkloadError(
                f"executor {self.name!r} does not support {tasks.kind!r} "
                f"workloads (supported: {', '.join(self.workload_kinds)})"
            )
        if recorder is not None:
            engine.attach_tracer(recorder)
        group_size = group_size or self.default_group_size
        tracer = engine.tracer
        if not tracer.enabled:
            return self._execute(tasks, engine, group_size)
        begin = engine.clock
        results = self._execute(tasks, engine, group_size)
        tracer.span(
            "executor",
            begin,
            engine.clock,
            name=self.name,
            attrs={
                "executor": self.name,
                "workload_kind": tasks.kind,
                "group_size": group_size,
                "n_inputs": len(tasks),
            },
        )
        return results

    def _execute(
        self, tasks: BulkLookup, engine: ExecutionEngine, group_size: int
    ) -> list:
        if self.schedule is None:
            return self._run(tasks, engine, group_size)
        return compiled.run_staged(self, tasks, engine, group_size)

    def _run(
        self, tasks: BulkLookup, engine: ExecutionEngine, group_size: int
    ) -> list:
        """The technique's generators: the reference every replay matches."""
        raise NotImplementedError  # pragma: no cover


def _stream_factory(tasks: BulkLookup) -> StreamFactory:
    """The coroutine factory for a workload (Listing 5/6 and kin)."""
    if tasks.kind == STREAM:
        return tasks.factory
    if tasks.kind == SORTED_ARRAY:
        table, costs = tasks.target, tasks.costs
        return lambda value, interleave: binary_search_coro(
            table, value, interleave, costs
        )
    if tasks.kind == LOCATE:
        dictionary, costs = tasks.target, tasks.costs
        return lambda value, interleave: dictionary.locate_stream(
            value, interleave, costs
        )
    if tasks.kind == CSB_TREE:
        from repro.indexes.csb_tree import csb_lookup_stream

        tree, costs = tasks.target, tasks.costs
        return lambda value, interleave: csb_lookup_stream(
            tree, value, interleave, costs
        )
    if tasks.kind == HASH_PROBE:
        table = tasks.target
        from repro.indexes.hash_table import hash_probe_stream

        return lambda key, interleave: hash_probe_stream(table, key, interleave)
    raise WorkloadError(f"no stream factory for {tasks.kind!r}")  # pragma: no cover


@register_executor
class StdExecutor(_ExecutorBase):
    """``std``: speculative branchy binary search, always sequential."""

    name = "std"
    workload_kinds = (SORTED_ARRAY,)
    paper_technique = True
    schedule = "std"

    def _run(self, tasks, engine, group_size):
        table, costs = tasks.target, tasks.costs
        return run_sequential(
            engine,
            lambda value, il: binary_search_std(table, value, costs),
            tasks.inputs,
        )


@register_executor
class BaselineExecutor(_ExecutorBase):
    """``Baseline``: branch-free sequential binary search (Listing 2)."""

    name = "Baseline"
    workload_kinds = (SORTED_ARRAY,)
    paper_technique = True
    schedule = "baseline"

    def _run(self, tasks, engine, group_size):
        table, costs = tasks.target, tasks.costs
        return run_sequential(
            engine,
            lambda value, il: binary_search_baseline(table, value, costs),
            tasks.inputs,
        )


@register_executor
class GpExecutor(_ExecutorBase):
    """Group prefetching (Listing 3): one rewritten loop, arrays only."""

    name = "GP"
    workload_kinds = (SORTED_ARRAY,)
    paper_technique = True
    default_group_size = 10  # Inequality-1 estimate, LFB-capped (12 -> 10)
    switch_kind = "gp"
    schedule = "gp"

    def _run(self, tasks, engine, group_size):
        return gp_binary_search_bulk(
            engine, tasks.target, tasks.inputs, group_size, tasks.costs
        )


@register_executor
class AmacExecutor(_ExecutorBase):
    """AMAC (Listing 4): one hand-built state machine per workload."""

    name = "AMAC"
    workload_kinds = (SORTED_ARRAY, CSB_TREE, HASH_PROBE)
    paper_technique = True
    default_group_size = 6
    switch_kind = "amac"
    schedule = "amac"

    def _machine_factory(self, tasks: BulkLookup) -> Callable[[], object]:
        if tasks.kind == SORTED_ARRAY:
            return lambda: BinarySearchMachine(tasks.target, tasks.costs)
        if tasks.kind == CSB_TREE:
            return lambda: CsbLookupMachine(tasks.target, tasks.costs)
        return lambda: HashProbeMachine(tasks.target)

    def _run(self, tasks, engine, group_size):
        return amac_run_bulk(
            engine, self._machine_factory(tasks), tasks.inputs, group_size
        )


@register_executor(aliases=("interleaved",))
class CoroExecutor(_ExecutorBase):
    """CORO (Listings 5-7): the one scheduler every coroutine shares.

    Instantiate directly (off-registry) to run the paper's ablations:
    ``CoroExecutor(recycle_frames=False)`` disables frame recycling,
    ``switch_kind`` overrides the charged switch cost. Only the default
    configuration replays the staged schedule; ablation instances run
    their generators.
    """

    name = "CORO"
    workload_kinds = WORKLOAD_KINDS
    paper_technique = True
    default_group_size = 6
    switch_kind = "coro"
    schedule = "coro"

    def __init__(
        self,
        *,
        recycle_frames: bool = True,
        switch_kind: str = "coro",
        frame_pool: FramePool | None = None,
    ) -> None:
        self._recycle_frames = recycle_frames
        self.switch_kind = switch_kind
        self._frame_pool = frame_pool

    def _run(self, tasks, engine, group_size):
        return run_interleaved(
            engine,
            _stream_factory(tasks),
            tasks.inputs,
            group_size,
            switch_kind=self.switch_kind,
            recycle_frames=self._recycle_frames,
            frame_pool=self._frame_pool,
        )

    @property
    def executor_options(self) -> bool:
        return (
            not self._recycle_frames
            or self.switch_kind != "coro"
            or self._frame_pool is not None
        )


@register_executor
class SppExecutor(_ExecutorBase):
    """Software-pipelined prefetching: the regular-pipeline extension."""

    name = "SPP"
    workload_kinds = (SORTED_ARRAY,)
    default_group_size = 10
    switch_kind = "gp"

    def _run(self, tasks, engine, group_size):
        return spp_binary_search_bulk(
            engine, tasks.target, tasks.inputs, group_size, tasks.costs
        )


@register_executor
class SequentialExecutor(_ExecutorBase):
    """Plain sequential execution of any coroutine workload.

    The generic counterpart of ``Baseline``: drives the workload's own
    coroutine with ``interleave=False`` (Listing 7's ``runSequential``),
    so it supports every kind a coroutine exists for — including raw
    stream factories, which is what the columnstore's ``sequential``
    strategy resolves to.
    """

    name = "sequential"
    workload_kinds = WORKLOAD_KINDS
    schedule = "sequential"

    def _run(self, tasks, engine, group_size):
        return run_sequential(engine, _stream_factory(tasks), tasks.inputs)


# ----------------------------------------------------------------------
# Batched pipelines
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BulkPipeline:
    """Feed an executor bounded batches of a (possibly huge) task list.

    Millions of lookups should not form one giant scheduler group-fill
    loop: the pipeline chunks ``tasks`` into ``batch_size``-bounded
    :class:`BulkLookup` jobs and concatenates the results. Batches run
    back-to-back on the same engine today; the batch boundary is the
    seam sharding (one batch per core — see
    :meth:`~repro.sim.multicore.MultiCoreSystem.run_bulk`) and future
    async execution build on.
    """

    executor: Executor
    batch_size: int = 4096

    def __post_init__(self) -> None:
        if self.batch_size <= 0:
            raise SchedulerError("batch size must be positive")

    def run(
        self,
        tasks: BulkLookup,
        engine: ExecutionEngine,
        *,
        group_size: int | None = None,
        recorder=None,
    ) -> list:
        results: list = []
        for batch in tasks.batches(self.batch_size):
            results.extend(
                self.executor.run(
                    batch, engine, group_size=group_size, recorder=recorder
                )
            )
        return results

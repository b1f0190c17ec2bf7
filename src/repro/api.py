"""repro.api — the one front door for the four things people do here.

Every workflow in this repository bottoms out in one of four verbs, and
each used to require knowing which subpackage implements it:

* **run an experiment** — a paper table/figure (``repro.analysis``),
* **serve a scenario** — the online robustness story (``repro.service``),
* **look up a batch** — one bulk index join under a chosen or
  policy-picked technique (``repro.interleaving``),
* **run a plan** — an IN-predicate query as a pull-based operator
  pipeline with per-operator profiles (``repro.query``),
* **inject faults** — replay a bulk run under a deterministic chaos
  schedule (``repro.faults``).

This module gives each verb one function with keyword-only knobs and a
frozen, typed result — the stable surface examples, notebooks, and
downstream tooling should import (``from repro import api`` or the
re-exports on the package root). The deep modules remain public for
power users; what this facade adds is that the *common* path no longer
depends on their layout.

Results are plain frozen dataclasses: the raw data document (or result
list) plus the derived numbers callers always recompute by hand, with
``render()`` on the document-shaped ones for the CLI-style ASCII view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.config import HASWELL, ArchSpec
from repro.errors import PerfError, WorkloadError

__all__ = [
    "ExperimentResult",
    "ServeResult",
    "ExplainResult",
    "LookupResult",
    "PlanRunResult",
    "FaultInjectionResult",
    "run_experiment",
    "serve",
    "explain",
    "lookup_batch",
    "run_plan",
    "inject_faults",
]


# ----------------------------------------------------------------------
# Result types
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentResult:
    """One paper experiment's data document, render-on-demand."""

    #: Canonical experiment name (``python -m repro list``).
    name: str
    #: The machine-readable data document (what ``--json`` prints).
    doc: dict

    def render(self) -> str:
        """The paper-style ASCII table/figure for this document."""
        from repro.analysis.figures import render_experiment_data

        return render_experiment_data(self.doc)


@dataclass(frozen=True)
class ServeResult:
    """One serving sweep: the service/chaos/cluster data document, typed."""

    scenario: str
    #: ``repro.service/1``; ``repro.chaos/1`` when faults were live;
    #: ``repro.cluster/1`` for a ``kind: cluster`` scenario;
    #: ``repro.control/1`` when the adaptive controller ran (the
    #: underlying shape is then named by ``doc["base_schema"]``).
    schema: str
    doc: dict

    @property
    def points(self) -> list[dict]:
        """Per-(technique, load) records, in sweep order."""
        return self.doc["points"]

    @property
    def chaos(self) -> bool:
        """Whether a non-empty fault schedule shaped this run."""
        return "fault_profile" in self.doc

    def point(self, technique: str, load_multiplier: float) -> dict:
        """The record for one (technique, load) pair."""
        for record in self.points:
            if (
                record["technique"].lower() == technique.lower()
                and record["load_multiplier"] == load_multiplier
            ):
                return record
        raise WorkloadError(
            f"no point ({technique!r}, {load_multiplier!r}) in scenario "
            f"{self.scenario!r}"
        )

    def render(self) -> str:
        """The CLI's ASCII throughput/latency table."""
        from repro.service.loadgen import render_service_doc

        return render_service_doc(self.doc)


@dataclass(frozen=True)
class ExplainResult:
    """One sweep point's p-N request, explained (``repro.explain/1``)."""

    scenario: str
    technique: str
    load_multiplier: float
    #: The percentile that was explained (e.g. ``99``).
    q: float
    doc: dict

    @property
    def trace_id(self) -> str:
        """Deterministic id of the exemplar request."""
        return self.doc["exemplar"]["trace_id"]

    @property
    def stages(self) -> list[dict]:
        """Critical-path stages: name, start, end, cycles, pct."""
        return self.doc["critical_path"]["stages"]

    def render(self) -> str:
        """The CLI's ASCII critical-path tables."""
        from repro.service.explain import render_explain_doc

        return render_explain_doc(self.doc)


@dataclass(frozen=True)
class LookupResult:
    """One bulk index join: results plus the cycle economics."""

    #: Executor that ran (resolved from the policy when not forced).
    technique: str
    group_size: int
    #: One result per input value, in input order.
    results: tuple
    #: Engine cycles charged by the bulk run (settled).
    cycles: int

    @property
    def n_lookups(self) -> int:
        return len(self.results)

    @property
    def cycles_per_lookup(self) -> float:
        return self.cycles / self.n_lookups if self.results else 0.0


@dataclass(frozen=True)
class PlanRunResult:
    """One IN-predicate query executed as an operator plan."""

    #: Encode strategy that actually ran (resolved from the policy when
    #: not forced) and its group size.
    strategy: str
    group_size: int
    #: Matching row indices, in row order.
    rows: tuple
    #: Per-operator profiles (:class:`repro.query.OperatorProfile`),
    #: leaf-to-root execution order.
    operators: tuple
    #: ASCII rendering of the operator tree.
    plan: str

    @property
    def n_matches(self) -> int:
        return len(self.rows)

    @property
    def total_cycles(self) -> int:
        return sum(op.cycles for op in self.operators)

    def operator(self, label: str):
        for profile in self.operators:
            if profile.label == label:
                return profile
        from repro.errors import QueryError

        raise QueryError(f"plan has no operator labelled {label!r}")

    def render(self) -> str:
        total = self.total_cycles or 1
        lines = [
            self.plan,
            "",
            f"{'operator':<32} {'cycles':>12} {'%':>6} {'batches':>8} "
            f"{'rows':>10}  executor",
        ]
        for op in self.operators:
            lines.append(
                f"{op.label:<32} {op.cycles:>12,} "
                f"{100.0 * op.cycles / total:>5.1f}% {op.batches:>8} "
                f"{op.rows:>10,}  {op.executor or '-'}"
            )
        lines.append(
            f"{'total':<32} {self.total_cycles:>12,} {'100.0':>5}% "
            f"{'':>8} {self.n_matches:>10,}  ({self.strategy}, "
            f"G={self.group_size})"
        )
        return "\n".join(lines)


@dataclass(frozen=True)
class FaultInjectionResult:
    """A bulk run replayed under a fault schedule, against its baseline.

    The baseline pass (same table, values, technique, and chunking — no
    faults) doubles as the schedule horizon: the chaos replay uses the
    baseline's measured makespan as the window the profile fills, so
    ``inject_faults`` is a pure function of its arguments.
    """

    technique: str
    group_size: int
    results: tuple
    #: Cycles of the faulted run.
    cycles: int
    #: Cycles of the fault-free pass (also the schedule horizon).
    baseline_cycles: int
    #: Cycles spent parked in stall/crash outage windows.
    stall_cycles: int
    #: Cache-flush point faults actually applied.
    flushes_applied: int
    #: Events in the resolved schedule.
    fault_events: int
    #: Fault counts by kind, from the resolved schedule.
    faults_by_kind: dict = field(compare=False)

    @property
    def slowdown(self) -> float:
        """Faulted cycles over baseline cycles (>= 1.0 in practice)."""
        return self.cycles / self.baseline_cycles if self.baseline_cycles else 0.0


# ----------------------------------------------------------------------
# The four verbs
# ----------------------------------------------------------------------


def _perf_scope(jobs: int | None, cache):
    """Sweep-execution scope for one facade call.

    ``jobs``/``cache`` override the process-wide :mod:`repro.perf`
    defaults for the duration of the call, each only when passed; an
    unset one keeps whatever the embedding application configured
    (serial and uncached out of the box). A ``jobs`` that is not an int
    of at least 1, or a ``cache`` that is not a
    :class:`~repro.perf.ResultCache`, raises
    :class:`~repro.errors.PerfError` before any work starts.
    """
    from repro import perf

    if jobs is not None and (
        isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1
    ):
        raise PerfError(f"jobs must be an int >= 1, got {jobs!r}")
    if cache is not None and not isinstance(cache, perf.ResultCache):
        raise PerfError(
            f"cache must be a repro.perf.ResultCache, got {type(cache).__name__}"
        )
    return perf.overrides(jobs=jobs, cache=cache)


def run_experiment(
    name: str,
    *,
    jobs: int | None = None,
    cache=None,
) -> ExperimentResult:
    """Run one paper experiment (table/figure) by name.

    The typed counterpart of ``python -m repro <name>``: returns the
    data document plus a renderer instead of printed text. ``jobs``
    fans the experiment's sweep across worker processes; ``cache``
    (a :class:`~repro.perf.ResultCache`) replays previously computed
    points. Both leave the document bit-identical.
    """
    from repro.analysis.figures import available_experiments, run_experiment_data

    if name not in available_experiments():
        raise WorkloadError(
            f"unknown experiment {name!r}; available: "
            f"{', '.join(available_experiments())}"
        )
    with _perf_scope(jobs, cache):
        return ExperimentResult(name=name, doc=run_experiment_data(name))


def serve(
    spec,
    *,
    seed: int = 0,
    faults=None,
    jobs: int | None = None,
    cache=None,
) -> ServeResult:
    """Run one serving scenario sweep (optionally fault-injected).

    ``spec`` accepts any scenario reference — a catalogue name, a
    ``file:scenario.yaml`` path, a ``repro.scenario/1`` dict, or a
    :class:`~repro.scenario.ScenarioSpec` — and resolves it via
    :func:`repro.scenario.resolve_scenario`; a ``kind: cluster`` spec
    (``planet``, ``planet-quick``, ``cluster-steady``, or one of your
    own) yields its ``repro.cluster/1`` document, with the per-node
    counters in each point. ``faults`` accepts a profile name
    (``"chaos"``), a
    :class:`~repro.faults.schedule.FaultProfile`, or a ready-built
    :class:`~repro.faults.schedule.FaultSchedule`; ``None`` defers to
    the scenario's own default profile (no chaos for most scenarios).
    ``jobs``/``cache`` parallelise and memoise the per-(technique, load)
    points exactly as in :func:`run_experiment`.
    """
    from repro.service.loadgen import run_scenario

    with _perf_scope(jobs, cache):
        doc = run_scenario(spec, seed=seed, faults=faults)
    return ServeResult(scenario=doc["scenario"], schema=doc["schema"], doc=doc)


def explain(
    scenario,
    *,
    technique: str | None = None,
    load: float | None = None,
    seed: int = 0,
    faults=None,
    q: float = 99,
) -> ExplainResult:
    """Explain the p-``q`` exemplar request of one serving sweep point.

    Re-runs a single (technique, load) point with request tracing
    enabled, resolves the p-``q`` exemplar out of the point's latency
    histogram, and reduces its span tree to a critical path — the
    typed counterpart of ``python -m repro explain``. ``technique``
    defaults to CORO when the scenario sweeps it; ``load`` to the
    scenario's highest multiplier.
    """
    from repro.service.explain import explain_point

    doc = explain_point(
        scenario, technique=technique, load=load, seed=seed, faults=faults, q=q
    )
    return ExplainResult(
        scenario=doc["scenario"],
        technique=doc["technique"],
        load_multiplier=doc["load_multiplier"],
        q=doc["q"],
        doc=doc,
    )


def lookup_batch(
    table,
    values: Sequence[object],
    *,
    technique: str | None = None,
    group_size: int | None = None,
    arch: ArchSpec = HASWELL,
    engine=None,
    costs=None,
) -> LookupResult:
    """Run one bulk binary-search join and report its cycle economics.

    ``technique=None`` asks the Inequality-1 policy layer to pick the
    executor and group size for this table and batch; naming a
    technique forces it (``group_size=None`` then falls back to the
    executor's Section-5.4.5 default). Passing ``engine`` reuses an
    existing (possibly warmed) engine instead of a cold one.
    """
    from repro.indexes.binary_search import DEFAULT_COSTS
    from repro.interleaving.executor import BulkLookup, get_executor
    from repro.interleaving.policies import choose_policy
    from repro.sim.engine import ExecutionEngine

    if engine is None:
        engine = ExecutionEngine(arch)
    tasks = BulkLookup.sorted_array(
        table, values, DEFAULT_COSTS if costs is None else costs
    )
    if technique is None:
        policy = choose_policy(engine.arch, table, len(tasks), technique=None)
        executor = get_executor(policy.executor_name)
        group_size = group_size or policy.group_size
    else:
        executor = get_executor(technique)
    group_size = group_size or executor.default_group_size
    before = engine.clock
    results = executor.run(tasks, engine, group_size=group_size)
    engine.settle()
    return LookupResult(
        technique=executor.name,
        group_size=group_size,
        results=tuple(results),
        cycles=engine.clock - before,
    )


def run_plan(
    column,
    predicate_values: Sequence[int],
    *,
    strategy: str | None = None,
    group_size: int | None = None,
    arch: ArchSpec = HASWELL,
    engine=None,
    scan_batch: int | None = None,
    probe_batch: int | None = None,
    task_buffer: int | None = None,
    match_buffer: int | None = None,
    recorder=None,
) -> PlanRunResult:
    """Execute an IN-predicate query as a ``repro.query`` operator plan.

    Builds the Figure 1/8 pipeline (literal scan → index-join encode →
    filter → semi-join column scan → aggregate) over ``column``,
    executes it, and reports per-operator cycle profiles. ``strategy``
    and ``group_size`` resolve exactly as :func:`repro.run_in_predicate`
    does (policy-driven when unset); batching and buffer knobs stream
    the plan instead of running it in one batch per operator.
    """
    from repro.query import in_predicate_plan
    from repro.sim.engine import ExecutionEngine

    if engine is None:
        engine = ExecutionEngine(arch)
    plan = in_predicate_plan(
        column,
        predicate_values,
        strategy=strategy,
        group_size=group_size,
        scan_batch=scan_batch,
        probe_batch=probe_batch,
        task_buffer=task_buffer,
        match_buffer=match_buffer,
    )
    result = plan.execute(engine, recorder=recorder)
    encode = result.profile("in_predicate_encode")
    return PlanRunResult(
        strategy=str(encode.attrs.get("strategy", strategy or "?")),
        group_size=int(encode.attrs.get("group_size", group_size or 0)),
        rows=tuple(int(row) for row in result.value),
        operators=result.profiles,
        plan=plan.describe(),
    )


def inject_faults(
    table,
    values: Sequence[object],
    *,
    faults,
    technique: str = "CORO",
    group_size: int | None = None,
    chunk_size: int = 64,
    arch: ArchSpec = HASWELL,
    seed: int = 0,
) -> FaultInjectionResult:
    """Replay one bulk join under a deterministic fault schedule.

    Two passes on fresh engines: a fault-free baseline measures the
    run's natural makespan, which becomes the schedule horizon (so
    profile-built schedules land their events *inside* the run); the
    chaos pass then executes the same chunked workload under the
    resolved schedule via :class:`~repro.faults.injector.
    OfflineFaultInjector` — outages charge stall cycles, flushes land
    between chunks, spikes/shrinks degrade each chunk's memory
    environment. Same arguments, bit-identical result, every time.
    """
    from repro.faults.injector import OfflineFaultInjector
    from repro.faults.schedule import resolve_schedule
    from repro.interleaving.executor import BulkLookup, get_executor
    from repro.sim.engine import ExecutionEngine

    if chunk_size <= 0:
        raise WorkloadError("chunk_size must be positive")
    executor = get_executor(technique)
    group_size = group_size or executor.default_group_size

    def chunked_run(engine, injector=None):
        results: list = []
        tasks = BulkLookup.sorted_array(table, values)
        for batch in tasks.batches(chunk_size):
            if injector is None:
                results.extend(executor.run(batch, engine, group_size=group_size))
            else:
                with injector.chunk():
                    results.extend(
                        executor.run(batch, engine, group_size=group_size)
                    )
        engine.settle()
        return results

    baseline_engine = ExecutionEngine(arch, seed=seed)
    baseline_results = chunked_run(baseline_engine)
    baseline_cycles = baseline_engine.clock

    schedule = resolve_schedule(
        faults, horizon=max(1, baseline_cycles), n_shards=1, seed=seed
    )
    if schedule is None:
        return FaultInjectionResult(
            technique=executor.name,
            group_size=group_size,
            results=tuple(baseline_results),
            cycles=baseline_cycles,
            baseline_cycles=baseline_cycles,
            stall_cycles=0,
            flushes_applied=0,
            fault_events=0,
            faults_by_kind={},
        )

    engine = ExecutionEngine(arch, seed=seed)
    offline = OfflineFaultInjector(schedule, engine)
    results = chunked_run(engine, offline)
    if results != baseline_results:  # pragma: no cover - correctness guard
        raise WorkloadError("fault injection changed lookup results")
    return FaultInjectionResult(
        technique=executor.name,
        group_size=group_size,
        results=tuple(results),
        cycles=engine.clock,
        baseline_cycles=baseline_cycles,
        stall_cycles=offline.stall_cycles,
        flushes_applied=offline.flushes_applied,
        fault_events=len(schedule),
        faults_by_kind=schedule.counts_by_kind(),
    )

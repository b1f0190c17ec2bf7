"""Command-line entry point: regenerate paper artifacts, traces, serving runs.

Usage::

    python -m repro list                 # experiments, executors, scenarios
    python -m repro list --json          # every scenario as its spec
    python -m repro list file:my.yaml    # resolve/validate a spec file
    python -m repro table5 fig7          # run and print experiments
    python -m repro table5 --json        # machine-readable data documents
    python -m repro trace fig7 --out /tmp/t   # span-traced run artifacts
    python -m repro serve mixed          # online-serving load sweep
    python -m repro serve quick --json --seed 3
    python -m repro serve file:scenario.yaml  # declarative scenario spec
    python -m repro plan --store main --dict-bytes 8388608   # operator plan
    python -m repro plan --strategy interleaved --json       # repro.query/1 doc
    python -m repro serve chaos --faults chaos   # fault-injected sweep
    python -m repro serve quick --trace-requests /tmp/rt   # span artifacts
    python -m repro explain chaos-quick --pN 99   # p99 critical path
    python -m repro fig7 --jobs 4        # fan sweep points over 4 processes
    python -m repro fig7 --no-cache      # recompute instead of replaying
    python -m repro profile fig7 --top 10   # cProfile one sweep point
    REPRO_BENCH_SCALE=full python -m repro fig3a   # paper's full grid

Exit codes follow the Unix convention: **2** for usage errors (unknown
experiment/scenario/fault-profile names, bad flags), **1** for runtime
failures inside a correctly-specified run, 0 on success.

The ``trace`` verb runs a fully instrumented slice of an experiment's
kernel and writes a Chrome-trace/Perfetto JSON, a run-summary JSON, and
a JSONL event stream into ``--out`` (see docs/observability.md). The
``serve`` verb runs a named serving scenario — seeded arrivals,
admission control, request coalescing — and prints the per-technique
throughput-vs-latency table (see docs/serving.md); with
``--trace-requests DIR`` it also writes per-point request span
artifacts. The ``explain`` verb re-runs one sweep point with request
tracing and prints the pN exemplar request's critical path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis.figures import (
    available_experiments,
    render_experiment_data,
    run_experiment_data,
)


def _add_perf_options(parser: argparse.ArgumentParser) -> None:
    """Attach the sweep-execution flags shared by every simulating verb."""
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for sweep points "
            "(default: REPRO_JOBS env var, else all CPUs)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every sweep point instead of replaying cached results",
    )
    parser.add_argument(
        "--cache-clear",
        action="store_true",
        help="empty the result cache (REPRO_CACHE_DIR or ~/.cache/repro) first",
    )


def _configure_perf(args: argparse.Namespace) -> None:
    """Apply the parsed sweep-execution flags process-wide."""
    from repro import perf

    jobs = args.jobs
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        jobs = int(env) if env else (os.cpu_count() or 1)
    cache = None if args.no_cache else perf.ResultCache()
    if args.cache_clear:
        (cache or perf.ResultCache()).clear()
    perf.configure(jobs=jobs, cache=cache)


def _unknown(names: list[str]) -> int:
    """Report unknown experiment names on stderr; exit status 2."""
    from repro.scenario import SCENARIO_REGISTRY

    listing = ", ".join(available_experiments())
    for name in names:
        print(f"unknown experiment {name!r}; available: {listing}", file=sys.stderr)
        if name.lower() in SCENARIO_REGISTRY:
            print(
                f"({name!r} is a serving scenario — did you mean "
                f"'python -m repro serve {name}'?)",
                file=sys.stderr,
            )
    print(
        "run 'python -m repro list' to see experiments, executors, "
        "workload kinds, and serving scenarios",
        file=sys.stderr,
    )
    return 2


def _list_doc() -> dict:
    """The machine-readable counterpart of the ``list`` text output.

    Every catalogue scenario appears as its ``repro.scenario/1`` spec —
    the exact document ``python -m repro serve file:...`` would accept
    back.
    """
    from repro.faults.schedule import fault_profile_names, get_fault_profile
    from repro.interleaving.executor import (
        WORKLOAD_KINDS,
        executor_names,
        get_executor,
    )
    from repro.scenario import SCENARIO_REGISTRY

    return {
        "schema": "repro.list/1",
        "experiments": list(available_experiments()),
        "executors": [
            {
                "name": name,
                "default_group_size": get_executor(name).default_group_size,
                "workload_kinds": list(get_executor(name).workload_kinds),
            }
            for name in executor_names()
        ],
        "workload_kinds": list(WORKLOAD_KINDS),
        "scenarios": [spec.to_dict() for spec in SCENARIO_REGISTRY.values()],
        "fault_profiles": [
            {"name": name, "description": get_fault_profile(name).description}
            for name in fault_profile_names()
        ],
    }


def _list_main(argv: list[str]) -> int:
    """``python -m repro list [REF ...] [--json]``.

    With no arguments, the human-readable inventory (unchanged).
    ``--json`` emits the ``repro.list/1`` document, each catalogue
    scenario serialized as its ``repro.scenario/1`` spec. Positional
    references (catalogue names or ``file:spec.yaml``) resolve and
    print just those specs; malformed specs exit 2.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro list",
        description=(
            "List experiments, executors, workload kinds, serving "
            "scenarios, and fault profiles — or resolve specific "
            "scenario references into repro.scenario/1 specs."
        ),
    )
    parser.add_argument(
        "refs",
        nargs="*",
        metavar="REF",
        help=(
            "scenario references to resolve and print as specs "
            "(registry names or file:spec.{json,yaml})"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the repro.list/1 document as JSON instead of ASCII",
    )
    args = parser.parse_args(argv)

    from repro.errors import SpecError, WorkloadError
    from repro.scenario import resolve_scenario

    if args.refs:
        try:
            specs = [resolve_scenario(ref).to_dict() for ref in args.refs]
        except (WorkloadError, SpecError) as error:
            print(f"list: {error}", file=sys.stderr)
            return 2
        if args.json:
            doc = {"schema": "repro.list/1", "scenarios": specs}
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            for spec in specs:
                print(json.dumps(spec, indent=2, sort_keys=True))
        return 0
    if args.json:
        print(json.dumps(_list_doc(), indent=2, sort_keys=True))
        return 0
    return _list_text()


def _list_text() -> int:
    """Print experiments, executors, workload kinds, and scenarios."""
    from repro.faults.schedule import fault_profile_names, get_fault_profile
    from repro.interleaving.executor import (
        WORKLOAD_KINDS,
        executor_names,
        get_executor,
    )
    from repro.scenario import SCENARIO_REGISTRY

    print("experiments:")
    for name in available_experiments():
        print(f"  {name}")
    print()
    print("executors:")
    for name in executor_names():
        executor = get_executor(name)
        kinds = ", ".join(executor.workload_kinds)
        print(
            f"  {name:<12} group_size={executor.default_group_size:<3} [{kinds}]"
        )
    print()
    print("workload kinds:")
    for kind in WORKLOAD_KINDS:
        print(f"  {kind}")
    print()
    print("scenarios (python -m repro serve <name>):")
    for scenario in SCENARIO_REGISTRY.values():
        techniques = "/".join(scenario.techniques)
        chaos = (
            f" faults={scenario.fault_profile}" if scenario.fault_profile else ""
        )
        shape = ""
        if scenario.kind == "cluster":
            shape = (
                f" nodes={scenario.config.n_nodes}"
                f" R={scenario.config.replication}"
                f" users={scenario.n_users:,}"
            )
        print(
            f"  {scenario.name:<14} {scenario.arrival_kind:<8} "
            f"loads x{list(scenario.loads)} [{techniques}]{shape}{chaos}"
        )
    print()
    print("fault profiles (python -m repro serve <name> --faults <profile>):")
    for name in fault_profile_names():
        profile = get_fault_profile(name)
        print(f"  {name:<14} {profile.description}")
    print()
    print("query operators (python -m repro plan --help):")
    from repro.query import Aggregate, Filter, IndexJoin, InPredicateEncode, Scan

    for operator in (Scan, Filter, IndexJoin, InPredicateEncode, Aggregate):
        summary = (operator.__doc__ or "").strip().splitlines()[0]
        print(f"  {operator.kind:<20} {summary}")
    return 0


def _serve_main(argv: list[str]) -> int:
    from repro.errors import ReproError, SpecError, WorkloadError
    from repro.faults.schedule import fault_profile_names, get_fault_profile
    from repro.scenario import resolve_scenario, scenario_names
    from repro.service.loadgen import (
        render_service_doc,
        run_scenario,
        run_traced_scenario,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Run a named online-serving scenario (seeded arrivals, "
            "admission control, request coalescing) and print the "
            "per-technique throughput/latency table."
        ),
    )
    parser.add_argument(
        "scenario",
        help=(
            f"scenario name ({', '.join(scenario_names())}) or a "
            "file:spec.{json,yaml} declarative scenario reference"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the service data document as JSON instead of ASCII",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="RNG seed for arrivals and probe values (default 0)",
    )
    parser.add_argument(
        "--faults",
        metavar="PROFILE",
        default=None,
        help=(
            "fault profile to inject "
            f"({', '.join(fault_profile_names())}); overrides the "
            "scenario's default"
        ),
    )
    parser.add_argument(
        "--trace-requests",
        metavar="DIR",
        default=None,
        help=(
            "run with request tracing and write per-point Chrome-trace "
            "and JSONL span artifacts into DIR (the printed document is "
            "identical either way)"
        ),
    )
    _add_perf_options(parser)
    args = parser.parse_args(argv)
    _configure_perf(args)

    # Name/spec resolution is a usage question — report and exit 2
    # before any simulation work starts.
    try:
        scenario = resolve_scenario(args.scenario)
    except (WorkloadError, SpecError) as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    try:
        faults = (
            None if args.faults is None else get_fault_profile(args.faults)
        )
    except WorkloadError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2

    try:
        if args.trace_requests is None:
            doc = run_scenario(scenario, seed=args.seed, faults=faults)
        else:
            doc, traced = run_traced_scenario(
                scenario, seed=args.seed, faults=faults
            )
            for path in _write_trace_artifacts(args.trace_requests, traced):
                print(f"trace artifact: {path}", file=sys.stderr)
    except ReproError as error:
        print(f"serve failed: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_service_doc(doc))
    return 0


def _write_trace_artifacts(out_dir: str, traced: dict) -> list[str]:
    """Write one Chrome trace + one spans JSONL per traced sweep point.

    Point labels like ``CORO@x2.5`` become filename-safe stems
    (``CORO_x2.5``); returns the written paths in label order.
    """
    from repro.obs.rtrace import request_chrome_trace, request_traces_jsonl

    os.makedirs(out_dir, exist_ok=True)
    paths: list[str] = []
    for label, record in traced.items():
        stem = label.replace("@", "_").replace("/", "-")
        timeline = record["fault_timeline"]
        chrome = request_chrome_trace(
            record["traces"],
            label=label,
            fault_windows=timeline["windows"],
            fault_points=timeline["points"],
        )
        chrome_path = os.path.join(out_dir, f"requests_{stem}.trace.json")
        with open(chrome_path, "w", encoding="utf-8") as handle:
            json.dump(chrome, handle, indent=2, sort_keys=True)
        paths.append(chrome_path)
        jsonl_path = os.path.join(out_dir, f"requests_{stem}.jsonl")
        with open(jsonl_path, "w", encoding="utf-8") as handle:
            for line in request_traces_jsonl(record["traces"]):
                handle.write(line + "\n")
        paths.append(jsonl_path)
    return paths


def _explain_main(argv: list[str]) -> int:
    from repro.errors import ReproError, SpecError, WorkloadError
    from repro.faults.schedule import fault_profile_names, get_fault_profile
    from repro.scenario import resolve_scenario, scenario_names
    from repro.service.explain import explain_point, render_explain_doc

    parser = argparse.ArgumentParser(
        prog="python -m repro explain",
        description=(
            "Re-run one (technique, load) point of a serving scenario "
            "with request tracing and print the pN exemplar request's "
            "critical path — which stage the tail latency actually "
            "lives in."
        ),
    )
    parser.add_argument(
        "scenario",
        help=(
            f"scenario name ({', '.join(scenario_names())}) or a "
            "file:spec.{json,yaml} declarative scenario reference"
        ),
    )
    parser.add_argument(
        "--pN",
        type=float,
        default=99,
        metavar="N",
        dest="pn",
        help="percentile to explain, in (0, 100] (default 99)",
    )
    parser.add_argument(
        "--technique",
        default=None,
        help="technique to trace (default: CORO when swept, else last)",
    )
    parser.add_argument(
        "--load",
        type=float,
        default=None,
        metavar="X",
        help="load multiplier to trace (default: the scenario's highest)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="RNG seed for arrivals and probe values (default 0)",
    )
    parser.add_argument(
        "--faults",
        metavar="PROFILE",
        default=None,
        help=(
            "fault profile to inject "
            f"({', '.join(fault_profile_names())}); overrides the "
            "scenario's default"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the repro.explain/1 document as JSON instead of ASCII",
    )
    args = parser.parse_args(argv)

    try:
        scenario = resolve_scenario(args.scenario)
        faults = (
            None if args.faults is None else get_fault_profile(args.faults)
        )
    except (WorkloadError, SpecError) as error:
        print(f"explain: {error}", file=sys.stderr)
        return 2
    try:
        doc = explain_point(
            scenario,
            technique=args.technique,
            load=args.load,
            seed=args.seed,
            faults=faults,
            q=args.pn,
        )
    except WorkloadError as error:
        # Unknown technique / load for this scenario — a usage error.
        print(f"explain: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"explain failed: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_explain_doc(doc))
    return 0


def _plan_main(argv: list[str]) -> int:
    """Build and run one IN-predicate query as an operator plan."""
    parser = argparse.ArgumentParser(
        prog="python -m repro plan",
        description=(
            "Run the Figure 1/8 IN-predicate query as a repro.query "
            "operator plan over a synthetic column and print the "
            "per-operator cycle profile."
        ),
    )
    parser.add_argument(
        "--store",
        choices=("main", "delta"),
        default="main",
        help="dictionary store to query (default main)",
    )
    parser.add_argument(
        "--dict-bytes",
        type=int,
        default=8 << 20,
        metavar="N",
        help="dictionary footprint in bytes (default 8 MiB)",
    )
    parser.add_argument(
        "--predicates",
        type=int,
        default=500,
        metavar="K",
        help="IN-list length (default 500)",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=None,
        metavar="N",
        help="column rows to scan (default 400 x predicates)",
    )
    parser.add_argument(
        "--strategy",
        default=None,
        help=(
            "encode strategy: sequential, interleaved, gp, amac "
            "(default: calibration-driven policy)"
        ),
    )
    parser.add_argument(
        "--group-size", type=int, default=None, metavar="G",
        help="interleave group size (default: executor/policy choice)",
    )
    parser.add_argument(
        "--scan-batch", type=int, default=None, metavar="N",
        help="rows per column-scan batch (default: one batch)",
    )
    parser.add_argument(
        "--probe-batch", type=int, default=None, metavar="N",
        help="outer keys per index-join probe batch (default: one batch)",
    )
    parser.add_argument(
        "--task-buffer", type=int, default=None, metavar="N",
        help="bounded task-buffer capacity, in batches (default 1)",
    )
    parser.add_argument(
        "--match-buffer", type=int, default=None, metavar="N",
        help="bounded match-buffer capacity, in batches (default 1)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed for codes and predicate values (default 0)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print a repro.query/1 plan-run document instead of ASCII",
    )
    args = parser.parse_args(argv)

    from repro.columnstore.column import ENCODE_STRATEGIES

    if args.strategy is not None and args.strategy not in ENCODE_STRATEGIES:
        print(
            f"plan: unknown strategy {args.strategy!r}; expected one of "
            f"{', '.join(ENCODE_STRATEGIES)}",
            file=sys.stderr,
        )
        return 2
    for knob in ("predicates", "dict_bytes"):
        if getattr(args, knob) <= 0:
            print(f"plan: --{knob.replace('_', '-')} must be positive", file=sys.stderr)
            return 2

    import numpy as np

    from repro import api
    from repro.columnstore.column import EncodedColumn
    from repro.columnstore.dictionary import DeltaDictionary, MainDictionary
    from repro.config import HASWELL
    from repro.errors import ReproError
    from repro.sim.allocator import AddressSpaceAllocator

    try:
        allocator = AddressSpaceAllocator(page_size=HASWELL.page_size)
        dictionary = (
            MainDictionary.implicit(allocator, "dict", args.dict_bytes)
            if args.store == "main"
            else DeltaDictionary.implicit(allocator, "dict", args.dict_bytes)
        )
        n_rows = args.rows or 400 * args.predicates
        rng = np.random.RandomState(args.seed)
        codes = rng.randint(0, dictionary.n_values, n_rows)
        column = EncodedColumn(dictionary, codes, allocator, "col")
        predicates = rng.randint(0, dictionary.n_values, args.predicates).tolist()
        result = api.run_plan(
            column,
            predicates,
            strategy=args.strategy,
            group_size=args.group_size,
            scan_batch=args.scan_batch,
            probe_batch=args.probe_batch,
            task_buffer=args.task_buffer,
            match_buffer=args.match_buffer,
        )
    except ReproError as error:
        print(f"plan failed: {error}", file=sys.stderr)
        return 1
    if args.json:
        doc = {
            "schema": "repro.query/1",
            "kind": "plan_run",
            "store": args.store,
            "dict_bytes": args.dict_bytes,
            "n_predicates": args.predicates,
            "n_rows": n_rows,
            "seed": args.seed,
            "strategy": result.strategy,
            "group_size": result.group_size,
            "n_matches": result.n_matches,
            "total_cycles": result.total_cycles,
            "operators": [op.as_dict() for op in result.operators],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"{args.store} store, {args.dict_bytes:,} B dictionary, "
            f"{args.predicates:,} predicates over {n_rows:,} rows"
        )
        print(result.render())
    return 0


def _trace_main(argv: list[str]) -> int:
    from repro.analysis.tracing import (
        TRACE_DEFAULT_LOOKUPS,
        TRACE_DEFAULT_SIZE,
        trace_experiment,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description=(
            "Run a span-traced slice of an experiment's lookup kernel and "
            "write Chrome-trace, run-summary, and JSONL artifacts."
        ),
    )
    parser.add_argument("experiment", help="experiment name (see 'list')")
    parser.add_argument(
        "--out", required=True, metavar="DIR", help="output directory for artifacts"
    )
    parser.add_argument(
        "--lookups",
        type=int,
        default=TRACE_DEFAULT_LOOKUPS,
        help=f"lookups per executor (default {TRACE_DEFAULT_LOOKUPS})",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=TRACE_DEFAULT_SIZE,
        help=f"table size in bytes (default {TRACE_DEFAULT_SIZE})",
    )
    _add_perf_options(parser)
    args = parser.parse_args(argv)
    _configure_perf(args)

    if args.experiment not in available_experiments():
        return _unknown([args.experiment])
    from repro.errors import ReproError

    try:
        paths = trace_experiment(
            args.experiment, args.out, n_lookups=args.lookups, size_bytes=args.size
        )
    except ReproError as error:
        print(f"trace failed: {error}", file=sys.stderr)
        return 1
    for kind, path in paths.items():
        print(f"{kind}: {path}")
    return 0


def _profile_main(argv: list[str]) -> int:
    """Run one representative sweep point of an experiment under cProfile."""
    from repro.perf import profile_call

    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description=(
            "Run one sweep point of an experiment under cProfile and print "
            "the hottest functions — the workflow that keeps the "
            "simulator's inner loops honest."
        ),
    )
    parser.add_argument("experiment", help="experiment name (see 'list')")
    parser.add_argument(
        "--top",
        type=int,
        default=20,
        metavar="N",
        help="functions to print, by cumulative time (default 20)",
    )
    args = parser.parse_args(argv)

    if args.experiment not in available_experiments():
        return _unknown([args.experiment])

    from repro.analysis.experiments import (
        lookups_per_point,
        measure_binary_search,
        measure_query,
        size_grid,
    )
    from repro.errors import ReproError
    from repro.interleaving.compiled import (
        compiled_stats,
        compiled_timings,
        reset_compiled_stats,
    )

    n = min(lookups_per_point(), 400)
    query_experiments = {"fig1", "fig8", "table1", "table2"}
    if args.experiment == "table5":
        print(
            "profile: table5 is a static LoC table — nothing to simulate",
            file=sys.stderr,
        )
        return 2
    if args.experiment in query_experiments:
        point = lambda: measure_query(  # noqa: E731
            size_grid()[-1], "main", "interleaved", n_predicates=n
        )
        label = (
            f"measure_query({size_grid()[-1]} B, main, interleaved, "
            f"n={n})"
        )
    else:
        size = 256 << 20 if args.experiment == "fig7" else size_grid()[-1]
        element = "string" if args.experiment == "fig3b" else "int"
        point = lambda: measure_binary_search(  # noqa: E731
            size, "CORO", element=element, n_lookups=n
        )
        label = (
            f"measure_binary_search({size} B, CORO, {element}, "
            f"n={n})"
        )

    # Compilable runs replay staged schedules; the staging cost (a
    # one-time compile) is reported separately from the replay cost so
    # the profile is not misread as "replay is slow", the schedules the
    # memo keeps for later points are listed, and runs that took their
    # generators instead are counted by reason.
    reset_compiled_stats()
    try:
        _result, report = profile_call(point, top=args.top)
    except ReproError as error:
        print(f"profile failed: {error}", file=sys.stderr)
        return 1
    print(f"profiled point: {label}")
    print(report, end="")
    timings = compiled_timings()
    if timings["schedule_compile_s"] or timings["replay_s"]:
        print(
            f"staged schedules: schedule_compile_s="
            f"{timings['schedule_compile_s']:.4f} "
            f"replay_s={timings['replay_s']:.4f}"
        )
    stats = compiled_stats()
    print(
        f"schedule memo: schedules={stats['memo_schedules']} "
        f"rows={stats['memo_rows']}"
    )
    if stats["fallbacks"]:
        reasons = " ".join(
            f"{reason}={count}"
            for reason, count in sorted(stats["fallbacks_by_reason"].items())
        )
        print(f"generator fallbacks: {stats['fallbacks']} ({reasons})")
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "list":
        return _list_main(argv[1:])
    if argv and argv[0] == "trace":
        return _trace_main(argv[1:])
    if argv and argv[0] == "serve":
        return _serve_main(argv[1:])
    if argv and argv[0] == "explain":
        return _explain_main(argv[1:])
    if argv and argv[0] == "plan":
        return _plan_main(argv[1:])
    if argv and argv[0] == "profile":
        return _profile_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduce tables and figures from 'Interleaving with "
            "Coroutines' (VLDB 2017) on the simulated memory hierarchy."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment names, 'list' to enumerate them, 'trace' "
        "(see 'python -m repro trace --help'), 'serve' "
        "(see 'python -m repro serve --help'), 'explain' "
        "(see 'python -m repro explain --help'), 'plan' "
        "(see 'python -m repro plan --help'), or 'profile' "
        "(see 'python -m repro profile --help')",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print each experiment's data document as JSON instead of ASCII",
    )
    _add_perf_options(parser)
    args = parser.parse_args(argv)

    if args.experiments == ["list"]:  # pragma: no cover - intercepted above
        return _list_main([])

    unknown = [n for n in args.experiments if n not in available_experiments()]
    if unknown:
        return _unknown(unknown)

    _configure_perf(args)

    from repro.errors import ReproError

    for name in args.experiments:
        try:
            doc = run_experiment_data(name)
        except ReproError as error:
            print(f"{name} failed: {error}", file=sys.stderr)
            return 1
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            print(render_experiment_data(doc))
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

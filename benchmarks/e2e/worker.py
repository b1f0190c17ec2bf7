"""One benchmark repeat: a fresh process that runs one workload's verbs.

``run.py`` spawns it, one worker alive at a time::

    python3 benchmarks/e2e/worker.py --workload NAME --seed N --cache-dir DIR
        [--trace] [--setup-only]

The worker gets ready the way a CLI user's process does (``import
repro``, ``from repro import api``, a ``ResultCache`` on a fresh
directory), then calls the facade with ``jobs=1`` on that cache, the
way a user on a cold cache does. It prints one JSON object as its last
line of standard output: the monotonic clock reading when it became
ready (``run.py`` subtracts its spawn time), each call's host wall time
and document digest, and with ``--trace`` the per-layer metrics of
``trace.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

#: ``benchmarks/``: holds ``check_bench_schema.py`` and this package.
BENCH_DIR = Path(__file__).resolve().parents[1]

_SERVE_SCENARIOS = (
    "mixed",
    "chaos",
    "burst",
    "closed",
    "plans",
    "controller-quick",
    "phase-shift",
    "planet",
)

#: Workload -> the facade calls one repeat makes, in order.
WORKLOADS = {
    "sweep-fig3a": (("experiment", "fig3a"),),
    "sweep-fig7": (("experiment", "fig7"),),
    "query-fig8": (
        ("experiment", "fig8"),
        ("experiment", "table1"),
        ("experiment", "table2"),
    ),
    "serve-mix": tuple(("serve", name) for name in _SERVE_SCENARIOS),
}

#: Workloads whose inputs follow ``--seed``. The experiment facade takes
#: no seed, so the sweeps always produce the paper's seed-0 documents.
SEEDED = frozenset({"serve-mix"})


def input_seed(workload: str, seed: int) -> int:
    """The seed a workload's documents are generated from."""
    return seed if workload in SEEDED else 0


def digest(doc: dict) -> str:
    """sha256 of the document's canonical JSON."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _ops(verb: str, doc: dict, lookups: int) -> int:
    """Simulated lookups (or serving arrivals) behind one document."""
    if verb == "serve":
        return sum(point["arrivals"] for point in doc["points"])
    if doc["kind"] == "table":
        return (len(doc["headers"]) - 1) * lookups
    ops = len(doc["x"]) * len(doc["series"]) * lookups
    if doc["experiment"] == "fig7":
        # Calibration profiles Baseline plus each footer technique at G=1.
        ops += (len(doc["footer"]["rows"]) + 1) * lookups
    return ops


def _schema_errors(doc: dict) -> list[str]:
    """Errors from the repository's validator for this document's schema."""
    import check_bench_schema as schema

    checks = {
        schema.SERVICE_SCHEMA: schema.check_service_document,
        schema.CHAOS_SCHEMA: lambda d: schema.check_service_document(d, chaos=True),
        schema.CLUSTER_SCHEMA: schema.check_cluster_document,
        schema.CONTROL_SCHEMA: schema.check_control_document,
    }
    check = checks.get(doc.get("schema"))
    return check(doc) if check is not None else []


def _layer_report(recorder, cache, calls: list[dict], wall_s: float) -> dict:
    """Per-layer metrics of the traced repeat (all but ``trace.overhead``)."""
    from e2e import trace
    from repro.interleaving import compiled_stats, compiled_timings

    layers = trace.span_metrics(recorder)
    looked_up = cache.hits + cache.misses
    layers.update(
        {
            "perf.cache.hits": cache.hits,
            "perf.cache.misses": cache.misses,
            "perf.cache.stores": cache.stores,
            "perf.cache.hit_ratio": cache.hits / looked_up if looked_up else 0.0,
        }
    )
    stats, timings = compiled_stats(), compiled_timings()
    layers.update(
        {
            "interleaving.compiled.replays": stats["replays"],
            "interleaving.compiled.schedules_staged": stats["compiled_schedules"],
            "interleaving.compiled.schedule_cache_hits": stats["schedule_cache_hits"],
            "interleaving.compiled.fallbacks": stats["fallbacks"],
            "interleaving.compiled.schedule_compile_s": timings["schedule_compile_s"],
            "interleaving.compiled.replay_s": timings["replay_s"],
            "service.requests": sum(call.get("requests", 0) for call in calls),
            "service.batches": sum(call.get("batches", 0) for call in calls),
        }
    )
    under_verbs = recorder.self_times(root="api.verb")
    verb_s = sum(recorder.durations("api.verb"))
    layers["trace.unattributed_share"] = (
        under_verbs.get("api.verb", (0.0, 0))[0] / verb_s if verb_s else 0.0
    )
    return {
        "metrics": layers,
        "attributed_s": sum(self_s for self_s, _ in under_verbs.values()),
        "traced_wall_s": wall_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import repro  # noqa: F401  (set-up time is what this import costs)
    from repro import api
    from repro.perf import ResultCache

    recorder = None
    if args.trace:
        from e2e import trace

        recorder = trace.SpanRecorder()
        _undo, missing = trace.install(recorder)
    cache = ResultCache(args.cache_dir)
    report: dict = {"ready": time.monotonic()}

    if args.setup_only:
        import numpy

        from repro.analysis.experiments import bench_scale
        from repro.perf import resolve_jobs

        report.update(scale=bench_scale(), jobs=resolve_jobs(None), numpy=numpy.__version__)
        print(json.dumps(report))
        return 0

    from repro.analysis.experiments import lookups_per_point
    from repro.interleaving import reset_compiled_stats

    reset_compiled_stats()
    seed = input_seed(args.workload, args.seed)
    calls = []
    for verb, name in WORKLOADS[args.workload]:
        call: dict = {"verb": name}
        started = time.perf_counter()
        try:
            if verb == "serve":
                doc = api.serve(name, seed=seed, jobs=1, cache=cache).doc
            else:
                doc = api.run_experiment(name, jobs=1, cache=cache).doc
        except Exception:
            call["wall_s"] = time.perf_counter() - started
            call["error"] = traceback.format_exc()
            calls.append(call)
            continue
        call["wall_s"] = time.perf_counter() - started
        call["digest"] = digest(doc)
        call["ops"] = _ops(verb, doc, lookups_per_point())
        if verb == "serve":
            call["requests"] = call["ops"]
            call["batches"] = sum(point["batches"] for point in doc["points"])
        call["schema_errors"] = _schema_errors(doc)
        calls.append(call)

    wall_s = sum(call["wall_s"] for call in calls)
    report.update(
        calls=calls,
        wall_s=wall_s,
        ops=sum(call.get("ops", 0) for call in calls),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        cache={"hits": cache.hits, "misses": cache.misses, "stores": cache.stores},
    )
    if recorder is not None:
        report["layers"] = _layer_report(recorder, cache, calls, wall_s)
        report["layers"]["unwrapped"] = missing
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    # Import this package as ``e2e`` from ``benchmarks/``, so ``trace.py``
    # never shadows the standard library's ``trace`` module.
    sys.path[0] = str(BENCH_DIR)
    sys.exit(main())

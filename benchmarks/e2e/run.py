#!/usr/bin/env python3
"""End-to-end host-time benchmark of the ``repro`` facade.

Runs the public verbs (``api.run_experiment``, ``api.serve``) the way a
CLI user on a cold result cache does, and reports what that user waits
for in host time. The load is a closed loop with one client and no think
time: each repeat is a fresh worker process (``worker.py``), only one is
alive at a time, and workloads run one after another. Workers run with
``REPRO_BENCH_SCALE=quick`` pinned and with ``REPRO_JOBS``,
``REPRO_NO_CACHE`` and ``REPRO_CACHE_DIR`` removed from their
environment. README.md describes the metrics and the workloads::

    python3 benchmarks/e2e/run.py                      # every workload, 3 repeats
    python3 benchmarks/e2e/run.py --workload serve-mix --seed 4 --seconds 24
    python3 benchmarks/e2e/run.py --trace              # plus one traced repeat each
    python3 benchmarks/e2e/run.py --compare BASE.json [NEW.json]

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace`` its per-layer metrics. The whole
``repro.e2e/1`` document goes to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK_DIR = ROOT / ".bench_build" / "e2e"
DIGESTS = HERE / "digests.json"
SCHEMA = "repro.e2e/1"

#: Import-only worker starts per workload, besides each repeat's own set-up.
SETUP_STARTS = 5
WORKER_TIMEOUT_S = 150
DEFAULT_REPEATS = 3
#: Traced and measured verb wall time may differ by this share.
ATTRIBUTION_TOLERANCE = 0.01

#: (name, unit, better) of every end-to-end metric the harness computes.
E2E_METRICS = (
    ("wall_s", "s", "lower"),
    ("sim_ops_per_s", "ops/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("error_rate", "fraction", "lower"),
)

_SCRUBBED_ENV = ("REPRO_JOBS", "REPRO_NO_CACHE", "REPRO_CACHE_DIR")


class BenchmarkError(Exception):
    """A worker process failed to produce its report."""


def worker_env(environ) -> dict:
    """The environment a worker runs in, derived from ``environ``."""
    env = {key: value for key, value in environ.items() if key not in _SCRUBBED_ENV}
    env["REPRO_BENCH_SCALE"] = "quick"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(workload: str, seed: int, *, trace=False, setup_only=False, environ=None) -> dict:
    """Run one worker to completion on a fresh cache; return its report.

    ``setup_s`` in the report runs from just before the process is
    created until the worker's result cache is ready.
    """
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--cache-dir", cache_dir,
    ]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    env = worker_env(os.environ if environ is None else environ)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command,
            env=env,
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload} worker ran over {WORKER_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    elapsed = time.monotonic() - started
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{workload} worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    report = json.loads(lines[-1])
    report["setup_s"] = report.pop("ready") - started
    report["elapsed_s"] = elapsed
    return report


def _stats(values: list, unit: str, better: str) -> dict:
    return {
        "unit": unit,
        "better": better,
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "n": len(values),
        "values": values,
    }


def failures(runs: list[dict], golden: dict | None) -> list[str]:
    """One message per failed call over ``runs``.

    A call fails if it raised or if its document digest differs from the
    golden one. Without a golden digest it fails if the repository's
    schema validator rejects its document or if the runs disagree on
    that verb's digest.
    """
    failed: dict[tuple[int, str], str] = {}
    digests: dict[str, set] = {}
    for index, run in enumerate(runs):
        for call in run["calls"]:
            key = (index, call["verb"])
            if "error" in call:
                failed[key] = f"raised:\n{call['error']}"
            elif golden is not None:
                expected = golden.get(call["verb"])
                if call["digest"] != expected:
                    failed[key] = f"digest {call['digest']} differs from golden {expected}"
            else:
                digests.setdefault(call["verb"], set()).add(call["digest"])
                if call["schema_errors"]:
                    failed[key] = "schema: " + "; ".join(call["schema_errors"][:5])
    for index, run in enumerate(runs):
        for call in run["calls"]:
            if len(digests.get(call["verb"], ())) > 1:
                failed.setdefault((index, call["verb"]), "repeats disagree on the digest")
    return [f"run {index} {verb}: {why}" for (index, verb), why in sorted(failed.items())]


def summarize(
    workload: str,
    seed: int,
    probes: list[dict],
    runs: list[dict],
    traced: dict | None,
    golden: dict | None,
) -> dict:
    """Fold one workload's worker reports into its ``repro.e2e/1`` entry."""
    from e2e.worker import input_seed

    every_run = runs + ([traced] if traced is not None else [])
    failed = failures(every_run, golden)
    attempted = sum(len(run["calls"]) for run in every_run)
    walls = [run["wall_s"] for run in runs]
    values = {
        "wall_s": walls,
        "sim_ops_per_s": [run["ops"] / run["wall_s"] for run in runs],
        "setup_s": [run["setup_s"] for run in runs + probes],
        "peak_rss_mb": [run["peak_rss_mb"] for run in runs],
        "error_rate": [len(failed) / attempted],
    }
    errors = [
        f"worker saw scale={probe['scale']!r} jobs={probe['jobs']}"
        for probe in probes
        if (probe["scale"], probe["jobs"]) != ("quick", 1)
    ]
    result = {
        "seed": seed,
        "input_seed": input_seed(workload, seed),
        "verbs": [call["verb"] for call in runs[0]["calls"]],
        "repeats": len(runs),
        "attempted": attempted,
        "failed": len(failed),
        "failures": failed,
        "errors": errors,
        "golden": golden is not None,
        "digests": {call["verb"]: call.get("digest") for call in runs[0]["calls"]},
        "cache": runs[0]["cache"],
        "numpy": probes[0]["numpy"],
        "metrics": {
            name: _stats(values[name], unit, better) for name, unit, better in E2E_METRICS
        },
    }
    if traced is not None:
        layers = traced["layers"]
        layers["metrics"]["trace.overhead"] = traced["wall_s"] / statistics.median(walls) - 1
        gap = abs(layers["attributed_s"] - layers["traced_wall_s"])
        if gap > ATTRIBUTION_TOLERANCE * layers["traced_wall_s"]:
            errors.append(
                f"layer self times sum to {layers['attributed_s']:.4f} s, "
                f"traced verb wall time is {layers['traced_wall_s']:.4f} s"
            )
        result["layers"] = layers
    return result


def run_workload(
    workload: str,
    seed: int,
    *,
    repeats: int | None,
    seconds: float | None,
    trace: bool,
    golden: dict | None,
) -> dict:
    """Set-up probes, then ``repeats`` repeats or as many as fill ``seconds``.

    With a time budget the first repeat's duration sets the count:
    ``seconds`` over it, rounded to the nearest whole number and at least
    one, so a run lasts about ``seconds``. ``trace`` adds one traced
    repeat.
    """
    probes = [spawn(workload, seed, setup_only=True) for _ in range(SETUP_STARTS)]
    runs = [spawn(workload, seed)]
    if repeats is None:
        repeats = max(1, round(seconds / runs[0]["elapsed_s"]))
    while len(runs) < repeats:
        runs.append(spawn(workload, seed))
    traced = spawn(workload, seed, trace=True) if trace else None
    return summarize(workload, seed, probes, runs, traced, golden)


# ----------------------------------------------------------------------
# Comparing two documents
# ----------------------------------------------------------------------


def quartile_spread(values: list) -> float:
    """Distance between the first and third quartile; 0 for one value.

    For three values it is their min-max range.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base: dict, new: dict, better: str, bound: float) -> tuple[float, str]:
    """``(change, verdict)`` of one metric; ``change > 0`` means worse.

    A change beats the bound only when the medians also differ by more
    than the base's own quartile spread; a spread wider than the bound
    leaves a smaller change unresolved.
    """
    worse_by = new["median"] - base["median"]
    if better == "higher":
        worse_by = -worse_by
    if base["median"] == 0:
        return worse_by, "worse" if worse_by > 0 else "better" if worse_by < 0 else "same"
    change = worse_by / abs(base["median"])
    spread = quartile_spread(base["values"]) / abs(base["median"])
    if abs(change) > max(bound, spread):
        return change, "worse" if change > 0 else "better"
    if spread > bound:
        return change, "unresolved"
    return change, "same"


def compare(base: dict, new: dict, config: dict) -> list[dict]:
    """Per workload x end-to-end metric verdicts of ``new`` against ``base``."""
    bounds = [(m["name"], m["better"], m["bound"]) for m in config["end_to_end"]]
    bounds.append(("error_rate", "lower", 0.0))
    rows = []
    for workload, result in new["workloads"].items():
        before = base["workloads"].get(workload)
        if before is None:
            continue
        for name, better, bound in bounds:
            if name not in before["metrics"] or name not in result["metrics"]:
                continue
            old, now = before["metrics"][name], result["metrics"][name]
            change, label = verdict(old, now, better, bound)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "base": old["median"],
                    "new": now["median"],
                    "change": change,
                    "bound": bound,
                    "verdict": label,
                }
            )
    return rows


def print_comparison(rows: list[dict]) -> None:
    print(f"{'workload':<13} {'metric':<14} {'base':>12} {'new':>12} {'worse by':>9} {'bound':>6}  verdict")
    for row in rows:
        print(
            f"{row['workload']:<13} {row['metric']:<14} {row['base']:>12.5g} "
            f"{row['new']:>12.5g} {row['change']:>+8.1%} {row['bound']:>6.0%}  {row['verdict']}"
        )


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def result_line(doc: dict, metrics: list[dict], *, traced: bool) -> dict:
    """The one-line JSON result: the named metrics of every workload."""
    single = len(doc["workloads"]) == 1
    values = {}
    for workload, result in doc["workloads"].items():
        for metric in metrics:
            name = metric["name"]
            if traced:
                value = result["layers"]["metrics"][name]
            else:
                value = result["metrics"][name]["median"]
            values[name if single else f"{workload}.{name}"] = {
                "value": value,
                "unit": metric["unit"],
            }
    results = doc["workloads"].values()
    return {
        "correct": all(not r["failed"] and not r["errors"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": values,
    }


def print_workload(workload: str, result: dict) -> None:
    print(
        f"{workload}: seed {result['input_seed']}, {result['repeats']} repeat(s), "
        f"{result['attempted']} calls, {result['failed']} failed"
    )
    for name, stats in result["metrics"].items():
        print(
            f"  {name:<14} {stats['median']:>14.6g} {stats['unit']:<9}"
            f" min {stats['min']:.6g}  max {stats['max']:.6g}  n={stats['n']}"
        )
    layers = result.get("layers")
    if layers is not None:
        metrics = layers["metrics"]
        busiest = sorted(
            (name for name in metrics if name.endswith(".self_s") and metrics[name] > 0),
            key=lambda name: -metrics[name],
        )
        print(f"  traced: overhead {metrics['trace.overhead']:+.1%}, self time by layer:")
        for name in busiest:
            span = name[: -len(".self_s")]
            print(f"    {span:<32} {metrics[name]:>9.4f} s  {metrics[span + '.calls']:>7} calls")
    for message in result["failures"] + result["errors"]:
        print(f"  FAIL {message}", file=sys.stderr)


def record_digests(doc: dict) -> None:
    """Store this run's document digests as the golden ones for its seeds."""
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for workload, result in doc["workloads"].items():
        if result["failed"]:
            raise BenchmarkError(f"{workload} failed; not recording its digests")
        digests.setdefault(workload, {})[str(result["input_seed"])] = result["digests"]
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    from e2e.worker import WORKLOADS, input_seed

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, help=f"repeats per workload (default {DEFAULT_REPEATS})")
    parser.add_argument("--seconds", type=float, help="run as many repeats as fit in this many seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", type=Path, help="where to write the repro.e2e/1 document")
    parser.add_argument("--compare", nargs="+", type=Path, metavar="JSON", help="BASE.json [NEW.json]")
    parser.add_argument("--record-digests", action="store_true", help="store this run's digests as golden")
    args = parser.parse_args(argv)
    if args.compare and len(args.compare) > 2:
        parser.error("--compare takes BASE.json and at most one NEW.json")
    if (args.repeats is not None and args.repeats < 1) or (
        args.seconds is not None and args.seconds <= 0
    ):
        parser.error("--repeats and --seconds must be positive")

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare and len(args.compare) == 2:
        base, new = (json.loads(path.read_text()) for path in args.compare)
        rows = compare(base, new, config)
        print_comparison(rows)
        return 1 if any(row["verdict"] == "worse" for row in rows) else 0

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    repeats = args.repeats
    if repeats is None and args.seconds is None:
        repeats = DEFAULT_REPEATS
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    results = {}
    try:
        for workload in args.workload or list(WORKLOADS):
            golden = None
            if not args.record_digests:
                golden = digests.get(workload, {}).get(str(input_seed(workload, args.seed)))
            results[workload] = run_workload(
                workload,
                args.seed,
                repeats=repeats,
                seconds=args.seconds,
                trace=bool(args.trace),
                golden=golden,
            )
            print_workload(workload, results[workload])
        doc = {
            "schema": SCHEMA,
            "host": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": next(iter(results.values()))["numpy"],
                "platform": platform.platform(),
                "repeats": repeats,
                "seconds": args.seconds,
                "seed": args.seed,
                "trace": bool(args.trace),
            },
            "workloads": results,
        }
        if args.record_digests:
            record_digests(doc)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = args.out or WORK_DIR / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    worse = False
    if args.compare:
        rows = compare(json.loads(args.compare[0].read_text()), doc, config)
        print_comparison(rows)
        worse = any(row["verdict"] == "worse" for row in rows)
    metrics = config["per_layer"] if args.trace else config["end_to_end"]
    line = result_line(doc, metrics, traced=bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] and not worse else 1


if __name__ == "__main__":
    # Import this package as ``e2e`` from ``benchmarks/``, so ``trace.py``
    # never shadows the standard library's ``trace`` module.
    sys.path[0] = str(HERE.parent)
    sys.exit(main())

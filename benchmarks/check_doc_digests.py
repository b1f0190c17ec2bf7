#!/usr/bin/env python3
"""Check the CLI documents the end-to-end harness does not cover.

``benchmarks/e2e`` checks the documents of fig3a, fig7, fig8, table1,
table2 and eight serving scenarios against golden digests. This script
covers the rest of what the CLI emits at quick scale and seed 0: the
fig1, fig3b, fig5 and fig6 experiments, ``serve`` of steady, quick,
chaos-quick, planet-quick, cluster-steady and every file under
``scenarios/``, and the ``explain`` and ``repro.slo/1`` documents of
quick, chaos-quick, planet-quick and cluster-steady. Each document is
hashed the way the harness hashes it (sha256 of its canonical JSON:
``sort_keys``, no whitespace) and compared with
``tests/data/document_digests.json``. The ``plan:`` documents are the
``repro.query/1`` output of ``python -m repro plan --json`` for the Main
and Delta stores under the ``sequential`` and ``interleaved`` encode
strategies, plus one Delta ``interleaved`` run in 24-key probe batches
(21 small locate batches with fills still in flight between them)::

    PYTHONPATH=src python benchmarks/check_doc_digests.py             # check all
    PYTHONPATH=src python benchmarks/check_doc_digests.py fig1 serve:quick slo:quick
    PYTHONPATH=src python benchmarks/check_doc_digests.py plan:delta-interleaved
    PYTHONPATH=src python benchmarks/check_doc_digests.py --record    # rewrite

The goldens are quick-scale documents, so the script pins
``REPRO_BENCH_SCALE=quick``. It runs serially on no result cache. Exit
status: 0 when every checked document matches, 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "data" / "document_digests.json"

EXPERIMENTS = ("fig1", "fig3b", "fig5", "fig6")
SCENARIOS = ("steady", "quick", "chaos-quick", "planet-quick", "cluster-steady")
#: Scenarios whose ``explain`` and ``repro.slo/1`` documents are checked:
#: one of each serving document shape (plain, chaos, cluster with and
#: without faults).
SHAPES = ("quick", "chaos-quick", "planet-quick", "cluster-steady")
#: ``plan:`` documents -> the ``python -m repro plan`` arguments behind them.
PLANS = {
    "main-sequential": ("--store", "main", "--strategy", "sequential"),
    "main-interleaved": ("--store", "main", "--strategy", "interleaved"),
    "delta-sequential": ("--store", "delta", "--strategy", "sequential"),
    "delta-interleaved": ("--store", "delta", "--strategy", "interleaved"),
    "delta-interleaved-probe24": (
        "--store", "delta", "--strategy", "interleaved", "--probe-batch", "24",
    ),
}


def documents() -> list[str]:
    """Every checked document, as ``<verb>:<target>``.

    The verbs are ``experiment``, ``serve``, ``explain``, ``slo`` and
    ``plan``.
    """
    files = sorted(
        f"file:scenarios/{path.name}"
        for path in (ROOT / "scenarios").iterdir()
        if path.suffix in (".yaml", ".yml", ".json")
    )
    return [
        *(f"experiment:{name}" for name in EXPERIMENTS),
        *(f"serve:{spec}" for spec in (*SCENARIOS, *files)),
        *(f"explain:{name}" for name in SHAPES),
        *(f"slo:{name}" for name in SHAPES),
        *(f"plan:{name}" for name in PLANS),
    ]


def digest(doc: dict) -> str:
    """sha256 of the document's canonical JSON."""
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def produce(document: str) -> dict:
    """Run the facade call behind ``document`` and return its data document."""
    from repro import api

    verb, _, target = document.partition(":")
    if verb == "experiment":
        return api.run_experiment(target, jobs=1).doc
    if verb == "explain":
        return api.explain(target, seed=0).doc
    if verb == "slo":
        from repro.service.loadgen import run_slo_scenario

        return run_slo_scenario(target, seed=0)
    if verb == "plan":
        import contextlib
        import io

        from repro.__main__ import main as cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli(["plan", *PLANS[target], "--json"])
        if status:
            raise RuntimeError(f"{document}: repro plan exited {status}")
        return json.loads(out.getvalue())
    return api.serve(target, seed=0, jobs=1).doc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "documents",
        nargs="*",
        help=(
            "subset to check: experiment names, serve:/explain:/slo: "
            "followed by a scenario, or plan: followed by one of "
            f"{', '.join(PLANS)} (default: all)"
        ),
    )
    parser.add_argument(
        "--record", action="store_true", help="rewrite the golden digests"
    )
    args = parser.parse_args(argv)

    os.environ["REPRO_BENCH_SCALE"] = "quick"
    os.chdir(ROOT)  # scenario file references are relative to the root
    known = documents()
    wanted = [
        name if ":" in name else f"experiment:{name}" for name in args.documents
    ] or known
    unknown = sorted(set(wanted) - set(known))
    if unknown:
        print(f"unknown documents: {', '.join(unknown)}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}

    failed = 0
    for name in wanted:
        started = time.perf_counter()
        got = digest(produce(name))
        seconds = time.perf_counter() - started
        expected = golden.get(name)
        if args.record:
            golden[name] = got
            verdict = "recorded"
        elif got == expected:
            verdict = "ok"
        else:
            failed += 1
            verdict = f"MISMATCH (golden {expected})"
        print(f"{name:45s} {got[:16]}  {seconds:6.1f}s  {verdict}", flush=True)
    if args.record:
        GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"{len(wanted) - failed}/{len(wanted)} documents match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

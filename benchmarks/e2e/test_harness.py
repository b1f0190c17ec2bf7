"""Tests of the end-to-end benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py``.
``benchmarks/conftest.py`` configures ``repro.perf`` process-wide, so
every facade call here passes its own ``jobs`` and ``cache``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from e2e import run, trace
from e2e.worker import digest
from repro import api
from repro.perf import ResultCache


def _config() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_nested_self_times_sum_to_root_wall():
    recorder = trace.SpanRecorder()
    leaf = recorder.wrap("leaf", lambda: time.sleep(0.002))

    def middle():
        time.sleep(0.001)
        leaf()
        leaf()

    middle = recorder.wrap("middle", middle)

    def root():
        middle()
        time.sleep(0.001)
        leaf()

    recorder.wrap("root", root)()
    leaf()  # a second tree, outside "root"

    under_root = recorder.self_times(root="root")
    assert {name: calls for name, (_, calls) in under_root.items()} == {
        "root": 1,
        "middle": 1,
        "leaf": 3,
    }
    assert all(self_s > 0 for self_s, _ in under_root.values())
    (root_wall,) = recorder.durations("root")
    assert sum(self_s for self_s, _ in under_root.values()) == pytest.approx(root_wall, rel=1e-9)
    assert recorder.self_times()["leaf"][1] == 4


def test_install_keeps_names_cache_keys_and_restores(tmp_path):
    import repro.analysis.experiments as experiments
    from repro.columnstore.dictionary import MainDictionary
    from repro.interleaving import get_executor

    original = experiments.make_table
    cache = ResultCache(tmp_path, fingerprint="fixed")
    key = cache.key(original, (1,), {"size": 2})
    undo, missing = trace.install(trace.SpanRecorder())
    try:
        assert missing == []
        wrapped = experiments.make_table
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert (wrapped.__module__, wrapped.__qualname__) == (
            original.__module__,
            original.__qualname__,
        )
        assert cache.key(wrapped, (1,), {"size": 2}) == key
        assert isinstance(vars(MainDictionary)["implicit"], classmethod)
        assert "run" in vars(get_executor("CORO"))
    finally:
        trace.uninstall(undo)
    assert experiments.make_table is original
    assert "run" not in vars(get_executor("CORO"))


def test_traced_serve_document_is_digest_identical(tmp_path):
    plain = api.serve("quick", seed=0, jobs=1, cache=ResultCache(tmp_path / "plain"))
    recorder = trace.SpanRecorder()
    undo, _ = trace.install(recorder)
    try:
        traced = api.serve("quick", seed=0, jobs=1, cache=ResultCache(tmp_path / "traced"))
    finally:
        trace.uninstall(undo)
    assert digest(traced.doc) == digest(plain.doc)
    metrics = trace.span_metrics(recorder)
    assert metrics["api.verb.calls"] == 1
    assert metrics["service.serve.calls"] == len(plain.points)
    assert metrics["interleaving.live.calls"] > 0


def _result(wall_s: float, spread: float = 0.01) -> dict:
    stats = {"median": wall_s, "values": [wall_s * (1 - spread), wall_s, wall_s * (1 + spread)]}
    error_rate = {"median": 0.0, "values": [0.0]}
    return {"workloads": {"sweep-fig7": {"metrics": {"wall_s": stats, "error_rate": error_rate}}}}


@pytest.mark.parametrize(("excess", "verdict", "status"), [(0.05, "worse", 1), (None, "same", 0)])
def test_compare_flags_a_wall_time_regression(tmp_path, excess, verdict, status):
    # A regression 5 points past the wall_s bound fails; +3 % passes.
    (bound,) = (m["bound"] for m in _config()["end_to_end"] if m["name"] == "wall_s")
    factor = 1.03 if excess is None else 1 + bound + excess
    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(_result(10.0)))
    new.write_text(json.dumps(_result(10.0 * factor)))
    rows = run.compare(_result(10.0), _result(10.0 * factor), _config())
    assert {row["metric"]: row["verdict"] for row in rows} == {
        "wall_s": verdict,
        "error_rate": "same",
    }
    assert run.main(["--compare", str(base), str(new)]) == status


def test_compare_leaves_changes_within_a_wide_spread_unresolved():
    change, verdict = run.verdict(
        {"median": 10.0, "values": [8.0, 10.0, 12.0]}, {"median": 11.5}, "lower", 0.1
    )
    assert change == pytest.approx(0.15) and verdict == "unresolved"


def test_failures_check_goldens_and_repeat_agreement():
    def report(*digests):
        return {
            "calls": [
                {"verb": verb, "digest": d, "schema_errors": []}
                for verb, d in zip(("a", "b"), digests)
            ]
        }

    runs = [report("x", "y"), report("x", "z")]
    assert run.failures(runs, {"a": "x", "b": "y"}) == [
        "run 1 b: digest z differs from golden y"
    ]
    assert [f.split(":")[0] for f in run.failures(runs, None)] == ["run 0 b", "run 1 b"]


def test_worker_ignores_ambient_perf_environment(tmp_path):
    environ = dict(
        os.environ,
        REPRO_JOBS="4",
        REPRO_BENCH_SCALE="full",
        REPRO_NO_CACHE="1",
        REPRO_CACHE_DIR=str(tmp_path),
    )
    env = run.worker_env(environ)
    assert env["REPRO_BENCH_SCALE"] == "quick"
    assert not {"REPRO_JOBS", "REPRO_NO_CACHE", "REPRO_CACHE_DIR"} & set(env)
    report = run.spawn("serve-mix", 0, setup_only=True, environ=environ)
    assert (report["scale"], report["jobs"]) == ("quick", 1)
    assert report["setup_s"] > 0


def test_benchmark_json_names_the_harness_metrics():
    config = _config()
    assert [
        (m["name"], m["unit"], m["better"]) for m in config["per_layer"]
    ] == trace.per_layer_metrics()
    e2e = {name: (unit, better) for name, unit, better in run.E2E_METRICS}
    for metric in config["end_to_end"]:
        assert e2e[metric["name"]] == (metric["unit"], metric["better"])

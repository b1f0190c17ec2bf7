"""Tests for the trace exporters: Chrome-trace schema, JSONL, artifacts."""

import json

from repro.obs.export import (
    CHROME_TRACE_SCHEMA,
    RUN_SUMMARY_SCHEMA,
    chrome_trace,
    run_summary,
    spans_jsonl,
    write_run_artifacts,
)
from repro.obs.spans import SpanRecorder


def sample_recorder() -> SpanRecorder:
    rec = SpanRecorder()
    rec.declare_track(0, "frame 0")
    rec.declare_track(1, "frame 1")
    rec.set_track(0)
    rec.span("resume", 0, 12, name="lookup 0")
    rec.span("stall", 2, 9, name="load L3", attrs={"level": "L3"})
    rec.instant("suspend", 12, name="lookup 0")
    rec.set_track(1)
    rec.span("resume", 12, 20, name="lookup 1")
    rec.counter("lfb_occupancy", 3, 2)
    rec.counter("lfb_occupancy", 9, 0)
    return rec


class TestChromeTrace:
    def trace(self):
        return chrome_trace({"CORO": sample_recorder()})

    def test_top_level_schema(self):
        doc = self.trace()
        assert doc["schema"] == CHROME_TRACE_SCHEMA
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["time_unit"] == "cycles"
        assert isinstance(doc["traceEvents"], list)
        json.dumps(doc)  # must be serialisable

    def test_metadata_names_processes_and_threads(self):
        events = self.trace()["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                "args": {"name": "CORO"}} in meta
        thread_names = {
            e["tid"]: e["args"]["name"]
            for e in meta
            if e["name"] == "thread_name"
        }
        assert thread_names == {0: "frame 0", 1: "frame 1"}

    def test_complete_events_carry_cycle_timestamps(self):
        events = self.trace()["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert all(
            {"name", "cat", "ts", "dur", "pid", "tid"} <= set(e) for e in complete
        )
        resume = [e for e in complete if e["cat"] == "resume"]
        assert [(e["ts"], e["dur"], e["tid"]) for e in resume] == [
            (0, 12, 0),
            (12, 8, 1),
        ]
        stall = next(e for e in complete if e["cat"] == "stall")
        assert stall["args"] == {"level": "L3"}

    def test_suspends_become_instants(self):
        events = self.trace()["traceEvents"]
        instants = [e for e in events if e["ph"] == "i"]
        assert [(e["name"], e["ts"], e["s"]) for e in instants] == [
            ("lookup 0", 12, "t")
        ]

    def test_counter_samples(self):
        events = self.trace()["traceEvents"]
        counters = [e for e in events if e["ph"] == "C"]
        assert [(e["ts"], e["args"]["value"]) for e in counters] == [(3, 2), (9, 0)]

    def test_one_pid_per_executor(self):
        doc = chrome_trace({"GP": sample_recorder(), "CORO": sample_recorder()})
        pids = {
            e["args"]["name"]: e["pid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert pids == {"GP": 0, "CORO": 1}


class TestJsonl:
    def test_one_line_per_span_and_sample(self):
        lines = [json.loads(line) for line in spans_jsonl({"CORO": sample_recorder()})]
        spans = [r for r in lines if "kind" in r]
        samples = [r for r in lines if "counter" in r]
        assert len(spans) == 4 and len(samples) == 2
        assert all(r["process"] == "CORO" for r in lines)


class TestRunSummaryAndArtifacts:
    def test_run_summary_shape(self):
        doc = run_summary("fig7", {"CORO": {"cycles": 10, "issue_width": 4}})
        assert doc["schema"] == RUN_SUMMARY_SCHEMA
        assert doc["experiment"] == "fig7"
        assert doc["executors"]["CORO"]["cycles"] == 10

    def test_write_run_artifacts(self, tmp_path):
        recorders = {"CORO": sample_recorder()}
        summary = run_summary("fig7", {"CORO": {"cycles": 20, "issue_width": 4}})
        paths = write_run_artifacts(tmp_path, "fig7", recorders, summary)
        assert set(paths) == {"trace", "summary", "events"}
        trace = json.loads(paths["trace"].read_text())
        assert trace["schema"] == CHROME_TRACE_SCHEMA
        assert json.loads(paths["summary"].read_text()) == summary
        lines = paths["events"].read_text().splitlines()
        assert len(lines) == 6 and all(json.loads(line) for line in lines)

    def test_traced_summary_same_at_any_job_count(self, tmp_path):
        from repro import perf
        from repro.analysis.tracing import trace_experiment

        summaries = []
        for jobs in (1, 2):
            with perf.overrides(jobs=jobs):
                paths = trace_experiment(
                    "fig7", tmp_path / str(jobs), n_lookups=8, size_bytes=1 << 20
                )
            summaries.append(json.loads(paths["summary"].read_text()))
        assert summaries[0] == summaries[1]
        # The untraced warm-up replays; the traced pass falls back.
        coro = summaries[0]["executors"]["CORO"]["metrics"]["interleaving"]["compiled"]
        assert coro == {
            "replays": 1,
            "compiled_fallbacks": 1,
            "fallbacks_by_reason": {"tracer": 1},
            "fallbacks_by_executor": {"CORO": 1},
        }

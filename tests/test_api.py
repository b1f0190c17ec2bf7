"""Tests for the ``repro.api`` facade, the package-root re-exports, the
deprecation shims, and the CLI's exit-code contract."""

import importlib.util
import json
import pathlib
import warnings

import pytest

import repro
from repro import api, scaled
from repro.__main__ import main
from repro.errors import ConfigurationError, PerfError, SchedulerError, WorkloadError
from repro.interleaving.executor import BulkLookup, get_executor
from repro.sim.allocator import AddressSpaceAllocator
from repro.sim.engine import ExecutionEngine
from repro.workloads.generators import lookup_values, make_table

ARCH = scaled(64)
ROOT = pathlib.Path(__file__).parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_bench_schema", ROOT / "benchmarks" / "check_bench_schema.py"
)
check_bench_schema = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_spec and check_bench_schema)


@pytest.fixture(scope="module")
def table():
    allocator = AddressSpaceAllocator(page_size=ARCH.page_size)
    return make_table(allocator, "api-test/dict", 1 << 20)


@pytest.fixture(scope="module")
def values(table):
    return lookup_values(300, table, seed=0)


class TestLookupBatch:
    def test_policy_pick_matches_forced_sequential_results(self, table, values):
        sequential = api.lookup_batch(
            table, values, technique="sequential", arch=ARCH
        )
        picked = api.lookup_batch(table, values, arch=ARCH)
        assert sequential.results == picked.results
        assert sequential.technique == "sequential"
        assert picked.technique in ("GP", "AMAC", "CORO")
        assert picked.cycles < sequential.cycles  # interleaving pays off
        assert picked.n_lookups == len(values)
        assert picked.cycles_per_lookup == picked.cycles / len(values)

    def test_forced_technique_and_group(self, table, values):
        result = api.lookup_batch(
            table, values, technique="CORO", group_size=4, arch=ARCH
        )
        assert result.technique == "CORO"
        assert result.group_size == 4

    def test_unknown_technique_propagates(self, table, values):
        with pytest.raises(WorkloadError, match="registered"):
            api.lookup_batch(table, values, technique="nope", arch=ARCH)


class TestInjectFaults:
    def test_slowdown_is_deterministic(self, table, values):
        first = api.inject_faults(
            table, values, faults="latency-spikes", arch=ARCH, seed=2
        )
        second = api.inject_faults(
            table, values, faults="latency-spikes", arch=ARCH, seed=2
        )
        assert first == second
        assert first.faults_by_kind == second.faults_by_kind
        assert first.slowdown > 1.0
        assert first.fault_events > 0

    def test_results_survive_the_chaos(self, table, values):
        clean = api.lookup_batch(table, values, technique="CORO", arch=ARCH)
        chaotic = api.inject_faults(table, values, faults="chaos", arch=ARCH)
        assert chaotic.results == clean.results

    def test_none_profile_is_the_baseline(self, table, values):
        report = api.inject_faults(table, values, faults="none", arch=ARCH)
        assert report.slowdown == 1.0
        assert report.fault_events == 0
        assert report.cycles == report.baseline_cycles

    def test_outages_charge_stall_cycles(self, table, values):
        report = api.inject_faults(table, values, faults="shard-outage", arch=ARCH)
        assert report.stall_cycles > 0
        assert report.cycles >= report.baseline_cycles + report.stall_cycles

    def test_bad_chunk_size_rejected(self, table, values):
        with pytest.raises(WorkloadError, match="chunk_size"):
            api.inject_faults(
                table, values, faults="none", chunk_size=0, arch=ARCH
            )


class TestServe:
    def test_serve_quick_is_typed_and_plain(self):
        result = api.serve("quick", seed=0)
        assert result.scenario == "quick"
        assert not result.chaos
        assert result.schema == "repro.service/1"
        point = result.point("CORO", 0.5)
        assert point["technique"] == "CORO"
        assert "serve quick" in result.render()

    def test_serve_with_faults_is_chaos(self):
        result = api.serve("quick", seed=0, faults="chaos-quick")
        assert result.chaos
        assert result.schema == "repro.chaos/1"
        assert "faults=chaos-quick" in result.render()

    def test_missing_point_raises(self):
        result = api.serve("quick", seed=0)
        with pytest.raises(WorkloadError, match="no point"):
            result.point("CORO", 99.0)

    def test_unknown_scenario_raises(self):
        with pytest.raises(WorkloadError, match="registered|quick"):
            api.serve("nope")


class TestRunExperiment:
    def test_unknown_experiment_raises(self):
        with pytest.raises(WorkloadError, match="available"):
            api.run_experiment("table99")

    def test_table5_runs_and_renders(self):
        result = api.run_experiment("table5")
        assert result.name == "table5"
        assert result.doc["experiment"] == "table5"
        assert result.doc["rows"]
        assert result.render().strip()


class TestFacadePerfBoundary:
    """``jobs``/``cache`` fail at the facade and override only when passed."""

    @pytest.mark.parametrize("cache", [False, True, "dir", 0])
    def test_cache_that_is_not_a_result_cache_is_rejected(self, cache):
        with pytest.raises(PerfError, match="ResultCache"):
            api.run_experiment("table5", cache=cache)

    @pytest.mark.parametrize("jobs", [-3, 0, True, 2.0, "2"])
    def test_bad_jobs_rejected_before_any_work(self, jobs):
        with pytest.raises(PerfError, match="jobs"):
            api.run_experiment("table5", jobs=jobs)
        with pytest.raises(PerfError, match="jobs"):
            api.serve("quick", jobs=jobs)

    def test_jobs_alone_keeps_the_ambient_cache(self, tmp_path, monkeypatch):
        from repro import perf
        from repro.analysis import figures

        seen = {}

        def fake_run_experiment_data(name):
            runner = perf.default_runner()
            seen.update(jobs=runner.jobs, cache=runner.cache)
            return {"kind": "table", "title": "", "headers": [], "rows": []}

        monkeypatch.setattr(figures, "run_experiment_data", fake_run_experiment_data)
        ambient = perf.ResultCache(tmp_path)
        perf.configure(cache=ambient)
        try:
            api.run_experiment("table5", jobs=2)
        finally:
            perf.configure()
        assert seen == {"jobs": 2, "cache": ambient}


class TestFacadeExports:
    def test_package_root_reexports_the_verbs(self):
        for name in ("run_experiment", "serve", "lookup_batch", "inject_faults"):
            assert getattr(repro, name) is getattr(api, name)

    def test_every_all_name_resolves(self):
        for name in repro.__all__:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                assert getattr(repro, name) is not None

    def test_deep_import_shim_warns_but_works(self):
        with pytest.deprecated_call(match="repro.api.serve"):
            legacy = repro.run_scenario
        from repro.service import run_scenario

        assert legacy is run_scenario

    def test_unknown_attribute_still_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_a_thing


class TestExecutorKwargAliases:
    def make(self, n=64):
        table = make_table(
            AddressSpaceAllocator(page_size=ARCH.page_size), "alias/dict", 1 << 18
        )
        values = lookup_values(n, table, seed=1)
        return BulkLookup.sorted_array(table, values), table

    def test_legacy_G_kwarg_warns_and_applies(self):
        tasks, _ = self.make()
        with pytest.deprecated_call(match="group_size"):
            legacy = get_executor("CORO").run(
                tasks, ExecutionEngine(ARCH), G=4
            )
        tasks2, _ = self.make()
        modern = get_executor("CORO").run(
            tasks2, ExecutionEngine(ARCH), group_size=4
        )
        assert list(legacy) == list(modern)

    def test_conflicting_spellings_rejected(self):
        tasks, _ = self.make()
        with pytest.raises(SchedulerError, match="group_size"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DeprecationWarning)
                get_executor("CORO").run(
                    tasks, ExecutionEngine(ARCH), group_size=4, G=8
                )

    def test_unknown_kwarg_rejected(self):
        tasks, _ = self.make()
        with pytest.raises(SchedulerError, match="unknown executor kwargs"):
            get_executor("CORO").run(tasks, ExecutionEngine(ARCH), gruop_size=4)


class TestCliExitCodes:
    """The documented contract: 0 success, 1 runtime, 2 usage."""

    def test_usage_errors_exit_2(self, capsys):
        assert main(["serve", "nope"]) == 2
        assert main(["serve", "quick", "--faults", "gremlins"]) == 2
        assert main(["table99"]) == 2
        capsys.readouterr()

    def test_runtime_errors_exit_1(self, capsys, monkeypatch):
        import repro.service.loadgen as loadgen

        def boom(*args, **kwargs):
            raise ConfigurationError("shard meltdown")

        monkeypatch.setattr(loadgen, "run_scenario", boom)
        assert main(["serve", "quick"]) == 1
        assert "shard meltdown" in capsys.readouterr().err

    def test_serve_json_validates_against_the_bench_schema(self, capsys):
        assert main(["serve", "quick", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert check_bench_schema.check_service_document(doc) == []

    def test_serve_chaos_json_validates_against_the_chaos_schema(self, capsys):
        assert main(["serve", "chaos-quick", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == check_bench_schema.CHAOS_SCHEMA
        assert check_bench_schema.check_service_document(doc, chaos=True) == []

    def test_experiment_json_documents_are_well_formed(self, capsys):
        assert main(["table5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) >= {"experiment", "headers", "kind", "rows", "title"}
        assert all(len(row) == len(doc["headers"]) for row in doc["rows"])

    def test_list_shows_fault_profiles(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fault profiles" in out
        assert "chaos-quick" in out
        assert "group_size=" in out


class TestRunPlan:
    """api.run_plan: the plan facade over a caller-supplied column."""

    @pytest.fixture(scope="class")
    def column(self):
        import numpy as np

        from repro.columnstore import EncodedColumn

        return EncodedColumn.from_values(
            AddressSpaceAllocator(), "api-plan/col", np.arange(5_000)
        )

    def test_run_plan_reports_operators_and_matches(self, column):
        result = api.run_plan(column, [10, 20, 30], strategy="interleaved")
        assert result.strategy == "interleaved"
        assert result.n_matches == 3
        labels = {op.label for op in result.operators}
        assert {"in_predicate_encode", "scan", "aggregate"} <= labels
        assert result.total_cycles == sum(op.cycles for op in result.operators)
        assert result.operator("scan").operator == "scan"
        rendered = result.render()
        assert "in_predicate_encode" in rendered
        assert "interleaved" in rendered

    def test_unknown_operator_label_raises(self, column):
        from repro.errors import QueryError

        result = api.run_plan(column, [1], strategy="sequential")
        with pytest.raises(QueryError):
            result.operator("nope")

    def test_plan_matches_run_in_predicate_bit_for_bit(self, column):
        from repro.sim.engine import ExecutionEngine as Engine

        values = [5, 4_999, 12_345]
        legacy = repro.run_in_predicate(
            Engine(ARCH), column, values, strategy="sequential"
        )
        plan = api.run_plan(
            column, values, strategy="sequential", arch=ARCH
        )
        assert plan.total_cycles == legacy.total_cycles
        assert sorted(plan.rows) == sorted(int(r) for r in legacy.rows)


class TestCliPlanVerb:
    def test_plan_renders_tree_and_profiles(self, capsys):
        assert main(["plan", "--dict-bytes", "1048576", "--predicates", "50"]) == 0
        out = capsys.readouterr().out
        assert "aggregate" in out
        assert "index join" in out or "in_predicate_encode" in out

    def test_plan_json_validates_against_the_query_schema(self, capsys):
        assert (
            main(
                [
                    "plan",
                    "--json",
                    "--dict-bytes",
                    "1048576",
                    "--predicates",
                    "50",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == check_bench_schema.QUERY_SCHEMA
        assert doc["kind"] == "plan_run"
        assert check_bench_schema.check_query_document(doc) == []

    def test_plan_usage_errors_exit_2(self, capsys):
        assert main(["plan", "--strategy", "bogus"]) == 2
        # argparse rejects bad --store choices itself, exiting with the
        # same usage status.
        with pytest.raises(SystemExit) as excinfo:
            main(["plan", "--store", "basalt"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_list_shows_query_operators(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "query operators" in out
        assert "index_join" in out

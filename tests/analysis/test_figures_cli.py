"""Tests for the CLI and the figure-regeneration entry points."""

import re

import pytest

from repro.__main__ import main
from repro.analysis.figures import available_experiments, run_experiment


class TestRegistry:
    def test_every_paper_artifact_listed(self):
        names = available_experiments()
        for expected in (
            "fig1", "fig3a", "fig3b", "fig5", "fig6", "fig7", "fig8",
            "table1", "table2", "table5",
        ):
            assert expected in names

    def test_unknown_experiment(self):
        with pytest.raises(KeyError, match="available"):
            run_experiment("fig99")

    def test_table5_runs_instantly(self):
        text = run_experiment("table5")
        assert "CORO-U" in text and "footprint" in text


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig3a" in out and "table5" in out

    def test_run_experiment(self, capsys):
        assert main(["table5"]) == 0
        assert "Table 5" in capsys.readouterr().out

    def test_unknown_exits_nonzero(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_multiple_experiments(self, capsys):
        assert main(["table5", "table5"]) == 0
        assert capsys.readouterr().out.count("Table 5") == 2

    def test_sweep_settings_last_only_as_long_as_the_command(self, monkeypatch):
        """``--jobs`` and ``--no-cache`` hold while a command runs, and
        ``main`` leaves the process-wide settings as it found them."""
        from repro import __main__ as cli
        from repro import perf

        during = []
        run = cli.run_experiment_data

        def spy(name):
            during.append((perf._config.jobs, perf._config.cache))
            return run(name)

        monkeypatch.setattr(cli, "run_experiment_data", spy)
        before = (perf._config.jobs, perf._config.cache)
        assert main(["table5", "--jobs", "3", "--no-cache"]) == 0
        assert (perf._config.jobs, perf._config.cache) == before
        assert main(["table5"]) == 0
        assert (perf._config.jobs, perf._config.cache) == before
        assert during[0] == (3, None)
        assert isinstance(during[1][1], perf.ResultCache)

    def test_cache_counters_last_only_as_long_as_the_command(self, monkeypatch, tmp_path):
        """The result cache ``main`` configures leaves no ``perf.cache``
        section on the process-wide registry, and a cache configured
        before the command is mounted again after it."""
        from repro import perf
        from repro.obs.metrics import MetricsRegistry

        monkeypatch.setattr(perf, "metrics", MetricsRegistry())
        monkeypatch.setattr(perf, "_config", type(perf._config)())
        assert main(["table5"]) == 0
        assert "perf" not in perf.metrics.snapshot()
        mine = perf.ResultCache(tmp_path)
        perf.configure(cache=mine)
        assert main(["table5", "--no-cache"]) == 0
        assert perf.metrics.snapshot()["perf"] == {"cache": mine.as_dict()}


class TestProfileVerb:
    def test_fig8_point_replays(self, capsys):
        assert main(["profile", "fig8", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "measure_query" in out
        assert re.search(
            r"^staged schedules: schedule_compile_s=\S+ validation_s=\S+ replay_s=\S+$",
            out, re.M,
        )
        assert "generator fallbacks" not in out
        # The Main locate schedules stay in the memo after the point.
        memo = re.search(r"^schedule memo: schedules=(\d+) rows=(\d+)$", out, re.M)
        assert memo and int(memo[1]) >= 1 and int(memo[2]) > 0

    def test_fallbacks_reported_by_reason(self, capsys, monkeypatch):
        """A profiled point that runs generators says so, and why."""
        from repro.analysis import experiments
        from repro.config import HASWELL
        from repro.indexes.binary_search import binary_search_coro
        from repro.indexes.sorted_array import int_array_of_bytes
        from repro.interleaving import BulkLookup, get_executor
        from repro.sim import ExecutionEngine
        from repro.sim.allocator import AddressSpaceAllocator

        def opaque_point(*args, **kwargs):
            table = int_array_of_bytes(AddressSpaceAllocator(), "t", 4_000)
            job = BulkLookup.stream(
                lambda value, il: binary_search_coro(table, value, il), [1, 50]
            )
            return get_executor("CORO").run(job, ExecutionEngine(HASWELL))

        monkeypatch.setattr(experiments, "measure_query", opaque_point)
        assert main(["profile", "fig8", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "generator fallbacks: 1 (workload_kind=1)" in out

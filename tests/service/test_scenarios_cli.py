"""Tests for the scenario catalogue and the ``serve``/``list`` CLI."""

import json

import pytest

from repro.__main__ import main
from repro.errors import SpecError, WorkloadError
from repro.scenario import (
    SCENARIO_REGISTRY,
    ScenarioSpec,
    get_scenario,
    scenario_names,
)
from repro.scenario.catalogue import _CATALOGUE


class TestRegistry:
    def test_builtin_scenarios_are_registered(self):
        names = scenario_names()
        for name in ("mixed", "steady", "burst", "closed", "quick"):
            assert name in names

    def test_lookup_is_case_insensitive(self):
        assert get_scenario("MIXED") is get_scenario("mixed")

    def test_unknown_scenario_lists_registered(self):
        with pytest.raises(WorkloadError, match="quick"):
            get_scenario("nope")

    def test_catalogue_names_are_unique(self):
        # A repeated name would silently shadow an earlier entry.
        assert len(SCENARIO_REGISTRY) == len(_CATALOGUE)

    def test_scenario_validation(self):
        with pytest.raises(SpecError, match="arrival kind"):
            ScenarioSpec(name="x", arrival_kind="uniform")
        with pytest.raises(SpecError, match="loads"):
            ScenarioSpec(name="x", loads=(0.0,))
        with pytest.raises(SpecError, match="techniques"):
            ScenarioSpec(name="x", techniques=())


class TestListVerb:
    def test_list_includes_a_scenarios_section(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "scenarios (python -m repro serve <name>):" in out
        for name in scenario_names():
            assert name in out

    def test_scenario_rows_carry_kind_and_techniques(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        scenario_block = out.split("scenarios")[1]
        assert "poisson" in scenario_block
        assert "bursty" in scenario_block
        assert "CORO" in scenario_block


class TestUnknownNameSuggestions:
    def test_scenario_name_given_as_experiment_suggests_serve(self, capsys):
        assert main(["mixed"]) == 2
        err = capsys.readouterr().err
        assert "python -m repro serve mixed" in err

    def test_plain_unknown_name_gets_no_serve_hint(self, capsys):
        assert main(["nonsense"]) == 2
        err = capsys.readouterr().err
        assert "serve nonsense" not in err
        assert "serving scenarios" in err  # the list pointer still shows


class TestServeVerb:
    def test_serve_quick_json_is_a_valid_document(self, capsys):
        assert main(["serve", "quick", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.service/1"
        assert doc["scenario"] == "quick"
        quick = get_scenario("quick")
        assert len(doc["points"]) == len(quick.loads) * len(quick.techniques)
        for point in doc["points"]:
            assert point["offered_load"] > 0
            assert point["p50"] <= point["p95"] <= point["p99"]

    def test_serve_ascii_renders_the_table(self, capsys):
        assert main(["serve", "quick"]) == 0
        out = capsys.readouterr().out
        assert "serve quick" in out
        assert "thruput/kcyc" in out
        assert "sequential" in out and "CORO" in out

    def test_serve_unknown_scenario_fails_with_listing(self, capsys):
        assert main(["serve", "nope"]) == 2  # usage error, not runtime
        err = capsys.readouterr().err
        assert "serve: unknown scenario" in err
        assert "quick" in err

    def test_serve_seed_changes_the_numbers(self, capsys):
        main(["serve", "quick", "--json"])
        first = json.loads(capsys.readouterr().out)
        main(["serve", "quick", "--json", "--seed", "7"])
        second = json.loads(capsys.readouterr().out)
        assert first["seed"] == 0 and second["seed"] == 7
        assert first["points"] != second["points"]

    def test_serve_same_seed_is_reproducible(self, capsys):
        main(["serve", "quick", "--json"])
        first = capsys.readouterr().out
        main(["serve", "quick", "--json"])
        second = capsys.readouterr().out
        assert first == second  # byte-identical document

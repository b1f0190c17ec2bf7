"""CLI coverage for the spec surface: ``list``/``serve``/``explain``
accepting ``file:`` references, ``list --json`` emitting serialized
specs, and malformed specs exiting 2 with the offending field path on
stderr.
"""

import json

import pytest

from repro.__main__ import main
from repro.scenario import SCENARIO_REGISTRY, get_scenario


@pytest.fixture()
def quick_spec_file(tmp_path):
    path = tmp_path / "quick.json"
    path.write_text(
        json.dumps(get_scenario("quick").to_dict(), indent=2, sort_keys=True)
    )
    return path


@pytest.fixture()
def malformed_spec_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "schema": "repro.scenario/1",
                "name": "bad",
                "config": {"max_bacth": 16},
            }
        )
    )
    return path


@pytest.fixture()
def bad_arrival_spec_file(tmp_path):
    """A bursty spec with the typo ``burst_cycle``."""
    path = tmp_path / "typo.json"
    path.write_text(
        json.dumps(
            {
                "schema": "repro.scenario/1",
                "name": "typo",
                "arrival": {
                    "kind": "bursty",
                    "params": {"burst_cycle": 20_000, "gap_cycles": 30_000},
                },
            }
        )
    )
    return path


class TestListJson:
    def test_emits_every_registered_scenario_as_its_spec(self, capsys):
        assert main(["list", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.list/1"
        by_name = {record["name"]: record for record in doc["scenarios"]}
        assert set(by_name) == set(SCENARIO_REGISTRY)
        for name, scenario in SCENARIO_REGISTRY.items():
            assert by_name[name] == scenario.to_dict()

    def test_registry_name_ref_prints_its_spec(self, capsys):
        assert main(["list", "quick"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record == get_scenario("quick").to_dict()

    def test_file_ref_resolves(self, capsys, quick_spec_file):
        assert main(["list", f"file:{quick_spec_file}", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.list/1"
        assert doc["scenarios"][0]["name"] == "quick"

    def test_malformed_file_exits_2_with_field_path(
        self, capsys, malformed_spec_file
    ):
        assert main(["list", f"file:{malformed_spec_file}"]) == 2
        stderr = capsys.readouterr().err
        assert "config.max_bacth" in stderr

    def test_unknown_name_exits_2(self, capsys):
        assert main(["list", "no-such-scenario"]) == 2


class TestServeFileRefs:
    def test_serve_accepts_a_file_spec(self, capsys, quick_spec_file):
        assert (
            main(
                [
                    "serve",
                    f"file:{quick_spec_file}",
                    "--json",
                    "--seed",
                    "0",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.service/1"
        assert doc["scenario"] == "quick"

    def test_serve_rejects_a_malformed_spec(self, capsys, malformed_spec_file):
        assert main(["serve", f"file:{malformed_spec_file}"]) == 2
        assert "config.max_bacth" in capsys.readouterr().err

    def test_serve_rejects_a_missing_file(self, capsys, tmp_path):
        assert main(["serve", f"file:{tmp_path / 'absent.yaml'}"]) == 2


class TestExplainFileRefs:
    def test_explain_accepts_a_file_spec(self, capsys, quick_spec_file):
        assert (
            main(
                [
                    "explain",
                    f"file:{quick_spec_file}",
                    "--json",
                    "--seed",
                    "0",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.explain/1"
        assert doc["scenario"] == "quick"

    def test_explain_rejects_a_malformed_spec(
        self, capsys, malformed_spec_file
    ):
        assert main(["explain", f"file:{malformed_spec_file}"]) == 2
        assert "config.max_bacth" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["list", "serve", "explain"])
def test_bad_arrival_param_exits_2_with_field_path(
    verb, capsys, bad_arrival_spec_file
):
    assert main([verb, f"file:{bad_arrival_spec_file}"]) == 2
    assert "arrival.params.burst_cycle" in capsys.readouterr().err


#: Specs whose values used to pass ``list`` and fail late (or run as a
#: silently different config), with what each verb now reports.
_OUT_OF_RANGE = {
    "overload_policy": (
        {"config": {"overload_policy": "bogus"}},
        "config: unknown overload policy 'bogus'",
    ),
    "queue_capacity": (
        {"config": {"queue_capacity": 0}},
        "config: queue_capacity must be at least 1",
    ),
    "max_batch": (
        {"config": {"max_batch": 0}},
        "config: max_batch must be at least 1",
    ),
    "max_wait_cycles": (
        {"config": {"max_wait_cycles": -1}},
        "config: max_wait_cycles cannot be negative",
    ),
    "rate_limit_burst": (
        {"config": {"rate_limit_burst": 0}},
        "config: rate_limit_burst must be at least 1",
    ),
    "rate_limit_zero": (
        {"config": {"rate_limit_per_kcycle": 0}},
        "config: rate_limit_per_kcycle must be positive",
    ),
    "group_size_zero": (
        {"config": {"group_size": 0}},
        "config: group_size must be at least 1",
    ),
    "group_size_negative": (
        {"config": {"group_size": -3}},
        "config: group_size must be at least 1",
    ),
    "config_technique": (
        {"config": {"technique": "warpdrive"}},
        "config.technique: ",
    ),
    "burst_cycles": (
        {
            "arrival": {
                "kind": "bursty",
                "params": {"burst_cycles": 0, "gap_cycles": 30_000},
            }
        },
        "arrival.params.burst_cycles: burst_cycles must be",
    ),
    "amplitude": (
        {"arrival": {"kind": "diurnal", "params": {"amplitude": 3}}},
        "arrival.params.amplitude: amplitude must be in [0, 1]",
    ),
}


@pytest.mark.parametrize("verb", ["list", "serve", "explain"])
@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_out_of_range_value_exits_2_with_field_path(
    verb, case, capsys, tmp_path
):
    fields, expected = _OUT_OF_RANGE[case]
    path = tmp_path / f"{case}.json"
    path.write_text(
        json.dumps({"schema": "repro.scenario/1", "name": case, **fields})
    )
    assert main([verb, f"file:{path}"]) == 2
    assert expected in capsys.readouterr().err

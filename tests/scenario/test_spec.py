"""Tests for the ``repro.scenario/1`` declarative spec surface.

The two load-bearing invariants:

* **round trip** — every catalogue scenario survives ``to_dict`` and
  ``from_dict`` as an equal spec and as the same bytes, so ``list
  <name>`` prints the whole scenario;
* **strict validation** — unknown keys and out-of-range values raise
  :class:`SpecError` carrying the offending field's dotted path, never
  a silently-defaulted run, whether a spec is parsed or constructed.
"""

import dataclasses
import json
import pathlib
import warnings

import pytest

from repro import api
from repro.cluster.server import ClusterConfig
from repro.errors import SpecError
from repro.scenario import (
    SCENARIO_REGISTRY,
    ScenarioSpec,
    get_scenario,
    load_spec_file,
    parse_spec_text,
    resolve_scenario,
)
from repro.scenario.spec import _ARRIVAL_PARAMS
from repro.service.arrivals import ARRIVAL_KINDS
from repro.service.loadgen import run_slo_scenario

try:
    import yaml
except ImportError:  # pragma: no cover - pyyaml is in the test image
    yaml = None

REPO = pathlib.Path(__file__).parent.parent.parent
SHIPPED = sorted((REPO / "scenarios").glob("*.*"))


def _all_registry_scenarios():
    return list(SCENARIO_REGISTRY.values())


class TestRegistryRoundTrip:
    @pytest.mark.parametrize(
        "scenario", _all_registry_scenarios(), ids=lambda s: s.name
    )
    def test_byte_identical_dict_round_trip(self, scenario):
        first = json.dumps(scenario.to_dict(), sort_keys=True)
        second = json.dumps(
            ScenarioSpec.from_dict(scenario.to_dict()).to_dict(), sort_keys=True
        )
        assert first == second

    @pytest.mark.parametrize(
        "scenario", _all_registry_scenarios(), ids=lambda s: s.name
    )
    def test_reconstructs_an_equal_scenario(self, scenario):
        assert ScenarioSpec.from_dict(scenario.to_dict()) == scenario

    def test_resolve_by_name_equals_registry_entry(self):
        assert resolve_scenario("quick") == get_scenario("quick")

    def test_cluster_spec_kind(self):
        spec = get_scenario("planet-quick")
        assert spec.kind == "cluster"
        assert "interconnect" in spec.to_dict()
        assert isinstance(spec.config, ClusterConfig)

    def test_service_spec_omits_cluster_keys(self):
        record = get_scenario("quick").to_dict()
        assert "interconnect" not in record
        assert "n_users" not in record


class TestStrictValidation:
    def _minimal(self, **overrides):
        record = {"schema": "repro.scenario/1", "name": "t"}
        record.update(overrides)
        return record

    def test_missing_schema_tag(self):
        with pytest.raises(SpecError, match="schema"):
            ScenarioSpec.from_dict({"name": "t"})

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError, match="wat: unknown field"):
            ScenarioSpec.from_dict(self._minimal(wat=1))

    def test_unknown_config_field_has_dotted_path(self):
        with pytest.raises(SpecError, match=r"config\.max_bacth"):
            ScenarioSpec.from_dict(
                self._minimal(config={"max_bacth": 16})
            )

    def test_cluster_config_field_hint_on_service_kind(self):
        with pytest.raises(SpecError, match="cluster-config field"):
            ScenarioSpec.from_dict(self._minimal(config={"n_nodes": 4}))

    def test_out_of_range_controller_value_has_path(self):
        with pytest.raises(
            SpecError, match=r"config\.controller: controller window"
        ):
            ScenarioSpec.from_dict(
                self._minimal(config={"controller": {"window_cycles": 0}})
            )

    def test_wrongly_typed_config_value(self):
        with pytest.raises(SpecError, match=r"config\.max_batch"):
            ScenarioSpec.from_dict(self._minimal(config={"max_batch": "big"}))

    def test_boolean_is_not_an_int(self):
        with pytest.raises(SpecError, match=r"config\.max_batch"):
            ScenarioSpec.from_dict(self._minimal(config={"max_batch": True}))

    def test_unknown_controller_field_has_path(self):
        with pytest.raises(SpecError, match=r"config\.controller\.window"):
            ScenarioSpec.from_dict(
                self._minimal(config={"controller": {"window": 1}})
            )

    def test_unknown_controller_technique_has_indexed_path(self):
        with pytest.raises(
            SpecError, match=r"config\.controller\.techniques\[1\]"
        ):
            ScenarioSpec.from_dict(
                self._minimal(
                    config={
                        "controller": {"techniques": ["CORO", "warpdrive"]}
                    }
                )
            )

    def test_cluster_only_keys_rejected_for_service_kind(self):
        with pytest.raises(SpecError, match="interconnect"):
            ScenarioSpec.from_dict(self._minimal(interconnect="planet"))

    def test_unknown_arrival_kind(self):
        with pytest.raises(SpecError, match="arrival"):
            ScenarioSpec.from_dict(self._minimal(arrival={"kind": "uniform"}))

    def test_unknown_fault_profile(self):
        with pytest.raises(SpecError, match="fault_profile"):
            ScenarioSpec.from_dict(self._minimal(fault_profile="gremlins"))

    def test_unknown_technique(self):
        with pytest.raises(SpecError, match="techniques"):
            ScenarioSpec.from_dict(self._minimal(techniques=["warpdrive"]))

    def test_unknown_config_technique_has_path(self):
        with pytest.raises(SpecError, match=r"^config\.technique: "):
            ScenarioSpec.from_dict(self._minimal(config={"technique": "warpdrive"}))


class TestConstruction:
    """Literals and ``dataclasses.replace`` copies are checked like
    parsed documents, with the same dotted paths."""

    def test_replace_is_validated(self):
        quick = get_scenario("quick")
        with pytest.raises(SpecError, match=r"^techniques\[1\]: "):
            dataclasses.replace(quick, techniques=("CORO", "warpdrive"))
        with pytest.raises(SpecError, match=r"^loads\[0\]: "):
            dataclasses.replace(quick, loads=(0.0,))
        with pytest.raises(SpecError, match=r"^n_requests: "):
            dataclasses.replace(quick, n_requests=0)

    def test_controller_technique_has_indexed_path(self):
        controller = get_scenario("controller-quick").config.controller
        config = dataclasses.replace(
            get_scenario("quick").config,
            controller=dataclasses.replace(controller, techniques=("bogus",)),
        )
        with pytest.raises(
            SpecError, match=r"^config\.controller\.techniques\[0\]: "
        ):
            ScenarioSpec(name="t", config=config)

    def test_config_type_follows_the_kind(self):
        with pytest.raises(SpecError, match="^config: .*ClusterConfig"):
            ScenarioSpec(name="t", kind="cluster")
        with pytest.raises(SpecError, match="^config: .*ServiceConfig"):
            ScenarioSpec(name="t", config=get_scenario("planet-quick").config)

    def test_cluster_only_values_rejected_for_service_kind(self):
        with pytest.raises(SpecError, match="^n_users: "):
            ScenarioSpec(name="t", n_users=5)


class TestArrivalParams:
    def _bursty(self, params):
        record = {
            "schema": "repro.scenario/1",
            "name": "t",
            "arrival": {"kind": "bursty"},
        }
        if params is not None:
            record["arrival"]["params"] = params
        return record

    def test_every_arrival_kind_has_rules(self):
        assert set(_ARRIVAL_PARAMS) == set(ARRIVAL_KINDS)

    def test_unknown_key_rejected(self):
        with pytest.raises(
            SpecError, match=r"^arrival\.params\.burst_cycle: unknown"
        ):
            ScenarioSpec.from_dict(
                self._bursty({"burst_cycle": 20_000, "gap_cycles": 30_000})
            )

    @pytest.mark.parametrize("params", [None, {}, {"gap_cycles": 30_000}])
    def test_missing_required_key_rejected(self, params):
        with pytest.raises(
            SpecError, match=r"^arrival\.params\.burst_cycles: required"
        ):
            ScenarioSpec.from_dict(self._bursty(params))

    def test_closed_needs_think_cycles(self):
        with pytest.raises(SpecError, match=r"arrival\.params\.think_cycles"):
            ScenarioSpec(name="t", arrival_kind="closed")

    @pytest.mark.parametrize(
        "kind, params",
        [
            ("poisson", {"rate_per_kcycle": 2.0}),
            ("closed", {"think_cycles": 8_000, "n_clients": 4}),
            ("diurnal", {"base_rate_per_kcycle": 2.0}),
        ],
    )
    def test_calibrated_keys_rejected(self, kind, params):
        (key,) = set(params) - {"think_cycles"}
        with pytest.raises(
            SpecError, match=rf"^arrival\.params\.{key}: set per load point"
        ):
            ScenarioSpec(name="t", arrival_kind=kind, arrival_params=params)

    @pytest.mark.parametrize(
        "kind, params, key",
        [
            ("bursty", {"burst_cycles": 0, "gap_cycles": 30_000}, "burst_cycles"),
            ("bursty", {"burst_cycles": 10, "gap_cycles": -5}, "gap_cycles"),
            (
                "bursty",
                {"burst_cycles": 10, "gap_cycles": 10, "base_rate_per_kcycle": 0},
                "base_rate_per_kcycle",
            ),
            ("diurnal", {"amplitude": 3}, "amplitude"),
            ("diurnal", {"n_regions": 0}, "n_regions"),
            ("diurnal", {"n_regions": 2.5}, "n_regions"),
            ("diurnal", {"day_cycles": 0}, "day_cycles"),
            ("closed", {"think_cycles": 0}, "think_cycles"),
        ],
    )
    def test_out_of_range_values_rejected(self, kind, params, key):
        with pytest.raises(SpecError, match=rf"^arrival\.params\.{key}: {key} "):
            ScenarioSpec(name="t", arrival_kind=kind, arrival_params=params)

    def test_optional_keys_accepted(self):
        spec = ScenarioSpec.from_dict(
            self._bursty(
                {
                    "burst_cycles": 20_000,
                    "gap_cycles": 30_000,
                    "burst_rate_per_kcycle": 3.0,
                }
            )
        )
        assert spec.arrival_params["burst_rate_per_kcycle"] == 3.0


class TestParsing:
    def test_json_text(self):
        spec = parse_spec_text(
            json.dumps({"schema": "repro.scenario/1", "name": "t"})
        )
        assert spec.name == "t"

    def test_forced_json_rejects_yaml(self):
        with pytest.raises(SpecError, match="invalid JSON"):
            parse_spec_text("name: t", format="json")

    @pytest.mark.skipif(yaml is None, reason="pyyaml not installed")
    def test_yaml_text(self):
        spec = parse_spec_text(
            "schema: repro.scenario/1\nname: t\nloads: [0.5]\n"
        )
        assert spec.loads == (0.5,)

    def test_parse_error_carries_source_and_path_once(self):
        with pytest.raises(SpecError) as exc_info:
            parse_spec_text(
                json.dumps(
                    {
                        "schema": "repro.scenario/1",
                        "name": "t",
                        "config": {"max_bacth": 1},
                    }
                ),
                source="my.json",
            )
        message = str(exc_info.value)
        assert message.count("config.max_bacth") == 1
        assert message.startswith("my.json:")

    def test_load_spec_file_missing(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read"):
            load_spec_file(tmp_path / "absent.yaml")

    def test_file_ref_resolution(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"schema": "repro.scenario/1", "name": "from-file"})
        )
        assert resolve_scenario(f"file:{path}").name == "from-file"

    def test_resolve_scenario_rejects_garbage(self):
        with pytest.raises(SpecError, match="reference"):
            resolve_scenario(42)


class TestShippedSpecs:
    def test_the_catalogue_is_populated(self):
        assert len(SHIPPED) >= 8

    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
    def test_every_shipped_spec_parses(self, path):
        if path.suffix in (".yaml", ".yml") and yaml is None:
            pytest.skip("pyyaml not installed")
        spec = load_spec_file(path)
        assert spec.name

    @pytest.mark.parametrize(
        "filename, registered",
        [
            ("controller-quick.yaml", "controller-quick"),
            ("phase-shift.json", "phase-shift"),
        ],
    )
    def test_registry_mirrors_resolve_equal(self, filename, registered):
        """The shipped twins of registry scenarios cannot drift."""
        if filename.endswith(".yaml") and yaml is None:
            pytest.skip("pyyaml not installed")
        resolved = resolve_scenario(f"file:{REPO / 'scenarios' / filename}")
        assert resolved == get_scenario(registered)


class TestDeprecatedScenarioKeyword:
    """The ``scenario=`` keyword is gone: the reference is positional."""

    def test_run_slo_scenario_requires_a_reference(self):
        with pytest.raises(TypeError, match="spec"):
            run_slo_scenario()

    def test_both_spec_and_scenario_rejected(self):
        with pytest.raises(TypeError, match="scenario"):
            run_slo_scenario("quick", scenario="quick")

    def test_run_slo_scenario_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="scenario"):
            run_slo_scenario(scenario="chaos-quick")

    def test_api_serve_scenario_kwarg_is_a_type_error(self):
        with pytest.raises(TypeError, match="scenario"):
            api.serve(scenario="quick")

    def test_positional_reference_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api.serve("quick")

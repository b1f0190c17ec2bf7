"""Tests for the adaptive control plane (``repro.control``).

Three invariants anchor everything else:

* **off means off** — a run without a controller is byte-identical to
  the pre-control code path, pinned against golden documents recorded
  from the uncontrolled implementation;
* **determinism** — same scenario, same seed, same ``control.window``
  stream, bit for bit;
* **honest bookkeeping** — windows tile ``[0, makespan)`` contiguously
  from cycle 0, every record speaks the exported signal/actuator
  vocabulary, and ``decisions`` counts exactly the windows that acted.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.control import (
    ACTION_NAMES,
    CONTROL_EVENT,
    CONTROL_SCHEMA,
    SIGNAL_NAMES,
    AdaptiveController,
    ControllerConfig,
)
from repro.errors import ConfigurationError
from repro.scenario import get_scenario
from repro.service import run_scenario

DATA = pathlib.Path(__file__).parent.parent / "data"


class TestControllerConfig:
    def test_defaults_round_trip_to_dict(self):
        config = ControllerConfig()
        echo = config.to_dict()
        assert echo["window_cycles"] == config.window_cycles
        assert echo["techniques"] == []
        assert set(echo) == {
            "window_cycles",
            "techniques",
            "slo_fraction_high",
            "slo_fraction_low",
            "queue_high",
            "idle_arrivals",
            "min_wait_cycles",
            "resize_groups",
            "consolidate_shards",
            "manage_overflow",
        }

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="window"):
            ControllerConfig(window_cycles=0)
        with pytest.raises(ConfigurationError, match="SLO fractions"):
            ControllerConfig(slo_fraction_low=0.9, slo_fraction_high=0.5)
        with pytest.raises(ConfigurationError, match="SLO fractions"):
            ControllerConfig(slo_fraction_low=0.0)
        with pytest.raises(ConfigurationError, match="queue_high"):
            ControllerConfig(queue_high=0)
        with pytest.raises(ConfigurationError, match="min_wait_cycles"):
            ControllerConfig(min_wait_cycles=0)

    def test_techniques_coerced_to_tuple(self):
        config = ControllerConfig(techniques=["sequential", "CORO"])
        assert config.techniques == ("sequential", "CORO")


class TestControllerOffBitIdentity:
    """A server without a controller replays the pre-control goldens."""

    @pytest.mark.parametrize(
        "scenario, golden",
        [
            ("quick", "golden_quick_seed0.json"),
            ("chaos-quick", "golden_chaos_quick_seed0.json"),
            ("planet-quick", "golden_planet_quick_seed0.json"),
        ],
    )
    def test_controller_off_matches_golden(self, scenario, golden):
        doc = run_scenario(scenario, seed=0)
        recorded = json.loads((DATA / golden).read_text())
        assert doc == recorded
        assert "base_schema" not in doc
        assert "controller" not in doc
        assert all("control" not in point for point in doc["points"])


@pytest.fixture(scope="module")
def controlled_doc():
    return run_scenario("controller-quick", seed=0)


class TestControlledDocument:
    def test_schema_and_controller_echo(self, controlled_doc):
        scenario = get_scenario("controller-quick")
        assert controlled_doc["schema"] == CONTROL_SCHEMA
        assert controlled_doc["base_schema"] == "repro.service/1"
        assert (
            controlled_doc["controller"]
            == scenario.config.controller.to_dict()
        )

    def test_windows_tile_the_makespan(self, controlled_doc):
        for point in controlled_doc["points"]:
            control = point["control"]
            width = control["window_cycles"]
            windows = control["windows"]
            assert windows, "controller rolled no windows"
            for position, window in enumerate(windows):
                assert window["event"] == CONTROL_EVENT
                assert window["window"] == position
                assert window["start"] == position * width
                assert window["end"] == window["start"] + width
                assert window["cycle"] == window["end"]
            assert windows[-1]["end"] >= point["makespan"]
            assert windows[-1]["start"] < point["makespan"]

    def test_records_speak_the_exported_vocabulary(self, controlled_doc):
        for point in controlled_doc["points"]:
            control = point["control"]
            decided = 0
            for window in control["windows"]:
                assert set(window["signals"]) == set(SIGNAL_NAMES)
                assert set(window["actions"]) <= set(ACTION_NAMES)
                assert window["reason"]
                if window["actions"]:
                    decided += 1
            assert control["decisions"] == decided

    def test_controller_actually_decided(self, controlled_doc):
        assert any(
            point["control"]["decisions"] > 0
            for point in controlled_doc["points"]
        )

    def test_same_seed_same_decision_stream(self, controlled_doc):
        replay = run_scenario("controller-quick", seed=0)
        assert replay == controlled_doc

    def test_chaos_base_schema(self):
        doc = run_scenario("phase-shift", seed=0)
        assert doc["schema"] == CONTROL_SCHEMA
        assert doc["base_schema"] == "repro.chaos/1"
        assert all(point["control"]["decisions"] > 0 for point in doc["points"])


class TestClusterControl:
    def test_cluster_base_schema_and_stream(self):
        scenario = get_scenario("planet-quick")
        config = dataclasses.replace(
            scenario.config,
            controller=ControllerConfig(window_cycles=8_000),
        )
        doc = run_scenario(dataclasses.replace(scenario, config=config), seed=0)
        assert doc["schema"] == CONTROL_SCHEMA
        assert doc["base_schema"] == "repro.cluster/1"
        for point in doc["points"]:
            assert point["control"]["windows"]


class TestUnitWindowing:
    """The controller's window accounting, off the serving stack."""

    class _Server:
        """Duck-typed actuation surface: just enough for signals."""

        def __init__(self):
            from repro.obs.metrics import MetricsRegistry

            self.shards = []
            self._injector = None
            self.executor = type(
                "E", (), {"name": "sequential", "switch_kind": None}
            )()
            self.group_size = 1
            self.metrics = MetricsRegistry()
            self.admission = type("Q", (), {"queue": []})()
            self.config = type("C", (), {"slo_cycles": None, "max_wait_cycles": 100})()
            self.coalescer = type("W", (), {"max_wait_cycles": 100})()
            self._consolidate_ok = False
            self._overflow_armed = False

    def test_roll_to_rolls_every_elapsed_window(self):
        controller = AdaptiveController(ControllerConfig(window_cycles=100))
        server = self._Server()
        controller.on_arrival(10)
        controller.on_answer(150, latency=40)
        controller.roll_to(350, server)
        assert [w["window"] for w in controller.events] == [0, 1, 2]
        assert controller.events[0]["signals"]["arrivals"] == 1
        assert controller.events[1]["signals"]["completed"] == 1

    def test_finish_flushes_trailing_windows(self):
        controller = AdaptiveController(ControllerConfig(window_cycles=100))
        server = self._Server()
        controller.roll_to(100, server)
        controller.finish(425, server)
        assert [w["end"] for w in controller.events] == [100, 200, 300, 400, 500]

    def test_next_boundary_advances(self):
        controller = AdaptiveController(ControllerConfig(window_cycles=50))
        server = self._Server()
        assert controller.next_boundary() == 50
        controller.roll_to(50, server)
        assert controller.next_boundary() == 100

"""repro.scenario — the declarative scenario DSL (``repro.scenario/1``).

A versioned JSON/YAML scenario format parsed into a frozen
:class:`ScenarioSpec`, the one scenario type of the service, cluster,
and SLO-run surfaces. The built-in scenarios are spec literals in
:mod:`repro.scenario.catalogue`; ``python -m repro serve
file:scenario.yaml`` works alongside their names. See
:mod:`repro.scenario.spec` for the format and :mod:`repro.scenario.io`
for loading and resolution.
"""

from repro.scenario.catalogue import (
    SCENARIO_REGISTRY,
    get_scenario,
    scenario_names,
)
from repro.scenario.io import (
    FILE_PREFIX,
    load_spec_file,
    parse_spec_text,
    resolve_scenario,
)
from repro.scenario.spec import (
    SCENARIO_KINDS,
    SCENARIO_SPEC_SCHEMA,
    ScenarioSpec,
    config_from_dict,
    config_to_dict,
)

__all__ = [
    "FILE_PREFIX",
    "SCENARIO_KINDS",
    "SCENARIO_REGISTRY",
    "SCENARIO_SPEC_SCHEMA",
    "ScenarioSpec",
    "config_from_dict",
    "config_to_dict",
    "get_scenario",
    "load_spec_file",
    "parse_spec_text",
    "resolve_scenario",
    "scenario_names",
]

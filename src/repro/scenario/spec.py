"""``repro.scenario/1``: the declarative scenario spec.

:class:`ScenarioSpec` is the one scenario type: the built-in catalogue
(:mod:`repro.scenario.catalogue`), spec files, and every serving entry
point share it. Its plain-data document is versioned:

.. code-block:: yaml

    schema: repro.scenario/1
    name: flash-crowd
    kind: service            # or "cluster"
    arrival: {kind: bursty, params: {burst_cycles: 15000, gap_cycles: 45000}}
    loads: [0.8, 1.6]
    techniques: [sequential, CORO]
    config: {max_batch: 24, overload_policy: shed, ...}
    fault_profile: chaos     # optional

A spec is valid by construction: ``__post_init__`` checks every field
value and raises :class:`~repro.errors.SpecError` carrying the dotted
path of the offending field (``loads[1]``, ``arrival.params.gap_cycles``),
so catalogue literals and ``dataclasses.replace`` copies are checked
exactly as parsed documents are. ``from_dict`` adds the checks on
document shape: unknown keys and wrongly-typed scalars fail loudly at
parse time, never as a mysteriously-default run. ``to_dict`` emits the
canonical plain-JSON form, and ``from_dict(spec.to_dict()) == spec``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.cluster.server import ClusterConfig
from repro.cluster.topology import TOPOLOGY_PRESETS
from repro.control import ControllerConfig
from repro.errors import ConfigurationError, SpecError, WorkloadError
from repro.faults.schedule import get_fault_profile
from repro.interleaving.executor import get_executor
from repro.service.arrivals import check_arrival_params
from repro.service.server import ServiceConfig

__all__ = [
    "SCENARIO_SPEC_SCHEMA",
    "SCENARIO_KINDS",
    "ScenarioSpec",
    "config_from_dict",
    "config_to_dict",
]

#: Schema tag every spec document must carry.
SCENARIO_SPEC_SCHEMA = "repro.scenario/1"

#: The scenario shapes a spec distinguishes (``kind``).
SCENARIO_KINDS = ("service", "cluster")

#: Top-level keys a spec document may carry (cluster-only keys included;
#: their use under ``kind: service`` is rejected with a pathed error).
_TOP_LEVEL_KEYS = (
    "schema",
    "name",
    "kind",
    "description",
    "arrival",
    "loads",
    "techniques",
    "table_bytes",
    "arch_scale",
    "n_requests",
    "fault_profile",
    "config",
    "interconnect",
    "n_users",
)

_CLUSTER_ONLY_KEYS = ("interconnect", "n_users")

#: Per arrival kind: the ``arrival.params`` a spec must set, and those it
#: may set. Capacity calibration derives the rest from each load point
#: (``repro.service.loadgen``), so a spec cannot set those.
_ARRIVAL_PARAMS = {
    "poisson": ((), ()),
    "bursty": (
        ("burst_cycles", "gap_cycles"),
        ("base_rate_per_kcycle", "burst_rate_per_kcycle"),
    ),
    "closed": (("think_cycles",), ()),
    "diurnal": ((), ("n_regions", "day_cycles", "amplitude")),
}
_CALIBRATED_PARAMS = {
    "poisson": "rate_per_kcycle",
    "closed": "n_clients",
    "diurnal": "base_rate_per_kcycle",
}

#: Scalar shape of each top-level field ``from_dict`` copies as is.
_SCALAR_FIELD_TYPES: dict[str, tuple[tuple, bool]] = {
    "name": ((str,), False),
    "kind": ((str,), False),
    "description": ((str,), False),
    "table_bytes": ((int,), False),
    "arch_scale": ((int,), False),
    "n_requests": ((int,), False),
    "fault_profile": ((str,), True),
    "interconnect": ((str,), False),
    "n_users": ((int,), False),
}

#: Scalar shape of each config field: (accepted types, allows None).
#: ``bool`` must be listed before ``int`` checks anywhere both apply —
#: JSON booleans are not acceptable integers here.
_NUMBER = (int, float)
_CONFIG_FIELD_TYPES: dict[str, tuple[tuple, bool]] = {
    "technique": ((str,), False),
    "group_size": ((int,), True),
    "max_batch": ((int,), False),
    "max_wait_cycles": ((int,), False),
    "queue_capacity": ((int,), False),
    "overload_policy": ((str,), False),
    "rate_limit_per_kcycle": (_NUMBER, True),
    "rate_limit_burst": ((int,), False),
    "n_shards": ((int,), False),
    "warmup_requests": ((int,), False),
    "slo_cycles": ((int,), True),
    "slo_target": (_NUMBER, False),
    "timeout_cycles": ((int,), True),
    "max_retries": ((int,), False),
    "retry_backoff_cycles": ((int,), False),
    "hedge_after_cycles": ((int,), True),
    "degradation": ((str,), False),
    "overflow_fallback": ((bool,), False),
    "request_kind": ((str,), False),
    "controller": ((dict,), True),
    # Cluster-config extensions:
    "n_nodes": ((int,), False),
    "replication": ((int,), False),
}

_CONTROLLER_FIELD_TYPES: dict[str, tuple[tuple, bool]] = {
    "window_cycles": ((int,), False),
    "techniques": ((list, tuple), False),
    "slo_fraction_high": (_NUMBER, False),
    "slo_fraction_low": (_NUMBER, False),
    "queue_high": ((int,), False),
    "idle_arrivals": ((int,), False),
    "min_wait_cycles": ((int,), False),
    "resize_groups": ((bool,), False),
    "consolidate_shards": ((bool,), False),
    "manage_overflow": ((bool,), False),
}


def _check_scalar(value, types, allow_none, path: str):
    if value is None:
        if allow_none:
            return None
        raise SpecError("must not be null", path=path)
    if isinstance(value, bool) and bool not in types:
        raise SpecError(f"expected {types[0].__name__}, got a boolean", path=path)
    if not isinstance(value, tuple(types)):
        raise SpecError(
            f"expected {types[0].__name__}, got {type(value).__name__}",
            path=path,
        )
    return value


def _parse_list(data, types, path: str) -> tuple:
    if not isinstance(data, (list, tuple)):
        raise SpecError("must be a non-empty list", path=path)
    return tuple(
        _check_scalar(value, types, False, f"{path}[{index}]")
        for index, value in enumerate(data)
    )


def config_from_dict(
    data: dict, *, cluster: bool = False, path: str = "config"
) -> ServiceConfig:
    """Build a (cluster) service config from a plain dict, strictly.

    Unknown keys, wrongly-typed values, and out-of-range fields all
    raise :class:`SpecError` with the offending field's dotted path —
    the repair for the historic silent-extras behaviour of handing
    ``ServiceConfig(**d)``-shaped dicts around.
    """
    if not isinstance(data, dict):
        raise SpecError(
            f"expected a mapping, got {type(data).__name__}", path=path
        )
    cls = ClusterConfig if cluster else ServiceConfig
    known = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            suffix = "" if cluster else " (a cluster-config field?)"
            hint = suffix if key in ("n_nodes", "replication") else ""
            raise SpecError(f"unknown config field{hint}", path=f"{path}.{key}")
        types, allow_none = _CONFIG_FIELD_TYPES[key]
        _check_scalar(value, types, allow_none, f"{path}.{key}")
        kwargs[key] = value
    if "controller" in kwargs and kwargs["controller"] is not None:
        kwargs["controller"] = _controller_from_dict(
            kwargs["controller"], path=f"{path}.controller"
        )
    try:
        return cls(**kwargs)
    except ConfigurationError as error:
        raise SpecError(str(error), path=path) from error


def _controller_from_dict(data: dict, *, path: str) -> ControllerConfig:
    kwargs = {}
    for key, value in data.items():
        if key not in _CONTROLLER_FIELD_TYPES:
            raise SpecError("unknown controller field", path=f"{path}.{key}")
        types, allow_none = _CONTROLLER_FIELD_TYPES[key]
        _check_scalar(value, types, allow_none, f"{path}.{key}")
        kwargs[key] = value
    if "techniques" in kwargs:
        kwargs["techniques"] = _parse_list(
            kwargs["techniques"], (str,), f"{path}.techniques"
        )
    try:
        return ControllerConfig(**kwargs)
    except ConfigurationError as error:
        raise SpecError(str(error), path=path) from error


def _check_technique(name: str, path: str) -> None:
    try:
        get_executor(name)
    except WorkloadError as error:
        raise SpecError(str(error), path=path) from error


def config_to_dict(config: ServiceConfig) -> dict:
    """The canonical plain-JSON form of a (cluster) service config."""
    record = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.name == "controller":
            value = value.to_dict() if value is not None else None
        record[f.name] = value
    return record


def _parse_arrival(data) -> tuple[str, dict]:
    if not isinstance(data, dict):
        raise SpecError(
            f"expected a mapping, got {type(data).__name__}", path="arrival"
        )
    for key in data:
        if key not in ("kind", "params"):
            raise SpecError("unknown field", path=f"arrival.{key}")
    kind = _check_scalar(
        data.get("kind", "poisson"), (str,), False, "arrival.kind"
    )
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise SpecError(
            f"expected a mapping, got {type(params).__name__}",
            path="arrival.params",
        )
    for key, value in params.items():
        _check_scalar(value, _NUMBER, False, f"arrival.params.{key}")
    return kind, dict(params)


def _check_arrival(kind: str, params: dict) -> None:
    if kind not in _ARRIVAL_PARAMS:
        raise SpecError(
            f"unknown arrival kind (have: {', '.join(sorted(_ARRIVAL_PARAMS))})",
            path="arrival.kind",
        )
    required, optional = _ARRIVAL_PARAMS[kind]
    for key in params:
        path = f"arrival.params.{key}"
        if key == _CALIBRATED_PARAMS.get(kind):
            raise SpecError(
                "set per load point by capacity calibration; scale loads "
                "instead",
                path=path,
            )
        if key not in required + optional:
            known = ", ".join(required + optional) or "none"
            raise SpecError(
                f"unknown {kind} arrival parameter (have: {known})", path=path
            )
        try:
            check_arrival_params(**{key: params[key]})
        except WorkloadError as error:
            raise SpecError(str(error), path=path) from error
    for key in required:
        if key not in params:
            raise SpecError(
                f"required for {kind} arrivals", path=f"arrival.params.{key}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """One serving scenario, end to end; valid by construction."""

    name: str
    kind: str = "service"
    description: str = ""
    arrival_kind: str = "poisson"
    #: Kind-specific arrival knobs (bursty phases, closed-loop think).
    arrival_params: dict = field(default_factory=dict)
    #: Offered load per point, as multiples of sequential capacity.
    loads: tuple[float, ...] = (0.4, 0.9, 1.8, 3.0)
    techniques: tuple[str, ...] = ("sequential", "GP", "AMAC", "CORO")
    table_bytes: int = 4 << 20
    #: Factor for :func:`repro.config.scaled`; 1 = the full Haswell spec.
    arch_scale: int = 64
    n_requests: int = 400
    #: Default fault profile (``repro.faults``); ``None`` = no chaos.
    #: ``python -m repro serve <name> --faults <profile>`` overrides it.
    fault_profile: str | None = None
    #: A :class:`~repro.cluster.server.ClusterConfig` for ``kind: cluster``.
    config: ServiceConfig = field(default_factory=ServiceConfig)
    #: Cluster-only: topology preset and simulated-user population.
    interconnect: str = "planet"
    n_users: int = 1_000_000

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecError("must be a non-empty string", path="name")
        if self.kind not in SCENARIO_KINDS:
            raise SpecError(
                f"expected one of {SCENARIO_KINDS}, got {self.kind!r}",
                path="kind",
            )
        cluster = self.kind == "cluster"
        if isinstance(self.config, ClusterConfig) != cluster:
            wanted = "ClusterConfig" if cluster else "ServiceConfig"
            raise SpecError(f"a {self.kind} scenario takes a {wanted}", path="config")
        if not cluster:
            for key in _CLUSTER_ONLY_KEYS:
                if getattr(self, key) != self.__dataclass_fields__[key].default:
                    raise SpecError("only valid for kind: cluster", path=key)
        _check_arrival(self.arrival_kind, self.arrival_params)
        for key in ("loads", "techniques"):
            if not getattr(self, key):
                raise SpecError("must be a non-empty list", path=key)
        for index, load in enumerate(self.loads):
            if load <= 0:
                raise SpecError(
                    "load multipliers must be positive", path=f"loads[{index}]"
                )
        for index, name in enumerate(self.techniques):
            _check_technique(name, f"techniques[{index}]")
        _check_technique(self.config.technique, "config.technique")
        controller = self.config.controller
        for index, name in enumerate(controller.techniques if controller else ()):
            _check_technique(name, f"config.controller.techniques[{index}]")
        for key in ("table_bytes", "arch_scale", "n_requests", "n_users"):
            if getattr(self, key) < 1:
                raise SpecError("must be positive", path=key)
        if self.fault_profile is not None:
            try:
                get_fault_profile(self.fault_profile)
            except WorkloadError as error:
                raise SpecError(str(error), path="fault_profile") from error
        if cluster and self.interconnect not in TOPOLOGY_PRESETS:
            raise SpecError(
                f"unknown topology preset {self.interconnect!r} (have: "
                f"{', '.join(sorted(TOPOLOGY_PRESETS))})",
                path="interconnect",
            )

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        """Parse one spec document (the inverse of ``to_dict``)."""
        if not isinstance(data, dict):
            raise SpecError(
                f"a scenario spec must be a mapping, got {type(data).__name__}"
            )
        for key in data:
            if key not in _TOP_LEVEL_KEYS:
                raise SpecError("unknown field", path=str(key))
        schema = data.get("schema")
        if schema != SCENARIO_SPEC_SCHEMA:
            raise SpecError(
                f"expected {SCENARIO_SPEC_SCHEMA!r}, got {schema!r}",
                path="schema",
            )
        fields = {
            key: _check_scalar(data.get(key), types, allow_none, key)
            for key, (types, allow_none) in _SCALAR_FIELD_TYPES.items()
            if key in data or key == "name"
        }
        cluster = fields.get("kind") == "cluster"
        if not cluster:
            for key in _CLUSTER_ONLY_KEYS:
                if key in data:
                    raise SpecError("only valid for kind: cluster", path=key)
        if "arrival" in data:
            fields["arrival_kind"], fields["arrival_params"] = _parse_arrival(
                data["arrival"]
            )
        if "loads" in data:
            fields["loads"] = _parse_list(data["loads"], _NUMBER, "loads")
        if "techniques" in data:
            fields["techniques"] = _parse_list(
                data["techniques"], (str,), "techniques"
            )
        fields["config"] = config_from_dict(data.get("config", {}), cluster=cluster)
        return cls(**fields)

    def to_dict(self) -> dict:
        """The canonical plain-JSON document (inverse of ``from_dict``)."""
        record = {
            "schema": SCENARIO_SPEC_SCHEMA,
            "name": self.name,
            "kind": self.kind,
            "description": self.description,
            "arrival": {
                "kind": self.arrival_kind,
                "params": dict(self.arrival_params),
            },
            "loads": list(self.loads),
            "techniques": list(self.techniques),
            "table_bytes": self.table_bytes,
            "arch_scale": self.arch_scale,
            "n_requests": self.n_requests,
            "fault_profile": self.fault_profile,
            "config": config_to_dict(self.config),
        }
        if self.kind == "cluster":
            record["interconnect"] = self.interconnect
            record["n_users"] = self.n_users
        return record

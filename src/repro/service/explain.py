"""``python -m repro explain`` — the p-N request's critical path.

The serving layer's exemplar histograms (:mod:`repro.obs.hist`) retain,
per latency bucket, the trace id of the worst request that landed in
it. :func:`explain_point` closes the loop: it re-runs one (technique,
load) point of a scenario with request tracing enabled, resolves the
pN exemplar out of the point's serialized histogram, pulls that
request's span tree out of the tracer, and reduces it to a critical
path — per-stage cycles with percentage attribution, plus the dispatch
attempts (hedges, retries, chaos annotations) that overlapped it.

Everything is deterministic: the exemplar id is a pure function of
``(scenario, technique, load, seed, faults)``, the re-run replays the
identical simulation, and the emitted ``repro.explain/1`` document
diffs cleanly across commits. The result-cache is bypassed by design —
tracing needs the live span trees, which never enter the cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SimulationError, WorkloadError
from repro.obs.hist import exemplar_from_dict
from repro.obs.rtrace import critical_path, trace_errors
from repro.service.loadgen import (
    _calibrate,
    _fault_name,
    _resolve_ref,
    measure_service_point,
)

if TYPE_CHECKING:
    from repro.scenario import ScenarioSpec

__all__ = ["EXPLAIN_SCHEMA", "explain_point", "render_explain_doc"]

#: Schema tag of the explain data document.
EXPLAIN_SCHEMA = "repro.explain/1"


def _default_technique(scenario: ScenarioSpec) -> str:
    """CORO when the scenario sweeps it (the paper's headline executor)."""
    for technique in scenario.techniques:
        if technique.lower() == "coro":
            return technique
    return scenario.techniques[-1]


def _resolve_technique(scenario: ScenarioSpec, technique: str | None) -> str:
    if technique is None:
        return _default_technique(scenario)
    for candidate in scenario.techniques:
        if candidate.lower() == technique.lower():
            return candidate
    raise WorkloadError(
        f"scenario {scenario.name!r} does not sweep technique "
        f"{technique!r} (have: {', '.join(scenario.techniques)})"
    )


def _resolve_load(scenario: ScenarioSpec, load: float | None) -> float:
    if load is None:
        return max(scenario.loads)
    if load not in scenario.loads:
        raise WorkloadError(
            f"scenario {scenario.name!r} does not sweep load x{load:g} "
            f"(have: {', '.join(f'x{l:g}' for l in scenario.loads)})"
        )
    return load


def explain_point(
    scenario,
    *,
    technique: str | None = None,
    load: float | None = None,
    seed: int = 0,
    faults=None,
    q: float = 99,
) -> dict:
    """Explain the p-``q`` exemplar request of one sweep point.

    ``scenario`` accepts any reference :func:`repro.scenario.
    resolve_scenario` does (catalogue name, ``file:`` path, spec dict or
    object). ``technique`` defaults to CORO (or the scenario's last
    technique); ``load`` to the scenario's highest
    multiplier — the corner where tail latency is interesting. Returns
    the ``repro.explain/1`` document; raises :class:`WorkloadError` for
    names/loads the scenario does not sweep and
    :class:`SimulationError` if the traced re-run contradicts itself
    (which would be a tracer bug, not user error). When the scenario
    configures the adaptive controller, the document grows a
    ``"control"`` section — the point's cycle-stamped ``control.*``
    window decisions — so the critical path can be read against what
    the control plane did to the serving loop around it.
    """
    scenario = _resolve_ref(scenario)
    technique = _resolve_technique(scenario, technique)
    load = _resolve_load(scenario, load)
    if faults is None:
        faults = scenario.fault_profile

    # Calibrate capacity exactly the way the sweep does, so the traced
    # point replays the same offered load as `serve <scenario>`.
    _, capacity, _ = _calibrate(scenario, seed)
    outcome = measure_service_point(
        scenario, technique, load, seed, faults, capacity, True
    )

    slo = outcome["slo"]
    exemplar = exemplar_from_dict(slo["hist"], q)
    if exemplar is None:
        raise SimulationError(
            f"{scenario.name}/{technique}@x{load:g}: no answered requests "
            "to explain"
        )
    trace = None
    for candidate in outcome["traces"]:
        if candidate["trace_id"] == exemplar.trace_id:
            trace = candidate
            break
    if trace is None:  # pragma: no cover - exemplar ids come from traces
        raise SimulationError(
            f"exemplar {exemplar.trace_id} has no span tree"
        )
    defects = trace_errors(trace)
    if defects:  # pragma: no cover - tracer invariant
        raise SimulationError(
            f"exemplar trace {exemplar.trace_id} is malformed: "
            + "; ".join(defects)
        )
    path = critical_path(trace)
    doc = {
        "kind": "explain",
        "schema": EXPLAIN_SCHEMA,
        "scenario": scenario.name,
        "technique": technique,
        "load_multiplier": load,
        "seed": seed,
        "fault_profile": _fault_name(faults) if outcome["chaos"] else "none",
        "q": q,
        "point_p99": slo["p99"],
        "point_served": slo["served"],
        "exemplar": exemplar.as_dict(),
        "critical_path": path,
    }
    control = outcome["point"].get("control")
    if control is not None:
        doc["control"] = control
    return doc


def render_explain_doc(doc: dict) -> str:
    """Render an explain document as the CLI's ASCII artifact."""
    from repro.analysis.reporting import format_table

    path = doc["critical_path"]
    title = (
        f"explain {doc['scenario']}/{doc['technique']}@x"
        f"{doc['load_multiplier']:g} p{doc['q']:g}: request "
        f"{path['trace_id']} ({path['outcome']}, {path['latency']} cycles, "
        f"{path['attempts']} attempt(s))"
    )
    stage_rows = [
        [s["name"], s["start"], s["end"], s["cycles"], f"{s['pct']:.2f}"]
        for s in path["stages"]
    ]
    out = [
        format_table(
            ["stage", "start", "end", "cycles", "pct"],
            stage_rows,
            title=title,
        )
    ]
    if path["attempt_spans"]:
        attempt_rows = [
            [
                a["name"],
                a["lane"],
                a["start"],
                a["end"],
                a["cycles"],
                a["status"] + ("*" if a["winner"] else ""),
                "hedge" if a["hedge"] else "-",
                ",".join(a["faults"]) or "-",
            ]
            for a in path["attempt_spans"]
        ]
        out.append(
            format_table(
                [
                    "attempt",
                    "lane",
                    "start",
                    "end",
                    "cycles",
                    "status",
                    "kind",
                    "faults",
                ],
                attempt_rows,
                title="dispatch attempts (* = winner)",
            )
        )
    if "control" in doc:
        control = doc["control"]
        window_rows = [
            [
                w["window"],
                w["start"],
                w["end"],
                w["signals"]["p99"],
                w["signals"]["queue_depth"],
                "; ".join(
                    f"{k}={v}" for k, v in sorted(w["actions"].items())
                )
                or "-",
            ]
            for w in control["windows"]
        ]
        out.append(
            format_table(
                ["window", "start", "end", "p99", "queue", "actions"],
                window_rows,
                title=(
                    f"control plane (W={control['window_cycles']}, "
                    f"{control['decisions']} decision(s))"
                ),
            )
        )
    return "\n\n".join(out)

"""repro.service — the simulated-time online serving layer.

The paper evaluates interleaved index joins as offline bulk probes; this
package carries the same executors into *online* traffic, where the
robustness claim actually bites: a server cannot choose its workload.
Requests arrive in simulated cycles through pluggable arrival processes
(:mod:`~repro.service.arrivals`), pass an admission controller with a
bounded queue and token-bucket rate limiting
(:mod:`~repro.service.admission`), coalesce into
``max_batch``/``max_wait_cycles``-bounded groups
(:mod:`~repro.service.coalescer`), and dispatch through the executor
registry onto shared-LLC engine shards
(:mod:`~repro.service.server`). The throughput-vs-latency sweep lives
in :mod:`~repro.service.loadgen` (the scenarios it serves are specs in
:mod:`repro.scenario`); ``python -m repro serve <scenario>`` is the
CLI surface and ``docs/serving.md`` the narrative.
"""

from repro.service.admission import (
    OVERLOAD_POLICIES,
    AdmissionController,
    TokenBucket,
)
from repro.service.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    BurstyArrivals,
    ClosedLoopArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.service.coalescer import Coalescer
from repro.service.explain import (
    EXPLAIN_SCHEMA,
    explain_point,
    render_explain_doc,
)
from repro.service.loadgen import (
    CHAOS_SCHEMA,
    SERVICE_SCHEMA,
    SLO_SCHEMA,
    fault_horizon,
    render_service_doc,
    run_scenario,
    run_slo_scenario,
    run_traced_scenario,
    sequential_capacity,
)
from repro.service.request import OUTCOMES, Request
from repro.service.server import (
    PERCENTILES,
    ServiceConfig,
    ServiceReport,
    ServiceServer,
)

__all__ = [
    "ARRIVAL_KINDS",
    "CHAOS_SCHEMA",
    "EXPLAIN_SCHEMA",
    "OUTCOMES",
    "OVERLOAD_POLICIES",
    "PERCENTILES",
    "SERVICE_SCHEMA",
    "SLO_SCHEMA",
    "AdmissionController",
    "ArrivalProcess",
    "BurstyArrivals",
    "Coalescer",
    "ClosedLoopArrivals",
    "PoissonArrivals",
    "Request",
    "ServiceConfig",
    "ServiceReport",
    "ServiceServer",
    "TokenBucket",
    "explain_point",
    "fault_horizon",
    "make_arrivals",
    "render_explain_doc",
    "render_service_doc",
    "run_scenario",
    "run_slo_scenario",
    "run_traced_scenario",
    "sequential_capacity",
]

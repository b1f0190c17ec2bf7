"""Request-centric tracing: one causally-linked span tree per request.

The engine-level tracer (:mod:`repro.obs.spans`) answers "what did the
*executor* do with its cycles"; this module answers the serving-side
question — "what happened to *this request*". A
:class:`RequestTracer` handed to :class:`~repro.service.server.
ServiceServer` observes every lifecycle edge the serving stack has:

* admission verdicts (admit / reject / rate-limit / drop / shed),
* coalescing (which batch a request joined, and when it was forced out),
* every dispatch attempt — including hedged duplicates, with the loser
  explicitly *cancelled* at the winner's completion and linked to the
  span that beat it, and crashed legs closed at the crash cycle with
  their restart window attached,
* retry backoff intervals and head-of-queue requeues,
* fault annotations: the fault windows a leg executed under, and every
  applied point fault.

From those events :meth:`RequestTracer.traces` reconstructs, for every
request, a **rooted span tree over simulated cycles** with two layers:

* a *stage* layer — ``coalesce`` → ``queue`` → ``execute`` (or
  ``shed-wait`` → ``execute`` on the overflow lane) — that tiles
  ``[arrival, end]`` exactly, so stage cycles sum to the end-to-end
  latency by construction (:func:`trace_errors` checks this and the
  tests pin it per scenario);
* an *attempt* layer — one span per dispatch leg, causally ordered,
  overlapping the stage layer wherever retries and hedges actually
  spent the cycles.

Trace ids are pure functions of the request (index + arrival cycle), so
two runs of the same seed produce byte-identical trace sets — which is
what lets ``python -m repro explain`` re-derive "the p99 request" and
get the same answer every time.

The default server wiring is :data:`NULL_REQUEST_TRACER`
(``enabled = False``): every hook is a no-op and every call site is
gated on ``enabled``, so an untraced run does not even build the
argument tuples — bit-identical to a server that predates tracing.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator

from repro.errors import SimulationError

__all__ = [
    "REQUEST_TRACE_SCHEMA",
    "SPAN_KINDS",
    "NULL_REQUEST_TRACER",
    "NullRequestTracer",
    "RequestTracer",
    "critical_path",
    "request_chrome_trace",
    "request_traces_jsonl",
    "trace_errors",
]

#: Schema tag of the request-level Chrome-trace document.
REQUEST_TRACE_SCHEMA = "repro.request-trace/1"

#: Span kinds a request trace may contain. ``request`` is the root;
#: ``stage`` spans tile the end-to-end window; ``attempt`` spans are
#: dispatch legs; ``backoff`` spans are crash-retry waits; ``mark``
#: spans are zero-width lifecycle instants.
SPAN_KINDS = ("request", "stage", "attempt", "backoff", "mark")


class NullRequestTracer:
    """The disabled tracer: every hook is a no-op.

    Server, admission controller, and coalescer all hold one of these
    by default and additionally gate their calls on :attr:`enabled`,
    so the untraced hot path never pays for tracing.
    """

    enabled = False

    def on_admission(self, request, verdict: str, *, rate_limited: bool = False) -> None:
        pass

    def on_coalesce(self, batch, trigger: int) -> None:
        pass

    def begin_dispatch(self) -> int:
        return 0

    def on_attempt(
        self,
        batch,
        *,
        dispatch_id: int,
        lane,
        start: int,
        end: int,
        group_size: int,
        status: str = "ok",
        winner: bool = False,
        hedge: bool = False,
        planned_start: int | None = None,
        planned_end: int | None = None,
        restart_until: int | None = None,
        faults: tuple = (),
    ) -> None:
        pass

    def on_backoff(self, request, failure_at: int, resume_at: int) -> None:
        pass

    def on_requeue(self, request, cycle: int) -> None:
        pass

    def on_timeout(self, request, cycle: int) -> None:
        pass

    def on_failed(self, request, cycle: int) -> None:
        pass

    def on_fault_point(self, event) -> None:
        pass

    def record_schedule(self, schedule) -> None:
        pass


#: The shared do-nothing tracer (stateless, safe to share everywhere).
NULL_REQUEST_TRACER = NullRequestTracer()


class RequestTracer(NullRequestTracer):
    """Records serving lifecycle events; builds span trees on demand.

    Purely observational: it never advances simulated time and never
    feeds anything back into the server, so a traced run's report is
    bit-identical to an untraced one (pinned by the integration tests).
    """

    enabled = True

    def __init__(self) -> None:
        self._requests: dict[int, object] = {}
        self._events: dict[int, list[tuple[str, int, dict]]] = {}
        self._dispatch_seq = 0
        #: Applied point faults, in application order: ``(cycle, kind, shard)``.
        self.fault_points: list[tuple[int, str, int | None]] = []
        #: Scheduled fault windows: ``(at, until, kind, shard)``.
        self.fault_windows: list[tuple[int, int, str, int | None]] = []

    # ------------------------------------------------------------------
    # Recording hooks (called by the serving stack)
    # ------------------------------------------------------------------

    def _record(self, request, kind: str, cycle: int, **attrs) -> None:
        index = request.index
        if index not in self._requests:
            self._requests[index] = request
            self._events[index] = []
        self._events[index].append((kind, cycle, attrs))

    def on_admission(self, request, verdict: str, *, rate_limited: bool = False) -> None:
        self._record(
            request,
            "admission",
            request.arrival,
            verdict=verdict,
            rate_limited=rate_limited,
        )

    def on_coalesce(self, batch, trigger: int) -> None:
        for request in batch:
            self._record(request, "coalesce", trigger)

    def begin_dispatch(self) -> int:
        self._dispatch_seq += 1
        return self._dispatch_seq

    def on_attempt(
        self,
        batch,
        *,
        dispatch_id: int,
        lane,
        start: int,
        end: int,
        group_size: int,
        status: str = "ok",
        winner: bool = False,
        hedge: bool = False,
        planned_start: int | None = None,
        planned_end: int | None = None,
        restart_until: int | None = None,
        faults: tuple = (),
    ) -> None:
        """One dispatch leg, closed at its *effective* end.

        ``status`` is ``"ok"``, ``"crashed"`` (closed at the crash
        cycle, ``restart_until`` carrying the shard's comeback), or
        ``"cancelled"`` (a hedge loser closed at the winner's
        completion, ``planned_start``/``planned_end`` carrying where it
        would actually have run). ``lane`` is a shard index or
        ``"overflow"``.
        """
        for request in batch:
            self._record(
                request,
                "attempt",
                start,
                end=end,
                dispatch=dispatch_id,
                lane=lane,
                group_size=group_size,
                status=status,
                winner=winner,
                hedge=hedge,
                planned_start=planned_start,
                planned_end=planned_end,
                restart_until=restart_until,
                faults=tuple(faults),
            )

    def on_backoff(self, request, failure_at: int, resume_at: int) -> None:
        self._record(request, "backoff", failure_at, until=resume_at)

    def on_requeue(self, request, cycle: int) -> None:
        self._record(request, "requeue", cycle)

    def on_timeout(self, request, cycle: int) -> None:
        self._record(request, "timeout", cycle)

    def on_failed(self, request, cycle: int) -> None:
        self._record(request, "failed", cycle)

    def on_fault_point(self, event) -> None:
        self.fault_points.append((event.at, event.kind, event.shard))

    def record_schedule(self, schedule) -> None:
        for event in schedule.events:
            if event.is_window:
                self.fault_windows.append(
                    (event.at, event.until, event.kind, event.shard)
                )

    # ------------------------------------------------------------------
    # Trace building
    # ------------------------------------------------------------------

    def traces(self) -> list[dict]:
        """One span tree per observed request, in request-index order."""
        return [self.trace_for(index) for index in sorted(self._requests)]

    def trace_for(self, index: int) -> dict:
        if index not in self._requests:
            raise SimulationError(f"no trace recorded for request {index}")
        return _build_trace(self._requests[index], self._events[index])


def _terminal_cycle(request, events) -> int:
    """The cycle this request left the system."""
    if request.finished:
        return request.completion
    for kind, cycle, _ in reversed(events):
        if kind in ("timeout", "failed"):
            return cycle
    # Rejected/dropped arrivals leave immediately.
    return request.arrival


def _stage_plan(request, end: int) -> list[tuple[str, int, int]]:
    """The gap-free stage tiling of ``[arrival, end]`` for one request."""
    arrival = request.arrival
    if end <= arrival:
        return []
    if request.outcome == "shed":
        # Overflow-lane path: no coalescing happened; the wait is for
        # the sequential lane itself.
        return [
            ("shed-wait", arrival, request.dispatch),
            ("execute", request.dispatch, request.completion),
        ]
    trigger = request.trigger if request.trigger is not None else arrival
    forming_end = min(end, max(arrival, trigger))
    if request.finished:
        return [
            ("coalesce", arrival, forming_end),
            ("queue", forming_end, request.dispatch),
            ("execute", request.dispatch, request.completion),
        ]
    # Timeout / failed: the request died waiting — no execute stage.
    return [
        ("coalesce", arrival, forming_end),
        ("queue", forming_end, end),
    ]


def _build_trace(request, events) -> dict:
    end = _terminal_cycle(request, events)
    arrival = request.arrival
    spans: list[dict] = []

    def add(kind, name, start, stop, parent, **attrs) -> int:
        span_id = len(spans) + 1
        spans.append(
            {
                "id": span_id,
                "parent": parent,
                "kind": kind,
                "name": name,
                "start": start,
                "end": stop,
                "attrs": {k: v for k, v in attrs.items() if v is not None},
            }
        )
        return span_id

    root = add(
        "request",
        request.trace_id,
        arrival,
        end,
        None,
        outcome=request.outcome,
        attempts=request.attempts,
    )
    for name, start, stop in _stage_plan(request, end):
        add("stage", name, start, stop, root)

    attempt_no = 0
    winners: dict[int, int] = {}
    losers: list[tuple[int, int]] = []  # (span index, dispatch id)
    for kind, cycle, attrs in events:
        if kind == "admission":
            add("mark", "admission", cycle, cycle, root, **attrs)
        elif kind == "coalesce":
            # A trigger can pre-date this member's arrival (it filled a
            # late slot of an already-forced batch): clamp the mark into
            # the root window, keeping the true cycle as an attribute.
            at = min(max(cycle, arrival), end)
            add(
                "mark",
                "batch-trigger",
                at,
                at,
                root,
                trigger=cycle if cycle != at else None,
            )
        elif kind == "attempt":
            attempt_no += 1
            attrs = dict(attrs)
            stop = attrs.pop("end")
            dispatch_id = attrs.pop("dispatch")
            faults = attrs.pop("faults", ())
            if faults:
                attrs["faults"] = list(faults)
            span_id = add(
                "attempt",
                f"attempt {attempt_no}",
                cycle,
                max(cycle, stop),
                root,
                **attrs,
            )
            if attrs.get("winner"):
                winners[dispatch_id] = span_id
            elif attrs.get("status") == "cancelled":
                losers.append((span_id - 1, dispatch_id))
        elif kind == "backoff":
            add("backoff", "retry-backoff", cycle, attrs["until"], root)
        elif kind in ("requeue", "timeout", "failed"):
            add("mark", kind, cycle, cycle, root)
    # A cancelled hedge loser races *against* a specific winner: link it.
    for span_index, dispatch_id in losers:
        winner_id = winners.get(dispatch_id)
        if winner_id is not None:
            spans[span_index]["attrs"]["raced_with"] = winner_id

    return {
        "schema_kind": "request-trace",
        "trace_id": request.trace_id,
        "index": request.index,
        "outcome": request.outcome,
        "arrival": arrival,
        "end": end,
        "latency": end - arrival,
        "attempts": request.attempts,
        "spans": spans,
    }


# ----------------------------------------------------------------------
# Validation, critical path, exporters
# ----------------------------------------------------------------------


def trace_errors(trace: dict) -> list[str]:
    """Structural defects of one span tree (empty list = well-formed).

    Checks the properties the acceptance tests lean on: exactly one
    root; every parent resolves; every span inside the root window with
    ``start <= end``; and the stage layer tiles ``[arrival, end]``
    gap-free, so stage cycles sum to the end-to-end latency.
    """
    errors: list[str] = []
    spans = trace["spans"]
    ids = {span["id"] for span in spans}
    roots = [span for span in spans if span["parent"] is None]
    if len(roots) != 1 or roots[0]["kind"] != "request":
        errors.append(f"expected exactly one request root, got {len(roots)}")
        return errors
    root = roots[0]
    if root["start"] != trace["arrival"] or root["end"] != trace["end"]:
        errors.append("root span does not cover [arrival, end]")
    for span in spans:
        if span["kind"] not in SPAN_KINDS:
            errors.append(f"span {span['id']}: unknown kind {span['kind']!r}")
        if span["parent"] is not None and span["parent"] not in ids:
            errors.append(f"span {span['id']}: orphan (parent {span['parent']})")
        if span["end"] < span["start"]:
            errors.append(f"span {span['id']}: unclosed or inverted interval")
        if span["start"] < root["start"] or span["end"] > root["end"]:
            errors.append(f"span {span['id']}: escapes the root window")
    stages = [span for span in spans if span["kind"] == "stage"]
    if stages:
        cursor = trace["arrival"]
        for stage in stages:
            if stage["start"] != cursor:
                errors.append(f"stage {stage['name']}: gap at cycle {cursor}")
            cursor = stage["end"]
        if cursor != trace["end"]:
            errors.append("stage tiling stops short of the trace end")
        if sum(s["end"] - s["start"] for s in stages) != trace["latency"]:
            errors.append("stage cycles do not sum to the end-to-end latency")
    elif trace["latency"] != 0:
        errors.append("non-zero latency but no stage tiling")
    return errors


def critical_path(trace: dict) -> dict:
    """Per-stage cycle and percentage attribution for one trace.

    The payload behind ``python -m repro explain``: every stage with
    its cycle count and share of the end-to-end latency, plus the
    attempt timeline (hedges, crashes, cancellations) that explains
    *why* the queue/execute stages cost what they did.
    """
    latency = trace["latency"]
    stages = []
    for span in trace["spans"]:
        if span["kind"] != "stage":
            continue
        cycles = span["end"] - span["start"]
        stages.append(
            {
                "name": span["name"],
                "start": span["start"],
                "end": span["end"],
                "cycles": cycles,
                "pct": round(100.0 * cycles / latency, 2) if latency else 0.0,
            }
        )
    attempts = []
    for span in trace["spans"]:
        if span["kind"] != "attempt":
            continue
        attrs = span["attrs"]
        attempts.append(
            {
                "name": span["name"],
                "lane": attrs.get("lane"),
                "start": span["start"],
                "end": span["end"],
                "cycles": span["end"] - span["start"],
                "status": attrs.get("status", "ok"),
                "winner": bool(attrs.get("winner")),
                "hedge": bool(attrs.get("hedge")),
                "group_size": attrs.get("group_size"),
                "faults": list(attrs.get("faults", [])),
            }
        )
    return {
        "trace_id": trace["trace_id"],
        "outcome": trace["outcome"],
        "arrival": trace["arrival"],
        "end": trace["end"],
        "latency": latency,
        "attempts": trace["attempts"],
        "stages": stages,
        "attempt_spans": attempts,
    }


#: Chrome-trace thread id hosting the fault timeline.
_FAULT_TID = 999_999


def request_chrome_trace(
    traces: Iterable[dict],
    *,
    label: str = "serve",
    fault_windows: Iterable[tuple] = (),
    fault_points: Iterable[tuple] = (),
) -> dict:
    """Trace Event Format document over request span trees.

    One process (``pid 0``) named ``label``; each request is a thread
    whose name is its trace id, carrying its span tree as complete
    events (zero-width spans become instants). Fault windows and point
    faults — as recorded by :meth:`RequestTracer.record_schedule` /
    ``on_fault_point`` — land on a dedicated ``faults`` thread so
    outages line up visually with the request gaps they caused.
    """
    events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": label}}
    ]
    for trace in traces:
        tid = trace["index"]
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": trace["trace_id"]},
            }
        )
        for span in trace["spans"]:
            args = dict(span["attrs"])
            if span["end"] == span["start"]:
                event = {
                    "name": span["name"],
                    "cat": span["kind"],
                    "ph": "i",
                    "s": "t",
                    "ts": span["start"],
                    "pid": 0,
                    "tid": tid,
                }
            else:
                event = {
                    "name": span["name"],
                    "cat": span["kind"],
                    "ph": "X",
                    "ts": span["start"],
                    "dur": span["end"] - span["start"],
                    "pid": 0,
                    "tid": tid,
                }
            if args:
                event["args"] = args
            events.append(event)
    fault_rows = list(fault_windows) + [
        (at, at, kind, shard) for at, kind, shard in fault_points
    ]
    if fault_rows:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": _FAULT_TID,
                "args": {"name": "faults"},
            }
        )
        for at, until, kind, shard in sorted(fault_rows):
            args = {"shard": "all" if shard is None else shard}
            if until > at:
                events.append(
                    {
                        "name": kind,
                        "cat": "fault",
                        "ph": "X",
                        "ts": at,
                        "dur": until - at,
                        "pid": 0,
                        "tid": _FAULT_TID,
                        "args": args,
                    }
                )
            else:
                events.append(
                    {
                        "name": kind,
                        "cat": "fault",
                        "ph": "i",
                        "s": "t",
                        "ts": at,
                        "pid": 0,
                        "tid": _FAULT_TID,
                        "args": args,
                    }
                )
    return {
        "schema": REQUEST_TRACE_SCHEMA,
        "displayTimeUnit": "ms",
        "otherData": {"time_unit": "cycles", "note": "1 trace µs == 1 simulated cycle"},
        "traceEvents": events,
    }


def request_traces_jsonl(traces: Iterable[dict]) -> Iterator[str]:
    """Yield one compact JSON line per request trace, greppable."""
    for trace in traces:
        yield json.dumps(trace, sort_keys=True)

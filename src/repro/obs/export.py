"""Chrome trace-event export: one timeline for the whole fork tree.

Takes the per-process telemetry snapshots the `telemetry` command
returns (metrics plus the event ring's spans and debug-log instants,
each stamped with a wall/monotonic clock pair) and merges them into a
single JSON document in the Chrome trace-event format, loadable in
``about:tracing`` or Perfetto.  Spans become complete (``X``) events,
instants become instant (``i``) events.

Cross-process time alignment uses each snapshot's **clock anchor**
(``{"wall": time.time(), "mono": time.monotonic()}`` taken at snapshot
time): an event recorded at monotonic ``m`` maps to wall time
``anchor_wall - (anchor_mono - m)``.  Wall clocks are only trusted for
the anchor instant — every offset within a process comes from its
monotonic clock, so an NTP step mid-run skews one anchor, not every
record.

Causality: spans carry ids (``id`` / ``parent`` / ``trace``, minted by
:mod:`repro.obs.causality`), surfaced in each event's args.  A span
whose args contain a ``flow`` descriptor —

    {"kind": "fork"|"rpc", "parent_span": id, "parent_pid": pid,
     "wall": stamp}

— marks a causal edge *from another process* (the parent's in-flight
``fork.bracket`` span, or the client span that sent a request).  The
exporter renders those as Chrome flow events: an ``s`` (start) at the
source process/time and an ``f`` (finish, ``bp: "e"``) bound to the
destination span, so the viewer draws an arrow from the fork bracket
into the child's root span, and from a shell command into the server
work it caused.

Reference: the Trace Event Format spec (Chromium catapult project).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from .spans import is_instant

#: event phases the exporter emits / the validator accepts
_PHASES = ("X", "B", "E", "i", "I", "C", "M", "s", "t", "f")
_FLOW_PHASES = ("s", "t", "f")


def _anchor_us(snapshot: Dict[str, Any], mono: float) -> float:
    """Map a monotonic stamp from *snapshot*'s process to wall-clock µs."""
    clock = snapshot.get("clock") or {}
    anchor_wall = clock.get("wall")
    anchor_mono = clock.get("mono")
    if anchor_wall is None or anchor_mono is None:
        return mono * 1e6  # degenerate: no anchor, monotonic-only trace
    return (anchor_wall - (anchor_mono - mono)) * 1e6


def _flow_events(span: Dict[str, Any], span_ts: float,
                 pid: int) -> List[Dict[str, Any]]:
    """The s/f pair for a span whose args carry a ``flow`` descriptor."""
    flow = (span.get("args") or {}).get("flow")
    if not isinstance(flow, dict):
        return []
    parent_pid = flow.get("parent_pid")
    flow_id = span.get("id") or f"flow-{pid}-{span.get('mono', 0)}"
    if not isinstance(parent_pid, int):
        return []
    kind = str(flow.get("kind", "flow"))
    # The source stamp is a wall time captured *in the source process*
    # when the context was minted — the same trust model as a snapshot
    # anchor, and available even when the source process left no dump.
    source_wall = flow.get("wall")
    source_ts = (float(source_wall) * 1e6 if isinstance(source_wall,
                 (int, float)) and source_wall else span_ts)
    name = f"{kind}-flow"
    return [
        {"name": name, "cat": "flow", "ph": "s", "id": flow_id,
         "ts": source_ts, "pid": parent_pid, "tid": 0},
        {"name": name, "cat": "flow", "ph": "f", "bp": "e", "id": flow_id,
         "ts": span_ts, "pid": pid, "tid": span.get("tid", 0)},
    ]


def chrome_trace(snapshots: Iterable[Dict[str, Any]],
                 client_snapshot: Optional[Dict[str, Any]] = None
                 ) -> Dict[str, Any]:
    """Merge telemetry *snapshots* into one trace-event document.

    Each snapshot is the result of the ``telemetry`` protocol command:
    pid / program / fork_generation identity, a clock anchor, a metrics
    snapshot and the ring's records (spans and instants).
    *client_snapshot* optionally adds the client process's own
    telemetry under a synthetic "client" process.
    """
    events: List[Dict[str, Any]] = []
    all_snapshots = list(snapshots)
    if client_snapshot is not None:
        client_snapshot = dict(client_snapshot)
        client_snapshot.setdefault("program", "debug client")
        all_snapshots.append(client_snapshot)

    for snap in all_snapshots:
        pid = snap.get("pid") or (snap.get("metrics") or {}).get(
            "labels", {}).get("pid", 0)
        program = snap.get("program") or "debuggee"
        generation = snap.get("fork_generation")
        name = f"{program} (pid {pid}"
        if generation is not None:
            name += f", gen {generation}"
        name += ")"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": name}})

        # Spans → complete ("X") events (+ flow edges for cross-process
        # causal links); debug-log instants → instant ("i") events.
        for span in snap.get("spans") or []:
            span_pid = span.get("pid", pid)
            span_ts = _anchor_us(snap, span["mono"])
            if is_instant(span):
                events.append({"name": span["name"],
                               "cat": span.get("cat", "log"), "ph": "i",
                               "s": "t", "ts": span_ts, "pid": span_pid,
                               "tid": span.get("tid", 0)})
                continue
            event = {
                "name": span["name"],
                "cat": span.get("cat", "debug"),
                "ph": "X",
                "ts": span_ts,
                "dur": max(span.get("dur", 0.0), 0.0) * 1e6,
                "pid": span_pid,
                "tid": span.get("tid", 0),
            }
            args = dict(span.get("args") or {})
            for key, arg in (("id", "span_id"), ("parent", "parent_span_id"),
                             ("trace", "trace_id")):
                if span.get(key) is not None:
                    args[arg] = span[key]
            if args:
                event["args"] = args
            events.append(event)
            events.extend(_flow_events(span, span_ts, span_pid))

        # Counters → one "C" sample at the snapshot instant.
        metrics = snap.get("metrics") or {}
        clock = snap.get("clock") or {}
        snap_ts = (clock.get("wall", 0.0)) * 1e6
        for key, value in sorted((metrics.get("counters") or {}).items()):
            events.append({"name": key, "ph": "C", "ts": snap_ts,
                           "pid": pid, "tid": 0,
                           "args": {"value": value}})

    # Normalise to a small time origin so viewers show offsets, not
    # epoch microseconds; guard against an empty trace.
    stamped = [e for e in events if "ts" in e]
    origin = 0.0
    if stamped:
        origin = min(e["ts"] for e in stamped)
        for event in stamped:
            event["ts"] = round(event["ts"] - origin, 3)

    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.obs",
            "processes": sorted({s.get("pid", 0) for s in all_snapshots}),
            "origin_us": origin,
        },
    }


def write_chrome_trace(path: str, snapshots: Iterable[Dict[str, Any]],
                       client_snapshot: Optional[Dict[str, Any]] = None
                       ) -> Dict[str, Any]:
    """Export and write the trace JSON to *path*; returns the document."""
    document = chrome_trace(snapshots, client_snapshot=client_snapshot)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, separators=(",", ":"))
    return document


def validate_trace(document: Dict[str, Any]) -> List[str]:
    """Schema check for the exported document (used by tests and the
    CLI): returns a list of problems, empty when the trace is valid."""
    problems: List[str] = []
    if not isinstance(document, dict):
        return ["document is not an object"]
    events = document.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i} is not an object")
            continue
        ph = event.get("ph")
        if ph not in _PHASES:
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"event {i}: missing name")
        if ph != "M":
            if not isinstance(event.get("ts"), (int, float)):
                problems.append(f"event {i}: missing ts")
            if event.get("ts", 0) < 0:
                problems.append(f"event {i}: negative ts")
        if ph == "X" and not isinstance(event.get("dur"), (int, float)):
            problems.append(f"event {i}: X event without dur")
        if ph in _FLOW_PHASES and not isinstance(event.get("id"),
                                                 (str, int)):
            problems.append(f"event {i}: flow event without id")
        if not isinstance(event.get("pid"), int):
            problems.append(f"event {i}: missing pid")
    try:
        json.dumps(document)
    except (TypeError, ValueError) as exc:
        problems.append(f"document is not JSON-serializable: {exc}")
    return problems

"""repro.obs — fork-aware telemetry for the debugger itself.

The paper promises *low intrusion* (§3); this package is how we keep
that promise measurable instead of asserted.  Five layers:

* :mod:`repro.obs.metrics` — lock-light counters / gauges / fixed-bucket
  histograms with per-thread shards, merged only on snapshot;
* :mod:`repro.obs.spans` — the one in-memory event ring: begin/end
  spans and debug-log instants (:func:`debug_event`), stamped with
  wall+monotonic clock pairs, spans with causal span ids;
* :mod:`repro.obs.causality` — trace contexts propagated across
  threads, ``fork()`` and the wire, so a shell command stays causally
  linked to the fork-tree activity it triggers;
* :mod:`repro.obs.blackbox` — a bounded per-process flight-recorder
  *file* (``DIONEA_BLACKBOX_DIR``) that survives the process, flushed
  with reason codes on terminal events;
* :mod:`repro.obs.export` / :mod:`repro.obs.timeline` — merge live
  telemetry snapshots and black-box dumps into one Chrome trace-event
  JSON (``about:tracing`` / Perfetto), fork flow edges included.

Everything is process-global (one registry + one event ring per
process) and fork-aware: the obs fork handler
registered by :mod:`repro.core.handlers` snapshots-and-resets the
child's registry, re-labels it with the child's pid and session epoch,
roots the child's trace under the parent's in-flight fork span, and
rotates the black box onto a fresh dump file.

The ``telemetry`` protocol command returns :func:`telemetry_snapshot`;
``DebugClient.cluster_telemetry`` aggregates it across every live
session and ``DebugClient.cluster_timeline`` folds in the dumps of the
dead.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, Optional

from ..util import locks
from . import causality
from .blackbox import BLACKBOX, install_crash_hooks
from .export import chrome_trace, validate_trace, write_chrome_trace
from .metrics import (
    REGISTRY,
    MetricsRegistry,
    enabled,
    inc,
    labeled,
    observe,
    register_gauge,
    set_enabled,
    set_gauge,
)
from .spans import SPANS, SpanRecorder, debug_event, span

__all__ = [
    "BLACKBOX", "REGISTRY", "MetricsRegistry", "SPANS", "SpanRecorder",
    "causality", "chrome_trace", "configure_blackbox", "debug_event",
    "enabled", "inc", "labeled", "observe", "register_gauge",
    "reset_after_exec", "reset_after_fork", "set_enabled", "set_gauge",
    "span", "telemetry_snapshot", "validate_trace", "write_chrome_trace",
]

#: the `telemetry` reader's cursor on the event ring (a reset moves
#: it), and the lock that makes reading and moving it one step
_telemetry_lock = locks.Lock()
_telemetry_cursor = 0


def telemetry_snapshot(reset: bool = False) -> Dict[str, Any]:
    """One process's full telemetry view, JSON-ready.

    The ``clock`` anchor (wall + monotonic, captured together) is what
    lets the exporter place this process's monotonic stamps on a shared
    wall-clock timeline.  ``trace`` is the process's root trace context
    (its causal link to the fork tree); ``blackbox`` names the durable
    dump, if one is being written.  ``spans`` holds the ring's spans and
    instants from telemetry's cursor on.  With ``reset``, counters and
    histograms are drained and the cursor moves past what was read, so
    the next snapshot covers only the interval since this one.  The
    ring itself is never cleared: a telemetry poll must not eat the
    crash evidence the black box and `debug_log` read.
    """
    global _telemetry_cursor
    with _telemetry_lock:
        cursor, _dropped, records = SPANS.drain_since(_telemetry_cursor)
        if reset:
            _telemetry_cursor = cursor
    return {
        "clock": {"wall": time.time(), "mono": time.monotonic()},
        "trace": causality.process_root().to_wire(),
        "blackbox": {"enabled": BLACKBOX.enabled, "path": BLACKBOX.path},
        "metrics": REGISTRY.snapshot(reset=reset),
        "spans": records,
    }


def _reset_ring() -> None:
    """Clear the event ring and rewind telemetry's cursor with it."""
    global _telemetry_cursor
    SPANS.reset_after_fork()
    _telemetry_cursor = 0


def configure_blackbox(program: str,
                       labels: Optional[Dict[str, Any]] = None) -> None:
    """Enable the crash black box when ``DIONEA_BLACKBOX_DIR`` is set
    (and install the unhandled-exception/atexit flush hooks); cheap
    no-op otherwise.  Called by the Dionea facade at start."""
    BLACKBOX.configure_from_env(program, labels=labels)
    if BLACKBOX.enabled:
        install_crash_hooks()


def reset_after_fork(labels: Optional[Dict[str, Any]] = None) -> None:
    """Child-side fork handler body: fresh registry + ring + trace root
    + black-box file, all child-labelled.

    The child's root span records the fork lineage — parent pid and the
    parent's in-flight ``fork.bracket`` span — which is what the
    exporter turns into a fork flow edge.  When the black box is
    enabled, that lineage is flushed to disk *immediately*: a child
    SIGKILLed (or ``os._exit``-ed) moments after fork must still appear
    in the post-mortem timeline with its flow edge.  The flush is safe
    here — phase C has unlocked the black box's lock and the child is
    single-threaded — and never raises (OSError marks the box broken).
    """
    parent_ctx = causality.reset_after_fork()
    _reset_ring()
    REGISTRY.reset_after_fork(labels=labels)
    BLACKBOX.reset_after_fork(
        parent_pid=parent_ctx.pid if parent_ctx else os.getppid())
    root = causality.process_root()
    args: Dict[str, Any] = {}
    if parent_ctx is not None:
        args["flow"] = {"kind": "fork", "parent_span": parent_ctx.span_id,
                        "parent_pid": parent_ctx.pid,
                        "wall": parent_ctx.wall}
    SPANS.record("process.root", "process", root.wall, root.mono, 0.0,
                 args or None, span_id=root.span_id,
                 parent_id=root.parent_span_id, trace_id=root.trace_id)
    BLACKBOX.flush()


def reset_after_exec(program: str,
                     labels: Optional[Dict[str, Any]] = None,
                     handoff: Optional[Dict[str, Any]] = None) -> None:
    """Exec-survival body: the process image changed but the pid (and
    any surviving session) did not — relabel the registry, continue the
    trace from the pre-exec root delivered via *handoff* (a
    ``TraceContext.to_wire`` dict), and rotate the black box exactly as
    the fork path does, so post-exec telemetry describes the new image
    instead of the one that called ``exec``.
    """
    parent_ctx = causality.reset_after_exec(handoff)
    _reset_ring()
    merged = {"program": program, "exec": 1}
    if parent_ctx is not None:
        merged["exec_of"] = parent_ctx.span_id
    merged.update(labels or {})
    REGISTRY.reset_after_fork(labels=merged)
    BLACKBOX.reset_after_exec(
        program, exec_of=dict(handoff) if handoff else None)
    root = causality.process_root()
    args: Dict[str, Any] = {"exec": True}
    if parent_ctx is not None:
        args["flow"] = {"kind": "exec", "parent_span": parent_ctx.span_id,
                        "parent_pid": parent_ctx.pid,
                        "wall": parent_ctx.wall}
    SPANS.record("process.exec", "process", root.wall, root.mono, 0.0,
                 args, span_id=root.span_id,
                 parent_id=root.parent_span_id, trace_id=root.trace_id)

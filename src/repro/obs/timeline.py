"""Post-mortem timeline assembly: live telemetry + black-box dumps.

The `telemetry` command only answers for processes that are alive to
answer.  This module merges what *is* alive with what the black box
(:mod:`repro.obs.blackbox`) preserved of what is not, into one causally
ordered Chrome-trace document for the whole fork tree — the artifact
behind ``DebugClient.cluster_timeline()`` and ``dionea timeline``.

Merge rules, chosen for honesty over tidiness:

* a process seen both live and in a dump contributes the **union** of
  its ring records, spans and debug-log instants alike, deduped by
  span id (by owner, name and monotonic stamp when a record has none),
  with the live snapshot preferred for metrics;
* dump records may arrive out of order, duplicated (a span batch can be
  flushed twice around a marker) or truncated mid-line (SIGKILL);
  the reader counts damage, the assembler dedupes, nothing is raised;
* every process with a dump gets a **terminal reason**: the first
  terminal marker's code, or ``"unclean"`` when the process died with
  no chance to write one — that *absence* is the interesting datum
  after a SIGKILL;
* a pid referenced by the tree (a fork flow edge, a recorded child pid)
  with neither a live snapshot nor a dump is an explicit **hole**:
  a synthetic process entry plus a ``blackbox:hole`` instant event, and
  a row in ``otherData.holes`` — never a silent omission.

Clock alignment is the exporter's anchor math: dumps anchor on the
wall+mono pair of their *latest* record (closest to death), so a
process whose wall clock was skewed still lands its spans in the right
place relative to its own anchor.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from .blackbox import BlackBoxDump, scan_dir
from .export import chrome_trace

#: terminal code assigned when a dump has no terminal marker
UNCLEAN = "unclean"


def _span_key(span: Dict[str, Any]) -> Tuple:
    """Dedupe identity for a ring record across snapshots and dumps.

    Not the ring ``seq``: it restarts at 0 in every image of an
    exec-rotated pid, so two images' records would collide."""
    if span.get("id") is not None:
        return ("id", span["id"])
    return ("pos", span.get("pid"), span.get("tid"), span.get("name"),
            round(float(span.get("mono", 0.0)), 9))


def snapshot_from_dump(dump: BlackBoxDump) -> Optional[Dict[str, Any]]:
    """Rebuild a telemetry-snapshot-shaped dict from one dump file."""
    pid = dump.pid
    if pid is None:
        return None
    program: Optional[str] = None
    labels: Dict[str, Any] = {}
    trace: Optional[Dict[str, Any]] = None
    spans: Dict[Tuple, Dict[str, Any]] = {}
    metrics: Optional[Dict[str, Any]] = None
    anchor: Optional[Tuple[float, float]] = None
    ring_dropped = 0
    for record in dump.records:
        wall, mono = record.get("wall"), record.get("mono")
        if isinstance(wall, (int, float)) and isinstance(mono, (int, float)):
            if anchor is None or mono >= anchor[1]:
                anchor = (float(wall), float(mono))
        kind = record.get("kind")
        if kind == "open":
            program = program or record.get("program")
            if isinstance(record.get("labels"), dict):
                labels.update(record["labels"])
            if isinstance(record.get("trace"), dict):
                trace = record["trace"]
        elif kind == "spans":
            for span in record.get("spans") or []:
                if isinstance(span, dict) and "mono" in span:
                    spans.setdefault(_span_key(span), span)
            try:
                ring_dropped += int(record.get("ring_dropped") or 0)
            except (TypeError, ValueError):
                pass
        elif kind == "metrics":
            if isinstance(record.get("snapshot"), dict):
                metrics = record["snapshot"]
    ordered = sorted(spans.values(),
                     key=lambda s: (s.get("seq") is None,
                                    s.get("seq", 0),
                                    s.get("mono", 0.0)))
    snapshot: Dict[str, Any] = {
        "pid": pid,
        "program": program or (labels.get("program") if isinstance(
            labels.get("program"), str) else None) or "debuggee",
        "spans": ordered,
        "metrics": metrics or {},
        "source": "blackbox",
        "blackbox_path": dump.path,
        "terminal": dump.terminal_reason() or UNCLEAN,
        "ring_dropped": ring_dropped,
        "corrupt_lines": dump.corrupt_lines,
    }
    if trace is not None:
        snapshot["trace"] = trace
    if anchor is not None:
        snapshot["clock"] = {"wall": anchor[0], "mono": anchor[1]}
    return snapshot


def _merge(live: Dict[str, Any], dumped: Dict[str, Any]) -> Dict[str, Any]:
    """One process seen both live and post-mortem: live wins for state,
    spans are unioned (the dump holds what rolled off the live ring)."""
    merged = dict(dumped)
    merged.update({k: v for k, v in live.items() if v not in (None, [], {})})
    seen: Dict[Tuple, Dict[str, Any]] = {}
    for span in (dumped.get("spans") or []) + (live.get("spans") or []):
        seen.setdefault(_span_key(span), span)
    merged["spans"] = sorted(seen.values(),
                             key=lambda s: (s.get("mono", 0.0)))
    merged["source"] = "merged"
    # A process still answering telemetry has not terminated.
    merged.pop("terminal", None)
    return merged


def _referenced_pids(snapshots: Iterable[Dict[str, Any]]) -> set:
    """Every pid the assembled tree *names*: span owners, fork flow
    sources, recorded children, trace-context parents."""
    pids = set()
    for snap in snapshots:
        for span in snap.get("spans") or []:
            args = span.get("args") or {}
            flow = args.get("flow")
            if isinstance(flow, dict) and isinstance(
                    flow.get("parent_pid"), int):
                pids.add(flow["parent_pid"])
            if isinstance(args.get("child_pid"), int):
                pids.add(args["child_pid"])
        trace = snap.get("trace")
        if isinstance(trace, dict) and isinstance(trace.get("pid"), int):
            pids.add(trace["pid"])
    pids.discard(0)
    return pids


def assemble(live_snapshots: Iterable[Dict[str, Any]],
             dumps: Iterable[BlackBoxDump],
             client_snapshot: Optional[Dict[str, Any]] = None,
             expected_pids: Optional[Iterable[int]] = None
             ) -> Dict[str, Any]:
    """Merge live telemetry and black-box dumps into one trace document.

    *expected_pids* optionally names pids the caller knows belong to the
    tree (e.g. from the client's process tree) so their absence is
    reported as a hole even if no surviving record references them.
    """
    live_by_pid: Dict[int, Dict[str, Any]] = {}
    for snap in live_snapshots:
        pid = snap.get("pid")
        if isinstance(pid, int):
            live_by_pid[pid] = dict(snap)
            live_by_pid[pid].setdefault("source", "live")

    corrupt_lines = 0
    alien_schema = 0
    dump_by_pid: Dict[int, Dict[str, Any]] = {}
    for dump in dumps:
        corrupt_lines += dump.corrupt_lines
        alien_schema += dump.alien_schema
        snap = snapshot_from_dump(dump)
        if snap is None:
            continue
        pid = snap["pid"]
        if pid in dump_by_pid:
            # Two dumps for one pid (pid reuse, exec rotation): keep
            # both span sets, newest anchor.
            dump_by_pid[pid] = _merge(snap, dump_by_pid[pid])
            dump_by_pid[pid]["source"] = "blackbox"
            dump_by_pid[pid].setdefault("terminal", snap.get("terminal"))
        else:
            dump_by_pid[pid] = snap

    merged: Dict[int, Dict[str, Any]] = {}
    for pid, snap in dump_by_pid.items():
        merged[pid] = (_merge(live_by_pid[pid], snap)
                       if pid in live_by_pid else snap)
    for pid, snap in live_by_pid.items():
        merged.setdefault(pid, snap)

    present = set(merged)
    expected = _referenced_pids(merged.values()) | set(expected_pids or ())
    holes = sorted(expected - present)

    document = chrome_trace(merged.values(), client_snapshot=client_snapshot)
    events = document["traceEvents"]
    origin = document["otherData"].get("origin_us", 0.0)

    terminals: Dict[str, str] = {}
    for pid, snap in sorted(merged.items()):
        reason = snap.get("terminal")
        if not reason:
            continue
        terminals[str(pid)] = reason
        clock = snap.get("clock") or {}
        ts = max(0.0, float(clock.get("wall", 0.0)) * 1e6 - origin)
        events.append({"name": f"terminal:{reason}", "cat": "blackbox",
                       "ph": "i", "s": "p", "ts": round(ts, 3),
                       "pid": pid, "tid": 0,
                       "args": {"reason": reason,
                                "source": snap.get("source")}})

    for pid in holes:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0,
                       "args": {"name": f"missing (pid {pid})"}})
        events.append({"name": "blackbox:hole", "cat": "blackbox",
                       "ph": "i", "s": "p", "ts": 0.0, "pid": pid,
                       "tid": 0,
                       "args": {"reason": "no live telemetry and no "
                                          "black-box dump for this pid"}})

    other = document["otherData"]
    other["processes"] = sorted(set(other.get("processes", [])) | expected)
    other["holes"] = holes
    other["terminals"] = terminals
    other["sources"] = {str(pid): snap.get("source", "live")
                        for pid, snap in sorted(merged.items())}
    if corrupt_lines:
        other["corrupt_lines"] = corrupt_lines
    if alien_schema:
        other["alien_schema_records"] = alien_schema
    return document


def assemble_from_dir(directory: Optional[str],
                      live_snapshots: Iterable[Dict[str, Any]] = (),
                      client_snapshot: Optional[Dict[str, Any]] = None,
                      expected_pids: Optional[Iterable[int]] = None
                      ) -> Dict[str, Any]:
    """Assemble from a ``DIONEA_BLACKBOX_DIR``-style directory (which
    may be ``None`` or empty — a purely-live timeline is still valid)."""
    dumps = scan_dir(directory) if directory else []
    return assemble(live_snapshots, dumps, client_snapshot=client_snapshot,
                    expected_pids=expected_pids)

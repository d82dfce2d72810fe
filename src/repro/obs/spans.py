"""The one in-memory event ring: spans and instants, one tuple each.

Paper section 3 warns that printf-debugging concurrent programs *"may
introduce more errors and hide the real problems"* because logging
streams take locks and perturb timing.  The debugger must not fall into
the same trap, so everything it records about itself lands here:

* a **span** answers "how long did it take and when, relative to
  everything else" — fork-handler phases, command round trips,
  parked-UE dwell times;
* an **instant** (:func:`debug_event`) is a debug-log line: a
  zero-duration record with no span id.

Hot-path discipline: a record is one tuple appended into a fixed-size
ring under a single short critical section; nothing is formatted,
nothing allocated beyond the record, no I/O.  Every record carries a
**wall + monotonic timestamp pair** so the exporter
(:mod:`repro.obs.export`) can merge rings from many processes without
trusting any one process's wall clock (NTP slew, clock steps).

Every span opened through :meth:`SpanRecorder.begin` also carries an
**identity**: a span id plus the parent span id taken from the calling
thread's active :class:`~repro.obs.causality.TraceContext` (or an
explicit ``parent=``).  That identity is what lets the exporter draw
fork and RPC flow edges between processes, and what the black box
dedupes on.

Readers never clear the ring.  Each keeps its own cursor and reads
through :meth:`SpanRecorder.drain_since`: the black box (incrementally,
from a flush hook that only spans fire, so a debug line never costs
I/O), the ``telemetry`` command, ``debug_log``.  Only
:meth:`SpanRecorder.reset_after_fork` clears it: a forked child's
inherited records describe the parent's timeline.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..util import locks
from . import causality


class _OpenSpan:
    """Token returned by :meth:`SpanRecorder.begin`; finish it with
    :meth:`SpanRecorder.end` or use it as a context manager."""

    __slots__ = ("recorder", "name", "cat", "t0_wall", "t0_mono", "args",
                 "span_id", "parent_id", "trace_id")

    def __init__(self, recorder: "SpanRecorder", name: str, cat: str,
                 args: Optional[Dict[str, Any]],
                 parent: Optional[causality.TraceContext] = None):
        self.recorder = recorder
        self.name = name
        self.cat = cat
        self.args = args
        if parent is None:
            # Root on the process context so every span belongs to the
            # tree's trace even when no request/fork context is active.
            parent = causality.current() or causality.process_root()
        self.span_id = causality.new_span_id()
        self.parent_id = parent.span_id
        self.trace_id = parent.trace_id
        self.t0_wall = time.time()
        self.t0_mono = time.monotonic()

    @property
    def context(self) -> causality.TraceContext:
        """This span as a causal parent for children (threads, wire,
        forked processes)."""
        return causality.TraceContext(
            trace_id=self.trace_id or causality.process_root().trace_id,
            span_id=self.span_id, parent_span_id=self.parent_id,
            pid=os.getpid(), wall=self.t0_wall, mono=self.t0_mono)

    def end(self) -> None:
        self.recorder.end(self)

    def __enter__(self) -> "_OpenSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        self.end()


class SpanRecorder:
    """Fixed-capacity ring of completed spans and instants."""

    def __init__(self, capacity: int = 6144):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._records: List[Optional[tuple]] = [None] * capacity
        self._next_seq = 0
        self._lock = locks.Lock()
        self._flush_hook: Optional[Callable[[], None]] = None
        self._flush_interval = 0
        #: seq at or after which the next span fires the flush hook
        self._flush_due = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    # -- recording --------------------------------------------------------------

    def begin(self, name: str, cat: str = "debug",
              parent: Optional[causality.TraceContext] = None,
              **args: Any) -> _OpenSpan:
        """Open a span; stamp taken now, recorded at :meth:`end`."""
        return _OpenSpan(self, name, cat, args or None, parent=parent)

    def span(self, name: str, cat: str = "debug",
             parent: Optional[causality.TraceContext] = None,
             **args: Any) -> _OpenSpan:
        """Context-manager sugar: ``with spans.span("fork.child"): ...``"""
        return self.begin(name, cat, parent=parent, **args)

    def end(self, token: _OpenSpan) -> None:
        duration = time.monotonic() - token.t0_mono
        self.record(token.name, token.cat, token.t0_wall, token.t0_mono,
                    duration, token.args, span_id=token.span_id,
                    parent_id=token.parent_id, trace_id=token.trace_id)

    def record(self, name: str, cat: str, t0_wall: float, t0_mono: float,
               duration: float,
               args: Optional[Dict[str, Any]] = None, *,
               span_id: Optional[str] = None,
               parent_id: Optional[str] = None,
               trace_id: Optional[str] = None) -> None:
        """Append one completed span (already-timed path)."""
        entry = (name, cat, os.getpid(), threading.get_ident(),
                 t0_wall, t0_mono, duration, args,
                 span_id, parent_id, trace_id)
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            self._records[seq % self._capacity] = entry
            hook = self._flush_hook
            if hook is None or seq < self._flush_due:
                return
            self._flush_due = seq + self._flush_interval
        # Fire the incremental-flush hook outside the ring lock so its
        # I/O can never block another recording thread.
        hook()

    def instant(self, category: str, message: str) -> None:
        """Append one debug-log line: zero duration, no span id, and
        never the flush hook — logging must not cost I/O."""
        entry = (message, category, os.getpid(), threading.get_ident(),
                 time.time(), time.monotonic(), None, None,
                 None, None, None)
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
            self._records[seq % self._capacity] = entry

    # -- reading ---------------------------------------------------------------

    @staticmethod
    def _to_dict(row: tuple, seq: int) -> Dict[str, Any]:
        (name, cat, pid, tid, wall, mono, dur, args,
         span_id, parent_id, trace_id) = row
        record = {"name": name, "cat": cat, "pid": pid, "tid": tid,
                  "wall": wall, "mono": mono, "dur": dur or 0.0,
                  "seq": seq}
        if dur is None:
            record["ph"] = "i"
        if args:
            record["args"] = dict(args)
        if span_id is not None:
            record["id"] = span_id
        if parent_id is not None:
            record["parent"] = parent_id
        if trace_id is not None:
            record["trace"] = trace_id
        return record

    def drain_since(self, cursor: int) -> Tuple[int, int, List[Dict[str, Any]]]:
        """Records with seq >= *cursor* still in the ring, oldest first.

        Returns ``(new_cursor, dropped, records)`` where *dropped*
        counts records that rolled off the ring before this reader got
        to them — the black box reports that honestly instead of
        papering over a gap.  Record dicts carry their ``seq`` so a
        reader can order and dedupe dumps even when the same batch was
        written twice.  Reading never clears the ring.
        """
        with self._lock:
            total = self._next_seq
            start = max(cursor, total - self._capacity, 0)
            rows = [(s, self._records[s % self._capacity])
                    for s in range(start, total)]
        dropped = max(0, start - cursor) if cursor < total else 0
        records = [self._to_dict(row, s) for s, row in rows
                   if row is not None]
        return total, dropped, records

    def snapshot(self) -> List[Dict[str, Any]]:
        """Every record still in the ring, oldest first."""
        return self.drain_since(0)[2]

    def set_flush_hook(self, hook: Optional[Callable[[], None]],
                       interval: int = 256) -> None:
        """Install *hook* to run on the first span recorded at least
        *interval* records after the last run (or remove it with
        ``None``).  Runs on the recording thread, outside the ring lock;
        the hook owns its own reentrancy protection."""
        with self._lock:
            self._flush_hook = hook
            self._flush_interval = max(1, int(interval)) if hook else 0
            self._flush_due = self._next_seq + self._flush_interval - 1

    @property
    def dropped(self) -> int:
        with self._lock:
            return max(0, self._next_seq - self._capacity)

    def reset_after_fork(self) -> None:
        """Child fork handler: inherited records are the parent's
        timeline.  The only call that clears the ring.

        Only the sequence number and the flush mark go back: readers
        read no seq at or past ``_next_seq``, so stale slots are never
        seen, and keeping them spares a copy-on-write fault per record.
        """
        self._next_seq = 0
        self._flush_due = self._flush_interval - 1


#: The process's one event ring, exported by the `telemetry` command
#: and reset in forked children alongside the metrics registry.
SPANS = SpanRecorder()


def span(name: str, cat: str = "debug",
         parent: Optional[causality.TraceContext] = None,
         **args: Any) -> _OpenSpan:
    """Record one span on the global ring."""
    return SPANS.span(name, cat, parent=parent, **args)


def debug_event(category: str, message: str) -> None:
    """Record one debug-log line (an instant) on the global ring."""
    SPANS.instant(category, message)


def is_instant(record: Dict[str, Any]) -> bool:
    """True for a ring record that is a debug-log line."""
    return record.get("ph") == "i"


def format_instant(record: Dict[str, Any]) -> str:
    """One instant as a log line: ``[seq mono pid.tid category] text``."""
    return (f"[{record['seq']:06d} {record['mono']:.6f} "
            f"{record['pid']}.{record['tid']} {record['cat']}] "
            f"{record['name']}")

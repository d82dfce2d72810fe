"""Crash black box: a per-process flight-recorder file that survives us.

Everything else in ``repro.obs`` is in-memory: when PR 9's degraded
mode detaches, a watchdog heals, or the debuggee is SIGKILLed mid-fork,
the evidence of *why* evaporates with the process.  The black box is
the durable half: a bounded, schema-versioned, append-only JSONL file
per process under ``DIONEA_BLACKBOX_DIR``, holding batches of spans and
debug-log instants drained incrementally off the event ring (through
the box's own cursor), metrics snapshots, and *markers* — reason-coded
records written on terminal events (degrade/detach, quarantine,
watchdog heal, unhandled exception, atexit, exec handoff).  ``dionea timeline`` reassembles a whole — possibly dead —
fork tree from these files alone.

Design constraints, in order:

* **do no harm** — disabled (the default: no ``DIONEA_BLACKBOX_DIR``)
  it is a handful of attribute checks; enabled, every write is one
  ``os.write`` of a complete line to an ``O_APPEND`` fd (atomic at
  JSONL granularity for our record sizes), and any ``OSError`` disables
  the box rather than surfacing into the debuggee;
* **fork-safe** — the child's obs fork handler rotates the box onto a
  fresh path with plain assignments (no I/O inside the fork bracket);
  the inherited fd is closed lazily on the child's first flush;
* **bounded** — incremental payloads stop at ``limit_bytes``
  (``DIONEA_BLACKBOX_LIMIT``); markers and the open record are small
  and always written, so the terminal reason survives even a span
  flood.

Record schema (one JSON object per line, ``"v"``: schema version 1):

* ``open``    — process identity: pid, ppid, program, labels, the root
  trace context, and the wall+mono clock anchor;
* ``spans``   — a batch of ring records, spans and instants (each with
  ring ``seq``), plus the count of records that rolled off the ring
  undrained;
* ``metrics`` — a metrics-registry snapshot;
* ``marker``  — ``{"reason": code, "terminal": bool}``; a terminal
  marker means observation of this process ended on purpose — a dump
  *without* one is evidence of an unclean death.

Every record carries the ``wall``/``mono`` pair so the timeline
assembler can clock-align dumps exactly like live telemetry snapshots.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

from ..util import locks
from . import causality
from .metrics import REGISTRY
from .spans import SPANS, SpanRecorder

SCHEMA_VERSION = 1

#: environment switch: directory for per-process dump files
BLACKBOX_DIR_ENV = "DIONEA_BLACKBOX_DIR"
#: soft byte budget per dump file (incremental payloads stop here)
BLACKBOX_LIMIT_ENV = "DIONEA_BLACKBOX_LIMIT"
DEFAULT_LIMIT_BYTES = 1 << 19
#: ring records between incremental flushes (a span fires the flush)
FLUSH_INTERVAL = 256

#: reason codes written by the wired-in callers (callers may also pass
#: free-form codes like ``detach:fork_handler_failed``)
REASON_QUARANTINE = "quarantine"
REASON_WATCHDOG_HEAL = "watchdog_heal"
REASON_UNHANDLED_EXCEPTION = "unhandled_exception"
REASON_ATEXIT = "atexit"
REASON_EXEC = "exec"
REASON_STOP = "stop"


class BlackBox:
    """One process's flight-recorder file (disabled until configured)."""

    def __init__(self, recorder: SpanRecorder = SPANS):
        self._recorder = recorder
        self._lock = locks.Lock()
        self._dir: Optional[str] = None
        self._program = ""
        self._labels: Dict[str, Any] = {}
        self._fd: Optional[int] = None
        self._path: Optional[str] = None
        self._bytes = 0
        self._cursor = 0
        self._limit = DEFAULT_LIMIT_BYTES
        self._records_written = 0
        self._payloads_dropped = 0
        self._exec_of: Optional[Dict[str, Any]] = None
        self._broken = False

    # -- configuration ------------------------------------------------------

    def configure(self, directory: Optional[str], program: str,
                  labels: Optional[Dict[str, Any]] = None,
                  limit_bytes: Optional[int] = None) -> None:
        """Enable (or, with ``directory=None``, disable) the box.

        The dump file is created lazily on the first flush, so calling
        this inside process startup costs only assignments.  The ring
        cursor survives: what an earlier configuration drained is in
        its own dump, and draining it again would spend this dump's
        byte budget on a copy.
        """
        with self._lock:
            self._close_locked()
            self._dir = directory or None
            self._program = program
            self._labels = dict(labels or {})
            self._limit = int(limit_bytes if limit_bytes is not None
                              else os.environ.get(BLACKBOX_LIMIT_ENV,
                                                  DEFAULT_LIMIT_BYTES))
            self._records_written = 0
            self._payloads_dropped = 0
            self._broken = False
        if self._dir is not None:
            self._recorder.set_flush_hook(self._ring_hook, FLUSH_INTERVAL)
        else:
            self._recorder.set_flush_hook(None)

    def configure_from_env(self, program: str,
                           labels: Optional[Dict[str, Any]] = None) -> None:
        self.configure(os.environ.get(BLACKBOX_DIR_ENV), program,
                       labels=labels)

    @property
    def enabled(self) -> bool:
        return self._dir is not None and not self._broken

    @property
    def path(self) -> Optional[str]:
        return self._path

    def describe(self) -> Dict[str, Any]:
        """JSON-ready status (the ``blackbox`` protocol command)."""
        with self._lock:
            return {"enabled": self.enabled, "path": self._path,
                    "bytes": self._bytes,
                    "records": self._records_written,
                    "payloads_dropped": self._payloads_dropped,
                    "limit_bytes": self._limit}

    # -- writing ------------------------------------------------------------

    def _open_locked(self) -> bool:
        """Create the dump file + write the ``open`` record; lock held."""
        if self._fd is not None:
            return True
        if self._dir is None or self._broken:
            return False
        pid = os.getpid()
        name = f"bb-{pid}-{os.urandom(3).hex()}.jsonl"
        path = os.path.join(self._dir, name)
        try:
            os.makedirs(self._dir, exist_ok=True)
            self._fd = os.open(path,
                               os.O_APPEND | os.O_CREAT | os.O_WRONLY,
                               0o644)
        except OSError:
            self._broken = True
            return False
        self._path = path
        self._bytes = 0
        root = causality.process_root()
        record = {"kind": "open", "pid": pid, "ppid": os.getppid(),
                  "program": self._program, "labels": dict(self._labels),
                  "trace": root.to_wire()}
        if self._exec_of is not None:
            record["exec_of"] = self._exec_of
        self._append_locked(record, force=True)
        return True

    def _append_locked(self, record: Dict[str, Any], force: bool) -> bool:
        if self._fd is None:
            return False
        if not force and self._bytes >= self._limit:
            self._payloads_dropped += 1
            return False
        record["v"] = SCHEMA_VERSION
        record["wall"], record["mono"] = time.time(), time.monotonic()
        try:
            line = json.dumps(record, default=repr) + "\n"
        except (TypeError, ValueError):
            return False
        data = line.encode("utf-8")
        try:
            os.write(self._fd, data)
        except OSError:
            self._broken = True
            return False
        self._bytes += len(data)
        self._records_written += 1
        return True

    def _ring_hook(self) -> None:
        """Ring flush hook: drain unseen records; never raise."""
        try:
            self.flush()
        except Exception:  # noqa: BLE001 - the ring must never feel us
            self._broken = True

    def _drain_locked(self) -> None:
        """Append the ring records since this box's cursor; lock held."""
        cursor, ring_dropped, records = \
            self._recorder.drain_since(self._cursor)
        self._cursor = cursor
        if records or ring_dropped:
            self._append_locked({"kind": "spans", "spans": records,
                                "ring_dropped": ring_dropped},
                               force=False)

    def flush(self) -> None:
        """Incremental flush: append ring records drained since the
        last flush.  Cheap no-op while disabled or over budget."""
        if not self.enabled:
            return
        # Non-blocking: if another thread is mid-flush, its drain will
        # pick up our records; skipping beats stalling a hot path.
        if not self._lock.acquire(blocking=False):
            return
        try:
            if self._open_locked():
                self._drain_locked()
        finally:
            self._lock.release()

    def force_flush(self, reason: str, terminal: bool = False) -> None:
        """Full dump with a reason-coded marker.

        Terminal reasons (detach/degrade, atexit, unhandled exception)
        mean observation ended on purpose; non-terminal ones
        (quarantine, watchdog heal) are way-points worth a durable
        record while the process lives on.  The marker itself is always
        written — even past the byte budget — so "why did the debugger
        let go" survives a span flood.
        """
        if not self.enabled:
            return
        with self._lock:
            if not self._open_locked():
                return
            self._drain_locked()
            try:
                snap = REGISTRY.snapshot()
            except Exception:  # noqa: BLE001 - best-effort on the way out
                snap = None
            if snap is not None:
                self._append_locked({"kind": "metrics", "snapshot": snap},
                                   force=False)
            self._append_locked({"kind": "marker", "reason": reason,
                                "terminal": bool(terminal)}, force=True)

    # -- lifecycle ----------------------------------------------------------

    def _close_locked(self) -> None:
        fd, self._fd = self._fd, None
        self._path = None
        self._bytes = 0
        if fd is not None:
            try:
                os.close(fd)
            except OSError:
                pass

    def close(self) -> None:
        with self._lock:
            self._close_locked()

    def reset_after_fork(self, parent_pid: int) -> None:
        """Child-side fork handler body: rotate onto a fresh dump file.

        The inherited fd is closed and the file is recreated on first
        use.
        """
        fd, self._fd = self._fd, None
        self._path = None
        self._bytes = 0
        self._cursor = 0
        self._records_written = 0
        self._payloads_dropped = 0
        self._exec_of = None
        self._labels = dict(self._labels, parent_pid=parent_pid)
        if fd is not None:
            try:
                os.close(fd)
            except OSError:
                pass

    def reset_after_exec(self, program: str,
                         exec_of: Optional[Dict[str, Any]] = None) -> None:
        """Exec-survival body: same rotation as fork, but the new open
        record names the pre-exec identity it continues."""
        with self._lock:
            self._close_locked()
            self._cursor = 0
            self._records_written = 0
            self._payloads_dropped = 0
            self._program = program
            self._exec_of = dict(exec_of) if exec_of else None


#: Process-global black box, configured by the Dionea facade.
BLACKBOX = BlackBox()


# ---------------------------------------------------------------------------
# Crash hooks: the two terminal events nobody calls detach() for.

_hooks_installed = False


def install_crash_hooks() -> None:
    """Chain an excepthook + atexit hook that force-flush the box.

    Idempotent per process; forked children inherit the installation
    (the hooks read the process-global ``BLACKBOX``, which the fork
    handler has already rotated by the time they could fire).
    """
    global _hooks_installed
    if _hooks_installed:
        return
    _hooks_installed = True

    import atexit
    import sys

    previous = sys.excepthook

    def _excepthook(exc_type, exc, tb):
        try:
            BLACKBOX.force_flush(REASON_UNHANDLED_EXCEPTION, terminal=True)
        except Exception:  # noqa: BLE001 - never mask the real crash
            pass
        previous(exc_type, exc, tb)

    def _atexit() -> None:
        try:
            BLACKBOX.force_flush(REASON_ATEXIT, terminal=True)
        except Exception:  # noqa: BLE001
            pass

    sys.excepthook = _excepthook
    atexit.register(_atexit)


# ---------------------------------------------------------------------------
# Reading dumps back: tolerant parsing for the timeline assembler.

class BlackBoxDump:
    """Parsed view of one dump file; forgiving of truncation and junk."""

    def __init__(self, path: str):
        self.path = path
        self.records: List[Dict[str, Any]] = []
        self.corrupt_lines = 0
        self.alien_schema = 0

    @property
    def pid(self) -> Optional[int]:
        for record in self.records:
            pid = record.get("pid")
            if isinstance(pid, int):
                return pid
        return None

    def terminal_reason(self) -> Optional[str]:
        """First terminal marker's reason; ``None`` = unclean death."""
        for record in self.records:
            if record.get("kind") == "marker" and record.get("terminal"):
                reason = record.get("reason")
                return str(reason) if reason is not None else None
        return None


def read_dump(path: str) -> BlackBoxDump:
    """Parse one dump file.  A SIGKILLed writer leaves a truncated last
    line; a hostile or corrupt file leaves junk — both are *counted*,
    never raised, because the reader's whole point is dead processes."""
    dump = BlackBoxDump(path)
    try:
        with open(path, "rb") as fh:
            payload = fh.read()
    except OSError:
        dump.corrupt_lines += 1
        return dump
    for line in payload.split(b"\n"):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            dump.corrupt_lines += 1
            continue
        if not isinstance(record, dict):
            dump.corrupt_lines += 1
            continue
        if record.get("v") != SCHEMA_VERSION:
            dump.alien_schema += 1
            continue
        dump.records.append(record)
    return dump


def scan_dir(directory: str) -> List[BlackBoxDump]:
    """Every parseable dump under *directory*, sorted by path."""
    dumps: List[BlackBoxDump] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return dumps
    for name in names:
        if not (name.startswith("bb-") and name.endswith(".jsonl")):
            continue
        dumps.append(read_dump(os.path.join(directory, name)))
    return dumps

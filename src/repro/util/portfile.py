"""Temporary-file port rendezvous between forked children and the client.

Paper section 5.3, problem 3: a freshly forked child inherits its parent's
sockets; talking through them would interleave two processes' traffic on
one session.  *"Dionea's fork handlers use a temporary file, where the port
number of the most recently created process is saved."*  The client watches
that file and dials the new debug server.

The file is an append-only log for the whole debug run, which doubles as
an audit trail of every fork.  Each record is one JSON line appended with
a single ``O_APPEND`` ``write(2)``, so concurrent children never
interleave and no writer takes a lock.  The watcher reads it by offset:
each poll parses only the complete lines appended since the last one.
Only the process that started the run removes the file.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import BinaryIO, Callable, Dict, List, Optional

from .errors import RendezvousError


#: record states: a ``live`` record is a dialable rendezvous; a
#: ``tombstone`` announces that the debugger LEFT this pid (detach,
#: exec-after-fork, daemonize hand-off) — the pid may well still be
#: alive, but there is nothing to dial there any more.
STATE_LIVE = "live"
STATE_TOMBSTONE = "tombstone"


@dataclass(frozen=True)
class PortRecord:
    """One child announcement: who forked, who was born, where to dial."""

    pid: int
    parent_pid: int
    host: str
    port: int
    created_at: float
    state: str = STATE_LIVE
    reason: Optional[str] = None

    @property
    def tombstoned(self) -> bool:
        return self.state == STATE_TOMBSTONE

    def to_json(self) -> str:
        raw = {
            "pid": self.pid,
            "parent_pid": self.parent_pid,
            "host": self.host,
            "port": self.port,
            "created_at": self.created_at,
        }
        if self.state != STATE_LIVE:
            # Serialised only when non-default so pre-tombstone readers
            # (and recorded port files) keep parsing unchanged.
            raw["state"] = self.state
            if self.reason is not None:
                raw["reason"] = self.reason
        return json.dumps(raw, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "PortRecord":
        try:
            raw = json.loads(line)
            return cls(pid=int(raw["pid"]), parent_pid=int(raw["parent_pid"]),
                       host=str(raw["host"]), port=int(raw["port"]),
                       created_at=float(raw["created_at"]),
                       state=str(raw.get("state", STATE_LIVE)),
                       reason=raw.get("reason"))
        except (ValueError, KeyError, TypeError) as exc:
            raise RendezvousError(f"corrupt port record: {line!r}") from exc


def default_portfile_path(run_id: str) -> str:
    """Canonical per-run port file location under the system temp dir."""
    return os.path.join(tempfile.gettempdir(), f"dionea-ports-{run_id}.jsonl")


def pid_alive(pid: int) -> bool:
    """Liveness probe: does *pid* exist right now?

    ``kill(pid, 0)`` performs permission checks but sends nothing;
    EPERM therefore means "exists, not ours" — alive.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except PermissionError:
        return True
    except OSError:
        return False
    return True


class PortFile:
    """Writer/reader for the rendezvous file.

    Writing happens in the *child-side fork handler* (one record per fork);
    reading happens in the client's :class:`PortFileWatcher`.  Both sides
    may live in different processes, so coordination goes through the
    filesystem only.
    """

    def __init__(self, path: str):
        self.path = path

    # -- writer side (debug server, child fork handler) --------------------

    def announce(self, record: PortRecord) -> None:
        """Append one record with a single ``O_APPEND`` write.

        Each such write of a record far below ``PIPE_BUF`` lands whole at
        the end of the file, so concurrent children never interleave.
        """
        data = (record.to_json() + "\n").encode("utf-8")
        if len(data) > 4096:
            raise RendezvousError("port record unexpectedly large")
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                     0o600)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)

    def tombstone(self, pid: int, host: str = "", port: int = 0,
                  reason: str = "detached") -> None:
        """Append a tombstone: the debugger has left *pid* for good.

        Written on degraded-mode detach and immediately before an
        ``exec``/daemonize hand-off, so the client's watcher never dials
        a rendezvous whose process outlived its debugger.  Appending
        (not rewriting) keeps the fork audit trail and stays atomic
        under ``O_APPEND`` like any announce.
        """
        self.announce(PortRecord(
            pid=pid, parent_pid=0, host=host, port=port,
            created_at=time.time(), state=STATE_TOMBSTONE, reason=reason))

    # -- reader side -------------------------------------------------------

    def read_all(self) -> List[PortRecord]:
        """Read every record currently in the file (possibly empty)."""
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return []
        records = []
        for line in lines:
            if line.strip():
                records.append(PortRecord.from_json(line))
        return records

    def remove(self) -> None:
        try:
            os.unlink(self.path)
        except OSError as exc:  # already gone is fine
            if exc.errno != errno.ENOENT:
                raise


def _note(message: str) -> None:
    """A debug-log line; imported late because :mod:`repro.obs`
    imports this package."""
    from ..obs.spans import debug_event
    debug_event("portfile", message)


class PortFileWatcher:
    """Reads a :class:`PortFile` by offset and fires a callback for each
    new record.

    A tiny poll loop instead of inotify keeps the watcher portable and
    dependency-free; the poll interval bounds attach latency for new
    children (the paper's GUI shows children appearing in the process
    tree shortly after fork).  The watcher applies the dial rules only
    (a tombstone masks older records, a new port for a known pid is
    redialed, a duplicate is not); whether a pid is still alive is the
    caller's policy.
    """

    def __init__(self, portfile: PortFile,
                 on_record: Callable[[PortRecord], None],
                 poll_interval: float = 0.02):
        self.portfile = portfile
        self.on_record = on_record
        self.poll_interval = poll_interval
        #: the last record acted on, per pid
        self._seen: Dict[int, PortRecord] = {}
        #: the log, held open between polls: while it is open its inode
        #: number cannot be reused, so a file re-created at the path is
        #: always told apart from it
        self._log: Optional[BinaryIO] = None
        #: bytes of the held log already parsed; always a line end
        self._offset = 0
        #: the timer source (``scheduler(delay, fn)``) driving the poll;
        #: None while stopped
        self._scheduler: Optional[
            Callable[[float, Callable[[], None]], object]] = None

    def _read_new(self) -> List[PortRecord]:
        """Parse the complete lines appended since the last read."""
        try:
            st = os.stat(self.portfile.path)
        except FileNotFoundError:
            self._close()
            return []
        if self._log is not None:
            held = os.fstat(self._log.fileno())
            if (held.st_dev, held.st_ino) != (st.st_dev, st.st_ino):
                self._close()  # replaced: read the new file from 0
            elif st.st_size < self._offset:
                self._offset = 0  # truncated
        if self._log is None:
            try:
                self._log = open(self.portfile.path, "rb")
            except FileNotFoundError:
                return []
        self._log.seek(self._offset)
        chunk = self._log.read()
        # A torn tail (an append still landing) waits for the next read.
        end = chunk.rfind(b"\n") + 1
        self._offset += end
        records = []
        for line in chunk[:end].splitlines():
            if not line.strip():
                continue
            try:
                records.append(
                    PortRecord.from_json(line.decode("utf-8", "replace")))
            except RendezvousError as exc:
                _note(f"skipped {exc}")
        return records

    def _close(self) -> None:
        log, self._log, self._offset = self._log, None, 0
        if log is not None:
            log.close()

    def poll_once(self) -> List[PortRecord]:
        """Process any unseen records; returns the new ones (for tests)."""
        records = self._read_new()
        # Tombstones first, regardless of file order: a watcher whose
        # first poll already sees announce + tombstone (late attach to
        # an exec'd/daemonized debuggee) must not dial the dead port.
        for record in records:
            if not record.tombstoned:
                continue
            prev = self._seen.get(record.pid)
            # The debugger left this pid (detach/exec/daemonize):
            # nothing to dial — the tombstone masks any OLDER live
            # record, but not a later re-announce (recycled pid).
            if prev is None or prev.created_at <= record.created_at:
                self._seen[record.pid] = record
        fresh: List[PortRecord] = []
        for record in records:
            if record.tombstoned:
                continue
            prev = self._seen.get(record.pid)
            if prev is not None:
                if record.created_at <= prev.created_at:
                    continue  # older than what we already acted on
                if not prev.tombstoned and record.port == prev.port:
                    continue  # duplicate announce of known coordinates
                # Newer record with new coordinates: the server healed
                # its listener onto a fresh port (watchdog), or a
                # recycled/tombstoned pid announced afresh — the old
                # coordinates are dead, dial the new ones.
            self._seen[record.pid] = record
            fresh.append(record)
        for record in fresh:
            try:
                self.on_record(record)
            except Exception as exc:  # noqa: BLE001 - the owner's callback
                # One bad record must not cost the rest of the batch.
                _note(f"record callback failed for pid {record.pid}: "
                      f"{exc!r}")
        return fresh

    def start(self, scheduler: Callable[[float, Callable[[], None]],
                                        object]) -> None:
        """Begin polling on *scheduler*: any ``scheduler(delay, fn)``
        that runs ``fn`` after *delay* seconds, e.g. the client
        reactor's timer wheel.  The watcher owns no thread: each tick
        polls once and re-schedules itself, so fleet-scale clients pay
        zero threads for auto-attach.

        The first tick is scheduled at once (delay 0), not one interval
        later: attaching to a debuggee that has already announced itself
        then costs no poll wait.  Later ticks keep the interval.
        """
        if self._scheduler is not None:
            raise RendezvousError("watcher already started")
        self._scheduler = scheduler
        scheduler(0.0, self._scheduled_tick)

    def _scheduled_tick(self) -> None:
        """One scheduled poll; re-arms itself until stopped."""
        if self._scheduler is None:
            return
        try:
            self.poll_once()
        finally:
            scheduler = self._scheduler
            if scheduler is not None:
                scheduler(self.poll_interval, self._scheduled_tick)
            else:
                self._close()  # stopped mid-poll: drop what it opened

    def stop(self) -> None:
        self._scheduler = None
        self._close()

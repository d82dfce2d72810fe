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

After each append the writer rings a *doorbell*: one content-free
datagram to an abstract ``AF_UNIX`` name derived from the file's path
(Linux only).  A watching client binds that name and polls the file as
soon as the bell rings instead of at its next timed poll.  The datagram
means only "look now": the file stays the record of truth and the timed
poll the safety net, so a lost, stray or unbindable bell costs latency,
never a record.
"""

from __future__ import annotations

import errno
import json
import os
import socket
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Callable, Dict, List, Optional

from .errors import RendezvousError


#: record states: a ``live`` record is a dialable rendezvous; a
#: ``tombstone`` announces that the debugger LEFT this pid (detach,
#: exec-after-fork, daemonize hand-off) — the pid may well still be
#: alive, but there is nothing to dial there any more.
STATE_LIVE = "live"
STATE_TOMBSTONE = "tombstone"

#: The doorbell needs Linux's abstract ``AF_UNIX`` namespace; elsewhere
#: nobody rings and watchers rely on the timed poll alone.
BELL_SUPPORTED = sys.platform.startswith("linux")


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


def bell_address(path: str) -> bytes:
    """The doorbell's abstract ``AF_UNIX`` name for the port file at
    *path*.  An abstract name creates no file (nothing to orphan) and
    has no ``sun_path`` length limit; ``zlib.crc32`` keeps ``hashlib``
    (3.5 MiB of resident memory) out of the debuggee."""
    return b"\0dionea-bell-%08x" % zlib.crc32(
        os.fsencode(os.path.abspath(path)))


def _bell_socket() -> socket.socket:
    return socket.socket(socket.AF_UNIX,
                         socket.SOCK_DGRAM | socket.SOCK_NONBLOCK)


def drain_bell(bell: socket.socket) -> None:
    """Read every datagram pending on a bound doorbell; never blocks.

    Runs on the client's loop thread, which only needs to know that
    the bell rang, not how often."""
    try:
        while True:
            bell.recv(64)
    except OSError:  # BlockingIOError once the queue is empty
        pass


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
    filesystem; the doorbell only tells a watcher when to look.
    """

    def __init__(self, path: str):
        self.path = path
        #: the doorbell writers ring after each append
        self.bell = bell_address(path)

    # -- writer side (debug server, child fork handler) --------------------

    def announce(self, record: PortRecord) -> None:
        """Append one record with a single ``O_APPEND`` write, then ring
        the doorbell.

        Each such write of a record far below ``PIPE_BUF`` lands whole at
        the end of the file, so concurrent children never interleave.
        The ring never fails the announce: with nobody bound
        (``ECONNREFUSED``), a full queue (``EAGAIN``) or no bell on this
        platform, the watcher finds the record at its next timed poll.
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
        if BELL_SUPPORTED:
            try:
                with _bell_socket() as bell:
                    bell.sendto(b"\0", self.bell)
            except OSError:
                pass

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

    def bind_bell(self) -> Optional[socket.socket]:
        """Bind this file's doorbell for reading: a non-blocking socket,
        or None where another watcher already holds the name (a second
        client on the same file) or there is no bell (off Linux)."""
        if not BELL_SUPPORTED:
            return None
        bell = None
        try:
            bell = _bell_socket()
            bell.bind(self.bell)
        except OSError:
            if bell is not None:
                bell.close()
            return None
        return bell

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

    Polls come from two sources, both run by the owner on one thread:
    a timed tick every *poll_interval* (the safety net, portable and
    dependency-free) and, where the owner bound the file's doorbell
    (:meth:`PortFile.bind_bell`), a :meth:`poll_now` when it rings, so
    a new child appears in the process tree as soon as it announces
    rather than at the next tick.  The watcher applies the dial rules
    only (a tombstone masks older records, a new port for a known pid
    is redialed, a duplicate is not); whether a pid is still alive is
    the caller's policy, and :meth:`forget` is how the caller drops a
    pid it has found gone.
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

    def forget(self, pid: int) -> None:
        """Drop what the watcher remembers of *pid* (the caller found it
        gone).  Call it on the thread that polls: a later record for the
        pid, which only a recycled pid can announce, is then dialed."""
        self._seen.pop(pid, None)

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

    def poll_now(self) -> None:
        """One poll, the path timed ticks and doorbell rings share.

        Does nothing once stopped; a poll that :meth:`stop` overtakes
        closes what it opened."""
        if self._scheduler is None:
            return
        try:
            self.poll_once()
        finally:
            if self._scheduler is None:
                self._close()

    def _scheduled_tick(self) -> None:
        """One scheduled poll; re-arms itself until stopped."""
        try:
            self.poll_now()
        finally:
            scheduler = self._scheduler
            if scheduler is not None:
                scheduler(self.poll_interval, self._scheduled_tick)

    def stop(self) -> None:
        self._scheduler = None
        self._close()

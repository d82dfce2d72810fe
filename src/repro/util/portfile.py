"""Temporary-file port rendezvous between forked children and the client.

Paper section 5.3, problem 3: a freshly forked child inherits its parent's
sockets; talking through them would interleave two processes' traffic on
one session.  *"Dionea's fork handlers use a temporary file, where the port
number of the most recently created process is saved."*  The client watches
that file and dials the new debug server.

The file lives next to a lock file and is written atomically
(write-to-temp + ``os.rename``) so a watcher never observes a half-written
record.  Each record is one JSON line; the file is append-only within one
debug run, which doubles as an audit trail of every fork.
"""

from __future__ import annotations

import contextlib
import errno
import fcntl
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from . import locks
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
    reading happens in the client's watcher thread.  Both sides may live in
    different processes, so coordination goes through the filesystem only.
    """

    #: Serialises every append and rewrite among the threads of this
    #: process, whichever instance they go through: the sidecar lock of
    #: :meth:`_flocked` excludes other processes only.
    _write_lock = locks.Lock()

    def __init__(self, path: str):
        self.path = path
        #: consecutive failed port probes per (pid, port) — an exec'd
        #: debuggee keeps its pid alive while its debug port is gone,
        #: so pid liveness alone can never reap it; two failed probes
        #: (not one: a probe can race a listener restart) do.
        self._probe_strikes: Dict[tuple, int] = {}

    @contextlib.contextmanager
    def _flocked(self):
        """Cross-process mutual exclusion between appenders and the GC.

        ``O_APPEND`` alone keeps concurrent *appends* intact, but the
        liveness GC rewrites the whole file — an append landing between
        its read and its rename would be silently dropped.  A lock on a
        sidecar file serialises the two; appenders hold it only for one
        ``write(2)``.  It is a POSIX record lock, not a ``flock``: a
        child forked while a parent thread holds it does not inherit
        it, where a ``flock`` would stay held through the child's copy
        of the descriptor and the child's own announce would wait on it
        forever.  A record lock excludes other processes only (and
        closing any descriptor of the file drops it), so callers hold
        :attr:`_write_lock` around it.
        """
        lock_fd = os.open(f"{self.path}.lock",
                          os.O_WRONLY | os.O_CREAT, 0o600)
        try:
            fcntl.lockf(lock_fd, fcntl.LOCK_EX)
            yield
        finally:
            os.close(lock_fd)  # closing releases the lock

    # -- writer side (debug server, child fork handler) --------------------

    def announce(self, record: PortRecord) -> None:
        """Append one record atomically.

        Append via a rename of the whole file would race with concurrent
        children, so we rely on POSIX ``O_APPEND`` atomicity for writes
        below PIPE_BUF — every record is far smaller than that.
        """
        line = record.to_json() + "\n"
        data = line.encode("utf-8")
        if len(data) > 4096:
            raise RendezvousError("port record unexpectedly large")
        with self._write_lock, self._flocked():
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

    # -- reader side (client watcher) --------------------------------------

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

    # -- liveness GC --------------------------------------------------------

    def _port_dead(self, record: PortRecord) -> bool:
        """Probe the record's port; True after two consecutive failures.

        The strike counter absorbs the one legitimate transient — a
        watchdog healing the listener onto a new port between probes —
        while still reaping exec'd debuggees (pid alive, port gone)
        within two GC passes.
        """
        import socket
        key = (record.pid, record.port)
        try:
            socket.create_connection((record.host, record.port),
                                     timeout=0.2).close()
        except OSError:
            strikes = self._probe_strikes.get(key, 0) + 1
            self._probe_strikes[key] = strikes
            return strikes >= 2
        self._probe_strikes.pop(key, None)
        return False

    def reap_dead(self, min_age: float = 5.0,
                  now: Optional[float] = None,
                  probe_ports: bool = False) -> List[PortRecord]:
        """Drop dead records; returns the reaped records.

        Three kinds of corpse are reaped:

        * **dead pid** — the classic case (PR 4), still gated on
          *min_age* so a child between announce and first breath is
          never orphaned;
        * **tombstoned pid** — the debugger wrote a tombstone (detach /
          exec / daemonize); both the tombstone and every record it
          covers go at once, regardless of age or pid liveness;
        * **exec'd pid** (``probe_ports=True``) — pid alive but the
          debug port refuses twice in a row: the process exec'd away
          from under its debugger without a tombstone (SIGKILL between
          tombstone and exec, third-party exec).

        The rewrite is atomic (temp file + ``rename``) and holds the
        sidecar ``flock`` so a concurrent child's append can never land
        between the read and the rename and be lost.
        """
        now = time.time() if now is None else now
        # Probe OUTSIDE the flock: a fork handler appending its announce
        # must never queue behind 0.2s-per-corpse connect timeouts.  The
        # lock-held pass below drops only identities condemned here, so
        # an append racing the probe pass survives untouched.
        condemned: set = set()
        for record in self.read_all():
            if record.tombstoned:
                condemned.add(record.pid)
                continue
            aged = now - record.created_at >= min_age
            if aged and not pid_alive(record.pid):
                condemned.add(record.pid)
            elif aged and probe_ports and self._port_dead(record):
                condemned.add(record.pid)
        if not condemned:
            return []
        with self._write_lock, self._flocked():
            records = self.read_all()
            keep = [r for r in records if r.pid not in condemned]
            reaped = [r for r in records if r.pid in condemned]
            if not reaped:
                return []
            tmp = f"{self.path}.gc.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                for record in keep:
                    fh.write(record.to_json() + "\n")
            os.replace(tmp, self.path)
        return reaped


@dataclass
class PortFileWatcher:
    """Polls a :class:`PortFile` and fires a callback for each new record.

    A tiny poll loop instead of inotify keeps the watcher portable and
    dependency-free; the poll interval bounds attach latency for new
    children (the paper's GUI shows children appearing in the process
    tree shortly after fork).
    """

    portfile: PortFile
    on_record: Callable[[PortRecord], None]
    poll_interval: float = 0.02
    #: re-dialing a dead pid's record wastes a connect timeout per poll;
    #: with gc_interval > 0, dead pids are never dialed and their records
    #: are reaped every `gc_interval` seconds.  Off (0) by default at
    #: this layer; :meth:`DebugClient.watch_portfile` turns it on.
    gc_interval: float = 0.0
    _seen: Dict[int, PortRecord] = field(default_factory=dict)
    _next_gc: float = 0.0
    #: the timer source (``scheduler(delay, fn)``) driving the poll;
    #: None while stopped
    _scheduler: Optional[Callable[[float, Callable[[], None]], object]] = None

    def poll_once(self) -> List[PortRecord]:
        """Process any unseen records; returns the new ones (for tests)."""
        records = self.portfile.read_all()
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
            key = record.pid
            prev = self._seen.get(key)
            if prev is not None:
                if record.created_at <= prev.created_at:
                    continue  # older than what we already acted on
                if not prev.tombstoned and record.port == prev.port:
                    continue  # duplicate announce of known coordinates
                # Newer record with new coordinates: the server healed
                # its listener onto a fresh port (watchdog), or a
                # recycled/tombstoned pid announced afresh — the old
                # coordinates are dead, dial the new ones.
            if self.gc_interval > 0 and not pid_alive(record.pid):
                # Announced, then died before we dialed: never attach.
                # Mark seen so the pid is not re-probed every poll; the
                # periodic reap below erases the record itself.
                self._seen[key] = record
                continue
            self._seen[key] = record
            fresh.append(record)
        for record in fresh:
            self.on_record(record)
        if self.gc_interval > 0:
            now = time.monotonic()
            if now >= self._next_gc:
                self._next_gc = now + self.gc_interval
                for reaped in self.portfile.reap_dead(probe_ports=True):
                    # Forget reaped pids: if the pid is ever recycled by
                    # a *new* debuggee, its fresh record must be dialed.
                    self._seen.pop(reaped.pid, None)
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
        except RendezvousError:
            pass  # torn read: heals next pass
        scheduler = self._scheduler
        if scheduler is not None:
            scheduler(self.poll_interval, self._scheduled_tick)

    def stop(self) -> None:
        self._scheduler = None

    def wait_for_pid(self, pid: int, timeout: float = 5.0) -> PortRecord:
        """Block until a record for *pid* appears (tests and CLI attach)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if pid in self._seen:
                return self._seen[pid]
            for record in self.portfile.read_all():
                self._seen.setdefault(record.pid, record)
            if pid in self._seen:
                return self._seen[pid]
            time.sleep(self.poll_interval)
        raise RendezvousError(f"no port record for pid {pid} "
                              f"within {timeout:.1f}s")

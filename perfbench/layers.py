"""Spans around the public functions of each ``src/repro`` layer.

Only the traced run installs these.  Each wrapper is put on the class or
module attribute the program looks up at call time, records
``perf_counter`` stamps (``CLOCK_MONOTONIC``, so stamps from different
processes on one host compare directly) and calls the original.  The
untraced runs that produce the end-to-end numbers install nothing.

Debuggee-side records go to a shared append-only file, because forked
children and pool workers write them too; client-side records stay in
the driver's memory.  Every record carries the arm label that was
current when it was made, so the driver can group them per job.
"""

from __future__ import annotations

import functools
import json
import os
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional


class Sink:
    """Where one process's span records go."""

    def __init__(self, path: Optional[str] = None):
        self.arm = ""
        self._fd = None if path is None else os.open(
            path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
        self.records: List[dict] = []

    def emit(self, kind: str, t0: float, t1: float, **fields) -> None:
        record = {"k": kind, "arm": self.arm, "pid": os.getpid(),
                  "t0": t0, "t1": t1}
        record.update(fields)
        if self._fd is None:
            self.records.append(record)
        else:
            # One write(2) below PIPE_BUF per record: O_APPEND keeps
            # lines from concurrent processes whole.
            os.write(self._fd, (json.dumps(record) + "\n").encode())

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def read_records(path: str) -> List[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return [json.loads(line) for line in fh if line.strip()]
    except FileNotFoundError:
        return []


class Patches:
    """Installed wrappers, removable in reverse order."""

    def __init__(self):
        self._undo: List[tuple] = []

    def wrap(self, owner, name: str,
             make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[name] if isinstance(owner, type) \
            else getattr(owner, name)
        wrapper = make(original)
        functools.update_wrapper(wrapper, original)
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def timed(self, sink: Sink, owner, name: str, kind: str,
              fields: Optional[Callable[..., Dict]] = None) -> None:
        """Wrap *owner.name* so each call records one *kind* span."""
        def make(original):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    extra = fields(*args, **kwargs) if fields else {}
                    sink.emit(kind, t0, t1, **extra)
            return wrapper
        self.wrap(owner, name, make)

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def install_debuggee(sink: Sink) -> Patches:
    """Spans on the debuggee side: forkhooks, core, server, util, obs, mp.

    Must run before the arm's ``Dionea`` is built: the fork patcher
    saves ``os.fork`` at install time and the server binds its request
    and stop callbacks at construction.
    """
    import repro.obs
    from repro.core.dionea import Dionea
    from repro.forkhooks.registry import ForkHandlerRegistry
    from repro.mapreduce import partition
    from repro.mp.pool import Pool
    from repro.server.debugserver import DebugServer
    from repro.tracing.engine import TraceEngine
    from repro.util.portfile import PortFile

    patches = Patches()
    patches.timed(sink, ForkHandlerRegistry, "run_prepare", "prepare")
    patches.timed(sink, ForkHandlerRegistry, "run_parent", "parent")
    patches.timed(sink, ForkHandlerRegistry, "run_child", "child")

    def make_fork(original):
        def fork():
            t0 = perf_counter()
            pid = original()
            t1 = perf_counter()
            # The parent and the child each record their own return.
            sink.emit("kfork", t0, t1, child=pid == 0)
            return pid
        return fork
    patches.wrap(os, "fork", make_fork)

    patches.timed(sink, Dionea, "start", "start")
    patches.timed(sink, TraceEngine, "reset_after_fork", "engine_reset")
    patches.timed(sink, DebugServer, "reinit_after_fork", "reinit")
    patches.timed(sink, PortFile, "announce", "announce",
                  lambda self, record: {"port": record.port})
    patches.timed(sink, repro.obs, "reset_after_fork", "obs_reset")
    patches.timed(sink, DebugServer, "_handle_request", "cmd",
                  lambda self, conn, message: {
                      "verb": message.get("command"),
                      "id": message.get("id")})
    for name in ("emit_event", "_on_ue_stop", "_on_ue_resume"):
        patches.timed(sink, DebugServer, name, "emit")
    patches.timed(sink, Pool, "__init__", "pool_start")
    patches.timed(sink, Pool, "__exit__", "pool_stop")
    patches.timed(sink, Pool, "apply_async", "submit",
                  lambda self, func, *a, **k: {"func": func.__name__})
    patches.timed(sink, partition, "shuffle", "shuffle")
    return patches


def install_client(sink: Sink) -> Patches:
    """Spans on the client side: attach, port-file polls, requests."""
    from repro.client.client import DebugClient
    from repro.client.session import DebugSession, PendingCall
    from repro.util.portfile import PortFile, PortFileWatcher

    patches = Patches()
    patches.timed(sink, DebugClient, "attach", "attach",
                  lambda self, host, port, **kw: {"port": port})

    # Records parsed per poll: read_all's length, stashed per thread for
    # the poll_once wrapper around it.
    parsed = threading.local()

    def make_read_all(original):
        def read_all(self):
            records = original(self)
            parsed.count = len(records)
            return records
        return read_all
    patches.wrap(PortFile, "read_all", make_read_all)
    patches.timed(sink, PortFileWatcher, "poll_once", "poll",
                  lambda self: {"records": getattr(parsed, "count", 0)})

    patches.timed(sink, DebugSession, "request", "request",
                  lambda self, command, *a, **k: {"verb": command,
                                                  "peer": self.pid})

    def make_request_async(original):
        def request_async(self, command, args=None):
            call = original(self, command, args)
            # _sent_at is stamped when the call is built, just before
            # the frame is handed to the reactor.
            sink.emit("send", call._sent_at, call._sent_at,  # noqa: SLF001
                      verb=command, id=call.request_id, peer=self.pid)
            return call
        return request_async
    patches.wrap(DebugSession, "request_async", make_request_async)

    def make_complete(original):
        def complete(self, response):
            t = perf_counter()
            sink.emit("recv", t, t, id=self.request_id,
                      peer=self.session.pid)
            return original(self, response)
        return complete
    patches.wrap(PendingCall, "_complete", make_complete)
    return patches

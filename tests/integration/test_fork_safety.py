"""Integration: the one fork bracket under Dionea (paper §5.3–5.4).

Phase C runs in a child that has exactly one thread (§5.1).  Any lock
another parent thread held at the fork is copied held, with no owner
left to release it, so phase C must rebuild every lock it touches and
never wait on an inherited one.  Also pinned here: a phase-C failure
degrades only the child, a started Dionea registers one handler set,
a failed ``start()`` undoes itself, and ``stop()`` still tears
everything down when another library has wrapped ``os.fork`` over
Dionea's alias.
"""

import operator
import os
import threading

import pytest

import repro.obs
from repro.client import DebugClient
from repro.core import Dionea, current_dionea
from repro.forkhooks.augment import ForkPatcher
from repro.forkhooks.registry import ForkHandlerRegistry
from repro.tracing.engine import TraceEngine
from repro.util.errors import ForkHookError
from tests.conftest import wait_until
from tests.integration.test_fork_following import wait_child

pytestmark = pytest.mark.forks

#: Every lock phase C touches, as an attribute path from the Dionea
#: facade ("()": a context manager to call).  Each is taken in ordinary
#: use by debuggee threads: the watchpoint lock on every traced line
#: while a watch is set, the wait-for graph on every blocking repro.mp
#: wait, the port file's sidecar lock on every announce.
INHERITED_LOCKS = [
    "server.engine._lock",
    "server.engine.controller._lock",
    "server.engine.watchpoints._lock",
    "disturb_mode._lock",
    "server._stops_lock",
    "server._detach_lock",
    "server.output_capture._lock",
    "deadlock.graph._lock",
    "portfile._write_lock",
    "portfile._flocked()",
]


def dionea_threads():
    return {t for t in threading.enumerate() if t.name.startswith("dionea-")}


@pytest.mark.parametrize("path", INHERITED_LOCKS)
def test_child_announces_while_a_thread_holds(path, portfile_path):
    debugger = Dionea(program="held-lock", portfile_path=portfile_path,
                      park_timeout=15.0).start()
    lock = operator.attrgetter(path.rstrip("()"))(debugger)
    held, release = threading.Event(), threading.Event()

    def hold():
        with lock() if path.endswith("()") else lock:
            held.set()
            release.wait(10)

    holder = threading.Thread(target=hold, name="lock-holder")
    holder.start()
    try:
        assert held.wait(5)
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        release.set()
        holder.join(5)
        assert wait_child(pid, timeout=10.0) == 0
        assert any(r.pid == pid for r in debugger.portfile.read_all())
    finally:
        release.set()
        holder.join(5)
        debugger.stop()


def test_child_telemetry_failure_degrades_only_the_child(portfile_path,
                                                         monkeypatch):
    """Phase C resets telemetry first.  If that raises, the child still
    re-establishes itself before it degrades, so the detach acts on the
    child's own server: the parent's session and pid are untouched."""
    debugger = Dionea(program="obs-fails", portfile_path=portfile_path,
                      park_timeout=15.0).start()
    client = DebugClient()
    try:
        client.watch_portfile(debugger.portfile, poll_interval=0.01)
        session = client.session_for_pid(os.getpid(), timeout=10.0)

        def failing_reset(labels=None):
            raise RuntimeError("telemetry reset failed")

        monkeypatch.setattr(repro.obs, "reset_after_fork", failing_reset)
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        monkeypatch.undo()
        assert wait_child(pid, timeout=10.0) == 0
        assert session.request("status", timeout=5.0)["pid"] == os.getpid()
        assert not any(r.tombstoned and r.pid == os.getpid()
                       for r in debugger.portfile.read_all())
    finally:
        client.close()
        debugger.stop()


def test_child_engine_failure_degrades_only_the_child(portfile_path,
                                                      monkeypatch):
    """A phase-C step after the telemetry reset raises, so the child
    degrades while it still holds the parent's server (its session
    block names the parent's pid).  That detach must close only the
    child's copies of the descriptors: no farewell on the parent's
    socket and no tombstone for the parent's pid."""
    debugger = Dionea(program="engine-fails", portfile_path=portfile_path,
                      park_timeout=15.0).start()
    client = DebugClient()
    try:
        client.watch_portfile(debugger.portfile, poll_interval=0.01)
        session = client.session_for_pid(os.getpid(), timeout=10.0)

        def failing_reset(self):
            raise RuntimeError("engine reset failed")

        monkeypatch.setattr(TraceEngine, "reset_after_fork", failing_reset)
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        monkeypatch.undo()
        assert wait_child(pid, timeout=10.0) == 0
        assert not any(r.tombstoned and r.pid == os.getpid()
                       for r in debugger.portfile.read_all())
        assert session.request("status", timeout=5.0)["pid"] == os.getpid()
        assert not session.closed
    finally:
        client.close()
        debugger.stop()


def test_failed_start_undoes_itself(portfile_path):
    """start() raises after the server is up (another fork patcher holds
    os.fork): no thread, port-file record or handler set may outlive
    it, and a Dionea started later works."""
    before = dionea_threads()
    foreign = ForkPatcher(ForkHandlerRegistry())
    foreign.install()
    try:
        debugger = Dionea(program="failed-start",
                          portfile_path=portfile_path, park_timeout=15.0)
        with pytest.raises(ForkHookError):
            debugger.start()
        debugger.stop()
        assert current_dionea() is None
        assert debugger.fork_registry.labels == []
        assert not os.path.exists(portfile_path)
        wait_until(lambda: not (dionea_threads() - before),
                   message="dionea threads to exit")
    finally:
        foreign.uninstall()
    fresh = Dionea(program="fresh", portfile_path=portfile_path + ".2",
                   park_timeout=15.0).start()
    try:
        assert fresh.started and fresh.patcher.installed
    finally:
        fresh.stop()


def test_started_dionea_registers_one_handler_set(dionea):
    assert dionea.fork_registry.labels == ["dionea"]


def test_stop_survives_a_foreign_repatch(portfile_path):
    """Another library wraps os.fork after start: stop() must not
    restore over it, and must still take everything else down."""
    before = dionea_threads()
    debugger = Dionea(program="repatched", portfile_path=portfile_path,
                      park_timeout=15.0).start()
    dionea_fork = os.fork

    def foreign_fork():
        return dionea_fork()

    os.fork = foreign_fork
    debugger.stop()
    assert os.fork is foreign_fork
    assert not debugger.patcher.installed
    assert current_dionea() is None
    assert not os.path.exists(portfile_path)
    wait_until(lambda: not (dionea_threads() - before),
               message="dionea threads to exit")

    fresh = Dionea(program="fresh", portfile_path=portfile_path + ".2",
                   park_timeout=15.0).start()
    try:
        # fresh bracket -> foreign wrapper -> the old, now pass-through
        # alias -> fork(2): one bracket, one child announce.
        pid = os.fork()
        if pid == 0:
            os._exit(5)
        assert wait_child(pid, timeout=10.0) == 5
        assert [r.pid for r in fresh.portfile.read_all()] \
            == [os.getpid(), pid]
        assert pid in fresh.server.session.children
        assert pid not in debugger.server.session.children
    finally:
        fresh.stop()
    assert os.fork is foreign_fork

"""Integration: the one fork bracket under Dionea (paper §5.3–5.4).

Phase C runs in a child that has exactly one thread (§5.1).  Any lock
another parent thread held at the fork is copied held, with no owner
left to release it.  Every debugger lock comes from
:mod:`repro.util.locks`, and phase C's first step unlocks them all in
place, so each test below forks while another thread holds a debugger
lock and the child must still run a path that takes it.  Also pinned
here: the forking thread owns no debugger RLock across the fork, a
phase-C failure degrades only the child, a started Dionea registers one
handler set, a failed ``start()`` undoes itself, and ``stop()`` still
tears everything down when another library has wrapped ``os.fork`` over
Dionea's alias.
"""

import gc
import operator
import os
import threading
import types

import pytest

import repro.obs
from repro.client import DebugClient
from repro.core import Dionea, current_dionea
from repro.core import dionea as dionea_module
from repro.forkhooks import augment
from repro.forkhooks.augment import ForkPatcher
from repro.forkhooks.registry import ForkHandlerRegistry
from repro.obs import causality
from repro.tracing.engine import TraceEngine
from repro.util import locks
from repro.util.errors import ForkHookError
from tests.conftest import fork_while_held, wait_child, wait_until

pytestmark = pytest.mark.forks

#: Every lock phase C touches, as an attribute path from the Dionea
#: facade.  Each is taken in ordinary use by debuggee threads: the
#: watchpoint lock on every traced line while a watch is set, the
#: wait-for graph on every blocking repro.mp wait.
INHERITED_LOCKS = [
    "server.engine._lock",
    "server.engine.controller._lock",
    "server.engine.watchpoints._lock",
    "disturb_mode._lock",
    "server._stops_lock",
    "server._detach_lock",
    "server.output_capture._lock",
    "deadlock.graph._lock",
]


def dionea_threads():
    return {t for t in threading.enumerate() if t.name.startswith("dionea-")}


def factory_locks():
    """A copy of the factory's set of live locks."""
    while True:
        try:
            return list(locks._LOCKS)
        except RuntimeError:  # another thread added a lock mid-copy
            pass


def lock_name(lock) -> str:
    """``owner.attribute`` naming *lock*, found through the garbage
    collector: an instance's type, a class or a module."""
    for referrer in gc.get_referrers(lock):
        owners = [referrer]
        if isinstance(referrer, dict):  # a namespace: whose?
            owners = gc.get_referrers(referrer)
        for owner in owners:
            try:
                attrs = vars(owner)
            except TypeError:
                continue
            key = next((k for k, v in attrs.items() if v is lock), None)
            if key is not None:
                named = isinstance(owner, (type, types.ModuleType))
                return (f"{owner.__name__ if named else type(owner).__name__}"
                        f".{key}")
    return repr(lock)


@pytest.mark.parametrize("path", INHERITED_LOCKS)
def test_child_announces_while_a_thread_holds(path, portfile_path):
    debugger = Dionea(program="held-lock", portfile_path=portfile_path,
                      park_timeout=15.0).start()
    try:
        lock = operator.attrgetter(path)(debugger)
        assert lock in locks._LOCKS

        def child():
            assert any(r.pid == os.getpid()
                       for r in debugger.portfile.read_all())

        assert not fork_while_held(lock, child)
    finally:
        debugger.stop()


def stop_debugger(debugger):
    debugger.stop(remove_portfile=False)


def reroot_trace(debugger):
    causality.set_process_root(causality.process_root())


@pytest.mark.parametrize("lock, child_path", [
    (dionea_module._current_lock, stop_debugger),
    (augment._install_lock, stop_debugger),
    (causality._state_lock, reroot_trace),
], ids=["dionea._current_lock", "augment._install_lock",
        "causality._state_lock"])
def test_child_takes_a_module_lock_a_thread_held(lock, child_path,
                                                 portfile_path):
    """Phase C never takes these module-level locks; a child's later
    ``stop()`` or trace re-root does, and used to wait on them for
    good."""
    causality.process_root()  # minted: the bracket never waits on it
    debugger = Dionea(program="module-lock", portfile_path=portfile_path,
                      park_timeout=15.0).start()
    try:
        assert not fork_while_held(lock, lambda: child_path(debugger),
                                   timeout=5.0)
    finally:
        debugger.stop()


class BracketProbe:
    """A trusted handler set registered before ``Dionea.start()``: its
    prepare runs after phase A and records every factory RLock the
    forking thread owns, and its parent callback runs before phase B
    and sets :attr:`forked`, the moment ``fork(2)`` returned."""

    def __init__(self, registry: ForkHandlerRegistry):
        self.owned = []
        self.forked = threading.Event()
        registry.register("lock-probe", prepare=self.prepare,
                          parent=self.forked.set, trusted=True)

    def prepare(self):
        self.owned += [lock_name(lock) for lock in factory_locks()
                       if hasattr(lock, "_is_owned") and lock._is_owned()]


@pytest.fixture
def probed(portfile_path):
    """A started Dionea with a client attached, and its BracketProbe."""
    causality.process_root()  # minted: the bracket never waits on it
    debugger = Dionea(program="lock-probe", portfile_path=portfile_path,
                      park_timeout=15.0)
    probe = BracketProbe(debugger.fork_registry)
    debugger.start()
    client = DebugClient()
    try:
        client.watch_portfile(debugger.portfile, poll_interval=0.01)
        client.session_for_pid(os.getpid(), timeout=10.0)
        yield probe
    finally:
        client.close()
        debugger.stop()


def test_forking_thread_owns_no_factory_rlock(probed):
    """A factory lock the forker held across fork(2) would be unlocked
    under it in the child, and its release would raise."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    assert wait_child(pid, timeout=10.0) == 0
    assert probed.owned == []


#: Factory locks the parent's own bracket takes before fork(2): phase A
#: sweeps the debuggee's sync objects under the registry's lock and logs
#: to the event ring.
BRACKET_LOCKS = {"SyncObjectRegistry._lock", "SpanRecorder._lock"}


def test_every_factory_lock_survives_a_fork_while_held(probed):
    """Each live debugger lock in turn: a parent thread holds it across
    a fork and the child must take it within 2 s.  A lock the bracket
    itself takes is given up after a bounded wait instead, so the
    parent never deadlocks; those are named in BRACKET_LOCKS."""
    released_early = set()
    for lock in factory_locks():
        probed.forked.clear()

        def child(lock=lock):
            assert lock.acquire(timeout=2), lock_name(lock)

        if fork_while_held(lock, child, hold=1.0, forked=probed.forked):
            released_early.add(lock_name(lock))
    assert released_early == BRACKET_LOCKS
    assert probed.owned == []


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

"""Integration: degraded mode, detach farewell, tombstones, self-heal.

The do-no-harm escape hatches end to end within one process: a
debugger that concludes it can no longer be harmless removes itself
(``EV_DETACHED`` to the client, tombstone in the rendezvous file,
``os.fork`` restored), a wedged listener is healed onto a fresh port
and the client redials, and a lost session is re-dialed with
exponential backoff.
"""

import os
import threading
import time

import pytest

from repro.client import DebugClient
from repro.core import Dionea, current_dionea
from repro.server.watchdog import ServerWatchdog
from repro.testkit import faults
from repro.util.errors import RequestTimeoutError, SessionLostError
from repro.util.portfile import PortFile
from tests.conftest import wait_until


def live_session(client, pid=None):
    """The non-closed session for *pid*, or None (no waiting)."""
    session = client._sessions.get(  # noqa: SLF001 - peek, don't block
        pid if pid is not None else os.getpid())
    return session if session is not None and not session.closed else None


@pytest.fixture
def attached(portfile_path):
    """A started Dionea plus a client attached through the portfile."""
    debugger = Dionea(program="degraded-test",
                      portfile_path=portfile_path, park_timeout=15.0)
    debugger.start()
    client = DebugClient()
    client.watch_portfile(PortFile(portfile_path), poll_interval=0.01)
    client.session_for_pid(os.getpid(), timeout=10.0)
    yield debugger, client
    client.close()
    debugger.stop()


class TestDegradedMode:
    def test_degrade_detaches_cleanly(self, attached):
        debugger, client = attached
        original_fork = debugger.patcher._original_fork
        farewells = []
        client.on_detached = lambda session, reason: farewells.append(
            (session.pid, reason))

        debugger._degrade("trusted phase failed (test)")

        wait_until(lambda: farewells, message="EV_DETACHED farewell")
        assert farewells == [(os.getpid(), "trusted phase failed (test)")]
        # the debugger is gone: alias restored, facade slot freed
        assert debugger.server.detached
        assert os.fork is original_fork
        assert not debugger.patcher.installed
        assert current_dionea() is None
        assert not debugger.started
        # ...and the debuggee still forks, bare
        pid = os.fork()
        if pid == 0:
            os._exit(17)
        assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 17

    def test_detach_tombstones_portfile(self, attached, portfile_path):
        debugger, client = attached
        # Stop the watcher first: its GC deliberately reaps tombstones
        # ("both the tombstone and every record it covers"), so a tick
        # landing between the write and the read would erase the very
        # record this test asserts on.
        client.close()
        debugger._degrade("test")
        records = PortFile(portfile_path).read_all()
        assert any(r.tombstoned and r.pid == os.getpid() for r in records)
        assert records[-1].reason == "test"

    def test_tombstone_stops_redials(self, attached):
        """After the farewell the watcher must not dial the pid again —
        the tombstone masks the old announce."""
        debugger, client = attached
        gone = threading.Event()
        client.on_detached = lambda session, reason: gone.set()
        debugger._degrade("test")
        assert gone.wait(5)
        # several watcher polls later, still no resurrected session
        time.sleep(0.1)
        assert live_session(client) is None

    def test_detach_is_idempotent(self, attached):
        debugger, client = attached
        debugger.server.detach("first")
        debugger.server.detach("second")  # no raise, no double farewell
        assert debugger.server.detached


class TestWatchdogHeal:
    def test_heal_moves_port_and_client_redials(self, attached,
                                                portfile_path):
        """The watchdog's heal path: fresh listener, fresh port, same
        pid re-announced — the watching client treats it as a redial."""
        debugger, client = attached
        old_port = debugger.port
        old_session = live_session(client)

        debugger.server.heal_listener("test wedge")

        assert debugger.port != old_port
        records = PortFile(portfile_path).read_all()
        assert records[-1].port == debugger.port
        wait_until(lambda: (live_session(client) is not None
                            and live_session(client) is not old_session),
                   timeout=10.0, message="client redial onto healed port")
        # the healed session is live: a command round-trip works
        assert live_session(client).request("breaks") == []

    def test_watchdog_detects_a_wedged_reactor(self, attached):
        """Detection end to end: a dispatch fault wedges the reactor past
        the stall budget, the watchdog's probe goes unanswered, the
        server moves to a new port and the client redials."""
        debugger, client = attached
        server = debugger.server
        server.watchdog.stop()
        server.watchdog = ServerWatchdog(server, interval=0.05, stall=0.3)
        server.watchdog.start()
        old_port = debugger.port
        old_session = live_session(client)
        wedged = server._reactor._thread  # noqa: SLF001 - joined below
        with faults.armed("server.request.dispatch",
                          faults.Fault.delay(2.0),
                          faults.Schedule.on_hits(1)):
            with pytest.raises((SessionLostError, RequestTimeoutError)):
                old_session.request("breaks", timeout=5.0)
        # The client sees EOF as the old sockets close, a moment before
        # the heal opens the new endpoint.
        wait_until(lambda: debugger.port != old_port, timeout=10.0,
                   message="heal onto a fresh port")
        server.watchdog.stop()  # detection shown; no more 0.3 s verdicts
        wait_until(lambda: (live_session(client) is not None
                            and live_session(client) is not old_session),
                   timeout=10.0, message="client redial onto healed port")
        assert live_session(client).request("breaks") == []
        assert not server.detached
        # The abandoned loop leaves once the delayed dispatch returns;
        # a dionea-listener thread must not outlive the test.
        wedged.join(10.0)
        assert not wedged.is_alive()

    def test_heal_survives_repeated_wedges(self, attached):
        debugger, client = attached
        ports = {debugger.port}
        for _ in range(2):
            debugger.server.heal_listener("again")
            ports.add(debugger.port)
        assert len(ports) == 3  # every heal landed on a fresh port
        assert not debugger.server.detached


class TestBackoffReattach:
    def test_lost_session_is_redialed_with_backoff(self, portfile_path):
        """Session loss (not detach) triggers the client's exponential
        backoff redial until the server answers again."""
        debugger = Dionea(program="backoff-test",
                          portfile_path=portfile_path, park_timeout=15.0)
        debugger.start()
        client = DebugClient(auto_reattach=True, reattach_base=0.05,
                             reattach_cap=0.2, reattach_attempts=8)
        try:
            session = client.attach("127.0.0.1", debugger.port)
            losses = []
            client.on_session_lost = lambda s, reason: losses.append(reason)
            # sever the transport underneath the session, then drive the
            # loss verdict the supervision layer would synthesise
            session.close()
            client._route_event(  # noqa: SLF001
                session, {"event": "session_lost",
                          "payload": {"reason": "test sever"}})
            wait_until(lambda: live_session(client) is not None,
                       timeout=10.0, message="backoff reattach")
            assert losses == ["test sever"]
            assert live_session(client).request("breaks") == []
        finally:
            client.close()
            debugger.stop()

"""Integration: the session supervision layer (heartbeats, deadlines,
client-loss grace, reattach).

The contract under test: every `DebugSession` call answers, errors, or
times out — never hangs; a dead server is *noticed* (heartbeat / EOF →
``session_lost``); a dead client is *forgiven* for a grace window
(parked UEs held for reattach) before the server falls back to
releasing everything.
"""

import os
import threading
import time

import pytest

from repro.client import DebugClient
from repro.server import DebugServer, protocol
from repro.testkit import faults
from repro.util.errors import (
    HandshakeError,
    RequestTimeoutError,
    SessionError,
    SessionLostError,
)

SRC = os.path.abspath(__file__)


def traced_loop(n):
    total = 0
    for i in range(n):
        total += 1              # LOOP_BP_LINE
    return total


LOOP_BP_LINE = traced_loop.__code__.co_firstlineno + 3


class TestHeartbeat:
    def test_dropped_pongs_declare_session_lost(self, waiter):
        """A reactor that stops acking beats is a lost session, even
        though the TCP stream never closes."""
        lost = []
        server = DebugServer(program="t", client_loss_grace=0.1)
        server.start()
        try:
            client = DebugClient(
                on_session_lost=lambda s, reason: lost.append(reason))
            try:
                with faults.armed("server.heartbeat.pong",
                                  faults.Fault.eintr()):  # any kind: drop
                    session = client.attach(
                        "127.0.0.1", server.port,
                        heartbeat_interval=0.1, heartbeat_misses=3)
                    waiter(lambda: session.lost, timeout=5,
                           message="heartbeat verdict")
                assert "heartbeat" in session.lost_reason
                waiter(lambda: lost, message="session_lost event")
                assert "heartbeat" in lost[0]
                # the verdict fails new requests fast, with the reason
                with pytest.raises(SessionLostError):
                    session.request("info")
                # ...and the whole-program view shows the debuggee gone
                node = next(n for n in client.process_tree.roots()
                            if n.pid == session.pid)
                assert not node.alive
            finally:
                client.close()
        finally:
            server.close()

    def test_healthy_server_keeps_session_alive(self, waiter):
        """Pongs flow: an aggressive heartbeat must NOT false-positive."""
        server = DebugServer(program="t")
        server.start()
        try:
            client = DebugClient()
            session = client.attach("127.0.0.1", server.port,
                                    heartbeat_interval=0.05,
                                    heartbeat_misses=2)
            time.sleep(0.6)  # dozens of beats
            assert not session.lost
            assert session.request("info")["pid"] == os.getpid()
            client.close()
        finally:
            server.close()

    def test_orderly_server_exit_is_not_a_loss(self, waiter):
        """EV_SERVER_EXIT then EOF is a farewell, not a crash."""
        lost = []
        server = DebugServer(program="t")
        server.start()
        client = DebugClient(
            on_session_lost=lambda s, reason: lost.append(reason))
        session = client.attach("127.0.0.1", server.port,
                                heartbeat_interval=0.1)
        server.close()
        waiter(lambda: session.closed, message="session close")
        time.sleep(0.2)  # give any spurious verdict time to surface
        assert not session.lost
        assert lost == []
        client.close()

    def test_abrupt_channel_loss_surfaces_session_lost(self, waiter):
        """EOF with no farewell = crashed server: EV_SESSION_LOST."""
        lost = []
        server = DebugServer(program="t")
        server.start()
        try:
            client = DebugClient(
                on_session_lost=lambda s, reason: lost.append(reason))
            session = client.attach("127.0.0.1", server.port)
            server._reactor.close()  # noqa: SLF001 - simulate a crash
            waiter(lambda: session.lost, message="loss verdict")
            assert "closed unexpectedly" in session.lost_reason
            waiter(lambda: lost, message="session_lost event")
            client.close()
        finally:
            server.close()


class TestRequestDeadlines:
    def test_frozen_server_times_out_one_request(self):
        """A stalled reactor fails THAT request in bounded time; once it
        thaws, the same session keeps working (timeout != loss)."""
        server = DebugServer(program="t")
        server.start()
        try:
            client = DebugClient()
            session = client.attach("127.0.0.1", server.port)
            with faults.armed("server.request.dispatch",
                              faults.Fault.delay(0.8),
                              faults.Schedule.on_hits(1)):
                start = time.monotonic()
                with pytest.raises(RequestTimeoutError):
                    session.request("info", timeout=0.3)
                elapsed = time.monotonic() - start
                assert elapsed < 0.7, "deadline did not bound the wait"
                # the reactor thaws and the session survives
                assert session.request("info",
                                       timeout=5.0)["pid"] == os.getpid()
            assert not session.lost
            client.close()
        finally:
            server.close()

    def test_closed_session_fails_requests_immediately(self):
        server = DebugServer(program="t")
        server.start()
        try:
            client = DebugClient()
            session = client.attach("127.0.0.1", server.port)
            session.close()
            start = time.monotonic()
            with pytest.raises(SessionError):
                session.request("info")
            assert time.monotonic() - start < 0.5
            client.close()
        finally:
            server.close()


class TestClientLossGrace:
    def test_grace_holds_then_releases(self, waiter):
        """Client dies mid-stop: parked UEs are held for the grace
        window, then released so the debuggee completes (S4a)."""
        server = DebugServer(program="t", park_timeout=30.0,
                             client_loss_grace=0.4)
        server.start()
        try:
            client = DebugClient()
            session = client.attach("127.0.0.1", server.port)
            session.request("set_break", {"file": SRC,
                                          "line": LOOP_BP_LINE})
            box = {}
            thread = threading.Thread(
                target=lambda: box.setdefault("r", traced_loop(3)))
            thread.start()
            view = client.wait_for_stop(timeout=10)[0]
            view.wait_stopped(10)
            server.engine.breakpoints.clear()  # avoid re-stopping

            session.close()  # abrupt: no farewell, like a SIGKILLed client
            waiter(lambda: server.grace_pending, message="grace window")
            assert not box.get("r"), "released before grace expired"
            thread.join(10)
            assert box.get("r") == 3, "UE stayed parked after grace"
            assert not server.grace_pending
            client.close()
        finally:
            server.close()

    def test_reattach_within_grace_reclaims_parked_ues(self, waiter):
        """The acceptance path: client restarts inside the window,
        presents its resume token, and finds stop state + breakpoints
        exactly as it left them."""
        server = DebugServer(program="t", park_timeout=30.0,
                             client_loss_grace=5.0)
        server.start()
        try:
            client = DebugClient()
            session = client.attach("127.0.0.1", server.port)
            session.request("set_break", {"file": SRC,
                                          "line": LOOP_BP_LINE})
            box = {}
            thread = threading.Thread(
                target=lambda: box.setdefault("r", traced_loop(3)))
            thread.start()
            view = client.wait_for_stop(timeout=10)[0]
            view.wait_stopped(10)

            session.close()  # the "crash"
            waiter(lambda: server.grace_pending, message="grace window")

            reclaimed = client.reattach(session.pid)
            assert reclaimed.resumed
            assert not server.grace_pending, "reattach left grace armed"
            # same view object, new transport, stop state replayed
            assert view.session is reclaimed
            view.wait_stopped(10)
            # the surviving breakpoint was not duplicated by the resync
            assert len(reclaimed.request("breaks")) == 1

            server.engine.breakpoints.clear()
            view.cont()
            thread.join(10)
            assert box.get("r") == 3
            client.close()
        finally:
            server.close()

    def test_stale_resume_token_refused(self):
        """A token from another epoch must not hijack the debuggee."""
        server = DebugServer(program="t")
        server.start()
        try:
            client = DebugClient()
            with pytest.raises(HandshakeError):
                client.attach("127.0.0.1", server.port,
                              resume_token="stale-epoch-token")
            # the refusal left the server fully usable
            session = client.attach("127.0.0.1", server.port)
            assert session.request("info")["pid"] == os.getpid()
            assert not session.resumed
            client.close()
        finally:
            server.close()


class TestSecondClient:
    def test_racing_clients_exactly_one_wins(self, waiter):
        """S3: two clients race to attach; the reactor survives the
        refusal and exactly one session is established."""
        server = DebugServer(program="t", client_loss_grace=5.0)
        server.start()
        try:
            results = [None, None]

            def try_attach(slot):
                client = DebugClient()
                try:
                    client.attach("127.0.0.1", server.port)
                    results[slot] = client
                except (HandshakeError, SessionError):
                    client.close()

            threads = [threading.Thread(target=try_attach, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            winners = [c for c in results if c is not None]
            assert len(winners) == 1, f"expected one winner: {results}"
            winner = winners[0]
            # the loser's dying connection is not a client loss: no
            # grace timer, and the winner still drives the debuggee
            assert not server.grace_pending
            assert winner.sessions()[0].request("info")["pid"] == \
                os.getpid()
            assert server._reactor.running  # noqa: SLF001
            winner.close()
        finally:
            server.close()

    def test_second_client_refused_while_first_parked(self, waiter):
        """The refusal must not disturb a stop in progress."""
        server = DebugServer(program="t", park_timeout=30.0,
                             client_loss_grace=5.0)
        server.start()
        try:
            client = DebugClient()
            session = client.attach("127.0.0.1", server.port)
            session.request("set_break", {"file": SRC,
                                          "line": LOOP_BP_LINE,
                                          "temporary": True})
            box = {}
            thread = threading.Thread(
                target=lambda: box.setdefault("r", traced_loop(2)))
            thread.start()
            view = client.wait_for_stop(timeout=10)[0]
            view.wait_stopped(10)

            intruder = DebugClient()
            with pytest.raises((HandshakeError, SessionError)):
                intruder.attach("127.0.0.1", server.port)
            intruder.close()

            time.sleep(0.2)  # window for any spurious release/grace
            assert view.is_stopped, "refusal released the parked UE"
            assert not server.grace_pending
            view.cont()
            thread.join(10)
            assert box.get("r") == 2
            client.close()
        finally:
            server.close()


    def test_current_token_supersedes_an_open_channel(self, waiter):
        """A restarted client can dial before the server has read its
        old channel's EOF.  Presenting the current token, it is the
        same client: the new channel takes over, the old one closes,
        no loss grace starts and the parked UE stays parked."""
        server = DebugServer(program="t", park_timeout=30.0,
                             client_loss_grace=5.0)
        server.start()
        try:
            client = DebugClient()
            session = client.attach("127.0.0.1", server.port)
            session.request("set_break", {"file": SRC,
                                          "line": LOOP_BP_LINE,
                                          "temporary": True})
            box = {}
            thread = threading.Thread(
                target=lambda: box.setdefault("r", traced_loop(2)))
            thread.start()
            client.wait_for_stop(timeout=10)[0].wait_stopped(10)

            successor = DebugClient()
            reclaimed = successor.attach(
                "127.0.0.1", server.port,
                resume_token=session.session_token)
            assert reclaimed.resumed
            waiter(lambda: session.lost, message="old channel closed")
            time.sleep(0.2)  # window for any spurious release/grace
            assert thread.is_alive(), "the takeover released the UE"
            assert not server.grace_pending
            view = successor.wait_for_stop(timeout=10)[0]
            view.wait_stopped(10)
            view.cont()
            thread.join(10)
            assert box.get("r") == 2
            successor.close()
            client.close()
        finally:
            server.close()


class TestStopReplayRace:
    def test_stop_replayed_at_hello_becomes_a_view(self, waiter):
        """Regression: the hello-time stop replay arrives on the reader
        thread before attach() registers the session; the event must be
        routed against its own delivering session, not dropped."""
        server = DebugServer(program="t", park_timeout=30.0)
        server.start()
        try:
            server.engine.breakpoints.add(SRC, LOOP_BP_LINE)
            box = {}
            thread = threading.Thread(
                target=lambda: box.setdefault("r", traced_loop(3)))
            thread.start()
            waiter(lambda: server.engine.controller.parked_ues(),
                   message="UE parked before any client exists")

            # Attach AFTER the stop: the replay races the registration.
            client = DebugClient()
            client.attach("127.0.0.1", server.port)
            view = client.wait_for_stop(timeout=10)[0]
            assert view.is_stopped

            server.engine.breakpoints.clear()
            view.cont()
            thread.join(10)
            assert box.get("r") == 3
            client.close()
        finally:
            server.close()


class TestSessionLookup:
    def test_session_for_pid_wakes_on_attach(self):
        """S1: the lookup blocks on a condition and wakes the moment the
        session lands — no polling loop, no missed signal."""
        server = DebugServer(program="t")
        server.start()
        try:
            client = DebugClient()
            timer = threading.Timer(
                0.15, lambda: client.attach("127.0.0.1", server.port))
            timer.start()
            start = time.monotonic()
            session = client.session_for_pid(os.getpid(), timeout=5.0)
            elapsed = time.monotonic() - start
            assert session.pid == os.getpid()
            assert 0.1 <= elapsed < 3.0
            timer.join()
            client.close()
        finally:
            server.close()

    def test_session_for_pid_times_out(self):
        client = DebugClient()
        start = time.monotonic()
        with pytest.raises(SessionError):
            client.session_for_pid(424242, timeout=0.2)
        assert time.monotonic() - start < 2.0
        client.close()


class TestStatusCommand:
    def test_status_reports_supervision_state(self, debug_pair):
        server, client, session = debug_pair
        status = session.request("status")
        assert status["pid"] == os.getpid()
        assert status["epoch"] == 0
        assert status["session_token"] == session.session_token
        assert status["parked"] == []
        assert status["grace_pending"] is False

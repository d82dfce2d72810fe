"""Integration: fleet-scale client properties against fake debug servers.

Real ``DebugServer``\\ s in one test process all share ``os.getpid()``, and
a :class:`DebugClient` refuses two sessions to one pid — so fleet-shaped
tests speak the wire protocol through *fake* servers that answer the
handshake with synthetic pids.  That keeps every claim here about the
CLIENT: pipelined out-of-order completion, O(1) thread cost, and
scatter-gather sweeps that record holes instead of aborting.

The fakes use blocking frame I/O (``tests/wire.py``) on purpose: they
stand for the server side, which has its own reactor and its own tests.
"""

import socket
import threading
import time

import pytest

from repro.client import DebugClient, DebugSession
from repro.obs.spans import SPANS, is_instant
from repro.server import protocol
from repro.util.errors import (
    FramingError,
    RequestTimeoutError,
    SessionLostError,
)
from repro.util.reactor import HIGH_WATER_BYTES
from tests.wire import recv_msg, send_msg

pytestmark = pytest.mark.timeout(60)


class FakeDebugServer:
    """Protocol-level stand-in for one debuggee's debug server.

    Answers hello with a synthetic pid and echoes requests; subclass-free
    customisation via ``on_request(conn, message) -> bool`` returning
    True when it handled the reply itself.
    """

    def __init__(self, pid, on_request=None):
        self.pid = pid
        self.on_request = on_request
        self.listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.listener.bind(("127.0.0.1", 0))
        self.listener.listen(8)
        self.port = self.listener.getsockname()[1]
        self._conns = []
        self._serve_threads = []
        self._lock = threading.Lock()
        self._closing = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"fake-accept-{pid}", daemon=True)
        self._accept_thread.start()

    def _accept_loop(self):
        while True:
            try:
                conn, _addr = self.listener.accept()
            except OSError:
                return
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                self._conns.append(conn)
                thread = threading.Thread(target=self._serve, args=(conn,),
                                          name=f"fake-serve-{self.pid}",
                                          daemon=True)
                self._serve_threads.append(thread)
            thread.start()

    def _serve(self, conn):
        try:
            hello = recv_msg(conn)
            if not isinstance(hello, dict) or hello.get("type") != "hello":
                return
            send_msg(conn, protocol.make_hello_ack(
                pid=self.pid, parent_pid=1, program=f"fake-{self.pid}",
                main_thread=1, session_token=f"tok-{self.pid}"))
            while True:
                message = recv_msg(conn)
                if message is None:
                    return
                if message.get("type") == "ping":
                    send_msg(conn, protocol.make_pong(
                        message.get("seq", 0), pid=self.pid))
                elif message.get("type") == "request":
                    if self.on_request is not None \
                            and self.on_request(conn, message):
                        continue
                    send_msg(conn, protocol.make_response(
                        message["id"], {"echo": message["command"],
                                        "pid": self.pid}))
        except (OSError, FramingError):  # client gone, maybe mid-frame
            return
        finally:
            conn.close()

    def close(self):
        with self._lock:
            self._closing = True
            conns = list(self._conns)
            serve_threads = list(self._serve_threads)
        # A close() from this thread does not wake an accept() blocked in
        # the loop thread — poke it with a throwaway connection so it
        # observes _closing and exits, then reap every thread (a leaked
        # non-dionea thread poisons later tests, e.g. the sampler's
        # skipped-passes unit test).
        try:
            socket.create_connection(("127.0.0.1", self.port),
                                     timeout=1.0).close()
        except OSError:
            pass
        self.listener.close()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        self._accept_thread.join(5.0)
        for thread in serve_threads:
            thread.join(5.0)
        assert not self._accept_thread.is_alive(), "fake accept loop leaked"


def dionea_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("dionea-")]


@pytest.fixture
def fleet():
    servers = []

    def spawn(pid, on_request=None):
        server = FakeDebugServer(pid, on_request=on_request)
        servers.append(server)
        return server

    yield spawn
    for server in servers:
        server.close()


class TestPipelining:
    def test_out_of_order_completion(self, fleet):
        """Response to the SECOND request lands first; both resolve."""
        held = {}

        def on_request(conn, message):
            if message["command"] == "slow":
                held[message["id"]] = conn   # park it, answer later
                return True
            if message["command"] == "release":
                for req_id, held_conn in sorted(held.items()):
                    send_msg(held_conn, protocol.make_response(
                        req_id, {"echo": "slow", "order": "late"}))
                held.clear()
                return False                 # default reply for release
            return False

        server = fleet(910001, on_request=on_request)
        with DebugClient() as client:
            session = client.attach("127.0.0.1", server.port,
                                    heartbeat_interval=0)
            slow = session.request_async("slow")
            fast = session.request_async("fast")
            assert fast.wait(5.0)["echo"] == "fast"
            assert not slow.done             # genuinely still in flight
            release = session.request_async("release")
            assert slow.wait(5.0)["order"] == "late"
            assert release.wait(5.0)["echo"] == "release"

    def test_many_in_flight_same_channel(self, fleet):
        server = fleet(910002)
        with DebugClient() as client:
            session = client.attach("127.0.0.1", server.port,
                                    heartbeat_interval=0)
            calls = [session.request_async("status") for _ in range(50)]
            for call in calls:
                assert call.wait(5.0)["pid"] == 910002
            # ids were all distinct (pipelining correlates by id)
            assert len({c.request_id for c in calls}) == 50

    def test_timeout_forgets_pending(self, fleet):
        def on_request(conn, message):
            return message["command"] == "black-hole"  # never answered

        server = fleet(910003, on_request=on_request)
        with DebugClient() as client:
            session = client.attach("127.0.0.1", server.port,
                                    heartbeat_interval=0)
            call = session.request_async("black-hole")
            with pytest.raises(RequestTimeoutError):
                call.wait(0.2)
            # The lost id is forgotten; the channel still works.
            assert session.request("status", timeout=5.0)["pid"] == 910003


class TestThreadScaling:
    def test_client_threads_constant_in_session_count(self, fleet):
        """The tentpole: N sessions cost the same client threads as 1."""
        servers = [fleet(920000 + i) for i in range(12)]
        with DebugClient() as client:
            client.attach("127.0.0.1", servers[0].port,
                          heartbeat_interval=0.2)
            baseline = len(dionea_threads())
            for server in servers[1:]:
                client.attach("127.0.0.1", server.port,
                              heartbeat_interval=0.2)
            assert len(client.sessions()) == 12
            assert len(dionea_threads()) == baseline  # O(1), not O(N)
            # reactor loop + dispatcher only
            assert baseline <= 2
            results, errors = client.cluster_request("status", timeout=5.0)
            assert errors == {}
            assert set(results) == {s.pid for s in servers}
        assert dionea_threads() == []  # close() reaps both threads


class TestScatterGather:
    def test_sweep_records_holes_not_aborts(self, fleet):
        def black_hole(conn, message):
            return message["command"] == "telemetry"   # swallow

        good1 = fleet(930001)
        dead = fleet(930002, on_request=black_hole)
        good2 = fleet(930003)
        with DebugClient() as client:
            for server in (good1, dead, good2):
                client.attach("127.0.0.1", server.port,
                              heartbeat_interval=0)
            out = client.cluster_telemetry(timeout=0.5,
                                           include_client=False)
            assert set(out["processes"]) == {930001, 930003}
            assert set(out["errors"]) == {930002}
            assert "RequestTimeoutError" in out["errors"][930002]
            assert out["fleet"]["sessions"] == 3
            # The hole is diagnosable from the obs event ring afterwards.
            lines = [r["name"] for r in SPANS.snapshot()
                     if is_instant(r) and "hole at pid 930002" in r["name"]]
            assert lines, "cluster hole was not recorded on the ring"

    def test_gather_is_one_deadline_not_per_pid(self, fleet):
        """Sweep over N stalled pids costs ~1 timeout, not N timeouts."""
        def stall(conn, message):
            return message["command"] == "telemetry"

        servers = [fleet(940000 + i, on_request=stall) for i in range(5)]
        with DebugClient() as client:
            for server in servers:
                client.attach("127.0.0.1", server.port,
                              heartbeat_interval=0)
            started = time.monotonic()
            results, errors = client.cluster_request("telemetry",
                                                     timeout=0.5)
            elapsed = time.monotonic() - started
            assert results == {}
            assert len(errors) == 5
            assert elapsed < 0.5 * 3  # one shared deadline, not 5 x 0.5

    def test_cluster_set_break_and_continue(self, fleet):
        def verbs(conn, message):
            command = message["command"]
            if command == "set_break":
                send_msg(conn, protocol.make_response(
                    message["id"], {"id": 7, "file": "app.py", "line": 3}))
                return True
            if command == "resume_all":
                send_msg(conn, protocol.make_response(
                    message["id"], {"resumed": 2}))
                return True
            return False

        servers = [fleet(950000 + i, on_request=verbs) for i in range(3)]
        with DebugClient() as client:
            for server in servers:
                client.attach("127.0.0.1", server.port,
                              heartbeat_interval=0)
            out = client.cluster_set_break(file="app.py", line=3,
                                           timeout=5.0)
            assert out["errors"] == {}
            assert all(r["id"] == 7 for r in out["breakpoints"].values())
            out = client.cluster_continue(timeout=5.0)
            assert out["errors"] == {}
            assert all(r["resumed"] == 2 for r in out["resumed"].values())


class TestFleetHealth:
    def test_heartbeat_aggregate_across_sessions(self, fleet):
        servers = [fleet(960000 + i) for i in range(3)]
        with DebugClient() as client:
            for server in servers:
                client.attach("127.0.0.1", server.port,
                              heartbeat_interval=0.05)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                health = client.fleet_health()
                if health["heartbeats_seen"] >= 6 \
                        and "rtt_seconds" in health:
                    break
                time.sleep(0.05)
            assert health["sessions"] == 3
            rtt = health["rtt_seconds"]
            assert 0 <= rtt["min"] <= rtt["p50"] <= rtt["max"]
            assert rtt["slowest_pid"] in {s.pid for s in servers}
            assert health["miss_budget_used"]["max"] < 1.0


class TestSlowPeer:
    def test_channel_past_high_water_is_lost_not_waited_on(self, fleet,
                                                           waiter):
        """A server that stops reading: the requesting thread gets a
        prompt SessionLostError once the channel holds more than the
        high-water mark, and the session is lost with the reason."""
        release = threading.Event()

        def stop_reading(conn, message):
            release.wait(30)  # this serve thread reads nothing more
            return True

        server = fleet(970001, on_request=stop_reading)
        server.listener.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF,
                                   4096)  # inherited by the accepted conn
        with DebugClient() as client:
            try:
                session = client.attach("127.0.0.1", server.port,
                                        heartbeat_interval=0)
                session._cmd_channel.sock.setsockopt(  # noqa: SLF001
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                blob = "b" * 65536
                started = time.monotonic()
                with pytest.raises(SessionLostError):
                    for _ in range(4 * HIGH_WATER_BYTES // len(blob)):
                        session.request_async("stall", {"blob": blob})
                assert time.monotonic() - started < 5.0
                waiter(lambda: session.lost, message="loss verdict")
                assert "slow peer" in session.lost_reason
            finally:
                release.set()

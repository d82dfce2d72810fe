"""Unit tests: the debug server's listener — its transport on the reactor.

Exercised with raw sockets speaking the framed protocol against a
:class:`DebugServer` started without tracing.  These tests pin down the
transport behaviours the server builds on: hello adoption, role routing,
event broadcast, bad-peer containment, lifecycle, and the one overflow
rule for a client that stops reading.
"""

import socket
import time

import pytest

from repro.server import DebugServer, protocol
from repro.server import debugserver as debugserver_module
from repro.util.errors import FramingError, ReproError
from repro.util.reactor import HIGH_WATER_BYTES
from tests.wire import recv_msg, send_msg


class Harness:
    def __init__(self, **server_kwargs):
        self.server = DebugServer(program="listener-test", **server_kwargs)
        self.server.start(install_tracing=False)

    def connect(self, rcvbuf=None):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if rcvbuf is not None:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, rcvbuf)
        sock.settimeout(5)
        sock.connect(("127.0.0.1", self.server.port))
        return sock

    def dial(self, role=protocol.ROLE_COMMAND, rcvbuf=None):
        sock = self.connect(rcvbuf)
        send_msg(sock, protocol.make_hello(role, pid=1, session_token="t"))
        ack = recv_msg(sock)
        assert ack["type"] == "hello_ack"
        return sock

    def channels(self):
        return self.server._reactor.channel_count()  # noqa: SLF001

    def close(self):
        self.server.close()


def reads_eof(sock):
    """Drain frames until the server side is gone."""
    while True:
        try:
            if recv_msg(sock) is None:
                return True
        except (FramingError, ConnectionResetError):
            return True


@pytest.fixture
def harness():
    h = Harness()
    yield h
    h.close()


class TestConnectionLifecycle:
    def test_hello_adopts_role(self, harness, waiter):
        sock = harness.dial(protocol.ROLE_SOURCE)
        waiter(lambda: harness.channels() == 1, message="source channel")
        # a source channel never takes the command slot
        assert not harness.server.client_attached
        sock.close()

    def test_request_dispatch_and_response(self, harness):
        sock = harness.dial()
        send_msg(sock, protocol.make_request(9, "status", {}))
        response = recv_msg(sock)
        assert response["id"] == 9 and response["ok"]
        assert response["result"]["pid"] == harness.server.session.pid
        sock.close()

    def test_disconnect_detected(self, harness, waiter):
        sock = harness.dial()
        assert harness.server.client_attached
        sock.close()
        waiter(lambda: not harness.server.client_attached,
               message="disconnect noticed")
        assert harness.server.grace_pending

    def test_multiple_connections_tracked(self, harness, waiter):
        socks = [harness.dial(protocol.ROLE_COMMAND),
                 harness.dial(protocol.ROLE_SOURCE)]
        waiter(lambda: harness.channels() == 2, message="both channels")
        assert harness.server.client_attached
        for sock in socks:
            sock.close()


class TestBroadcast:
    def test_event_reaches_command_role_only(self, harness):
        cmd = harness.dial(protocol.ROLE_COMMAND)
        src = harness.dial(protocol.ROLE_SOURCE)
        assert harness.server.emit_event("stopped", {"x": 1})
        message = recv_msg(cmd)
        assert message["event"] == "stopped"
        src.settimeout(0.2)
        with pytest.raises(socket.timeout):
            src.recv(1)
        cmd.close()
        src.close()

    def test_broadcast_with_no_connections(self, harness):
        assert not harness.server.emit_event("x", {})


class TestHostilePeers:
    def test_bad_hello_drops_connection(self, harness, waiter):
        sock = harness.connect()
        send_msg(sock, {"type": "hello", "version": 1, "role": "evil"})
        assert reads_eof(sock)
        waiter(lambda: harness.channels() == 0, message="drop")
        sock.close()

    def test_garbage_bytes_drop_connection(self, harness, waiter):
        sock = harness.dial()
        sock.sendall(b"\xff" * 64)
        assert reads_eof(sock)
        waiter(lambda: not harness.server.client_attached, message="drop")
        sock.close()

    def test_request_before_hello_rejected(self, harness):
        sock = harness.connect()
        send_msg(sock, protocol.make_request(1, "threads"))
        assert recv_msg(sock) is None  # dropped, never answered
        sock.close()

    def test_handler_exception_becomes_error_response(self, harness,
                                                      monkeypatch):
        def explode(server, name, args):
            raise RuntimeError("handler bug")

        monkeypatch.setattr(debugserver_module, "dispatch", explode)
        sock = harness.dial()
        send_msg(sock, protocol.make_request(4, "x"))
        response = recv_msg(sock)
        assert not response["ok"]
        assert "handler bug" in response["error"]["message"]
        # reactor still alive: a second request gets served
        send_msg(sock, protocol.make_request(5, "x"))
        assert recv_msg(sock)["id"] == 5
        sock.close()


class TestLifecycle:
    def test_double_start_rejected(self, harness):
        with pytest.raises(ReproError):
            harness.server.start(install_tracing=False)

    def test_close_closes_endpoint_and_connections(self, harness):
        sock = harness.dial()
        reactor = harness.server._reactor  # noqa: SLF001
        harness.close()
        assert not reactor.running
        farewell = recv_msg(sock)
        assert farewell["event"] == protocol.EV_SERVER_EXIT
        assert recv_msg(sock) is None  # server side closed
        sock.close()


#: One debuggee write forwarded as an ``output`` event (16 KiB of text).
OUTPUT_TEXT = "x" * 16384
#: Kernel buffers shrunk to their floor on both ends, so the backlog
#: lives in the server's write buffer whatever the host's defaults are.
SMALL_BUFFER = 4096


@pytest.fixture
def slow_client():
    """A server plus a command client that is not reading yet."""
    h = Harness(client_loss_grace=30.0)
    h.server._endpoint.sock.setsockopt(  # noqa: SLF001 - accepted sockets
        socket.SOL_SOCKET, socket.SO_SNDBUF, SMALL_BUFFER)  # inherit it
    sock = h.dial(rcvbuf=SMALL_BUFFER)
    yield h.server, sock
    sock.close()
    h.close()


def emit_outputs(server, count):
    for seq in range(count):
        server.emit_event(protocol.EV_OUTPUT,
                          {"pid": 0, "stream": "stdout",
                           "text": OUTPUT_TEXT, "seq": seq})


class TestSlowPeer:
    """A command client that stops reading while the debuggee writes."""

    def test_backlog_below_high_water_arrives_in_order(self, slow_client):
        server, sock = slow_client
        count = (HIGH_WATER_BYTES // 2) // len(OUTPUT_TEXT)
        emit_outputs(server, count)
        # The client reads again: every event, in order, then the pong.
        send_msg(sock, protocol.make_ping(7))
        seqs = [recv_msg(sock)["payload"]["seq"] for _ in range(count)]
        assert seqs == list(range(count))
        pong = recv_msg(sock)
        assert pong["type"] == "pong" and pong["seq"] == 7
        assert server.client_attached

    def test_backlog_past_high_water_closes_the_channel(self, slow_client,
                                                        waiter):
        server, sock = slow_client
        count = HIGH_WATER_BYTES // len(OUTPUT_TEXT) + 8
        started = time.monotonic()
        emit_outputs(server, count)
        # The emitting (debuggee) thread never waited on the peer.
        assert time.monotonic() - started < 5.0
        waiter(lambda: server.grace_pending, message="client-loss grace")
        assert not server.client_attached
        # The client gets what reached its kernel buffers, in order,
        # then EOF — never a socket that stays open and silent.
        seqs = []
        while True:
            try:
                message = recv_msg(sock)
            except FramingError:  # the cut landed inside a frame
                break
            if message is None:
                break
            seqs.append(message["payload"]["seq"])
        assert seqs == list(range(len(seqs)))
        assert len(seqs) < count

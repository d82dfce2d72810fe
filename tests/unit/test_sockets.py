"""Unit tests: endpoint primitives (repro.server.sockets) and the server's
reactor channels (repro.util.reactor) — framed sends, owner close, and
what a forked child may and may not do with inherited descriptors."""

import json
import os
import socket
import threading
import time

import pytest

from repro.server import DebugServer, protocol
from repro.server.sockets import ListenEndpoint, connect_endpoint
from repro.util.errors import ProtocolError
from repro.util.portfile import PortFile
from tests.wire import recv_msg, send_msg


def dial(port, role=protocol.ROLE_COMMAND):
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    send_msg(sock, protocol.make_hello(role, pid=1, session_token="t"))
    assert recv_msg(sock)["type"] == "hello_ack"
    return sock


@pytest.fixture
def tcp_pair(waiter):
    """A started server, its command channel and the client socket."""
    server = DebugServer(program="sockets-test")
    server.start(install_tracing=False)
    client = dial(server.port)
    waiter(lambda: server.client_attached, message="command channel")
    yield server, server._command, client  # noqa: SLF001
    client.close()
    server.close()


class TestConnection:
    def test_send_is_framed(self, tcp_pair):
        server, channel, client = tcp_pair
        assert server._send(channel, {"hello": 1})  # noqa: SLF001
        assert recv_msg(client) == {"hello": 1}

    def test_send_after_close_returns_false(self, tcp_pair):
        server, channel, client = tcp_pair
        channel.reactor.close_channel(channel)
        assert not server._send(channel, {"x": 1})  # noqa: SLF001

    def test_send_to_dead_peer_marks_closed(self, tcp_pair):
        server, channel, client = tcp_pair
        client.close()
        # first sends may be buffered; eventually the broken pipe shows
        for _ in range(256):
            if not server._send(channel, {"spam": "x" * 8192}):  # noqa: SLF001
                break
            time.sleep(0.001)
        assert channel.closed

    def test_role_adoption_validates(self, tcp_pair, waiter):
        server, channel, client = tcp_pair
        assert channel.role == protocol.ROLE_COMMAND
        rogue = socket.create_connection(("127.0.0.1", server.port),
                                         timeout=5)
        with pytest.raises(ProtocolError):
            protocol.validate_hello({"type": "hello", "version": 1,
                                     "role": "superuser"})
        send_msg(rogue, {"type": "hello", "version": 1,
                         "role": "superuser"})
        assert recv_msg(rogue) is None  # refused before any ack
        rogue.close()
        source = dial(server.port, protocol.ROLE_SOURCE)
        waiter(lambda: channel.reactor.channel_count() == 2,
               message="source channel")
        source.close()

    def test_close_idempotent(self, tcp_pair):
        server, channel, client = tcp_pair
        channel.reactor.close_channel(channel)
        channel.reactor.close_channel(channel)
        assert recv_msg(client) is None


class TestShutdownSemantics:
    """The §5.3/Fig. 5 regression, pinned at socket level."""

    def test_owner_close_shuts_down_peer(self, tcp_pair):
        server, channel, client = tcp_pair
        channel.reactor.close_channel(channel)
        assert recv_msg(client) is None  # peer sees EOF

    @pytest.mark.forks
    def test_inherited_close_without_shutdown_keeps_stream(self, tcp_pair):
        """A forked child closing its descriptor copies (no shutdown)
        must NOT sever the parent's connection."""
        server, channel, client = tcp_pair
        pid = os.fork()
        if pid == 0:
            # the child: drop inherited copies the fork-handler way
            server._reactor.close_after_fork()  # noqa: SLF001
            client.close()
            os._exit(0)
        os.waitpid(pid, 0)
        # parent's connection still works in both directions
        assert server._send(channel, {"still": "alive"})  # noqa: SLF001
        assert recv_msg(client) == {"still": "alive"}
        send_msg(client, protocol.make_ping(3))
        assert recv_msg(client)["seq"] == 3

    @pytest.mark.forks
    def test_inherited_close_survives_a_held_send_lock(self, tmp_path,
                                                       waiter):
        """The parent's reactor thread holds a channel's lock at the fork
        moment, so the child inherits it held forever.  Phase C must
        close the inherited descriptors without taking it, and the
        child's own reactor must serve its first command."""
        from repro.core import Dionea
        portfile = PortFile(str(tmp_path / "ports.jsonl"))
        debugger = Dionea(program="held-lock", portfile_path=portfile.path,
                          park_timeout=15.0)
        debugger.start()
        client = None
        gate_r, gate_w = os.pipe()
        try:
            client = dial(debugger.port)
            waiter(lambda: debugger.server.client_attached,
                   message="command channel")
            channel = debugger.server._command  # noqa: SLF001
            held, release = threading.Event(), threading.Event()

            def hold_lock():  # runs on the parent's reactor thread
                with channel.lock:
                    held.set()
                    release.wait(10)

            channel.reactor.call_soon(hold_lock)
            assert held.wait(5)
            pid = os.fork()
            if pid == 0:
                os.read(gate_r, 1)  # serve until the parent is done
                os._exit(0)
            release.set()
            waiter(lambda: any(r.pid == pid for r in portfile.read_all()),
                   message="child announce")
            record = next(r for r in portfile.read_all() if r.pid == pid)
            child = dial(record.port)
            send_msg(child, protocol.make_request(1, "status", {}))
            response = recv_msg(child)
            assert response["ok"] and response["result"]["pid"] == pid
            child.close()
            os.write(gate_w, b"x")
            assert os.waitpid(pid, 0)[1] == 0
        finally:
            os.close(gate_r)
            os.close(gate_w)
            if client is not None:
                client.close()
            debugger.stop()

    @pytest.mark.forks
    def test_child_debugger_fds_are_its_own_reactor(self, tmp_path, waiter):
        """After phase C the child holds exactly one debugger selector —
        its own — and none of the parent reactor's descriptors."""
        from repro.core import Dionea
        debugger = Dionea(program="fd-audit",
                          portfile_path=str(tmp_path / "ports.jsonl"),
                          park_timeout=15.0)
        debugger.start()
        client = None
        report_r, report_w = os.pipe()
        try:
            client = dial(debugger.port)
            waiter(lambda: debugger.server.client_attached,
                   message="command channel")
            # Sockets and pipes by inode; every epoll shares one anon
            # inode, so selectors are counted instead.
            parent_ids = {identity(fd) for fd in reactor_fds(
                debugger.server._reactor)}  # noqa: SLF001
            parent_ids.discard(None)
            parent_ids = {i for i in parent_ids
                          if i[0] != "anon_inode:[eventpoll]"}
            epolls_at_fork = count_epolls()
            pid = os.fork()
            if pid == 0:
                own = reactor_fds(debugger.server._reactor)  # noqa: SLF001
                live = {identity(fd) for fd in open_fds()}
                report = {"leaked": len(parent_ids & live),
                          "epolls": count_epolls(),
                          "own_open": all(identity(fd) in live
                                          for fd in own)}
                os.write(report_w, json.dumps(report).encode())
                os._exit(0)
            os.close(report_w)
            report = json.loads(os.read(report_r, 4096))
            os.waitpid(pid, 0)
            assert report == {"leaked": 0, "epolls": epolls_at_fork,
                              "own_open": True}
        finally:
            os.close(report_r)
            if client is not None:
                client.close()
            debugger.stop()

    @pytest.mark.forks
    def test_inherited_close_with_shutdown_would_break_parent(self,
                                                              tcp_pair):
        """Documents WHY shutdown=False exists: the opposite choice
        kills the parent's live stream."""
        server, channel, client = tcp_pair
        pid = os.fork()
        if pid == 0:
            channel.sock.shutdown(socket.SHUT_RDWR)  # the bug, on purpose
            os._exit(0)
        os.waitpid(pid, 0)
        assert recv_msg(client) is None  # parent's stream is dead


def open_fds():
    return [int(name) for name in os.listdir("/proc/self/fd")]


def identity(fd):
    """(kind, inode) of an open descriptor, or None if it is closed."""
    try:
        target = os.readlink(f"/proc/self/fd/{fd}")
        return target, os.fstat(fd).st_ino
    except OSError:
        return None


def count_epolls():
    return sum(1 for fd in open_fds()
               if (identity(fd) or ("",))[0] == "anon_inode:[eventpoll]")


def reactor_fds(reactor):
    """Every descriptor a reactor owns: selector, wake pipe, sockets."""
    fds = [reactor._selector.fileno(), reactor._wake_r,  # noqa: SLF001
           reactor._wake_w]  # noqa: SLF001
    fds += [channel.fileno() for channel in reactor._channels]  # noqa: SLF001
    fds += [reader.fileno() for reader in reactor._readers]  # noqa: SLF001
    return fds


class TestListenEndpoint:
    def test_ephemeral_port_assigned(self):
        endpoint = ListenEndpoint()
        assert endpoint.port > 0
        endpoint.close()

    def test_two_endpoints_distinct_ports(self):
        a, b = ListenEndpoint(), ListenEndpoint()
        assert a.port != b.port
        a.close()
        b.close()

    def test_close_idempotent(self):
        endpoint = ListenEndpoint()
        endpoint.close()
        endpoint.close()
        assert endpoint.closed


class TestConnectEndpoint:
    def test_sends_hello_on_connect(self):
        endpoint = ListenEndpoint()
        sock = connect_endpoint("127.0.0.1", endpoint.port,
                                protocol.ROLE_COMMAND, pid=9,
                                session_token="tok")
        server_sock, _address = endpoint.accept()
        server_sock.settimeout(5)
        hello = recv_msg(server_sock)
        assert hello["role"] == "command"
        assert hello["session_token"] == "tok"
        sock.close()
        server_sock.close()
        endpoint.close()

    def test_invalid_role_rejected_before_dialing(self):
        with pytest.raises(ProtocolError):
            connect_endpoint("127.0.0.1", 1, "admin", pid=1,
                             session_token="t")

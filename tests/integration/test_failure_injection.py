"""Integration: failure injection.

The debugger must degrade, not wedge: a vanished client releases parked
UEs; garbage on the wire drops only the offending connection; a child
dying before rendezvous doesn't poison the watcher; handler failures are
contained.
"""

import os
import socket
import threading
import time

import pytest

from repro.client import DebugClient
from repro.server import DebugServer, protocol
from tests.wire import recv_msg, send_msg

SRC = os.path.abspath(__file__)


def traced_loop(n):
    total = 0
    for i in range(n):
        total += 1              # LOOP_BP_LINE
    return total


LOOP_BP_LINE = traced_loop.__code__.co_firstlineno + 3


class TestClientDeath:
    def test_dead_client_releases_parked_ues(self, waiter):
        """§4.1's 1:1 session ends abruptly: the debuggee must run on."""
        server = DebugServer(program="t", park_timeout=30.0,
                             client_loss_grace=0.2)
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

            # The client dies without resuming anything.
            server.engine.breakpoints.clear()  # avoid re-stopping
            client.close()

            # The server notices the disconnect and releases the UE.
            thread.join(10)
            assert box.get("r") == 3, "debuggee stayed parked after " \
                                      "client death"
        finally:
            server.close()

    def test_park_timeout_is_the_last_resort(self):
        """Even with no client at all, a stop cannot wedge forever."""
        server = DebugServer(program="t", park_timeout=0.3)
        server.start()
        try:
            server.engine.breakpoints.add(SRC, LOOP_BP_LINE,
                                          temporary=True)
            start = time.monotonic()
            result = traced_loop(2)
            elapsed = time.monotonic() - start
            assert result == 2
            assert 0.25 <= elapsed < 5.0
        finally:
            server.close()


class TestWireGarbage:
    def test_garbage_connection_does_not_kill_server(self, debug_pair):
        server, client, session = debug_pair
        rogue = socket.create_connection(("127.0.0.1", server.port),
                                         timeout=5)
        rogue.sendall(b"\x00" * 3)       # torn header
        rogue.sendall(b"GET / HTTP/1.1\r\n\r\n")
        time.sleep(0.1)
        rogue.close()
        # the legitimate session is unaffected
        assert session.request("info")["pid"] == os.getpid()

    def test_huge_length_prefix_rejected(self, debug_pair):
        server, client, session = debug_pair
        import struct
        rogue = socket.create_connection(("127.0.0.1", server.port),
                                         timeout=5)
        rogue.sendall(struct.pack(">I", 2 ** 31))
        time.sleep(0.1)
        rogue.close()
        assert session.request("info")["pid"] == os.getpid()

    def test_source_role_cannot_hold_command_slot(self, debug_pair):
        """Extra source-role connections are fine; the 1:1 rule only
        applies to command connections."""
        server, client, session = debug_pair
        extra = socket.create_connection(("127.0.0.1", server.port),
                                         timeout=5)
        send_msg(extra, protocol.make_hello(
            protocol.ROLE_SOURCE, pid=0, session_token="x"))
        ack = recv_msg(extra)
        assert ack["type"] == "hello_ack"
        extra.close()


@pytest.mark.forks
class TestChildDeathBeforeRendezvous:
    def test_watcher_survives_vanished_child(self, dionea, waiter):
        client = DebugClient()
        client.watch_portfile(dionea.portfile)
        waiter(lambda: client.sessions(), message="parent attach")
        try:
            # Forge a record for a child that died before accepting.
            from repro.util.portfile import PortRecord
            dead_sock = socket.socket()
            dead_sock.bind(("127.0.0.1", 0))
            dead_port = dead_sock.getsockname()[1]
            dead_sock.close()  # nothing listens here any more
            dionea.portfile.announce(PortRecord(
                pid=99999999, parent_pid=os.getpid(),
                host="127.0.0.1", port=dead_port, created_at=time.time()))

            # A real fork afterwards must still auto-attach.
            pid = os.fork()
            if pid == 0:
                time.sleep(0.4)
                os._exit(0)
            session = client.session_for_pid(pid, timeout=10)
            assert session.pid == pid
            os.waitpid(pid, 0)
        finally:
            client.close()


class TestHandlerFailures:
    @pytest.mark.forks
    def test_foreign_prepare_failure_contained_fork_proceeds(self, dionea):
        """Do-no-harm: a third-party prepare failure no longer vetoes
        the fork.  The sick handler is undone and quarantined; the fork
        proceeds and the debugger stays fully operational."""
        from repro.util.errors import ForkHookError

        dionea.fork_registry.register(
            "flaky-library", prepare=lambda: 1 / 0)
        try:
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
            # debugger state is intact: sync sweep unwound, tracing on
            assert dionea.server.engine.enabled
            assert not dionea.sync_registry.holding
            # the offender is benched, not the debuggee's fork
            assert "flaky-library" in \
                dionea.fork_registry.quarantine.benched_labels()
            # and a later fork still works
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            _, status = os.waitpid(pid, 0)
            assert os.waitstatus_to_exitcode(status) == 0
        finally:
            try:
                dionea.fork_registry.unregister("flaky-library")
            except ForkHookError:
                pass

    @pytest.mark.forks
    def test_foreign_child_handler_failure_contained(self, dionea):
        dionea.fork_registry.register(
            "flaky-child", child=lambda: 1 / 0)
        pid = os.fork()
        if pid == 0:
            # the failing foreign handler must not have killed us
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        dionea.fork_registry.unregister("flaky-child")


class TestEvalSafety:
    def test_eval_error_is_data_not_crash(self, debug_pair):
        server, client, session = debug_pair
        session.request("set_break", {"file": SRC, "line": LOOP_BP_LINE,
                                      "temporary": True})
        box = {}
        thread = threading.Thread(
            target=lambda: box.setdefault("r", traced_loop(2)))
        thread.start()
        view = client.wait_for_stop(timeout=10)[0]
        view.wait_stopped(10)
        result = view.evaluate("1 / 0")
        assert result["ok"] is False
        assert "ZeroDivisionError" in result["error"]
        # server is still healthy
        assert view.evaluate("total + 1")["ok"] is True
        view.cont()
        thread.join(10)

    def test_eval_on_running_ue_rejected(self, debug_pair):
        from repro.util.errors import CommandError
        server, client, session = debug_pair
        from repro.util.ids import UEId
        ue = UEId(os.getpid(), threading.get_ident())
        with pytest.raises(CommandError, match="not stopped"):
            session.request("eval", {"ue": protocol.ue_to_wire(ue),
                                     "expression": "1"})

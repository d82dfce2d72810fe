"""Integration: DebugServer ↔ DebugClient over real TCP sockets.

Covers the paper's section 4 machinery end to end within one process:
breakpoints, stepping, eval, the Variables view, source sync over the
second data socket, the Processes-and-threads view, and the
1 server : 1 client policy of section 4.1.
"""

import os
import threading

import pytest

from repro.util.errors import CommandError, SessionError
from repro.util.ids import UEId

SRC = os.path.abspath(__file__)


def countdown(n):
    values = []
    while n > 0:
        values.append(n)       # BP_LINE
        n -= 1
    return values


BP_LINE = countdown.__code__.co_firstlineno + 3


def run_in_thread(func, *args):
    box = {}

    def runner():
        box["result"] = func(*args)

    thread = threading.Thread(target=runner)
    thread.start()
    return thread, box


class TestBreakpointFlow:
    def test_stop_inspect_resume(self, debug_pair):
        server, client, session = debug_pair
        bp = session.request("set_break", {"file": SRC, "line": BP_LINE})
        thread, box = run_in_thread(countdown, 3)

        view = client.wait_for_stop(timeout=10)[0]
        capture = view.wait_stopped(10)
        assert capture.reason == "breakpoint"
        assert capture.breakpoint_id == bp["id"]
        assert capture.top.line == BP_LINE
        assert capture.top.function == "countdown"

        # eval and Variables view against the live parked frame
        assert view.evaluate("n")["value"] == "3"
        variables = view.variables()
        assert variables["locals"]["values"] == "[]"

        session.request("clear_break", {"id": bp["id"]})
        view.cont()
        thread.join(10)
        assert box["result"] == [3, 2, 1]

    def test_breakpoint_hit_count_visible(self, debug_pair):
        server, client, session = debug_pair
        bp = session.request("set_break",
                             {"file": SRC, "line": BP_LINE,
                              "condition": "n == 1"})
        thread, box = run_in_thread(countdown, 4)
        view = client.wait_for_stop(timeout=10)[0]
        view.wait_stopped(10)
        rows = session.request("breaks")
        assert rows[0]["hit_count"] == 1
        session.request("clear_break", {"id": bp["id"]})
        view.cont()
        thread.join(10)

    def test_stack_command_matches_event_capture(self, debug_pair):
        server, client, session = debug_pair
        session.request("set_break", {"file": SRC, "line": BP_LINE,
                                      "temporary": True})
        thread, box = run_in_thread(countdown, 2)
        view = client.wait_for_stop(timeout=10)[0]
        event_capture = view.wait_stopped(10)
        polled = view.stack()
        assert polled.top.line == event_capture.top.line
        assert polled.top.function == "countdown"
        view.cont()
        thread.join(10)


class TestStepping:
    def test_step_next_sequence(self, debug_pair):
        server, client, session = debug_pair
        session.request("set_break", {"file": SRC, "line": BP_LINE,
                                      "temporary": True})
        thread, box = run_in_thread(countdown, 3)
        view = client.wait_for_stop(timeout=10)[0]
        view.wait_stopped(10)

        marker = view.stop_marker
        view.next()
        capture = view.wait_stopped_after(marker, 10)
        assert capture.top.function == "countdown"
        assert capture.top.line == BP_LINE + 1  # n -= 1

        marker = view.stop_marker
        view.next()
        capture = view.wait_stopped_after(marker, 10)
        assert capture.top.line in (BP_LINE - 1, BP_LINE + 2)  # while / return

        view.cont()
        thread.join(10)
        assert box["result"] == [3, 2, 1]


class TestSourceSync:
    def test_fetch_source_lines(self, debug_pair):
        server, client, session = debug_pair
        result = session.fetch_source(SRC, start=1, end=5)
        assert result["start"] == 1
        assert "Integration" in result["lines"][0]

    def test_render_view_shows_marker(self, debug_pair):
        server, client, session = debug_pair
        session.request("set_break", {"file": SRC, "line": BP_LINE,
                                      "temporary": True})
        thread, box = run_in_thread(countdown, 2)
        view = client.wait_for_stop(timeout=10)[0]
        view.wait_stopped(10)
        rendered = client.activate(view)
        marked = [line for line in rendered["source"]
                  if line.startswith("->")]
        assert len(marked) == 1
        assert f"{BP_LINE}" in marked[0]
        assert rendered["reason"] == "breakpoint"
        view.cont()
        thread.join(10)

    def test_missing_file_is_error(self, debug_pair):
        server, client, session = debug_pair
        result = session.fetch_source("/no/such/file.py", start=1, end=3)
        assert result["lines"][0] == ""


class TestThreadsView:
    def test_threads_lists_parked_state(self, debug_pair):
        server, client, session = debug_pair
        session.request("set_break", {"file": SRC, "line": BP_LINE,
                                      "temporary": True})
        thread, box = run_in_thread(countdown, 2)
        view = client.wait_for_stop(timeout=10)[0]
        view.wait_stopped(10)
        rows = session.request("threads")
        states = {row["ue"]["tid"]: row["parked"] for row in rows}
        assert states[view.ue.tid] is True
        view.cont()
        thread.join(10)

    def test_info_describes_session(self, debug_pair):
        server, client, session = debug_pair
        info = session.request("info")
        assert info["pid"] == os.getpid()
        assert "resume" in info["commands"]
        assert info["port"] == server.port


class TestClientPolicy:
    def test_second_command_client_refused(self, debug_pair):
        server, client, session = debug_pair
        from repro.client import DebugClient
        second = DebugClient()
        with pytest.raises((SessionError, Exception)):
            second.attach("127.0.0.1", server.port)
        second.close()
        # the original session still works
        assert session.request("info")["pid"] == os.getpid()

    def test_errors_are_command_errors(self, debug_pair):
        server, client, session = debug_pair
        with pytest.raises(CommandError):
            session.request("clear_break", {"id": 999})
        with pytest.raises(CommandError):
            session.request("no_such_command")
        with pytest.raises(CommandError):
            session.request("resume", {"ue": {"pid": 1, "tid": 2},
                                       "action": "continue"})


class TestSuspendResume:
    def test_suspend_all_then_resume_all(self, debug_pair):
        server, client, session = debug_pair
        # suspend_all catches every traced UE — including this test's own
        # main thread (in a real deployment the client lives in another
        # process).  Auto-release the main thread the moment it parks so
        # the test can keep orchestrating.
        main_tid = threading.get_ident()
        client.on_stop = (lambda view:
                          view.cont() if view.ue.tid == main_tid else None)
        stop_flag = threading.Event()

        def spin():
            count = 0
            while not stop_flag.is_set():
                count += 1
            return count

        thread, box = run_in_thread(spin)
        try:
            session.request("suspend_all")
            # wait until the SPINNER (not the main thread) is parked
            deadline = 10

            def spinner_stopped():
                return any(v.ue.tid == thread.ident and v.is_stopped
                           for v in client.views())

            import time
            end = time.monotonic() + deadline
            while time.monotonic() < end and not spinner_stopped():
                time.sleep(0.01)
            assert spinner_stopped(), "spinner never parked"

            view = next(v for v in client.views()
                        if v.ue.tid == thread.ident)
            assert view.capture.reason == "suspend"
            session.request("resume_all")
            view.wait_resumed(10)
        finally:
            client.on_stop = None
            stop_flag.set()
            thread.join(10)

    def test_suspend_waits_out_stdlib_entered_from_debugger_code(
            self, debug_pair):
        """A UE whose suspend comes due inside the client's request path
        must not park in the stdlib code that path runs (it may hold the
        session's Condition lock the client reactor needs): it parks at
        its next user line, and the session stays alive."""
        server, client, session = debug_pair
        engine = server.engine

        def user_line():
            return "parked here"

        def worker():
            # Pend a suspend for this UE without injecting trace
            # functions: its next traced events are the stdlib calls
            # inside DebugSession.request.
            engine.controller.request_suspend(UEId.current())
            engine.refresh_quiet()
            session.request("status")
            return user_line()

        thread, box = run_in_thread(worker)
        view = client.wait_for_stop(timeout=10)[0]
        try:
            assert view.capture.reason == "suspend"
            assert view.capture.top.function == "user_line"
            assert session.request("status")["pid"] == os.getpid()
            assert not session.lost
        finally:
            view.cont()
            thread.join(10)
        assert box["result"] == "parked here"

    def test_low_intrusive_one_thread_stopped_other_runs(self, debug_pair):
        """Footnote 1: only the suspended thread stops."""
        server, client, session = debug_pair
        stop_flag = threading.Event()
        progress = {"a": 0, "b": 0}

        def spin(key):
            while not stop_flag.is_set():
                progress[key] += 1

        thread_a, _ = run_in_thread(spin, "a")
        thread_b, _ = run_in_thread(spin, "b")
        try:
            from repro.server import protocol
            from repro.util.ids import UEId
            ue_a = UEId(os.getpid(), thread_a.ident)
            session.request("suspend", {"ue": protocol.ue_to_wire(ue_a)})
            view = client.wait_for_stop(timeout=10)[0]
            view.wait_stopped(10)
            assert view.ue == ue_a

            # thread A is parked: its counter freezes; B keeps climbing.
            a_before, b_before = progress["a"], progress["b"]
            import time
            time.sleep(0.2)
            assert progress["a"] == a_before, "suspended thread still ran"
            assert progress["b"] > b_before, "unrelated thread was stopped"

            view.cont()
            view.wait_resumed(10)
        finally:
            stop_flag.set()
            thread_a.join(10)
            thread_b.join(10)

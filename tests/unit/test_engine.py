"""Unit tests: the trace engine (repro.tracing.engine), in-process.

Each test installs the engine around a small traced function and scripts
the client side with an auto-releaser thread that answers every stop
with a queued resume action.
"""

import gc
import os
import threading
import time
import types

import pytest

from repro.tracing.control import ResumeCommand
from repro.tracing.engine import TraceEngine
from repro.util.errors import TraceError
from repro.util.ids import UEId
from tests.conftest import fork_child, wait_child

SRC = os.path.abspath(__file__)


class Scripted:
    """Collects stops; releases each with the next scripted action."""

    def __init__(self, engine=None, actions=()):
        self.actions = list(actions)
        self.stops = []
        self.engine = engine or TraceEngine(park_timeout=5.0)
        self.engine.on_stop = self._on_stop

    def _on_stop(self, ue, capture):
        self.stops.append(capture)
        action = self.actions.pop(0) if self.actions else "continue"
        until = None
        if isinstance(action, tuple):
            action, until = action

        def release():
            self.engine.controller.release(
                ue, ResumeCommand(action=action, until_line=until))

        threading.Thread(target=release).start()

    def run(self, func, *args):
        self.engine.install()
        try:
            return func(*args)
        finally:
            self.engine.uninstall()


def loop_sum(n):                      # line anchor helper
    total = 0
    for i in range(n):
        total += i                    # BP_LINE
    return total


BP_LINE = loop_sum.__code__.co_firstlineno + 3


def call_chain():
    return inner_a() + 1


def inner_a():
    value = inner_b()
    return value + 10


def inner_b():
    return 100


class TestLifecycle:
    def test_install_uninstall(self):
        engine = TraceEngine()
        engine.install()
        assert engine.installed
        engine.uninstall()
        assert not engine.installed

    def test_double_install_rejected(self):
        engine = TraceEngine()
        engine.install()
        try:
            with pytest.raises(TraceError):
                engine.install()
        finally:
            engine.uninstall()

    def test_uninstall_idempotent(self):
        TraceEngine().uninstall()

    def test_disable_enable_flag(self):
        engine = TraceEngine()
        engine.disable()
        assert not engine.enabled
        engine.enable()
        assert engine.enabled


class TestBreakpoints:
    def test_breakpoint_hits_each_iteration(self):
        script = Scripted()
        script.engine.breakpoints.add(SRC, BP_LINE)
        result = script.run(loop_sum, 4)
        assert result == 6
        assert len(script.stops) == 4
        assert all(s.reason == "breakpoint" for s in script.stops)
        assert all(s.top.line == BP_LINE for s in script.stops)

    def test_conditional_breakpoint(self):
        script = Scripted()
        script.engine.breakpoints.add(SRC, BP_LINE, condition="i == 2")
        script.run(loop_sum, 5)
        assert len(script.stops) == 1
        assert script.stops[0].top.locals["i"] == "2"

    def test_temporary_breakpoint_hits_once(self):
        script = Scripted()
        script.engine.breakpoints.add(SRC, BP_LINE, temporary=True)
        script.run(loop_sum, 5)
        assert len(script.stops) == 1

    def test_function_breakpoint_stops_on_entry(self):
        script = Scripted()
        script.engine.breakpoints.add_function("inner_b")
        result = script.run(call_chain)
        assert result == 111
        assert len(script.stops) == 1
        assert script.stops[0].top.function == "inner_b"

    def test_no_breakpoints_no_stops(self):
        script = Scripted()
        assert script.run(loop_sum, 10) == 45
        assert script.stops == []

    def test_disabled_engine_skips_breakpoints(self):
        script = Scripted()
        script.engine.breakpoints.add(SRC, BP_LINE)
        script.engine.disable()
        script.run(loop_sum, 3)
        assert script.stops == []

    def test_locals_rendered_at_stop(self):
        script = Scripted()
        script.engine.breakpoints.add(SRC, BP_LINE, condition="i == 3")
        script.run(loop_sum, 5)
        locals_ = script.stops[0].top.locals
        assert locals_["total"] == "3"  # 0+1+2
        assert locals_["n"] == "5"


class TestStepping:
    def test_step_reaches_next_line(self):
        script = Scripted(actions=["step", "continue"])
        script.engine.breakpoints.add(SRC, BP_LINE, temporary=True)
        script.run(loop_sum, 3)
        assert script.stops[0].reason == "breakpoint"
        assert script.stops[1].reason in ("step", "return")
        # from the loop body, one step lands back on the for or return line
        assert script.stops[1].top.line != 0

    def test_step_into_call(self):
        script = Scripted(actions=["step"])
        script.engine.breakpoints.add_function("inner_a")
        # stop at inner_a entry, step → first line of inner_a body or call
        script.run(call_chain)
        assert script.stops[0].top.function == "inner_a"
        assert len(script.stops) >= 2

    def test_return_command_runs_out_of_frame(self):
        script = Scripted(actions=["return", "continue"])
        script.engine.breakpoints.add_function("inner_b")
        result = script.run(call_chain)
        assert result == 111
        # second stop (after 'return') is outside inner_b
        assert script.stops[1].top.function != "inner_b"


class TestSuspend:
    def test_suspend_pauses_running_thread(self):
        engine = TraceEngine(park_timeout=5.0)
        stops = []
        release_done = threading.Event()

        def on_stop(ue, capture):
            stops.append((ue, capture))

            def release():
                engine.controller.release(ue, ResumeCommand("continue"))
                release_done.set()

            threading.Thread(target=release).start()

        engine.on_stop = on_stop
        stop_flag = threading.Event()
        started = threading.Event()

        def spin():
            started.set()
            count = 0
            while not stop_flag.is_set():
                count += 1
            return count

        engine.install()
        try:
            worker = threading.Thread(target=spin)
            worker.start()
            started.wait(2.0)
            ue = UEId(os.getpid(), worker.ident)
            engine.request_suspend(ue)
            assert release_done.wait(5.0), "suspend never stopped the thread"
            stop_flag.set()
            worker.join(5.0)
        finally:
            stop_flag.set()
            engine.uninstall()
        assert stops and stops[0][1].reason == "suspend"
        assert stops[0][0].tid == worker.ident

    @pytest.mark.forks
    def test_suspend_survives_a_collection_freeing_a_thread_local(self):
        # On 3.11 a collection inside sys._current_frames() runs under
        # the interpreter's thread-list lock; freeing a threading.local
        # there takes that lock again, and the process freezes with the
        # GIL held.  Other threads keep making such garbage while the
        # suspend path snapshots frames; the child must finish in time.
        def child():
            engine = TraceEngine(park_timeout=5.0)
            stop = threading.Event()

            def garbage():  # a fresh frame for every snapshot to wrap
                node = types.SimpleNamespace(local=threading.local())
                node.cycle = node

            def churn():
                while not stop.is_set():
                    garbage()

            threads = [threading.Thread(target=churn) for _ in range(3)]
            for thread in threads:
                thread.start()
            gc.set_threshold(5)
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                engine.request_suspend(UEId(os.getpid(), threads[0].ident))
            stop.set()

        assert wait_child(fork_child(child), timeout=10.0) == 0

    def test_event_count_grows_only_when_enabled(self):
        engine = TraceEngine()
        engine.install()
        try:
            loop_sum(50)
            counted = engine.event_count
            engine.disable()
            loop_sum(50)
            assert engine.event_count == counted
        finally:
            engine.uninstall()


class TestForkReset:
    def test_reset_keeps_only_current_thread(self):
        engine = TraceEngine()
        other = UEId(os.getpid(), 424242)
        engine.state_for(other)
        engine.reset_after_fork()
        ues = engine.known_ues()
        assert other not in ues
        assert UEId.current() in ues

"""Unit tests: the trace-dispatch fast path and the engine's
armed/disarmed hook lifecycle.

What the tentpole must guarantee, pinned here in-process:

* a quiet main thread physically drops its hook (demotion) and the
  re-arm signal restores it when a breakpoint that needs the trace
  function (here the ``for`` header of ``loop_sum``) appears from any
  thread, while a patched breakpoint (tracing.codebp) leaves it
  demoted and still stops;
* async suspend injects local traces only into debuggee frames, never
  into debugger-infrastructure or synthetic (``<...>``) frames; and
* a suspended-then-resumed thread returns to the fast path — its
  injected traces are stripped on continue and ``trace.local_installs``
  stops growing.
"""

import os
import signal
import sys
import threading
import time

import pytest

from repro.tracing import codebp
from repro.tracing.control import ResumeCommand
from repro.tracing.engine import TraceEngine
from repro.util.ids import UEId

from tests.unit.test_engine import BP_LINE, SRC, Scripted, loop_sum

#: ``for i in range(n):`` in loop_sum: a loop header is never patched,
#: so a breakpoint there needs the trace function.
FOR_LINE = BP_LINE - 1

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGURG"),
    reason="demotion lifecycle needs the SIGURG re-arm channel")
needs_codebp = pytest.mark.skipif(
    not codebp.SUPPORTED, reason="code-object breakpoints need CPython 3.11")


def wait_until(predicate, timeout=5.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out waiting for {message}")


def _fastpath_engine(**kwargs):
    return TraceEngine(park_timeout=5.0, fastpath=True, **kwargs)


class TestDemotionLifecycle:
    def test_quiet_main_thread_demotes_on_first_call(self):
        engine = _fastpath_engine()
        engine.install()
        try:
            loop_sum(3)  # any call event on the quiet main thread
            assert sys.gettrace() is None, \
                "quiet main thread kept its hook (specializer stays off)"
            assert engine._main_demoted  # noqa: SLF001
        finally:
            engine.uninstall()

    def test_breakpoint_from_other_thread_rearms_via_signal(self):
        engine = _fastpath_engine()
        engine.install()
        try:
            loop_sum(3)
            assert sys.gettrace() is None
            threading.Thread(
                target=lambda: engine.breakpoints.add(SRC, FOR_LINE)).start()
            # The add must re-arm THIS (main) thread even though the
            # mutation happened elsewhere: sync() signals SIGURG and the
            # handler lands here at the next bytecode checkpoint.
            wait_until(lambda: sys.gettrace() is not None,
                       message="main thread re-arm")
            assert not engine._main_demoted  # noqa: SLF001
        finally:
            engine.uninstall()

    def test_breakpoint_set_while_demoted_still_stops(self):
        script = Scripted(engine=_fastpath_engine())
        script.engine.install()
        try:
            loop_sum(3)
            assert sys.gettrace() is None
            threading.Thread(
                target=lambda: script.engine.breakpoints.add(
                    SRC, FOR_LINE)).start()
            wait_until(lambda: sys.gettrace() is not None,
                       message="main thread re-arm")
            result = loop_sum(2)
        finally:
            script.engine.uninstall()
        assert result == 1
        # The header's line event fires per iteration and at exhaustion.
        assert len(script.stops) == 3
        assert all(s.reason == "breakpoint" for s in script.stops)
        assert all(s.top.line == FOR_LINE for s in script.stops)

    @needs_codebp
    def test_patched_breakpoint_from_other_thread_keeps_main_demoted(self):
        engine = _fastpath_engine()
        engine.install()
        try:
            loop_sum(3)
            assert sys.gettrace() is None
            adder = threading.Thread(
                target=lambda: engine.breakpoints.add(SRC, BP_LINE))
            adder.start()
            adder.join(5.0)
            assert engine.served(engine.breakpoints.snapshot_state()[0]) \
                == "code"
            time.sleep(0.05)  # room for a (wrong) re-arm signal to land
            loop_sum(0)
            assert sys.gettrace() is None, \
                "a patched breakpoint re-armed the main thread"
            assert engine._main_demoted  # noqa: SLF001
        finally:
            engine.uninstall()

    @needs_codebp
    def test_patched_breakpoint_set_while_demoted_stops_demoted(self):
        script = Scripted(engine=_fastpath_engine())
        traces = []
        on_stop = script.engine.on_stop

        def record(ue, capture):
            traces.append(sys.gettrace())
            on_stop(ue, capture)

        script.engine.on_stop = record
        script.engine.install()
        try:
            loop_sum(3)
            assert sys.gettrace() is None
            adder = threading.Thread(
                target=lambda: script.engine.breakpoints.add(SRC, BP_LINE))
            adder.start()
            adder.join(5.0)
            result = loop_sum(2)
            demoted = sys.gettrace() is None
        finally:
            script.engine.uninstall()
        assert result == 1
        assert len(script.stops) == 2
        assert all(s.reason == "breakpoint" for s in script.stops)
        assert all(s.top.line == BP_LINE for s in script.stops)
        assert traces == [None, None], "stopped with a trace function on"
        assert demoted

    def test_removing_last_breakpoint_demotes_again(self):
        script = Scripted(engine=_fastpath_engine())
        bp = script.engine.breakpoints.add(SRC, BP_LINE)
        script.engine.install()
        try:
            loop_sum(2)
            assert len(script.stops) == 2
            script.engine.breakpoints.remove(bp.id)
            loop_sum(2)  # quiet again: the next call event demotes
            assert sys.gettrace() is None
            assert len(script.stops) == 2
        finally:
            script.engine.uninstall()

    def test_uninstall_restores_signal_handler(self):
        before = signal.getsignal(signal.SIGURG)
        engine = _fastpath_engine()
        engine.install()
        assert signal.getsignal(signal.SIGURG) is not before
        engine.uninstall()
        assert signal.getsignal(signal.SIGURG) is before


def _spin(flag, ready):
    count = 0
    ready.set()
    while not flag.is_set():
        count += 1
    return count


class TestSuspendInjection:
    def test_injection_skips_synthetic_and_debugger_frames(self):
        engine = _fastpath_engine()
        namespace = {}
        exec(compile("def fake_outer(fn):\n    return fn()\n",
                     "<dionea-test>", "exec"), namespace)
        flag, ready = threading.Event(), threading.Event()
        worker = threading.Thread(
            target=namespace["fake_outer"],
            args=(lambda: _spin(flag, ready),))
        worker.start()
        try:
            ready.wait(5.0)
            frame = sys._current_frames()[worker.ident]  # noqa: SLF001
            engine._inject_frames(frame)  # noqa: SLF001
            injected, skipped = [], []
            current = sys._current_frames()[worker.ident]  # noqa: SLF001
            while current is not None:
                name = current.f_code.co_name
                if current.f_trace is engine._local_fn:  # noqa: SLF001
                    injected.append(name)
                else:
                    skipped.append(name)
                current = current.f_back
            assert "_spin" in injected
            assert "fake_outer" in skipped, \
                "synthetic '<...>' frame must never carry a local trace"
            assert engine.local_installs == len(injected)
        finally:
            flag.set()
            worker.join(5.0)

    def test_suspended_then_resumed_thread_returns_to_fastpath(self):
        engine = _fastpath_engine()
        stops = []

        def on_stop(ue, capture):
            stops.append(capture)
            threading.Thread(
                target=lambda: engine.controller.release(
                    ue, ResumeCommand(action="continue"))).start()

        engine.on_stop = on_stop
        flag, ready = threading.Event(), threading.Event()
        worker = threading.Thread(target=_spin, args=(flag, ready))
        engine.install()
        try:
            worker.start()
            ready.wait(5.0)
            ue = UEId(os.getpid(), worker.ident)
            assert engine.local_installs == 0
            engine.request_suspend(ue)
            wait_until(lambda: stops, message="suspend stop")
            assert engine.local_installs > 0
            installs_at_resume = engine.local_installs
            # After the continue the worker spins on unhooked frames
            # again: its injected local traces must be stripped...
            def spin_frame_clean():
                frame = sys._current_frames().get(  # noqa: SLF001
                    worker.ident)
                while frame is not None:
                    if frame.f_trace is engine._local_fn:  # noqa: SLF001
                        return False
                    frame = frame.f_back
                return True

            wait_until(spin_frame_clean, message="local traces stripped")
            # ...and the installs counter must sit still while it runs.
            time.sleep(0.1)
            assert engine.local_installs == installs_at_resume
            assert len(stops) == 1
            assert stops[0].reason == "suspend"
        finally:
            flag.set()
            worker.join(5.0)
            engine.uninstall()

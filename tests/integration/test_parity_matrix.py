"""Parity matrix: the fast path must be invisible.

The per-code fast path (LineTable probe + main-thread demotion) and the
code-object breakpoints it enables (tracing.codebp) are pure dispatch
optimisations — a debugging session must produce byte-identical
*behaviour* with them on or off.  This module re-runs the breakpoint,
stepping, suspend/resume, watchpoint, fork-following and
code-breakpoint integration suites across three rows by re-importing
their test classes under variant-parametrized fixtures:

* ``settrace-fastpathon``: the fast path, patching every line it can;
* ``settrace-fastpathoff``: the pure settrace reference;
* ``settrace-fastpathon-nopatch``: the fast path with a patcher that
  declines every line (a test seam, not an option), so the LineTable
  path alone still runs every suite.

Plus one scripted in-process test that diffs the literal stop streams
of a fastpath-on engine against a fastpath-off engine.
"""

import threading

import pytest

from repro.client import DebugClient
from repro.tracing import codebp
from repro.tracing.engine import FASTPATH_ENV, TraceEngine

# Re-collected under this module's variant fixtures (pytest resolves
# fixtures from the *requesting* module, so these classes run against
# the parametrized trace_variant/debug_pair/dionea below, not the
# conftest ones).
from tests.integration.test_code_breakpoints import (  # noqa: F401
    TestEvalAtStop,
    TestFallbacks,
    TestFork,
    TestHolders,
    TestLiveFrames,
    TestServedField,
    TestStaleFramesRelease,
    TestStopStreams,
)
from tests.integration.test_fork_following import (  # noqa: F401
    TestChildRendezvous,
    TestInheritedBreakpoints,
)
from tests.integration.test_recording_and_watch import (  # noqa: F401
    TestWatchpointsOverWire,
)
from tests.integration.test_server_client import (  # noqa: F401
    TestBreakpointFlow,
    TestStepping,
    TestSuspendResume,
)
from tests.unit.test_engine import BP_LINE, SRC, Scripted, loop_sum

pytestmark = pytest.mark.forks


def _decline(self, file, line):
    return "declined by the parity matrix"


@pytest.fixture(params=[("settrace", "1"), ("settrace", "0"),
                        ("settrace", "1", "nopatch")],
                ids=lambda v: f"{v[0]}-fastpath{'on' if v[1] == '1' else 'off'}"
                              + "".join(f"-{extra}" for extra in v[2:]))
def trace_variant(request, monkeypatch):
    fastpath = request.param[1]
    monkeypatch.setenv(FASTPATH_ENV, fastpath)
    if "nopatch" in request.param:
        monkeypatch.setattr(codebp.CodePatcher, "plan", _decline)
    return request.param


@pytest.fixture
def debug_pair(trace_variant, portfile_path):
    from repro.server import DebugServer

    server = DebugServer(program="test", park_timeout=15.0)
    server.start()
    assert threading.gettrace() == server.engine._global_dispatch  # noqa: SLF001
    assert server.engine.fastpath == (trace_variant[1] == "1")
    client = DebugClient()
    session = client.attach("127.0.0.1", server.port)
    yield server, client, session
    client.close()
    server.close()


@pytest.fixture
def dionea(trace_variant, portfile_path):
    from repro.core import Dionea

    debugger = Dionea(program="test", portfile_path=portfile_path,
                      park_timeout=15.0)
    debugger.start()
    assert (threading.gettrace()
            == debugger.server.engine._global_dispatch)  # noqa: SLF001
    yield debugger
    debugger.stop()


@pytest.fixture
def watching_client(dionea, waiter):
    client = DebugClient()
    client.watch_portfile(dionea.portfile)
    waiter(lambda: client.sessions(), message="attach to parent")
    yield client
    client.close()


def _stepping_workload():
    total = loop_sum(3)
    total += loop_sum(2)
    return total


def _stop_signature(capture):
    # Compare the workload's frames only: below _stepping_workload sit
    # the harness and pytest frames, whose line numbers differ by
    # call-site between the two _run_variant invocations.
    frames = []
    for f in capture.frames:
        frames.append((f.function, f.line))
        if f.function == "_stepping_workload":
            break
    return (capture.reason, capture.breakpoint_id, tuple(frames))


def _run_variant(fastpath):
    """One breakpoint-then-step session; returns (result, signatures, hits)."""
    engine = TraceEngine(park_timeout=5.0, fastpath=fastpath)
    script = Scripted(engine=engine,
                      actions=["step", "next", "continue"])
    bp = engine.breakpoints.add(SRC, BP_LINE)
    result = script.run(_stepping_workload)
    return result, [_stop_signature(s) for s in script.stops], bp.hit_count


class TestFastpathStopStreamParity:
    """The literal stop streams must match, not just pass/fail."""

    def test_identical_stop_streams_and_hit_counts(self):
        result_on, stops_on, hits_on = _run_variant(fastpath=True)
        result_off, stops_off, hits_off = _run_variant(fastpath=False)
        assert result_on == result_off == 4
        assert stops_on == stops_off
        assert hits_on == hits_off
        assert len(stops_on) >= 5  # 3 + 2 bp hits, plus step stops

    def test_fastpath_engine_actually_fastpathed(self):
        """Guard against the parity test silently comparing off vs off."""
        engine = TraceEngine(park_timeout=5.0,
                             fastpath=True)
        assert engine.fastpath
        # An untouched file's code objects are irrelevant once a
        # breakpoint exists elsewhere — the probe must say so.
        engine.breakpoints.add("/dionea/elsewhere.py", 1)
        assert not engine.linetable.probe(loop_sum.__code__)
        off = TraceEngine(park_timeout=5.0, fastpath=False)
        assert not off.fastpath


class TestCodeBreakpointRows:
    """Guard against the on row silently running without patches (or an
    off row silently patching)."""

    def test_rows_serve_breakpoints_as_named(self, trace_variant):
        engine = TraceEngine(park_timeout=5.0)
        engine.breakpoints.add(SRC, BP_LINE)
        engine.install()
        try:
            served = engine.served(engine.breakpoints.snapshot_state()[0])
        finally:
            engine.uninstall()
        patching = trace_variant == ("settrace", "1") and codebp.SUPPORTED
        expected = "code" if patching else "trace"
        assert served == expected, f"row {trace_variant} served {served}"

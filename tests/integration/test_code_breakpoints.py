"""Integration: code-object breakpoints (repro.tracing.codebp).

A patched breakpoint must stop exactly where, and as often as, the
settrace path stops: only its cost differs.  Every class here is also
re-collected by tests/integration/test_parity_matrix.py under the
settrace-fastpath{on,off} rows and a row whose patcher declines every
line, so each case runs patched, unpatched and untouched by the fast
path.  The engines read the row from ``DIONEA_TRACE_FASTPATH``.
"""

import importlib.util
import linecache
import os
import sys
import threading
import types

import pytest

from repro.client import Shell
from repro.tracing.control import ResumeCommand
from repro.tracing.engine import TraceEngine
from repro.tracing.frames import evaluate_in_frame
from tests.conftest import fork_child, wait_child
from tests.unit.test_engine import BP_LINE, SRC as ENGINE_SRC, Scripted, \
    loop_sum

pytestmark = pytest.mark.forks

SRC = os.path.abspath(__file__)
#: ``for i in range(n):`` in loop_sum (tests/unit/test_engine.py)
FOR_LINE = BP_LINE - 1


@pytest.fixture
def trace_variant():
    """The row, when re-collected by the parity matrix; here: as set."""
    return None


def two_stops(n):
    total = n                          # TWO_A
    total += 1
    total *= 2                         # TWO_B
    return total


TWO_A = two_stops.__code__.co_firstlineno + 1
TWO_B = TWO_A + 2


def gen_body():
    count = 0
    while count < 3:
        yield count
        count += 1                     # GEN_LINE


GEN_LINE = gen_body.__code__.co_firstlineno + 4


def make_adder(k):
    def add(x):
        y = x + k                      # CLOSURE_LINE
        return y
    return add


ADD_TWO = make_adder(2)                # made long before any set_break
CLOSURE_LINE = make_adder.__code__.co_firstlineno + 2


def logged(fn):
    def wrapper(*args):                # no functools.wraps: the original
        return fn(*args)               # is reachable only through a cell
    return wrapper


@logged
def decorated(x):
    y = x * 3                          # DECORATED_LINE
    return y


DECORATED_LINE = decorated.__closure__[0].cell_contents.__code__ \
    .co_firstlineno + 2


class Holder:
    @staticmethod
    def static(x):
        y = x - 1                      # STATIC_LINE
        return y


STATIC_LINE = Holder.static.__code__.co_firstlineno + 2


def stepped():
    a = 1                              # STEP_A
    b = a + 1                          # STEP_B
    return a + b


STEP_A = stepped.__code__.co_firstlineno + 1
STEP_B = STEP_A + 1


def engine():
    """An engine as the row configures it (DIONEA_TRACE_FASTPATH)."""
    return TraceEngine(park_timeout=5.0)


def served(engine_, bp):
    return engine_.served({"file": bp.file, "line": bp.line,
                           "function": bp.function})


def write_module(tmp_path, name, source):
    """Import *source* as module *name* from a file under *tmp_path*."""
    path = tmp_path / f"{name}.py"
    path.write_text(source)
    spec = importlib.util.spec_from_file_location(name, str(path))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return str(path), module


class TestHolders:
    def test_closure_decorated_and_staticmethod_all_stop(self,
                                                         trace_variant):
        script = Scripted(engine=engine())
        script.engine.install()
        try:
            for line in (CLOSURE_LINE, DECORATED_LINE, STATIC_LINE):
                script.engine.breakpoints.add(SRC, line)
            results = (ADD_TWO(1), decorated(2), Holder.static(3))
        finally:
            script.engine.uninstall()
        assert results == (3, 6, 2)
        assert [(s.top.line, s.top.function) for s in script.stops] == [
            (CLOSURE_LINE, "add"), (DECORATED_LINE, "decorated"),
            (STATIC_LINE, "static")]

    def test_function_held_outside_any_namespace_stops(self,
                                                       trace_variant):
        # Found by no namespace walk: only the gc pass can swap its code.
        hidden = [types.FunctionType(stepped.__code__, {}, "hidden")]
        script = Scripted(engine=engine())
        script.engine.install()
        try:
            script.engine.breakpoints.add(SRC, STEP_A)
            assert hidden[0]() == 3
        finally:
            script.engine.uninstall()
        assert [s.top.line for s in script.stops] == [STEP_A]
        assert hidden[0].__code__ is stepped.__code__

    def test_clear_break_restores_the_original_code_object(self,
                                                          trace_variant):
        original = two_stops.__code__
        script = Scripted(engine=engine())
        script.engine.install()
        try:
            bp = script.engine.breakpoints.add(SRC, TWO_A)
            assert two_stops(1) == 4
            script.engine.breakpoints.remove(bp.id)
            assert two_stops.__code__ is original
            assert two_stops(1) == 4
        finally:
            script.engine.uninstall()
        assert two_stops.__code__ is original
        assert [s.top.line for s in script.stops] == [TWO_A]

    def test_dionea_stop_restores_the_original_code_object(self, dionea):
        originals = (two_stops.__code__, make_adder.__code__,
                     ADD_TWO.__code__)
        dionea.set_breakpoint(SRC, TWO_A)
        dionea.set_breakpoint(SRC, CLOSURE_LINE)
        dionea.stop()
        assert all(a is b for a, b in zip(
            (two_stops.__code__, make_adder.__code__, ADD_TWO.__code__),
            originals))


class TestLiveFrames:
    def test_breakpoint_added_while_stopped_further_down_fires(
            self, trace_variant):
        eng = engine()
        stops = []

        def on_stop(ue, capture):
            stops.append(capture.top.line)

            def client():
                if len(stops) == 1:
                    eng.breakpoints.add(SRC, TWO_B)
                eng.controller.release(ue, ResumeCommand(action="continue"))

            threading.Thread(target=client).start()

        eng.on_stop = on_stop
        eng.breakpoints.add(SRC, TWO_A)
        eng.install()
        try:
            result = two_stops(5)
        finally:
            eng.uninstall()
        assert result == 12
        assert stops == [TWO_A, TWO_B]

    def test_breakpoint_in_suspended_generator_fires_at_each_resume(
            self, trace_variant):
        script = Scripted(engine=engine())
        script.engine.install()
        try:
            gen = gen_body()
            assert next(gen) == 0  # suspended at its yield
            script.engine.breakpoints.add(SRC, GEN_LINE)
            values = list(gen)
        finally:
            script.engine.uninstall()
        assert values == [1, 2]
        assert [s.top.line for s in script.stops] == [GEN_LINE] * 3


class TestStaleFramesRelease:
    """A frame or generator still running replaced code keeps the engine
    armed only while it lives."""

    def test_returning_frame_releases_the_engine(self, trace_variant):
        eng = engine()

        def on_stop(ue, capture):
            def client():
                if capture.top.line == TWO_A:
                    eng.breakpoints.add(SRC, TWO_B)
                eng.controller.release(ue, ResumeCommand(action="continue"))

            threading.Thread(target=client).start()

        eng.on_stop = on_stop
        eng.breakpoints.add(SRC, TWO_A)
        eng.install()
        try:
            assert two_stops(5) == 12
            assert not eng.codebp.stale_live
            assert eng._quiet == eng.codebp.serves_all  # noqa: SLF001
        finally:
            eng.uninstall()

    def test_finished_generator_releases_the_engine(self, trace_variant):
        script = Scripted(engine=engine())
        script.engine.install()
        try:
            gen = gen_body()
            next(gen)
            script.engine.breakpoints.add(SRC, GEN_LINE)
            assert list(gen) == [1, 2]
            assert not script.engine.codebp.stale_live
        finally:
            script.engine.uninstall()


def _reference_stream(actions, breakpoints, func, *args):
    """(result, [(reason, line)], [hit_count]) on a fastpath-off engine."""
    return _stream(TraceEngine(park_timeout=5.0, fastpath=False), actions,
                   breakpoints, func, *args)


def _stream(eng, actions, breakpoints, func, *args):
    script = Scripted(engine=eng, actions=actions)
    bps = [eng.breakpoints.add(file, line, **kwargs)
           for file, line, kwargs in breakpoints]
    eng.install()
    try:
        result = func(*args)
    finally:
        eng.uninstall()
    stops = [(s.reason, s.top.line, s.top.locals.get("i"))
             for s in script.stops]
    return result, stops, [bp.hit_count for bp in bps]


class TestStopStreams:
    def test_step_onto_patched_line_then_continue(self, trace_variant):
        breakpoints = [(SRC, STEP_A, {}), (SRC, STEP_B, {})]
        row = _stream(engine(), ["step", "continue"], breakpoints, stepped)
        assert row == _reference_stream(["step", "continue"], breakpoints,
                                        stepped)
        assert [stop[:2] for stop in row[1]] == [("breakpoint", STEP_A),
                                                 ("step", STEP_B)]

    @pytest.mark.parametrize("kwargs", [
        {"condition": "i % 2 == 1"},
        {"ignore_count": 2},
        {"temporary": True},
        {"condition": "undefined_name"},  # a broken condition stops
    ], ids=["condition", "ignore_count", "temporary", "broken_condition"])
    def test_counters_match_the_settrace_path(self, trace_variant, kwargs):
        breakpoints = [(ENGINE_SRC, BP_LINE, kwargs)]
        row = _stream(engine(), [], breakpoints, loop_sum, 5)
        assert row == _reference_stream([], breakpoints, loop_sum, 5)
        assert row[1], "the breakpoint never stopped"


def assigned_at_stop():
    x = 1
    y = x                              # ASSIGN_LINE
    return y


ASSIGN_LINE = assigned_at_stop.__code__.co_firstlineno + 2


def _assign_while_stopped(eng):
    """Run assigned_at_stop with an eval of ``x := 42`` at its stop."""
    def on_stop(ue, capture):
        evaluate_in_frame(eng.paused_frame(ue), "(x := 42)")
        threading.Thread(target=lambda: eng.controller.release(
            ue, ResumeCommand(action="continue"))).start()

    eng.on_stop = on_stop
    eng.breakpoints.add(SRC, ASSIGN_LINE)
    eng.install()
    try:
        return assigned_at_stop()
    finally:
        eng.uninstall()


class TestEvalAtStop:
    def test_eval_assignment_reaches_the_frame(self, trace_variant):
        reference = _assign_while_stopped(
            TraceEngine(park_timeout=5.0, fastpath=False))
        assert _assign_while_stopped(engine()) == reference == 42


class TestFallbacks:
    def _assert_stops_unquiet(self, eng, func, *args):
        stops = []
        saw_quiet = []

        def on_stop(ue, capture):
            stops.append(capture.top.line)
            saw_quiet.append(eng._quiet)  # noqa: SLF001
            threading.Thread(target=lambda: eng.controller.release(
                ue, ResumeCommand(action="continue"))).start()

        eng.on_stop = on_stop
        assert not eng._quiet  # noqa: SLF001
        result = func(*args)
        assert not any(saw_quiet)
        return result, stops

    def test_for_header_line(self, trace_variant):
        eng = engine()
        eng.install()
        try:
            bp = eng.breakpoints.add(ENGINE_SRC, FOR_LINE)
            assert served(eng, bp) == "trace"
            result, stops = self._assert_stops_unquiet(eng, loop_sum, 2)
        finally:
            eng.uninstall()
        assert result == 1
        assert stops == [FOR_LINE] * 3

    def test_source_rewritten_after_import(self, trace_variant, tmp_path):
        path, module = write_module(
            tmp_path, "codebp_rewritten",
            "def f(x):\n    y = x + 1\n    return y\n")
        with open(path, "w") as fh:
            fh.write("def f(x):\n    y = x + 22\n    return y\n")
        linecache.checkcache(path)
        eng = engine()
        eng.install()
        try:
            bp = eng.breakpoints.add(path, 2)
            assert served(eng, bp) == "trace"
            result, stops = self._assert_stops_unquiet(eng, module.f, 1)
        finally:
            eng.uninstall()
            sys.modules.pop("codebp_rewritten", None)
        assert result == 2  # the live (old) code ran
        assert stops == [2]

    def test_module_imported_after_set_break(self, trace_variant,
                                             tmp_path):
        path = tmp_path / "codebp_late.py"
        path.write_text("def f(x):\n    y = x + 1\n    return y\n")
        eng = engine()
        eng.install()
        try:
            bp = eng.breakpoints.add(str(path), 2)
            assert served(eng, bp) == "trace"
            _path, module = write_module(
                tmp_path, "codebp_late", path.read_text())
            result, stops = self._assert_stops_unquiet(eng, module.f, 1)
        finally:
            eng.uninstall()
            sys.modules.pop("codebp_late", None)
        assert result == 2
        assert stops == [2]

    def test_function_breakpoint(self, trace_variant):
        eng = engine()
        eng.install()
        try:
            bp = eng.breakpoints.add_function("stepped")
            assert served(eng, bp) == "trace"
            result, stops = self._assert_stops_unquiet(eng, stepped)
        finally:
            eng.uninstall()
        assert result == 3
        assert stops == [stepped.__code__.co_firstlineno]


class TestFork:
    def test_child_stays_demoted_and_stops_at_inherited_breakpoint(
            self, dionea):
        eng = dionea.server.engine
        bp_id = dionea.set_breakpoint(SRC, TWO_A)
        patched = eng.served(eng.breakpoints.snapshot_state()[0]) == "code"
        assert eng.breakpoints.get(bp_id).line == TWO_A

        def child():
            # Phase C has run: nothing but the patched breakpoint is live.
            if patched:
                assert sys.gettrace() is None, "child main thread armed"
            stops = []

            def on_stop(ue, capture):
                stops.append(capture.top.line)
                threading.Thread(target=lambda: eng.controller.release(
                    ue, ResumeCommand(action="continue"))).start()

            eng.on_stop = on_stop
            assert two_stops(1) == 4
            assert stops == [TWO_A]
            if patched:
                assert sys.gettrace() is None

        assert wait_child(fork_child(child)) == 0


class TestServedField:
    def test_breaks_rows_and_shell_say_how_each_is_served(
            self, trace_variant, debug_pair):
        server, client, session = debug_pair
        patched = session.request("set_break", {"file": SRC, "line": TWO_A})
        header = session.request("set_break",
                                 {"file": ENGINE_SRC, "line": FOR_LINE})
        entry = session.request("set_function_break",
                                {"function": "stepped"})
        served = {row["id"]: row["served"]
                  for row in session.request("breaks")}
        patching = (server.engine.codebp.enabled
                    and "nopatch" not in (trace_variant or ()))
        assert served == {patched["id"]: "code" if patching else "trace",
                          header["id"]: "trace", entry["id"]: "trace"}
        listing = Shell(client).execute("breaks").splitlines()
        assert "served=trace" in listing[1]
        assert f"served={served[patched['id']]}" in listing[0]

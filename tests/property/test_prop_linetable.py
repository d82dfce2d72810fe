"""Property tests: the LineTable equals the old per-line dispatch.

The tentpole replaced "canonicalise the filename and probe the store on
every line event" with a precomputed per-code-object line set.  These
properties pin the refactor to its oracle: for ANY generated module
compiled under ANY alias spelling of its path, and ANY breakpoint
schedule (itself set through alias spellings), the precomputed
:meth:`LineTable.relevant_lines` must equal the brute-force old check,
and :meth:`LineTable.probe` must equal its boolean (plus the function-
breakpoint escape hatch).  No real files are involved — canonical_file
is pure path arithmetic.

The code-breakpoint oracle at the end does use a real module
(codebp_fixture): over generated breakpoint sets, a line is patched iff
it is in ``co_lines()`` (of its function only, as one block) and starts
a simple statement in a function body, and a run stops at the same
``(line, hit_count)`` sequence as the fastpath-off engine.
"""

import ast
import inspect
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.tracing import codebp
from repro.tracing.breakpoints import BreakpointStore, canonical_file
from repro.tracing.control import ResumeCommand
from repro.tracing.engine import TraceEngine
from repro.tracing.linetable import LineTable
from tests.property import codebp_fixture

#: Two distinct module identities, each with several spellings that
#: canonicalise to the same path — plus the other module's spellings,
#: which must NOT match.
ALIASES = {
    "mod": [
        "/dionea-prop/pkg/mod.py",
        "/dionea-prop/pkg/./mod.py",
        "/dionea-prop/pkg/../pkg/mod.py",
        "/dionea-prop/other/../pkg/mod.py",
    ],
    "aux": [
        "/dionea-prop/pkg/aux.py",
        "/dionea-prop/pkg/sub/../aux.py",
    ],
}


def make_source(shape):
    """A module of top-level functions (with one nested inner each when
    marked), deterministic from *shape*: [(n_lines, nested), ...]."""
    parts = []
    for index, (n_lines, nested) in enumerate(shape):
        parts.append(f"def f{index}():")
        parts.append("    acc = 0")
        for i in range(n_lines):
            parts.append(f"    acc += {i}")
        if nested:
            parts.append("    def inner():")
            parts.append("        return acc + 1")
            parts.append("    acc += inner()")
        parts.append("    return acc")
    return "\n".join(parts) + "\n"


def all_code_objects(code):
    """*code* plus every code object reachable through co_consts."""
    found = [code]
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            found.extend(all_code_objects(const))
    return found


def oracle_lines(code, store):
    """The old dispatch, spelled out: per executable line, canonicalise
    the frame's filename and ask the store."""
    return frozenset(
        line for (_start, _end, line) in code.co_lines()
        if line is not None
        and store.match_line(canonical_file(code.co_filename), line))


shapes = st.lists(
    st.tuples(st.integers(min_value=1, max_value=5), st.booleans()),
    min_size=1, max_size=3)

#: (module key, alias index) pairs — resolved against ALIASES at use.
spellings = st.tuples(st.sampled_from(sorted(ALIASES)),
                      st.integers(min_value=0, max_value=3))

bp_schedule = st.lists(
    st.tuples(spellings, st.integers(min_value=1, max_value=25)),
    max_size=12)


def _spell(key, index):
    options = ALIASES[key]
    return options[index % len(options)]


class TestOracleEquality:
    @given(shape=shapes, compile_as=spellings, schedule=bp_schedule)
    def test_relevant_lines_equal_brute_force(self, shape, compile_as,
                                              schedule):
        source = make_source(shape)
        filename = _spell(*compile_as)
        module = compile(source, filename, "exec")
        store = BreakpointStore()
        for (key, index), line in schedule:
            store.add(_spell(key, index), line)
        table = LineTable(store)
        for code in all_code_objects(module):
            assert table.relevant_lines(code) == oracle_lines(code, store)

    @given(shape=shapes, compile_as=spellings, schedule=bp_schedule,
           function_bp=st.booleans())
    def test_probe_equals_boolean_oracle(self, shape, compile_as,
                                         schedule, function_bp):
        source = make_source(shape)
        filename = _spell(*compile_as)
        module = compile(source, filename, "exec")
        store = BreakpointStore()
        for (key, index), line in schedule:
            store.add(_spell(key, index), line)
        if function_bp:
            store.add_function("f0")
        table = LineTable(store)
        for code in all_code_objects(module):
            expected = (bool(oracle_lines(code, store))
                        or store.has_function_break(code.co_name))
            assert table.probe(code) is expected
            # The published verdict must be stable on re-probe.
            assert table.probe(code) is expected

    @given(shape=shapes, schedule=bp_schedule, data=st.data())
    def test_churn_never_leaves_stale_verdicts(self, shape, schedule, data):
        """Add/remove churn with the store wired to invalidate (as the
        engine wires it): after every mutation the cached verdicts must
        match a freshly built table."""
        source = make_source(shape)
        module = compile(source, ALIASES["mod"][0], "exec")
        codes = all_code_objects(module)
        store = BreakpointStore()
        table = LineTable(store)
        store.on_change = table.invalidate
        live = []
        for (key, index), line in schedule:
            generation = table.generation
            if live and data.draw(st.booleans()):
                store.remove(live.pop(data.draw(st.integers(
                    min_value=0, max_value=len(live) - 1))))
            else:
                live.append(store.add(_spell(key, index), line).id)
            assert table.generation > generation
            fresh = LineTable(store)
            for code in codes:
                assert table.probe(code) is fresh.probe(code)


# -- code-object breakpoints (tracing.codebp) -----------------------------

FIXTURE_LINES = len(inspect.getsource(codebp_fixture).splitlines())
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _code_lines(code):
    return {lineno for _s, _e, lineno in code.co_lines()}


def _one_run(code, line):
    """Do *line*'s instructions form one block (the line is never left
    and re-entered, as a call continued on the next line is)?"""
    order = [lineno for _s, _e, lineno in code.co_lines()]
    hits = [i for i, lineno in enumerate(order) if lineno == line]
    return all(order[i] == line for i in range(hits[0], hits[-1] + 1))


def _patchable_oracle():
    """Lines that start a simple statement in a function body and are
    in the ``co_lines()`` of that function only, as one block: the first
    statement touching the line (a header claims its own lines, a simple
    statement all of them) starts on it, is simple, its innermost scope
    is a def, no comprehension or lambda runs the line too, and the
    line's instructions are not split by another line's."""
    tree = ast.parse(inspect.getsource(codebp_fixture))
    codes = [code
             for function in (codebp_fixture.loops, codebp_fixture.calls,
                              codebp_fixture.nested, codebp_fixture.guarded,
                              codebp_fixture.Box.area, codebp_fixture.run)
             for code in all_code_objects(function.__code__)]
    owner = {}  # line -> (first statement claiming it, its scope)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                if hasattr(child, "body"):
                    first = min([child.lineno] + [
                        d.lineno for d in getattr(child, "decorator_list",
                                                  [])])
                    claimed = range(first, max(child.lineno + 1,
                                               child.body[0].lineno))
                else:
                    claimed = range(child.lineno, child.end_lineno + 1)
                for line in claimed:
                    owner.setdefault(line, (child, scope))
            visit(child, child if isinstance(child, _SCOPES) else scope)

    visit(tree, tree)
    lines = set()
    for line, (stmt, scope) in owner.items():
        holders = [code for code in codes if line in _code_lines(code)]
        if (stmt.lineno == line and not hasattr(stmt, "body")
                and isinstance(scope, (ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                and [code.co_firstlineno for code in holders]
                == [scope.lineno]
                and _one_run(holders[0], line)):
            lines.add(line)
    return lines


def _run_fixture(fastpath, lines):
    """([(line, hit_count)] of every stop, served verdicts) for one run
    of the fixture with a breakpoint on each of *lines*."""
    engine = TraceEngine(park_timeout=5.0, fastpath=fastpath)
    stops = []

    def on_stop(ue, capture):
        bp = engine.breakpoints.get(capture.breakpoint_id)
        stops.append((capture.top.line, bp.hit_count))
        threading.Thread(target=lambda: engine.controller.release(
            ue, ResumeCommand(action="continue"))).start()

    engine.on_stop = on_stop
    for line in lines:
        engine.breakpoints.add(codebp_fixture.__file__, line)
    engine.install()
    try:
        result = codebp_fixture.run()
        served = {row["line"] for row in engine.breakpoints.snapshot_state()
                  if engine.served(row) == "code"}
    finally:
        engine.uninstall()
    return result, stops, served


class TestCodeBreakpointOracle:
    @pytest.mark.skipif(not codebp.SUPPORTED,
                        reason="code-object breakpoints need CPython 3.11")
    def test_every_line_patched_iff_simple_statement_in_a_def(self):
        oracle = _patchable_oracle()
        _result, _stops, served = _run_fixture(
            True, range(1, FIXTURE_LINES + 1))
        assert served == oracle
        assert oracle, "the fixture has no patchable line"

    @settings(max_examples=25)
    @given(lines=st.sets(st.integers(min_value=1, max_value=FIXTURE_LINES),
                         max_size=6))
    def test_stops_match_the_fastpath_off_engine(self, lines):
        on = _run_fixture(True, lines)
        off = _run_fixture(False, lines)
        assert on[:2] == off[:2]
        assert off[2] == set()
        if codebp.SUPPORTED:
            assert on[2] == lines & _patchable_oracle()

"""Unit tests: the code-object breakpoint patcher's decisions
(repro.tracing.codebp), below the engine.

Which lines a patch may serve, the bytecode check that every line event
of a patched line begins at the inserted call, and the reference-count
proof that lets a set_break skip the gc pass.
"""

import ast
import types

import pytest

from repro.tracing import codebp
from repro.tracing.engine import TraceEngine

pytestmark = pytest.mark.skipif(
    not codebp.SUPPORTED, reason="code-object breakpoints need CPython 3.11")

SHAPES = '''\
def f(xs):
    total = 0
    for x in xs:
        total += x
    if total: total -= 1
    value = max(total,
                1)
    return value


class C:
    size = 2

    @staticmethod
    def g():
        return C.size
'''


def located(line):
    return codebp._locate(ast.parse(SHAPES).body, line, [])


class TestLocate:
    @pytest.mark.parametrize("line", [2, 4, 6, 8, 16])
    def test_simple_statement_in_a_def(self, line):
        chain, body, index = located(line)
        assert body[index].lineno == line
        assert isinstance(chain[-1], ast.FunctionDef)

    @pytest.mark.parametrize("line,what", [
        (1, "def line"), (3, "for header"), (5, "one-line if"),
        (7, "continuation"), (9, "blank"), (11, "class line"),
        (12, "class body"), (14, "decorator"), (15, "decorated def line"),
    ])
    def test_everything_else_is_declined(self, line, what):
        assert located(line) is None, what

    def test_qualnames_follow_the_chain(self):
        chain, _body, _index = located(16)
        assert codebp._qualnames(chain) == ["C", "C.g"]


def _patched(source, line, hook):
    """The code of ``f`` in *source* with a hook inserted at *line*."""
    tree = ast.parse(source)
    chain, body, index = codebp._locate(tree.body, line, [])
    body.insert(index, codebp._hook_stmt(body[index], line))
    module = compile(tree, "<codebp-test>", "exec", dont_inherit=True)
    code = next(c for c in codebp._code_tree(module) if c.co_name == "f")
    return code.replace(co_consts=tuple(
        hook if const == codebp.PLACEHOLDER else const
        for const in code.co_consts))


class TestServedByHook:
    @pytest.fixture
    def hook(self):
        return codebp.Hook(TraceEngine(fastpath=True))

    def test_plain_statement_passes(self, hook):
        source = "def f(x):\n    y = x + 1\n    return y\n"
        assert codebp._served_by_hook(_patched(source, 2, hook), 2, hook)

    def test_loop_body_start_passes(self, hook):
        source = ("def f(n):\n    while n:\n        n -= 1\n"
                  "    return n\n")
        assert codebp._served_by_hook(_patched(source, 3, hook), 3, hook)

    def test_call_continued_on_the_next_line_fails(self, hook):
        # The call returns to line 2 after evaluating line 3: a second
        # line event the inserted call would not see.
        source = "def f(x):\n    y = max(x,\n            1)\n    return y\n"
        assert not codebp._served_by_hook(_patched(source, 2, hook), 2,
                                          hook)

    def test_finally_body_stays_on_settrace(self, hook):
        # 3.11 compiles a finally body twice; the exception-path copy's
        # line begins at PUSH_EXC_INFO, before the inserted call, so the
        # check declines the line and settrace keeps serving it.
        source = ("def f(x):\n    try:\n        x += 1\n"
                  "    finally:\n        x = 0\n    return x\n")
        assert not codebp._served_by_hook(_patched(source, 5, hook), 5,
                                          hook)


def _leaf(x):
    y = x + 1
    return y


LEAF_LINE = _leaf.__code__.co_firstlineno + 1


class GcPasses:
    """Stands in for gc.get_referrers and counts its calls.  A class at
    module level, so the namespace walk finds its method: a closure
    made here would itself be a holder the walk cannot see."""

    def __init__(self, real):
        self.real = real
        self.count = 0

    def __call__(self, *targets):
        self.count += 1
        return self.real(*targets)


class TestReferenceProof:
    """A set_break skips the gc pass only when reference counts prove
    the namespace walk found every holder."""

    def _passes_to_patch(self, monkeypatch):
        passes = GcPasses(codebp.gc.get_referrers)
        monkeypatch.setattr(codebp.gc, "get_referrers", passes)
        engine = TraceEngine(fastpath=True)
        engine.install()
        try:
            bp = engine.breakpoints.add(__file__, LEAF_LINE)
            assert engine.codebp.served(bp.file, bp.line) == "code"
            return passes.count
        finally:
            engine.uninstall()

    def test_walk_alone_suffices_for_a_plain_function(self, monkeypatch):
        # Keep no reference to the code object: it would be a holder.
        original = id(_leaf.__code__)
        assert self._passes_to_patch(monkeypatch) == 0
        assert id(_leaf.__code__) == original

    def test_a_holder_outside_the_namespace_forces_the_pass(self,
                                                            monkeypatch):
        hidden = types.FunctionType(_leaf.__code__, {}, "hidden")
        assert self._passes_to_patch(monkeypatch) == 1
        assert hidden.__code__ is _leaf.__code__  # restored with the rest

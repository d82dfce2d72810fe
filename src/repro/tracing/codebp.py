"""Code-object breakpoints: an armed breakpoint costs only its own line.

Paper §4 serves breakpoints through ``sys.settrace``.  On CPython 3.11
an installed trace function turns the specialising interpreter (PEP 659)
off for its thread, so one armed breakpoint slows every line the main
thread runs.  libdebug's software breakpoints patch the code instead of
trapping every step; this module does the same with code objects.

A line breakpoint is *patched*: the function that holds the line is
recompiled from its source with one call inserted before the statement.
The call carries the statement's line number, so ``f_lineno``,
tracebacks and the stack read as before.  ``__code__`` is then swapped
on every live function object that holds an old code object, found in
one ``gc.get_referrers`` pass: closures, the original function under a
decorator, and the enclosing functions, so that closures made later get
the call too.  (For a function with no nested code, reference counts
can prove that a walk of its module's namespace found every holder;
then no pass is needed.)  Only an execution of that line calls into the
debugger (:meth:`~repro.tracing.engine.TraceEngine._code_hit`), and the
engine counts a patched breakpoint as quiet: while every armed
breakpoint is patched its main thread stays demoted and keeps the
specialising interpreter.

A breakpoint stays on the settrace + LineTable path (where it stops does
not change, only what it costs) when :meth:`CodePatcher.plan` or the
bytecode check declines it:

* it is a function breakpoint;
* no live function holds its line: the module is not imported, the code
  came from ``exec``, or a reload left another generation alive;
* the source is missing or stale: recompiling it does not reproduce the
  live code object;
* the line does not start a simple statement in a function body
  (``for``/``while``/``with``/``if``/``try``/``match`` headers,
  ``def``/``class``/decorator lines, continuation lines, module and class
  bodies), is not in the code's ``co_lines()``, also runs in a nested
  code object (a comprehension or lambda on the line), or some line
  event it raises would not begin at the inserted call;
* the file is debugger code (``_SELF_PACKAGES``);
* another live engine has already patched that function;
* the per-code fast path is off, or the interpreter is not CPython 3.11
  (the bytecode check reads 3.11's line-event rules).

Frames already running a replaced code object keep it.  The thread-stack
ones get the engine's local trace injected, suspended generators and
coroutines are tracked weakly, and while any of them is alive the engine
stays armed, so the settrace path serves them.

The hook that patched code calls reaches its engine through a weak
reference: code objects outlive engines, and a strong reference would
keep every engine (and its factory locks) alive.  Children of fork(2)
inherit the patched code and this table (§5.3 duty (2)); phase C does
no patch work.
"""

from __future__ import annotations

import ast
import dis
import gc
import linecache
import os
import sys
import types
import weakref
from sys import _getframe
from typing import Dict, Iterator, List, Optional, Tuple

from ..util import locks
from .frames import current_frames

#: The interpreter whose line-event rules the bytecode check encodes.
SUPPORTED = (sys.implementation.name == "cpython"
             and sys.version_info[:2] == (3, 11))

#: Compiled into the inserted call as a constant and then swapped for
#: the engine's :class:`Hook`, so the call reads no name: the debuggee's
#: globals are never touched.
PLACEHOLDER = "\x00dionea-codebp"

#: ``breaks`` rows' ``served`` values.
CODE = "code"
TRACE = "trace"

#: canonical file, co_qualname, co_firstlineno
Key = Tuple[str, str, int]

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SIMPLE = (ast.Expr, ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Return,
           ast.Delete, ast.Pass, ast.Raise, ast.Assert, ast.Import,
           ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Break,
           ast.Continue)
_GENERATORS = (types.GeneratorType, types.CoroutineType,
               types.AsyncGeneratorType)
#: CO_GENERATOR | CO_COROUTINE | CO_ASYNC_GENERATOR
_GEN_FLAGS = 0x20 | 0x80 | 0x200
_RETURN_VALUE = dis.opmap.get("RETURN_VALUE")
_JUMPS = frozenset(dis.hasjrel) | frozenset(dis.hasjabs)


class Hook:
    """The constant patched code calls: ``<hook>.hit(line)``."""

    __slots__ = ("_engine", "__weakref__")

    def __init__(self, engine) -> None:
        self._engine = weakref.ref(engine)

    def hit(self, line):
        """Runs on every execution of a patched line.

        Hot-path discipline (tools/lint_hotpath.py): no ``obs_metrics``
        lookups; a conditional breakpoint in a hot loop runs this on
        every iteration.
        """
        engine = self._engine()
        if engine is not None:
            engine._code_hit(_getframe(1), line)


def write_back(frame, frame_locals: dict, before: dict) -> None:
    """Store locals assigned while a patched stop was parked (an
    ``eval`` of ``x := 42``) into *frame*, as the interpreter does after
    every trace call (``PyFrame_LocalsToFast``).  *frame_locals* is the
    frame's locals dict and *before* its copy from before the park;
    ctypes is loaded only when they differ."""
    if len(frame_locals) == len(before) and all(
            frame_locals.get(name, before) is value
            for name, value in before.items()):
        return
    import ctypes
    locals_to_fast = ctypes.pythonapi.PyFrame_LocalsToFast
    locals_to_fast.argtypes = (ctypes.py_object, ctypes.c_int)
    locals_to_fast.restype = None
    locals_to_fast(frame, 1)


def _code_tree(code) -> Iterator[types.CodeType]:
    """*code* and every code object nested in its constants."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_tree(const)


def _has_hook(code) -> bool:
    return any(isinstance(const, Hook)
               for nested in _code_tree(code) for const in nested.co_consts)


def _gen_code(gen):
    return getattr(gen, "gi_code", None) or getattr(gen, "cr_code", None) \
        or gen.ag_code


def _gen_frame(gen):
    return getattr(gen, "gi_frame", None) or getattr(gen, "cr_frame", None) \
        or getattr(gen, "ag_frame", None)


def _firstlineno(node) -> int:
    """``co_firstlineno`` of a def: its first decorator's line, if any."""
    if node.decorator_list:
        return node.decorator_list[0].lineno
    return node.lineno


def _locate(body, line: int, chain: list):
    """(enclosing def/class chain, statement list, index) of the first
    simple statement that starts on *line* inside a function body, or
    None when the line is anything else."""
    for index, stmt in enumerate(body):
        if stmt.lineno > line:
            return None
        if stmt.end_lineno < line:
            continue
        if isinstance(stmt, _SIMPLE):
            if (stmt.lineno == line and chain
                    and isinstance(chain[-1], _FUNCS)):
                return chain, body, index
            return None  # continuation line, or a module or class body
        if stmt.lineno == line:
            return None  # a compound, def or class header
        if isinstance(stmt, _FUNCS + (ast.ClassDef,)):
            if line < stmt.body[0].lineno:
                return None  # the signature
            return _locate(stmt.body, line, chain + [stmt])
        bodies = [stmt.body if hasattr(stmt, "body") else [],
                  getattr(stmt, "orelse", []),
                  getattr(stmt, "finalbody", [])]
        bodies += [handler.body for handler in getattr(stmt, "handlers", [])]
        bodies += [case.body for case in getattr(stmt, "cases", [])]
        for sub in bodies:
            if sub and sub[0].lineno <= line <= sub[-1].end_lineno:
                return _locate(sub, line, chain)
        return None
    return None


def _qualnames(chain) -> List[str]:
    """``co_qualname`` of each def/class in *chain*."""
    names, prefix = [], ""
    for node in chain:
        prefix = f"{prefix}{node.name}"
        names.append(prefix)
        prefix += ".<locals>." if isinstance(node, _FUNCS) else "."
    return names


def _hook_stmt(stmt, line: int) -> ast.Expr:
    call = ast.Expr(value=ast.Call(
        func=ast.Attribute(value=ast.Constant(value=PLACEHOLDER),
                           attr="hit", ctx=ast.Load()),
        args=[ast.Constant(value=line)], keywords=[]))
    for node in ast.walk(call):
        node.lineno = node.end_lineno = stmt.lineno
        node.col_offset = node.end_col_offset = stmt.col_offset
    return call


def _served_by_hook(code, line: int, hook: Hook) -> bool:
    """Does every line event *line* raises in *code* begin at the hook?

    Under 3.11's rules a line event fires when an instruction's line
    differs from the previous instruction's, or after a backward jump.
    So each maximal run of *line*'s instructions must start with the
    inserted call, and nothing may land inside a run except a forward
    jump from the same run.  A call continued on the next line (it
    returns to the line), a one-line compound statement or a
    ``finally`` body (its exception-path copy starts at PUSH_EXC_INFO)
    fails.
    """
    instructions = list(dis.get_instructions(code))
    runs, previous = [], None
    for ins in instructions:
        lineno = ins.positions.lineno
        if lineno == line:
            if previous != line:
                runs.append([ins.offset, ins.offset, ins])
            runs[-1][1] = ins.offset
        previous = lineno
    if not runs:
        return False
    for _start, _end, first in runs:
        if first.opname != "LOAD_CONST" or first.argval is not hook:
            return False
    for ins in instructions:
        if ins.opcode not in _JUMPS:
            continue
        for start, end, _first in runs:
            if (start < ins.argval <= end
                    and not start <= ins.offset < ins.argval):
                return False
    return not any(start < entry.target <= end
                   for entry in dis.Bytecode(code).exception_entries
                   for start, end, _first in runs)


def _unwrap(obj, depth: int = 0) -> Iterator[types.FunctionType]:
    """Functions reachable from a namespace value through decorators:
    ``__wrapped__``, ``__func__``, property accessors, closure cells."""
    if depth > 3 or obj is None:
        return
    if isinstance(obj, types.FunctionType):
        yield obj
        nested = [obj.__dict__.get("__wrapped__")]
        nested += [cell.cell_contents for cell in obj.__closure__ or ()
                   if isinstance(_cell_value(cell), types.FunctionType)]
    elif isinstance(obj, (staticmethod, classmethod, types.MethodType)):
        nested = [obj.__func__]
    elif isinstance(obj, property):
        nested = [obj.fget, obj.fset, obj.fdel]
    else:
        try:
            nested = [object.__getattribute__(obj, "__dict__")
                      .get("__wrapped__")]
        except Exception:  # noqa: BLE001 - any debuggee object; a miss
            return         # only costs the gc pass (see _accounted)
    for inner in nested:
        yield from _unwrap(inner, depth + 1)


def _functions(value, depth: int = 0) -> Iterator[types.FunctionType]:
    """Every function a namespace value holds: itself, what
    :func:`_unwrap` reaches, and (recursively) a class's members."""
    if isinstance(value, type):
        if depth < 4:
            for member in list(vars(value).values()):
                yield from _functions(member, depth + 1)
    else:
        yield from _unwrap(value)


def _count(objects, attribute: Optional[str], target) -> int:
    """How many of *objects* are (or, by *attribute*, hold) *target*."""
    count = 0
    for obj in objects:
        if (obj if attribute is None else getattr(obj, attribute)) \
                is target:
            count += 1
    obj = None
    return count


def _cell_value(cell):
    try:
        return cell.cell_contents
    except ValueError:  # empty cell
        return None


def _parse(file: str, text: str) -> Optional["_Source"]:
    """*file*'s parsed source, from the process-wide cache while the
    text is unchanged."""
    source = _SOURCES.get(file)
    if source is None or source.text != text:
        try:
            source = _Source(text, ast.parse(text))
        except (SyntaxError, ValueError):
            return None
        _SOURCES[file] = source
    return source


class _Source:
    """One file's parsed source, shared by every engine of the process
    (a debugged job that starts a fresh Dionea parses nothing again)."""

    __slots__ = ("text", "tree", "futures", "verified", "checked")

    def __init__(self, text: str, tree: ast.Module) -> None:
        self.text = text
        self.tree = tree
        self.futures = [stmt for stmt in tree.body
                        if isinstance(stmt, ast.ImportFrom)
                        and stmt.module == "__future__"]
        #: live top-level code objects a fresh compile reproduces
        self.verified: "weakref.WeakSet" = weakref.WeakSet()
        #: (key, line) -> does every line event begin at the call
        self.checked: Dict[Tuple[Key, int], bool] = {}


#: canonical file -> its parsed source.  Process-wide on purpose: it
#: holds only pure results (a parse, and verdicts that depend on the
#: source text alone), so engines cannot see each other through it.
_SOURCES: Dict[str, _Source] = {}
#: serialises the hook statements' brief insertion into shared trees
_SOURCE_LOCK = locks.Lock()


class _Unit:
    """One top-level function and everything nested in it: the unit of
    recompilation for the patched lines it holds."""

    __slots__ = ("top", "file", "filename", "source", "classes",
                 "node", "originals", "versions", "lines", "current")

    def __init__(self, top, filename, source, classes, node):
        #: (file, qualname, firstlineno) of the top-level function
        self.top: Key = top
        self.file = top[0]
        #: the live code's co_filename: the patched code keeps it
        self.filename = filename
        self.source: _Source = source
        #: enclosing ClassDefs, outermost first
        self.classes = classes
        self.node = node
        #: the unpatched code of every function in the unit, by key
        self.originals: Dict[Key, types.CodeType] = {}
        #: every code object of the unit this engine ever installed or
        #: replaced, by id: a function holding one is ours to swap
        self.versions: Dict[int, types.CodeType] = {}
        #: patched line -> (key of the code holding it, statement list,
        #: index of the statement the call goes before)
        self.lines: Dict[int, Tuple[Key, list, int]] = {}
        #: the installed version of every code replaced so far, by key
        self.current: Dict[Key, types.CodeType] = {}

    def wanted(self, key: Key):
        return self.current.get(key, self.originals[key])


class CodePatcher:
    """One engine's patch table.  Every method takes the patcher lock;
    none of them parks or waits on another thread."""

    def __init__(self, engine, enabled: bool) -> None:
        self._engine = engine
        self.enabled = enabled and SUPPORTED
        self.hook = Hook(engine)
        self._lock = locks.RLock()
        #: (canonical file, line) -> CODE or the reason it stays on TRACE
        self._verdicts: Dict[Tuple[str, int], str] = {}
        #: (file, qualname, firstlineno) of a top-level function -> unit
        self._units: Dict[Key, _Unit] = {}
        #: key -> installed version, over every unit (the stale test)
        self._current: Dict[Key, types.CodeType] = {}
        #: suspended generators and coroutines running a replaced code
        self._stale_gens: List[weakref.ref] = []
        #: canonical file -> its live modules, for the current pass only
        self._module_memo: Dict[str, list] = {}
        #: True while any patch is installed (read lock-free)
        self.active = False
        #: True while a frame or generator runs a replaced code object
        self.stale_live = False
        #: True while every breakpoint of the store is patched and no
        #: stale frame is alive: the engine may count them as quiet
        self.serves_all = True

    # -- queries -----------------------------------------------------------

    def served(self, file: str, line: int) -> str:
        return CODE if self._verdicts.get((file, line)) == CODE else TRACE

    def key(self, code) -> Key:
        return (self._engine._canonical_file(code.co_filename),
                code.co_qualname, code.co_firstlineno)

    def is_stale(self, code) -> bool:
        """Does *code* lack a hook the unit it belongs to now needs?"""
        current = self._current.get(self.key(code))
        return current is not None and current is not code

    # -- synchronisation ---------------------------------------------------

    def sync(self) -> None:
        """Reconcile the patches with the breakpoint store: patch lines
        that appeared, restore the code of lines that went away."""
        store = self._engine.breakpoints
        with self._lock:
            self._module_memo = {}
            if not self.enabled or not self._engine.installed:
                self._recount(store)
                return
            wanted = store.locations()
            touched: Dict[int, _Unit] = {}
            for location in [loc for loc in self._verdicts
                             if loc not in wanted]:
                if self._verdicts.pop(location) == CODE:
                    unit = self._unit_of(location)
                    del unit.lines[location[1]]
                    touched[id(unit)] = unit
            added = []
            for location in sorted(wanted - self._verdicts.keys()):
                planned = self.plan(*location)
                if isinstance(planned, str):
                    self._verdicts[location] = planned
                    continue
                unit, key, body, index = planned
                unit.lines[location[1]] = (key, body, index)
                touched[id(unit)] = unit
                added.append(location)
            if touched:
                self._rebuild(list(touched.values()), added)
            for top in [top for top, unit in self._units.items()
                        if not unit.lines and not unit.current]:
                del self._units[top]
            self._recount(store)

    def restore_all(self) -> None:
        """Put every original code object back (uninstall)."""
        with self._lock:
            self._module_memo = {}
            units = list(self._units.values())
            for unit in units:
                unit.lines.clear()
            if units:
                self._rebuild(units, [])
            self._verdicts.clear()
            self._recount(self._engine.breakpoints)

    def recheck(self, exclude=None, sweep: bool = False) -> None:
        """Recompute whether a stale frame or generator is alive.

        With *sweep*, first swap any function made since the last pass
        from a replaced code object (a stale frame's closures) and pick
        up its generators: one ``gc.get_referrers`` pass.
        """
        with self._lock:
            self._module_memo = {}
            if sweep and self._units:
                self._swap(list(self._units.values()), abort=False)
            self._refresh_stale(exclude)
            self._recount(self._engine.breakpoints)

    def frame_returned(self, frame) -> None:
        """A traced frame running a replaced code object returns.

        A generator's return event also fires at each ``yield``; only
        its final ``RETURN_VALUE`` ends it.  (A generator that ends by
        raising is noticed at the next breakpoint change or continue.)
        """
        code = frame.f_code
        if (code.co_flags & _GEN_FLAGS
                and code.co_code[frame.f_lasti] != _RETURN_VALUE):
            return
        self.recheck(exclude=frame, sweep=True)

    # -- planning ----------------------------------------------------------

    def plan(self, file: str, line: int):
        """``(unit, key, statement list, index)`` when *line* of the
        canonical *file* can be patched, else the reason it cannot."""
        engine = self._engine
        if engine._should_skip(file):
            return "debugger code"
        modules = self._modules(file)
        if not modules:
            return "no live module holds the file"
        text = "".join(linecache.getlines(modules[0].__file__,
                                          vars(modules[0])))
        if not text:
            return "no source"
        source = _parse(file, text)
        if source is None:
            return "source does not parse"
        found = _locate(source.tree.body, line, [])
        if found is None:
            return "not a simple statement in a function body"
        chain, body, index = found
        depth = next(i for i, node in enumerate(chain)
                     if isinstance(node, _FUNCS))
        names = _qualnames(chain)
        top = (file, names[depth], _firstlineno(chain[depth]))
        key = (file, names[-1], _firstlineno(chain[-1]))
        unit = self._units.get(top)
        if unit is None:
            unit = self._new_unit(source, chain[:depth], chain[depth], top,
                                  modules)
            if isinstance(unit, str):
                return unit
            # _rebuild drops it again if no line of it gets patched.
            self._units[top] = unit
        elif unit.source is not source:
            return "source changed since the function was patched"
        holders = [k for k, code in unit.originals.items()
                   if any(lineno == line for _s, _e, lineno
                          in code.co_lines())]
        if key not in holders:
            return "line not in co_lines()"
        if len(holders) > 1:
            # A comprehension or lambda on the line raises line events
            # of its own, once per iteration or call.
            return "the line also runs in a nested code object"
        return unit, key, body, index

    def _new_unit(self, source, classes, node, top, modules):
        live = None
        for module in modules:
            value = vars(module).get(classes[0].name if classes
                                     else node.name)
            for cls in classes[1:]:
                value = vars(value).get(cls.name) \
                    if isinstance(value, type) else None
            if classes:
                value = vars(value).get(node.name) \
                    if isinstance(value, type) else None
            for function in _unwrap(value):
                if self.key(function.__code__) == top:
                    live = function.__code__
                    break
            if live is not None:
                break
        if live is None:
            return "no live function holds the line"
        if _has_hook(live):
            return "another engine has patched the function"
        unit = _Unit(top, live.co_filename, source, classes, node)
        if live not in source.verified:
            fresh = self._compile(unit, [])
            if fresh is None or fresh != live:
                return ("stale source: recompiling does not give the live "
                        "code")
            source.verified.add(live)
        unit.originals = {self.key(code): code for code in _code_tree(live)}
        unit.versions = {id(code): code for code in unit.originals.values()}
        return unit

    def _modules(self, file: str) -> list:
        """The live modules loaded from *file* (memoised per pass)."""
        found = self._module_memo.get(file)
        if found is None:
            canonical = self._engine._canonical_file
            name = os.path.basename(file)
            found = self._module_memo[file] = []
            for module in list(sys.modules.values()):
                path = getattr(module, "__dict__", {}).get("__file__")
                if (type(path) is str and path.endswith(name)
                        and canonical(path) == file):
                    found.append(module)
        return found

    def _unit_of(self, location) -> _Unit:
        for unit in self._units.values():
            if unit.file == location[0] and location[1] in unit.lines:
                return unit
        raise KeyError(location)

    # -- compiling ---------------------------------------------------------

    def _compile(self, unit: _Unit, lines) -> Optional[types.CodeType]:
        """The unit's top-level code, recompiled with a hook call before
        the statement of each of *lines* (placeholder not yet bound)."""
        wrapped = unit.node
        for cls in reversed(unit.classes):
            # The method's code depends on its class only through the
            # name (mangling, qualname) and the __class__ cell.
            wrapped = ast.copy_location(ast.ClassDef(
                name=cls.name, bases=[], keywords=[], body=[wrapped],
                decorator_list=[]), cls)
        module = ast.Module(body=unit.source.futures + [wrapped],
                            type_ignores=[])
        placed = []
        with _SOURCE_LOCK:
            try:
                for line in sorted(lines, key=lambda ln: -unit.lines[ln][2]):
                    _key, body, index = unit.lines[line]
                    stmt = _hook_stmt(body[index], line)
                    body.insert(index, stmt)
                    placed.append((body, stmt))
                compiled = compile(module, unit.filename, "exec",
                                   dont_inherit=True)
            except (SyntaxError, ValueError, TypeError):
                return None
            finally:
                for body, stmt in placed:
                    body.remove(stmt)
        _file, qualname, firstlineno = unit.top
        for code in _code_tree(compiled):
            if (code.co_qualname == qualname
                    and code.co_firstlineno == firstlineno):
                return code
        return None

    def _checked(self, unit: _Unit, current, line: int) -> bool:
        key = unit.lines[line][0]
        verdict = unit.source.checked.get((key, line))
        if verdict is None:
            verdict = unit.source.checked[(key, line)] = _served_by_hook(
                current[key], line, self.hook)
        return verdict

    def _bind(self, unit: _Unit, code, installed: dict):
        """*code* with the placeholder swapped for the hook; subtrees
        without a hook keep their original code object."""
        consts, hooked = [], False
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                const = self._bind(unit, const, installed)
                hooked = hooked or self.key(const) in installed
            elif type(const) is str and const == PLACEHOLDER:
                const, hooked = self.hook, True
            consts.append(const)
        key = self.key(code)
        if not hooked:
            return unit.originals[key]
        installed[key] = code = code.replace(co_consts=tuple(consts))
        return code

    def _rebuild(self, units: List[_Unit], added) -> None:
        """Recompile each unit for its lines, then swap every holder."""
        for unit in units:
            while True:
                current: Dict[Key, types.CodeType] = {}
                if unit.lines:
                    code = self._compile(unit, list(unit.lines))
                    if code is None:
                        current = None
                    else:
                        self._bind(unit, code, current)
                if current is None:
                    refused = list(unit.lines)
                    why = "the function does not recompile"
                else:
                    refused = [ln for ln in unit.lines
                               if (unit.file, ln) in added
                               and not self._checked(unit, current, ln)]
                    why = "a line event would not begin at the call"
                if not refused:
                    break
                for line in refused:
                    del unit.lines[line]
                    self._verdicts[(unit.file, line)] = why
            unit.current = current
            unit.versions.update((id(code), code)
                                 for code in current.values())
        reason = self._swap(units, abort=bool(added))
        for unit in units:
            if reason is not None and unit.lines:
                # Nothing was swapped: refuse this change's lines.
                for line in [ln for ln in unit.lines
                             if (unit.file, ln) in added]:
                    del unit.lines[line]
                    self._verdicts[(unit.file, line)] = reason
            for line in unit.lines:
                self._verdicts.setdefault((unit.file, line), CODE)
            if unit.lines or unit.current:
                self._units[unit.top] = unit
            else:
                self._units.pop(unit.top, None)
        self._current = {key: code for unit in self._units.values()
                         for key, code in unit.current.items()}
        self.active = bool(self._current)
        self._refresh_stale(None)

    def _swap(self, units: List[_Unit], abort: bool) -> Optional[str]:
        """Put each unit's wanted code on every function holding a code
        object of the unit; track generators left on a replaced one.

        Unless :meth:`_accounted` proves a namespace walk complete, one
        ``gc.get_referrers`` pass over the units' code objects and their
        modules' globals finds the holders: functions (closures, the
        original under a decorator, the enclosing functions), generators
        and coroutines.  With *abort*, a function holding a code object of
        the unit that this engine never saw (a reloaded module's older
        generation, another engine's patch) cancels the swap and the
        return value says why.
        """
        referrers = self._accounted(units)
        if referrers is None:
            targets: Dict[int, object] = {}
            for unit in units:
                targets.update(unit.versions)
                for module in self._modules(unit.file):
                    targets[id(vars(module))] = vars(module)
            referrers = gc.get_referrers(*targets.values())
            del targets
        owners = {key: unit for unit in units for key in unit.originals}
        swaps, gens = [], []
        for ref in referrers:
            if type(ref) is types.FunctionType:
                code = ref.__code__
                unit = owners.get(self.key(code))
                if unit is None:
                    continue
                wanted = unit.wanted(self.key(code))
                if code is wanted:
                    continue
                if id(code) not in unit.versions:
                    if abort:
                        for other in units:
                            other.current = self._installed(other)
                        return ("another generation of the function is "
                                "alive (module reloaded?)")
                    continue
                swaps.append((ref, wanted))
            elif isinstance(ref, _GENERATORS):
                code = _gen_code(ref)
                unit = owners.get(self.key(code))
                if (unit is not None and _gen_frame(ref) is not None
                        and code is not unit.wanted(self.key(code))):
                    gens.append(weakref.ref(ref))
        for function, code in swaps:
            function.__code__ = code
        known = {id(ref()) for ref in self._stale_gens}
        self._stale_gens += [ref for ref in gens if id(ref()) not in known]
        return None

    def _accounted(self, units: List[_Unit]) -> Optional[list]:
        """The functions holding the units' code objects, when reference
        counts prove that a walk of the modules' namespaces found every
        one; None when only a gc pass can tell.

        Only for units without nested code objects (no closures can
        exist).  Each module dict must be referenced by its module and
        the walked functions alone (no closure kept elsewhere, no other
        generation), and each code object by its walked holders and this
        table alone (no generator, frame or foreign function).
        """
        if any(len(unit.originals) != 1 for unit in units):
            return None
        found: Dict[int, types.FunctionType] = {}
        seen = set()
        for unit in units:
            for module in self._modules(unit.file):
                namespace = vars(module)
                if id(namespace) in seen:
                    continue
                seen.add(id(namespace))
                for value in list(namespace.values()):
                    for function in _functions(value):
                        found[id(function)] = function
                holders = _count(found.values(), "__globals__", namespace)
                # its module, this name and getrefcount's argument
                if sys.getrefcount(namespace) != holders + 3:
                    return None
        tables = [self._current]
        for unit in units:
            tables += (unit.originals, unit.versions, unit.current)
        for unit in units:
            for code in list(unit.versions.values()):
                holders = _count(found.values(), "__code__", code)
                for table in tables:
                    holders += _count(table.values(), None, code)
                # the list, this name and getrefcount's argument
                if sys.getrefcount(code) != holders + 3:
                    return None
        return list(found.values())

    def _installed(self, unit: _Unit) -> Dict[Key, types.CodeType]:
        """The versions live before this change (a cancelled swap)."""
        return {key: code for key, code in self._current.items()
                if key in unit.originals}

    # -- stale frames --------------------------------------------------------

    def _refresh_stale(self, exclude) -> None:
        """Inject the local trace into every thread-stack frame running a
        replaced code object and note whether any such frame, or any
        tracked generator, is alive."""
        if not self._current:
            self._stale_gens = []
            self.stale_live = False
            return
        alive, live_gens = False, []
        for ref in self._stale_gens:
            gen = ref()
            if gen is None:
                continue
            frame = _gen_frame(gen)
            if (frame is not None and frame is not exclude
                    and self.is_stale(_gen_code(gen))):
                live_gens.append(ref)
                alive = True
        self._stale_gens = live_gens
        engine = self._engine
        local_fn = engine._local_fn
        for frame in current_frames().values():
            while frame is not None:
                if frame is not exclude and self.is_stale(frame.f_code):
                    alive = True
                    if frame.f_trace is not local_fn:
                        frame.f_trace = local_fn
                        frame.f_trace_lines = True
                        engine.local_installs += 1
                frame = frame.f_back
        self.stale_live = alive

    def _recount(self, store) -> None:
        verdicts = self._verdicts
        self.serves_all = (not self.stale_live
                           and not store.has_function_breaks()
                           and all(verdicts.get(location) == CODE
                                   for location in store.locations()))

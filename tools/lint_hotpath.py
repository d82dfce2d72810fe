#!/usr/bin/env python
"""Hot-path import lint: no ``logging`` in the low-intrusion packages.

The stdlib ``logging`` module takes a module-level lock on every emit,
formats eagerly and may do I/O under that lock — every one of which
violates the hot-path discipline that :mod:`repro.obs` (whose event
ring, :mod:`repro.obs.spans`, also holds the debug log) exists to
uphold (§3's low-intrusion promise applied to the debugger's own
internals).  A single stray ``import logging`` in the
tracing, fork-hook, mp or obs packages is how that discipline erodes, so
CI fails on it.

A second check guards the trace engine's fast paths: the
``_global_dispatch`` body must not contain any ``obs_metrics`` attribute
lookup.  That function runs on every call event of every debuggee
thread; its counters are plain ints exported as callback gauges at
install time, and a casually added ``obs_metrics.inc(...)`` would put an
attribute lookup plus a shard update on the path the §7 overhead budget
is spent on.  The same holds for the code-object breakpoint hook
(``Hook.hit`` in tracing/codebp.py and the ``_code_hit`` it calls):
patched code calls it on every execution of a breakpoint line, so a
conditional breakpoint in a hot loop runs it on every iteration.

Usage: ``python tools/lint_hotpath.py [repo-root]`` — exits non-zero and
prints one line per offending import.
"""

from __future__ import annotations

import ast
import os
import sys

#: Packages whose code runs on the tracing/fork/IPC hot paths.
HOT_PACKAGES = ("tracing", "forkhooks", "mp", "obs")

#: Modules that must never be imported there.
BANNED = {"logging"}


def find_banned_imports(path: str) -> list:
    """(lineno, module) for every banned import in the file at *path*."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in BANNED:
                    hits.append((node.lineno, alias.name))
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module is not None:
                root = node.module.split(".")[0]
                if root in BANNED:
                    hits.append((node.lineno, node.module))
    return hits


#: Function whose body is the global-trace fast path, and the name that
#: must not be attribute-accessed inside it.
FASTPATH_FUNCTION = "_global_dispatch"
FASTPATH_BANNED_NAME = "obs_metrics"
#: Every fast-path function the rule covers, by module: the global
#: dispatch and the code-object breakpoint hook (patched code calls
#: Hook.hit, which calls the engine's _code_hit).
FASTPATH_FUNCTIONS = {
    os.path.join("src", "repro", "tracing", "engine.py"): (
        FASTPATH_FUNCTION, "_code_hit"),
    os.path.join("src", "repro", "tracing", "codebp.py"): ("hit",),
}


def find_fastpath_metric_lookups(path: str,
                                 function_name: str = FASTPATH_FUNCTION
                                 ) -> list:
    """(lineno, source) for each ``obs_metrics.<attr>`` inside the fast
    path *function_name* (default: the global dispatch) of the file at
    *path*.  Returns a single sentinel entry if the function is missing
    entirely — a rename must update this lint, not silently disable
    it."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    function = None
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == function_name):
            function = node
            break
    if function is None:
        return [(0, f"function {function_name!r} not found — "
                    f"update tools/lint_hotpath.py for the rename")]
    hits = []
    for node in ast.walk(function):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == FASTPATH_BANNED_NAME):
            hits.append((node.lineno,
                         f"{FASTPATH_BANNED_NAME}.{node.attr}"))
    return hits


#: The reactor loop must never block: no sleeping, and no direct socket
#: I/O calls — all I/O goes through the resumable SendBuffer /
#: RecvBuffer pumps in repro.util.framing, and all waiting through the
#: selector timeout.  A casually added ``time.sleep`` or ``sock.recv``
#: stalls EVERY channel of that loop at once: every attached session on
#: the client, the debuggee's only listener on the server.  The rule
#: covers the whole reactor module, the server handlers the loop calls
#: directly and the client's port-file doorbell reader (whose drain
#: lives in repro.util.portfile, like the framing pumps).
REACTOR_MODULE = os.path.join("src", "repro", "util", "reactor.py")
REACTOR_HANDLER_MODULES = {
    os.path.join("src", "repro", "server", "debugserver.py"): (
        "_on_messages", "_handle_hello", "_handle_ping",
        "_handle_request", "_handle_disconnect"),
    os.path.join("src", "repro", "client", "client.py"): ("_on_bell",),
}
REACTOR_BANNED_ATTRS = {"sleep", "recv", "recv_into", "sendall",
                        "recvfrom", "accept"}
REACTOR_BANNED_NAMES = {"sleep"}


def find_reactor_blocking_calls(path: str, function_names=None) -> list:
    """(lineno, source) for every blocking-looking call on the loop.

    Flags calls of ``<anything>.sleep/.recv/.recvfrom/.recv_into/
    .sendall/.accept`` and bare ``sleep``, in the whole file or — given
    *function_names* — only inside those functions (nested defs
    included; a missing function yields a sentinel entry, so a rename
    updates this lint instead of silently disabling it).
    (``SendBuffer.pump``'s own ``sock.send`` lives in repro.util.framing,
    outside the scanned code — by design.)
    """
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    scopes = [("", tree)]
    hits = []
    if function_names is not None:
        found = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                 and node.name in function_names}
        scopes = [(f" in {name}", found[name])
                  for name in function_names if name in found]
        hits = [(0, f"function {name!r} not found — update "
                    f"tools/lint_hotpath.py for the rename")
                for name in function_names if name not in found]
    for where, scope in scopes:
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in REACTOR_BANNED_ATTRS):
                hits.append((node.lineno, f".{func.attr}(...){where}"))
            elif (isinstance(func, ast.Name)
                    and func.id in REACTOR_BANNED_NAMES):
                hits.append((node.lineno, f"{func.id}(...){where}"))
    return hits


#: The fork-handler prepare/child phases run with the debuggee frozen
#: (prepare holds every sync object; the child has exactly one thread
#: and no listener yet).  A blocking call there — a socket send, a log
#: emit, an un-timed lock wait — turns every fork() into a stall the
#: do-no-harm invariant forbids.  Phase bodies may only touch memory
#: and the event ring; anything that can wait on another party is banned.
FORK_PHASE_MODULES = {
    os.path.join("src", "repro", "core", "handlers.py"): (
        "prepare_fork", "handle_parent_at_fork", "handle_child_at_fork"),
    os.path.join("src", "repro", "forkhooks", "registry.py"): (
        "run_prepare", "run_parent", "run_child"),
}
FORK_PHASE_BANNED_ATTRS = {"sendall", "send", "recv", "recv_into",
                           "accept", "connect", "sleep",
                           "info", "warning", "error", "debug"}
FORK_PHASE_BANNED_NAMES = {"sleep"}
#: Phase C runs in a child whose only thread is the forker: a lock any
#: other parent thread held at the fork is copied held, and nothing
#: will ever release it.  Phase C's first step reinitialises every
#: factory lock (see the bare-lock rule below), but the registry runs
#: other handlers before it, so phase C bodies and every child-side
#: reset under src/repro (found by name) take no lock at all: no
#: ``.acquire(...)`` and no ``with`` on a name containing "lock".
FORK_CHILD_FUNCTIONS = ("handle_child_at_fork", "run_child")
FORK_RESET_NAMES = ("reset_after_fork", "reinit_after_fork",
                    "close_after_fork")


def _last_name(expr) -> str:
    """The last name in ``a.b.c`` or ``a.b.c(...)``; '' otherwise."""
    if isinstance(expr, ast.Call):
        expr = expr.func
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return ""


def _fork_phase_hits(function, name: str, child: bool) -> list:
    """(lineno, what) for the fork-phase rule inside *function*."""
    hits = []
    for node in ast.walk(function):
        if child and isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                held = _last_name(item.context_expr)
                if "lock" in held.lower():
                    hits.append((node.lineno,
                                 f"with {held} in child-side {name}"))
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in FORK_PHASE_BANNED_ATTRS:
                hits.append((node.lineno, f".{func.attr}(...) in {name}"))
            elif func.attr == "acquire" and child:
                hits.append((node.lineno,
                             f".acquire(...) in child-side {name}"))
            elif (func.attr == "acquire" and not node.args
                    and not any(kw.arg == "timeout"
                                for kw in node.keywords)):
                hits.append((node.lineno,
                             f".acquire() without timeout in {name}"))
        elif (isinstance(func, ast.Name)
                and func.id in FORK_PHASE_BANNED_NAMES):
            hits.append((node.lineno, f"{func.id}(...) in {name}"))
    return hits


def find_fork_phase_blocking_calls(path: str, function_names) -> list:
    """(lineno, what) for blocking-looking calls inside the named
    fork-phase functions of the file at *path* (nested defs included).

    Flags ``<anything>.sendall/.send/.recv/.accept/.connect/.sleep``
    and logging-style ``.info/.warning/...`` calls, bare ``sleep``, and
    ``.acquire()`` with neither arguments nor a ``timeout=`` keyword —
    an unbounded lock wait on the one path that must never wait.  In
    the phase C bodies (:data:`FORK_CHILD_FUNCTIONS`) any lock wait is
    flagged.  Returns a sentinel entry per function missing entirely,
    so a rename updates this lint instead of silently disabling it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    functions = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in function_names):
            functions[node.name] = node
    hits = []
    for name in function_names:
        if name not in functions:
            hits.append((0, f"function {name!r} not found — update "
                            f"tools/lint_hotpath.py for the rename"))
    for name, function in sorted(functions.items()):
        hits += _fork_phase_hits(function, name,
                                 child=name in FORK_CHILD_FUNCTIONS)
    return hits


def find_child_reset_lock_waits(path: str) -> list:
    """(lineno, what) for the phase C rule inside every function of the
    file at *path* named in :data:`FORK_RESET_NAMES`."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in FORK_RESET_NAMES):
            hits += _fork_phase_hits(node, node.name, child=True)
    return sorted(hits)


def scan_child_resets(root: str) -> list:
    """``path:line: what`` for every child-side reset under
    ``src/repro`` that can wait on a lock or block."""
    problems = []
    package_dir = os.path.join(root, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(package_dir):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root)
            for lineno, what in find_child_reset_lock_waits(path):
                problems.append(f"{rel}:{lineno}: {what}")
    return problems


#: Every lock of the debugger's own packages comes from the fork-safe
#: factory, repro.util.locks, whose set phase C reinitialises in place
#: after fork(2).  A bare ``threading.Lock()``/``RLock()`` there is a
#: lock phase C would miss: a child whose parent thread held it at the
#: fork waits on it forever.  The debuggee's substrate (mp, stm, ...)
#: is not scanned; its locks go through the §5.3 ownership sweep.
LOCK_FACTORY_PACKAGES = ("core", "server", "client", "tracing", "obs",
                         "forkhooks", "util")
LOCK_FACTORY_MODULE = os.path.join("src", "repro", "util", "locks.py")
BARE_LOCK_NAMES = {"Lock", "RLock"}


def find_bare_locks(path: str) -> list:
    """(lineno, what) for each ``threading.Lock()``/``RLock()`` call and
    each ``from threading import Lock``/``RLock`` in the file at *path*."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in BARE_LOCK_NAMES
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "threading"):
            hits.append((node.lineno, f"threading.{node.func.attr}()"))
        elif isinstance(node, ast.ImportFrom) and node.module == "threading":
            hits += [(node.lineno, f"from threading import {alias.name}")
                     for alias in node.names
                     if alias.name in BARE_LOCK_NAMES]
    return sorted(hits)


def scan_bare_locks(root: str) -> list:
    """``path:line: what`` for every bare lock in the debugger's
    packages outside the factory module."""
    problems = []
    for package in LOCK_FACTORY_PACKAGES:
        package_dir = os.path.join(root, "src", "repro", package)
        for dirpath, dirnames, filenames in os.walk(package_dir):
            dirnames.sort()
            for filename in sorted(filenames):
                path = os.path.join(dirpath, filename)
                rel = os.path.relpath(path, root)
                if not filename.endswith(".py") or rel == LOCK_FACTORY_MODULE:
                    continue
                for lineno, what in find_bare_locks(path):
                    problems.append(f"{rel}:{lineno}: {what}")
    return problems


#: Timestamp discipline for the causal-timeline modules: cross-process
#: ordering is computed from monotonic stamps, wall clocks are carried
#: only as *paired* anchors for display alignment (NTP slew or a clock
#: step must never reorder a timeline).  So inside these modules any
#: function that reads ``time.time()`` must read ``time.monotonic()``
#: in the same function — a lone wall-clock read is a latent ordering
#: bug.
CLOCK_PAIR_MODULES = (
    os.path.join("src", "repro", "obs", "spans.py"),
    os.path.join("src", "repro", "obs", "blackbox.py"),
    os.path.join("src", "repro", "obs", "causality.py"),
)


def find_unpaired_wall_clock(path: str) -> list:
    """(lineno, what) for each function calling ``time.time()`` without
    a matching ``time.monotonic()`` call in the same function body."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    tree = ast.parse(source, filename=path)

    def clock_calls(function) -> dict:
        calls = {"time": [], "monotonic": []}
        for node in ast.walk(function):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "time"
                    and node.func.attr in calls):
                calls[node.func.attr].append(node.lineno)
        return calls

    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = clock_calls(node)
        if calls["time"] and not calls["monotonic"]:
            hits.append((calls["time"][0],
                         f"time.time() without time.monotonic() "
                         f"in {node.name}"))
    return hits


def main(argv: list) -> int:
    root = argv[1] if len(argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    problems = []
    for package in HOT_PACKAGES:
        package_dir = os.path.join(root, "src", "repro", package)
        if not os.path.isdir(package_dir):
            print(f"lint-hotpath: missing package dir {package_dir}",
                  file=sys.stderr)
            return 2
        for dirpath, _dirnames, filenames in os.walk(package_dir):
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                path = os.path.join(dirpath, filename)
                for lineno, module in find_banned_imports(path):
                    rel = os.path.relpath(path, root)
                    problems.append(
                        f"{rel}:{lineno}: imports {module!r} "
                        f"(banned on the hot path)")
    for module, function_names in sorted(FASTPATH_FUNCTIONS.items()):
        fast_path = os.path.join(root, module)
        if not os.path.isfile(fast_path):
            print(f"lint-hotpath: missing {fast_path}", file=sys.stderr)
            return 2
        for name in function_names:
            for lineno, what in find_fastpath_metric_lookups(fast_path,
                                                             name):
                problems.append(
                    f"{module}:{lineno}: {what} inside {name} "
                    f"(no obs lookups on a trace fast path; use a "
                    f"plain int + callback gauge)")
    reactor_scans = [(REACTOR_MODULE, None)]
    reactor_scans += sorted(REACTOR_HANDLER_MODULES.items())
    for module, function_names in reactor_scans:
        reactor_path = os.path.join(root, module)
        if not os.path.isfile(reactor_path):
            print(f"lint-hotpath: missing {reactor_path}", file=sys.stderr)
            return 2
        for lineno, what in find_reactor_blocking_calls(reactor_path,
                                                        function_names):
            rel = os.path.relpath(reactor_path, root)
            problems.append(
                f"{rel}:{lineno}: blocking call {what} on the reactor "
                f"thread (the loop serves every channel; wait via the "
                f"selector, do I/O via the framing pumps)")
    for module, function_names in sorted(FORK_PHASE_MODULES.items()):
        phase_path = os.path.join(root, module)
        if not os.path.isfile(phase_path):
            print(f"lint-hotpath: missing {phase_path}", file=sys.stderr)
            return 2
        for lineno, what in find_fork_phase_blocking_calls(
                phase_path, function_names):
            rel = os.path.relpath(phase_path, root)
            problems.append(
                f"{rel}:{lineno}: blocking call {what} in a fork-phase "
                f"body (prepare/child run with the debuggee frozen; "
                f"memory and the event ring only)")
    for problem in scan_child_resets(root):
        problems.append(
            f"{problem} (the child has one thread: phase C's first step "
            f"reinitialises every factory lock; never wait on a lock "
            f"in a child-side reset)")
    for problem in scan_bare_locks(root):
        problems.append(
            f"{problem} (debugger locks come from repro.util.locks, "
            f"which phase C reinitialises after fork)")
    for module in CLOCK_PAIR_MODULES:
        clock_path = os.path.join(root, module)
        if not os.path.isfile(clock_path):
            print(f"lint-hotpath: missing {clock_path}", file=sys.stderr)
            return 2
        for lineno, what in find_unpaired_wall_clock(clock_path):
            rel = os.path.relpath(clock_path, root)
            problems.append(
                f"{rel}:{lineno}: {what} (timeline modules must stamp "
                f"wall+monotonic pairs; a lone wall clock cannot order "
                f"events across processes)")
    if problems:
        print("\n".join(problems))
        return 1
    print(f"lint-hotpath: OK ({', '.join(HOT_PACKAGES)} are "
          f"logging-free; {FASTPATH_FUNCTION} and the code-breakpoint "
          f"hook are obs-free; the reactor "
          f"and its handlers have no blocking calls; fork-phase "
          f"bodies have no blocking calls; phase C and the child-side "
          f"resets take no lock; debugger locks come from the factory; "
          f"timeline modules pair wall with monotonic)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

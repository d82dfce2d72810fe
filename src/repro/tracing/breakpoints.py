"""Breakpoint model and store.

The client's command shell sets breakpoints (paper section 4: *"set break
point, continue"*); every debug server keeps its own store, which forked
children inherit as data and then re-own via the child fork handler
(paper Fig. 4 — the metadata block survives fork by design: a breakpoint
set on the parent keeps firing in the child, which is exactly what lets
Dionea stop freshly forked workers, cf. section 6.3).

The store is optimised for the trace callback's hot path: a per-file line
set answers "is anything at this (file, line)?" in two dict lookups before
any Breakpoint object is touched.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

from ..util import locks
from ..util.errors import BreakpointError


def canonical_file(path: str) -> str:
    """Normalise a path the way the trace callback will see it."""
    return os.path.normcase(os.path.abspath(path))


@dataclass
class Breakpoint:
    """One breakpoint.

    ``condition`` is a Python expression evaluated in the debuggee frame;
    evaluation errors count as *hit* (matching pdb: a broken condition
    should reveal itself, not silently disable the breakpoint).

    ``temporary`` breakpoints delete themselves after the first hit
    (shell command ``tbreak``).  ``ignore_count`` skips that many hits
    before stopping.
    """

    id: int
    file: str
    line: int
    condition: Optional[str] = None
    temporary: bool = False
    enabled: bool = True
    ignore_count: int = 0
    hit_count: int = 0
    function: Optional[str] = None

    def location(self) -> Tuple[str, int]:
        return (self.file, self.line)

    def should_stop(self, frame_globals: Mapping[str, Any],
                    frame_locals: Mapping[str, Any]) -> bool:
        """Decide whether this (matched) breakpoint stops the UE.

        Mutates hit/ignore accounting, mirroring ``bdb.effective``.
        """
        if not self.enabled:
            return False
        if self.condition is not None:
            try:
                value = eval(self.condition, dict(frame_globals),  # noqa: S307
                             dict(frame_locals))
            except Exception:  # noqa: BLE001 - broken condition => stop
                value = True
            if not value:
                return False
        self.hit_count += 1
        if self.ignore_count > 0:
            self.ignore_count -= 1
            return False
        return True


class BreakpointStore:
    """Thread-safe container with a fast (file, line) membership test."""

    def __init__(self) -> None:
        self._lock = locks.RLock()
        self._ids = itertools.count(1)
        self._by_id: Dict[int, Breakpoint] = {}
        self._by_location: Dict[str, Dict[int, List[Breakpoint]]] = {}
        self._function_breaks: Dict[str, List[Breakpoint]] = {}
        #: invoked (with no arguments) after any mutation; the trace
        #: engine hooks this to recompute its fast-path quiet flag.
        self.on_change: Optional[callable] = None

    def _notify(self) -> None:
        if self.on_change is not None:
            self.on_change()

    # -- mutation ---------------------------------------------------------

    def add(self, file: str, line: int, condition: Optional[str] = None,
            temporary: bool = False, ignore_count: int = 0) -> Breakpoint:
        if line <= 0:
            raise BreakpointError(f"line must be positive, got {line}")
        path = canonical_file(file)
        bp = Breakpoint(id=next(self._ids), file=path, line=line,
                        condition=condition, temporary=temporary,
                        ignore_count=ignore_count)
        with self._lock:
            self._by_id[bp.id] = bp
            self._by_location.setdefault(path, {}).setdefault(
                line, []).append(bp)
        self._notify()
        return bp

    def add_function(self, function: str,
                     condition: Optional[str] = None,
                     temporary: bool = False) -> Breakpoint:
        """Break on entry to any function with this (qualified) name."""
        if not function:
            raise BreakpointError("function name must be non-empty")
        bp = Breakpoint(id=next(self._ids), file="", line=0,
                        condition=condition, temporary=temporary,
                        function=function)
        with self._lock:
            self._by_id[bp.id] = bp
            self._function_breaks.setdefault(function, []).append(bp)
        self._notify()
        return bp

    def remove(self, bp_id: int) -> Breakpoint:
        with self._lock:
            bp = self._by_id.pop(bp_id, None)
            if bp is None:
                raise BreakpointError(f"no breakpoint with id {bp_id}")
            if bp.function is not None:
                bucket = self._function_breaks.get(bp.function, [])
                if bp in bucket:
                    bucket.remove(bp)
                if not bucket:
                    self._function_breaks.pop(bp.function, None)
            else:
                lines = self._by_location.get(bp.file, {})
                bucket = lines.get(bp.line, [])
                if bp in bucket:
                    bucket.remove(bp)
                if not bucket:
                    lines.pop(bp.line, None)
                if not lines:
                    self._by_location.pop(bp.file, None)
        self._notify()
        return bp

    def set_enabled(self, bp_id: int, enabled: bool) -> None:
        with self._lock:
            bp = self._by_id.get(bp_id)
            if bp is None:
                raise BreakpointError(f"no breakpoint with id {bp_id}")
            bp.enabled = enabled

    def clear(self) -> None:
        with self._lock:
            self._by_id.clear()
            self._by_location.clear()
            self._function_breaks.clear()
        self._notify()

    # -- queries ------------------------------------------------------------

    def get(self, bp_id: int) -> Breakpoint:
        with self._lock:
            bp = self._by_id.get(bp_id)
            if bp is None:
                raise BreakpointError(f"no breakpoint with id {bp_id}")
            return bp

    def all(self) -> List[Breakpoint]:
        with self._lock:
            return sorted(self._by_id.values(), key=lambda b: b.id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_id)

    @property
    def is_empty(self) -> bool:
        """Lock-free emptiness probe for the trace-callback fast path.

        Reads of dict sizes are GIL-atomic; a racing add is observed no
        later than the next event, which is exactly pdb-grade semantics
        for a breakpoint set while code is running.
        """
        return not self._by_id and not self._function_breaks

    def files_with_breakpoints(self) -> Set[str]:
        with self._lock:
            return set(self._by_location)

    def locations(self) -> Set[Tuple[str, int]]:
        """Every (canonical file, line) carrying a line breakpoint."""
        with self._lock:
            return {(file, line) for file, lines in self._by_location.items()
                    for line in lines}

    def lines_for_file(self, file: str) -> frozenset:
        """Every line in *file* (canonical) carrying a breakpoint.

        Cold-path accessor for the LineTable: called once per code
        object per cache generation, never per event.
        """
        with self._lock:
            return frozenset(self._by_location.get(file, ()))

    def has_function_break(self, function: str) -> bool:
        """Lock-free: is any function breakpoint set on this name?

        Same consistency model as :attr:`is_empty` — a racing mutation
        is observed no later than the next cache invalidation.
        """
        return function in self._function_breaks

    def break_anywhere_in(self, file: str) -> bool:
        """Hot-path helper: does *file* contain any line breakpoint?

        ``file`` must already be canonical (the engine canonicalises once
        per code object, not once per line event).
        """
        return file in self._by_location

    def has_function_breaks(self) -> bool:
        return bool(self._function_breaks)

    def match_line(self, file: str, line: int) -> List[Breakpoint]:
        """All breakpoints at this canonical (file, line)."""
        with self._lock:
            return list(self._by_location.get(file, {}).get(line, ()))

    def match_function(self, function: str) -> List[Breakpoint]:
        with self._lock:
            return list(self._function_breaks.get(function, ()))

    # -- stop decision (shared by engine and tests) --------------------------

    def effective(self, file: str, line: int, frame_globals: Mapping[str, Any],
                  frame_locals: Mapping[str, Any],
                  function: Optional[str] = None) -> Optional[Breakpoint]:
        """First breakpoint at this site that decides to stop, if any.

        Temporary breakpoints that fire are removed before returning, so a
        ``tbreak`` can never stop twice.
        """
        candidates = self.match_line(file, line)
        if function is not None:
            candidates += self.match_function(function)
        for bp in candidates:
            if bp.should_stop(frame_globals, frame_locals):
                if bp.temporary:
                    try:
                        self.remove(bp.id)
                    except BreakpointError:
                        pass  # concurrently removed: stopping is still right
                return bp
        return None

    # -- fork support ----------------------------------------------------------

    def snapshot_state(self) -> List[dict]:
        """Plain-data dump (used for the client's breakpoint listing)."""
        return [
            {
                "id": bp.id, "file": bp.file, "line": bp.line,
                "condition": bp.condition, "temporary": bp.temporary,
                "enabled": bp.enabled, "hit_count": bp.hit_count,
                "ignore_count": bp.ignore_count, "function": bp.function,
            }
            for bp in self.all()
        ]

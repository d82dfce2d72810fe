"""Watchpoints: stop when an expression's value changes.

An extension beyond the paper's explicit command list (set breakpoint,
continue, step, next, "and so on" — §4), in the spirit of the GDB `watch`
command the paper's related-work section compares against.  A watchpoint
is an expression evaluated in the debuggee's frames on every line event;
when its value differs from the last observed value in that UE, the UE
parks with reason ``watch``.

Cost model is explicit: while any watchpoint exists the engine cannot
stay on its quiet fast path — every frame is line-traced and every line
evaluates the expressions.  That is inherent to software watchpoints
(GDB pays the same without hardware debug registers); the store exists
so the cost is only paid while a watch is actually set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..util import locks
from ..util.errors import BreakpointError
from ..util.ids import UEId
from ..util.serde import render_value


class _Unset:
    """Sentinel: no previous value observed yet."""

    def __repr__(self) -> str:  # pragma: no cover
        return "<unset>"


UNSET = _Unset()


@dataclass
class Watchpoint:
    id: int
    expression: str
    enabled: bool = True
    hit_count: int = 0
    #: last rendered value per UE (values are rendered immediately:
    #: holding live debuggee objects here would pin them forever).
    last_values: Dict[UEId, str] = field(default_factory=dict)


@dataclass(frozen=True)
class WatchHit:
    """One observed change, shipped to the client in the stop payload."""

    watch_id: int
    expression: str
    old_value: str
    new_value: str

    def to_wire(self) -> dict:
        return {"watch_id": self.watch_id, "expression": self.expression,
                "old_value": self.old_value, "new_value": self.new_value}


class WatchpointStore:
    """Thread-safe set of watch expressions + per-UE value memory."""

    def __init__(self) -> None:
        self._lock = locks.RLock()
        self._ids = itertools.count(1)
        self._watches: Dict[int, Watchpoint] = {}
        #: invoked after any add/remove (engine fast-path recompute).
        self.on_change = None

    def _notify(self) -> None:
        if self.on_change is not None:
            self.on_change()

    # -- mutation ---------------------------------------------------------------

    def add(self, expression: str) -> Watchpoint:
        if not expression or not expression.strip():
            raise BreakpointError("watch expression must be non-empty")
        compile(expression, "<watch>", "eval")  # fail fast on syntax
        watch = Watchpoint(id=next(self._ids),
                           expression=expression.strip())
        with self._lock:
            self._watches[watch.id] = watch
        self._notify()
        return watch

    def remove(self, watch_id: int) -> Watchpoint:
        with self._lock:
            watch = self._watches.pop(watch_id, None)
        if watch is None:
            raise BreakpointError(f"no watchpoint with id {watch_id}")
        self._notify()
        return watch

    def set_enabled(self, watch_id: int, enabled: bool) -> None:
        with self._lock:
            watch = self._watches.get(watch_id)
            if watch is None:
                raise BreakpointError(f"no watchpoint with id {watch_id}")
            watch.enabled = enabled

    def clear(self) -> None:
        with self._lock:
            self._watches.clear()
        self._notify()

    # -- queries ------------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self._watches

    def __len__(self) -> int:
        with self._lock:
            return len(self._watches)

    def all(self) -> List[Watchpoint]:
        with self._lock:
            return sorted(self._watches.values(), key=lambda w: w.id)

    def snapshot_state(self) -> List[dict]:
        return [{"id": w.id, "expression": w.expression,
                 "enabled": w.enabled, "hit_count": w.hit_count}
                for w in self.all()]

    # -- evaluation (trace-callback path) ----------------------------------------

    def evaluate(self, ue: UEId, frame) -> Optional[WatchHit]:
        """Evaluate every enabled watch in *frame*; first change wins.

        Expressions that raise (name not in scope in this frame) are
        treated as unobservable here — a watch on ``total`` must not
        fire in frames that have no ``total``.
        """
        with self._lock:
            watches = list(self._watches.values())
        for watch in watches:
            if not watch.enabled:
                continue
            try:
                value = eval(watch.expression,  # noqa: S307
                             frame.f_globals, frame.f_locals)
            except Exception:  # noqa: BLE001 - not observable here
                continue
            rendered = render_value(value)
            with self._lock:
                previous = watch.last_values.get(ue, UNSET)
                watch.last_values[ue] = rendered
                if previous is UNSET or previous == rendered:
                    continue
                watch.hit_count += 1
            return WatchHit(watch_id=watch.id,
                            expression=watch.expression,
                            old_value=previous,
                            new_value=rendered)
        return None

    def reset_after_fork(self) -> None:
        """Child handler: per-UE memories name parent threads."""
        for watch in self._watches.values():
            watch.last_values.clear()

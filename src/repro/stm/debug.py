"""Debugger integration for transactional code (paper §9 + refs [7, 33]).

The HTM-debugging literature the paper cites observes that ordinary
breakpoints are useless inside transactions: the stop itself aborts the
transaction (an HTM capacity/interrupt abort; in our STM, a stop parks
the thread mid-attempt and guarantees validation failure).  The safe
protocol, implemented here:

* the trace engine never parks a UE while a transaction is running — the
  STM reports boundaries, and debugging actions are deferred to them;
* **abort storms are a debugger event**: when one thread's abort streak
  crosses a threshold, the monitor reports it (debug log + optional
  client event via the active Dionea) and can park the thread *at the
  boundary* — outside any transaction — where inspection is safe;
* every boundary is recorded, so the client can render a transaction
  profile per UE (commits, aborts, hottest conflicting TVar).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..obs.spans import debug_event
from ..util.ids import UEId


@dataclass
class TxProfile:
    """Aggregated boundary events for one UE."""

    commits: int = 0
    aborts: int = 0
    max_streak: int = 0
    conflicts: Dict[str, int] = field(default_factory=dict)

    def to_wire(self) -> dict:
        return {"commits": self.commits, "aborts": self.aborts,
                "max_streak": self.max_streak,
                "conflicts": dict(self.conflicts)}


class TransactionMonitor:
    """Per-process observer of transaction boundaries."""

    def __init__(self, storm_threshold: int = 16,
                 park_on_storm: bool = False):
        self.storm_threshold = storm_threshold
        self.park_on_storm = park_on_storm
        self._lock = threading.Lock()
        self._profiles: Dict[UEId, TxProfile] = {}
        self._storms: List[dict] = []

    # -- boundary processing ------------------------------------------------

    def record(self, kind: str, stats, conflict) -> None:
        ue = UEId.current()
        with self._lock:
            profile = self._profiles.get(ue)
            if profile is None:
                profile = TxProfile()
                self._profiles[ue] = profile
            if kind == "commit":
                profile.commits += 1
            else:
                profile.aborts += 1
                profile.max_streak = max(profile.max_streak, stats.streak)
                if conflict is not None:
                    profile.conflicts[conflict.name] = \
                        profile.conflicts.get(conflict.name, 0) + 1
            storm = (kind == "abort"
                     and stats.streak == self.storm_threshold)
            if storm:
                self._storms.append({
                    "ue": str(ue),
                    "streak": stats.streak,
                    "conflict": stats.last_conflict,
                })
        if storm:
            debug_event("stm", f"abort storm: {ue} aborted "
                               f"{stats.streak}x in a row "
                               f"(last conflict: {stats.last_conflict})")
            self._notify_debugger(ue)

    def _notify_debugger(self, ue: UEId) -> None:
        """Tell the active Dionea; optionally park at this safe point."""
        from ..core.dionea import current_dionea
        dionea = current_dionea()
        if dionea is None:
            return
        dionea.server.emit_event("stm_abort_storm", {
            "ue": {"pid": ue.pid, "tid": ue.tid},
            "threshold": self.storm_threshold,
        })
        if self.park_on_storm:
            # The UE is AT a boundary (no live transaction): parking here
            # is transaction-safe.  It stops at its next trace event.
            dionea.server.engine.request_suspend(ue)

    # -- introspection -----------------------------------------------------------

    def profile_for(self, ue: Optional[UEId] = None) -> TxProfile:
        ue = ue or UEId.current()
        with self._lock:
            return self._profiles.get(ue, TxProfile())

    def report(self) -> dict:
        with self._lock:
            return {
                "profiles": {str(ue): p.to_wire()
                             for ue, p in self._profiles.items()},
                "storms": list(self._storms),
            }

    def reset(self) -> None:
        with self._lock:
            self._profiles.clear()
            self._storms.clear()


#: Process-global monitor; ``boundary_hook`` is called by the engine at
#: every commit/abort boundary.  Swap it (tests) or tune its threshold.
MONITOR = TransactionMonitor()


def boundary_hook(kind: str, stats, conflict) -> None:
    MONITOR.record(kind, stats, conflict)

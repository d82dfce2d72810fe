"""Deadlock detection: the wait-for graph behind paper section 6.2.

Figure 7's payoff is that *"Dionea shows the line number where the
deadlock has occurred"*, where the stock interpreter only prints a stack
trace in which "the exact place where the deadlock occurred may not be
present".  To do that the debugger needs to know, for every blocked UE,
*what* it waits on and *where* it blocked — which the instrumented
synchronization primitives of :mod:`repro.mp` report here.

Two failure shapes are detected:

* **cycles** — classic mutual waiting: UE₁ holds R₁ and wants R₂, UE₂
  holds R₂ and wants R₁;
* **orphaned waits** — the paper's Listing 5 scenario: a forked child
  blocks on a Queue that only a *parent* thread would ever push to; the
  would-be waker did not survive the fork, so the resource's holder set
  is empty (or dead) and the wait can never be satisfied.  This also
  covers Ruby's "all threads blocked" fatal-deadlock rule via
  :meth:`DeadlockDetector.all_blocked`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..obs.spans import debug_event
from ..util import locks
from ..util.ids import UEId


@dataclass(frozen=True)
class WaitEdge:
    """One UE blocked on one resource.

    ``location`` ("file:line (function)") may be recorded eagerly by the
    caller, or left None and resolved lazily at *report* time from the
    blocked thread's live frame — the primitives' hot paths must not pay
    for a stack walk on every blocking acquire.
    """

    ue: UEId
    resource: str
    location: Optional[str] = None


class WaitForGraph:
    """Thread-safe wait-for/held-by bookkeeping with cycle search.

    Nodes are UEs and resource names; edges are ``UE → resource`` (wants)
    and ``resource → UE`` (held by).  Everything is plain data so the
    graph can be serialized into the client's ``deadlock_report``.
    """

    def __init__(self) -> None:
        self._lock = locks.Lock()
        self._waits: Dict[UEId, WaitEdge] = {}
        self._holds: Dict[str, Set[UEId]] = {}

    # -- mutation (called from instrumented primitives) -----------------------

    def add_wait(self, ue: UEId, resource: str,
                 location: Optional[str] = None) -> None:
        with self._lock:
            self._waits[ue] = WaitEdge(ue, resource, location)

    def clear_wait(self, ue: UEId) -> None:
        with self._lock:
            self._waits.pop(ue, None)

    def add_hold(self, ue: UEId, resource: str) -> None:
        with self._lock:
            self._holds.setdefault(resource, set()).add(ue)

    def release_hold(self, ue: UEId, resource: str) -> None:
        with self._lock:
            holders = self._holds.get(resource)
            if holders is not None:
                holders.discard(ue)
                if not holders:
                    self._holds.pop(resource, None)

    def reset_after_fork(self) -> None:
        """Child fork handler: the inherited waits and holds name
        parent threads."""
        self._waits = {}
        self._holds = {}

    # -- queries ----------------------------------------------------------------

    def waits(self) -> List[WaitEdge]:
        with self._lock:
            return list(self._waits.values())

    def holders_of(self, resource: str) -> Set[UEId]:
        with self._lock:
            return set(self._holds.get(resource, ()))

    def snapshot(self) -> Tuple[Dict[UEId, WaitEdge], Dict[str, Set[UEId]]]:
        with self._lock:
            return dict(self._waits), {r: set(h)
                                       for r, h in self._holds.items()}

    # -- cycle detection -----------------------------------------------------------

    def find_cycles(self) -> List[List[str]]:
        """All wait-for cycles, as alternating ``ue:...``/resource chains.

        The graph UE→resource→UE is tiny (one wait edge per blocked UE),
        so an iterative DFS over UE nodes suffices.
        """
        waits, holds = self.snapshot()
        # successor UEs: ue waits on r; every holder of r is a successor.
        successors: Dict[UEId, Set[UEId]] = {}
        for ue, edge in waits.items():
            successors[ue] = set(holds.get(edge.resource, ()))

        cycles: List[List[str]] = []
        seen_cycles: Set[frozenset] = set()
        for start in waits:
            path: List[UEId] = []
            on_path: Set[UEId] = set()

            def dfs(node: UEId) -> None:
                if node in on_path:
                    idx = path.index(node)
                    cycle_ues = path[idx:]
                    key = frozenset(cycle_ues)
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        chain: List[str] = []
                        for ue in cycle_ues:
                            chain.append(str(ue))
                            chain.append(waits[ue].resource)
                        cycles.append(chain)
                    return
                if node not in waits:
                    return
                path.append(node)
                on_path.add(node)
                for succ in successors.get(node, ()):
                    dfs(succ)
                path.pop()
                on_path.discard(node)

            dfs(start)
        return cycles

    def orphaned_waits(self, live_ues: Iterable[UEId]) -> List[WaitEdge]:
        """Waits on resources whose *known* holders are all dead.

        After a fork only the forking thread survives (§5.1): a lock a
        parent thread held at fork time is copied into the child in the
        locked state with no live owner, so a child UE blocking on it can
        never be woken.  Resources with no ownership record at all (e.g.
        queues, which have producers rather than holders) are *not*
        flagged — for those the Listing 5 scenario is caught by the
        Ruby-style :meth:`DeadlockDetector.all_blocked` rule instead.
        """
        live = set(live_ues)
        waits, holds = self.snapshot()
        orphans = []
        for ue, edge in waits.items():
            if ue not in live:
                continue
            holders = holds.get(edge.resource)
            if holders and not (holders & live):
                orphans.append(edge)
        return orphans


def _stdlib_prefix() -> str:
    import sysconfig
    return sysconfig.get_paths().get("stdlib", "")


def resolve_wait_location(ue: UEId) -> Optional[str]:
    """The blocked UE's innermost *user* frame, resolved live.

    Walks the thread's current stack (stable: the thread is blocked)
    past debugger/substrate/stdlib frames to the first line of user
    code — "the exact place where the deadlock occurred" (Fig. 7).
    """
    import os
    from ..tracing.frames import current_frames

    if ue.pid != os.getpid():
        return None
    frame = current_frames().get(ue.tid)
    repro_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    stdlib = _stdlib_prefix()
    while frame is not None:
        filename = frame.f_code.co_filename
        if (not filename.startswith("<")
                and not filename.startswith(repro_root)
                and not (stdlib and filename.startswith(stdlib))):
            return (f"{filename}:{frame.f_lineno} "
                    f"({frame.f_code.co_name})")
        frame = frame.f_back
    return None


class DeadlockDetector:
    """Process-level detector the debug server exposes to the client."""

    def __init__(self, graph: Optional[WaitForGraph] = None):
        self.graph = graph or WaitForGraph()

    def _located(self, edge: WaitEdge) -> str:
        if edge.location is not None:
            return edge.location
        return resolve_wait_location(edge.ue) or "<unknown>"

    def live_ues(self) -> List[UEId]:
        """Every Python thread currently alive in this process."""
        import os
        pid = os.getpid()
        return [UEId(pid, t.ident) for t in threading.enumerate()
                if t.ident is not None]

    def all_blocked(self) -> bool:
        """Ruby's fatal-deadlock rule: every live UE is waiting.

        The listener/daemon threads of the debugger itself are excluded —
        they are infrastructure, not debuggee UEs.
        """
        waiting = {edge.ue for edge in self.graph.waits()}
        debuggee = [ue for ue in self.live_ues()
                    if not self._is_infrastructure(ue)]
        return bool(debuggee) and all(ue in waiting for ue in debuggee)

    @staticmethod
    def _is_infrastructure(ue: UEId) -> bool:
        for thread in threading.enumerate():
            if thread.ident == ue.tid:
                return thread.name.startswith("dionea-")
        return False

    def report(self) -> dict:
        """Wire-ready report for the ``deadlock_report`` command."""
        cycles_out = []
        for chain in self.graph.find_cycles():
            locations = {}
            for edge in self.graph.waits():
                if str(edge.ue) in chain:
                    locations[str(edge.ue)] = self._located(edge)
            cycles_out.append({"nodes": chain, "locations": locations})

        orphans = self.graph.orphaned_waits(self.live_ues())
        orphans_out = [{"ue": str(e.ue), "resource": e.resource,
                        "location": self._located(e)} for e in orphans]
        if cycles_out or orphans_out:
            debug_event("deadlock",
                        f"report: {len(cycles_out)} cycles, "
                        f"{len(orphans_out)} orphaned waits")
        return {
            "available": True,
            "cycles": cycles_out,
            "orphaned_waits": orphans_out,
            "all_blocked": self.all_blocked(),
            "waiting": [{"ue": str(e.ue), "resource": e.resource,
                         "location": self._located(e)}
                        for e in self.graph.waits()],
        }

    def reset_after_fork(self) -> None:
        """Child fork handler: inherited waits/holds describe parent
        threads that no longer exist."""
        self.graph.reset_after_fork()

"""Per-UE suspend/resume gates — the "low-intrusive" mechanism.

Footnote 1 of the paper defines low intrusion as *"the capability of
debugging a single thread while other threads continue executing freely"*.
Concretely: when a UE stops (breakpoint, step, suspend), **only that
thread** blocks; it parks on its own :class:`ResumeGate` inside the trace
callback while every other thread keeps running.  The client may also
operate on the whole program ("suspending all the threads of a
multithreaded program", section 4) by sweeping the gates.

Stop/resume is inherently racy: the server tells the client "UE stopped"
*before* the UE finishes parking, and a fast client may answer
immediately.  The gate therefore has two steps — :meth:`ResumeGate.arm`
(makes the stop visible and opens the release window) and
:meth:`ResumeGate.await_release` (actually blocks) — so a release that
arrives between them is never lost.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..util import locks
from ..util.errors import TraceError
from ..util.ids import UEId


@dataclass
class ResumeCommand:
    """What the parked UE should do once released."""

    action: str = "continue"  # continue | step | next | return | until
    until_line: Optional[int] = None


class ResumeGate:
    """One thread's parking spot.

    The traced thread calls ``arm`` then ``await_release``; the listener
    thread calls ``release`` on behalf of the client at any point after
    ``arm``.  A gate is single-occupancy: one stop at a time.
    """

    def __init__(self, ue: UEId):
        self.ue = ue
        self._event = threading.Event()
        self._command: Optional[ResumeCommand] = None
        self._armed = threading.Event()
        self._lock = locks.Lock()

    @property
    def is_parked(self) -> bool:
        """True between ``arm`` and the return of ``await_release``."""
        return self._armed.is_set()

    def arm(self) -> None:
        """Open the release window.  Called by the stopping UE *before*
        the stop is announced to the client."""
        with self._lock:
            if self._armed.is_set():
                raise TraceError(f"{self.ue} is already parked")
            self._event.clear()
            self._command = None
            self._armed.set()

    def await_release(self, timeout: Optional[float] = None) -> ResumeCommand:
        """Block the calling UE until the client releases it.

        *timeout* is defence in depth: a vanished client must not wedge
        the debuggee forever, so on timeout the UE resumes with a plain
        continue.
        """
        if not self._armed.is_set():
            raise TraceError(f"{self.ue} parked without arming the gate")
        try:
            released = self._event.wait(timeout)
        finally:
            self._armed.clear()
        if not released:
            return ResumeCommand(action="continue")
        with self._lock:
            command = self._command or ResumeCommand()
            self._command = None
            return command

    def park(self, timeout: Optional[float] = None) -> ResumeCommand:
        """arm + await_release in one step (tests, simple callers)."""
        self.arm()
        return self.await_release(timeout)

    def release(self, command: Optional[ResumeCommand] = None) -> None:
        """Release the parked UE.  Legal any time the gate is armed."""
        with self._lock:
            if not self._armed.is_set():
                raise TraceError(f"{self.ue} is not parked")
            self._command = command or ResumeCommand()
            self._event.set()

    def wait_parked(self, timeout: float = 5.0) -> bool:
        """Block until the UE arms its gate (client-side synchronisation)."""
        return self._armed.wait(timeout)


class UEController:
    """Registry of gates plus pending-suspend flags for all UEs in-process."""

    def __init__(self) -> None:
        self._lock = locks.RLock()
        self._gates: Dict[UEId, ResumeGate] = {}
        self._pending_suspend: set = set()
        self._suspend_all = False
        #: UEs already parked once by the current suspend-all sweep; a
        #: released UE must run free, not re-park on its next event.
        self._suspended_once: set = set()
        #: observers notified on park/release (the debug server hooks here
        #: to emit "stopped"/"resumed" events toward the client).
        self.on_parked: Optional[Callable[[UEId], None]] = None

    def gate_for(self, ue: UEId) -> ResumeGate:
        with self._lock:
            gate = self._gates.get(ue)
            if gate is None:
                gate = ResumeGate(ue)
                self._gates[ue] = gate
            return gate

    def known_ues(self) -> List[UEId]:
        with self._lock:
            return sorted(self._gates)

    def parked_ues(self) -> List[UEId]:
        with self._lock:
            return sorted(ue for ue, gate in self._gates.items()
                          if gate.is_parked)

    # -- asynchronous suspend ----------------------------------------------------

    def request_suspend(self, ue: UEId) -> None:
        """Ask a *running* UE to stop at its next trace event."""
        with self._lock:
            self._pending_suspend.add(ue)

    def request_suspend_all(self) -> None:
        """Whole-program pause (section 4's non-low-intrusive mode).

        The sticky flag catches every UE — known ones at their next
        event, and threads whose first event is yet to come — exactly
        once each (see :meth:`consume_suspend`).
        """
        with self._lock:
            self._suspend_all = True
            self._suspended_once.clear()

    def clear_suspend_all(self) -> None:
        with self._lock:
            self._suspend_all = False
            self._pending_suspend.clear()
            self._suspended_once.clear()

    @property
    def has_pending(self) -> bool:
        """Lock-free probe for the trace-callback fast path (see
        BreakpointStore.is_empty for the atomicity argument)."""
        return bool(self._pending_suspend) or self._suspend_all

    def suspend_due(self, ue: UEId) -> bool:
        """Lock-free probe: would :meth:`consume_suspend` park *ue* now?"""
        return (ue in self._pending_suspend
                or (self._suspend_all and ue not in self._suspended_once))

    def consume_suspend(self, ue: UEId) -> bool:
        """Trace-callback hot path: should *ue* park now?

        Under suspend-all each UE parks exactly once per sweep — the
        sticky flag exists to catch UEs whose first event comes later,
        not to re-park UEs the client already released.
        """
        with self._lock:
            if ue in self._pending_suspend:
                self._pending_suspend.discard(ue)
                return True
            if self._suspend_all and ue not in self._suspended_once:
                self._suspended_once.add(ue)
                return True
            return False

    # -- release paths -------------------------------------------------------------

    def release(self, ue: UEId,
                command: Optional[ResumeCommand] = None) -> None:
        self.gate_for(ue).release(command)

    def release_all(self, command: Optional[ResumeCommand] = None) -> int:
        """Force-release every parked UE (client vanished, or detach)."""
        released = 0
        with self._lock:
            gates = list(self._gates.values())
            self._suspend_all = False
            self._pending_suspend.clear()
            self._suspended_once.clear()
        for gate in gates:
            if gate.is_parked:
                try:
                    gate.release(command or ResumeCommand(action="continue"))
                    released += 1
                except TraceError:
                    pass  # unparked concurrently: nothing to release
        return released

    def reset_after_fork(self, surviving: UEId) -> None:
        """Child fork handler: drop gates of threads that no longer exist.

        Only the forking thread survives in the child (paper section 5.1);
        its gate — if any — is rebuilt fresh because a parked parent gate
        has a waiter that is gone.
        """
        self._gates = {surviving: ResumeGate(surviving)}
        self._pending_suspend = set()
        self._suspend_all = False
        self._suspended_once = set()

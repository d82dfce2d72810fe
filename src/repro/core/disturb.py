"""Disturb mode (paper section 6.4).

*"setting disturb mode in Dionea ... will cause to stop the execution of
every newly created process or thread; and then interleaving the
execution of the threads using Dionea's low intrusiveness"* — this is how
the parallel-gem pipe bug became deterministically reproducible.

The trace engine consults :attr:`DisturbMode.enabled` as a raw flag on
its hot path and only calls :meth:`check` while the mode is on; the mode
itself tracks which UEs it has already seen, so "newly created" means
*born after the most recent enable*: enabling snapshots every UE alive
at that moment as exempt.
"""

from __future__ import annotations

import os
from typing import List, Optional, Set

from ..obs.spans import debug_event
from ..tracing.frames import current_frames
from ..util import locks
from ..util.ids import UEId


class DisturbMode:
    """Stop-every-new-UE switch, togglable at runtime by the client."""

    def __init__(self, enabled: bool = False,
                 stop_new_threads: bool = True,
                 stop_new_processes: bool = True):
        self._lock = locks.Lock()
        #: read lock-free by the trace engine's fast path
        self.enabled = False
        self.stop_new_threads = stop_new_threads
        self.stop_new_processes = stop_new_processes
        self._disturbed: List[UEId] = []
        self._seen: Set[UEId] = set()
        #: The program's original main thread; disturbing it would stop
        #: the program before it creates anything, so it is exempt.
        self._primary: Optional[UEId] = None
        #: invoked after every toggle (the trace engine hooks this to
        #: recompute its fast-path quiet flag).
        self.on_change = None
        if enabled:
            self.set_enabled(True)

    def mark_primary(self, ue: UEId) -> None:
        """Exempt *ue* (the original main thread) from disturbance."""
        with self._lock:
            self._primary = ue
            self._seen.add(ue)

    def set_enabled(self, enabled: bool) -> None:
        with self._lock:
            if enabled and not self.enabled:
                # "newly created" is relative to this moment: every UE
                # alive right now is exempt.
                pid = os.getpid()
                for tid in current_frames():
                    self._seen.add(UEId(pid, tid))
            self.enabled = enabled
        if self.on_change is not None:
            self.on_change()
        debug_event("disturb", f"disturb mode {'on' if enabled else 'off'}")

    def disturbed_ues(self) -> List[UEId]:
        with self._lock:
            return list(self._disturbed)

    def check(self, ue: UEId, frame) -> Optional[str]:
        """Engine hook (only called while enabled): park this UE?

        Returns the stop reason for a first-ever-seen UE, else None.  A
        UE in a different process than the primary is a freshly forked
        child (a new *process*); same pid means a new *thread*.
        """
        with self._lock:
            if ue in self._seen:
                return None
            self._seen.add(ue)
            if self._primary is None:
                self._primary = ue
                return None
            if not self.enabled or ue == self._primary:
                return None
            is_new_process = ue.pid != self._primary.pid
            if is_new_process and not self.stop_new_processes:
                return None
            if not is_new_process and not self.stop_new_threads:
                return None
            self._disturbed.append(ue)
        debug_event("disturb", f"disturbing {ue}")
        return "disturb"

    def reset_after_fork(self) -> None:
        """Child fork handler.

        The primary and seen set are deliberately KEPT: the paper's
        disturb mode stops *"every newly created process or thread"*,
        and the freshly forked child's surviving thread is exactly such
        a new UE — its pid differs from the (inherited) primary's, so
        its first traced event parks it until the client, which
        auto-attached through the port file, chooses to release it.
        Only the disturbed-UE list (parent bookkeeping) is cleared.
        """
        self._disturbed = []

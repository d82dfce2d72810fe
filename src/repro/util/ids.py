"""Identifier helpers for sessions, views and units of execution.

The paper (section 2) uses *UE* (unit of execution) as the generic term for
a process or a thread.  Dionea needs stable, comparable identifiers for

* debuggee *processes* (one debug server each, one session each), and
* debuggee *threads* within a process (one debug view each).

A :class:`UEId` therefore couples a PID with a thread id.  Thread ids are
only meaningful inside their own process, so equality always compares the
pair.  Session and view ids are small monotonic tokens generated per
client.
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass

from . import locks


@dataclass(frozen=True, order=True)
class UEId:
    """Identity of a unit of execution: a (process, thread) pair."""

    pid: int
    tid: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"ue:{self.pid}.{self.tid}"

    @property
    def is_process_main(self) -> bool:
        """True when this UE denotes the process itself (tid == 0 sentinel)."""
        return self.tid == 0

    @classmethod
    def current(cls) -> "UEId":
        """The UE of the calling thread."""
        return cls(os.getpid(), threading.get_ident())

    @classmethod
    def process(cls, pid: int | None = None) -> "UEId":
        """A UE denoting a whole process (used for process-level commands)."""
        return cls(os.getpid() if pid is None else pid, 0)


class IdAllocator:
    """Thread-safe monotonic id allocator with a textual prefix.

    Used by the client for session ids (``s1, s2, ...``) and view ids
    (``v1, v2, ...``); ids are unique within one client.
    """

    def __init__(self, prefix: str):
        self._prefix = prefix
        self._counter = itertools.count(1)
        self._lock = locks.Lock()

    def next(self) -> str:
        with self._lock:
            return f"{self._prefix}{next(self._counter)}"


def untrace_current_thread() -> None:
    """Opt the calling thread out of interpreter tracing.

    Debugger infrastructure threads (reactor loop, dispatcher, watchdog,
    sampling profiler) are not debuggee UEs: they must never
    park at a breakpoint or a suspend-all sweep, and tracing them would
    only add overhead.  Their frames inside *our* packages are already
    skipped by the engine, but the stdlib frames they call into
    (threading, queue, selectors) are not — so each such thread clears
    its own trace function as its first action.
    """
    import sys
    sys.settrace(None)


def describe_ue(ue: UEId, main_thread_ident: int | None = None) -> str:
    """Human-readable UE label, matching the process/thread tree of Fig. 2."""
    if ue.is_process_main:
        return f"process {ue.pid}"
    if main_thread_ident is not None and ue.tid == main_thread_ident:
        return f"process {ue.pid} / main thread"
    return f"process {ue.pid} / thread {ue.tid}"

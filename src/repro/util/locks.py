"""Fork-safe locks: every lock of the debugger's packages comes from here.

After ``fork(2)`` only the forking thread exists in the child (§5.1), so
a lock another parent thread held is copied held for good.  :func:`Lock`
and :func:`RLock` keep each lock in one weak set, and phase C's first
step (§5.4: "initialize the synchronization objects") unlocks them all
in place with :func:`reinit_after_fork`, as ``logging`` does for its
handlers.  Only a fresh child may call it: in a live process it would
break mutual exclusion for the other threads.  Invariant: the forking
thread holds no lock of this module across ``fork(2)`` (the bracket and
phases A and B release every lock they take), or its later ``release()``
would raise ``RuntimeError``.  The debuggee's locks (``repro.mp``,
``repro.stm``) go through §5.3's ownership sweep instead.
"""

from __future__ import annotations

import threading
import weakref

_LOCKS: "weakref.WeakSet" = weakref.WeakSet()


def Lock() -> threading.Lock:
    lock = threading.Lock()
    _LOCKS.add(lock)
    return lock


def RLock() -> threading.RLock:
    lock = threading.RLock()
    _LOCKS.add(lock)
    return lock


def reinit_after_fork() -> None:
    """Phase C only: unlock every live lock of this module in place."""
    for lock in list(_LOCKS):
        lock._at_fork_reinit()

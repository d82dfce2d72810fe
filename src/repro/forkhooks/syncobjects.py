"""Synchronization-object registry and the pre-fork ownership sweep.

Paper section 5.3, problem 1: *"Dionea takes ownership of the debuggee's
synchronization objects, e.g. mutex.lock before forking the process.
Taking ownership ... ensures that the thread that survives in the child
owns the synchronization objects, therefore this thread can later release
the synchronization objects, eliminating the possibility of deadlocks."*

Background: after ``fork`` only the forking thread exists in the child
(section 5.1).  Any mutex another thread held at the instant of fork is
copied into the child in the *locked* state with no owner left alive —
the first child thread that touches it deadlocks forever.  The classic
fix, encoded here, is:

* every debugger-visible sync object registers itself at construction;
* the **prepare** fork handler acquires all of them (in a single global
  order, so two concurrent forks cannot deadlock against each other);
* the **parent** handler releases them all;
* the **child** handler *reinitialises* them (fresh, unlocked state) —
  matching what MRI/YARV fork handlers do for the interpreter's own locks
  (paper Listings 1 and 2).

Objects register through weak references: the registry must never keep a
debuggee's lock alive, and a collected lock silently drops out of the
sweep.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Callable, Dict, List, Optional

from ..obs.spans import debug_event
from ..util import locks
from ..util.errors import SyncObjectError


class ManagedSyncObject:
    """Adapter the registry holds for one debuggee sync object.

    ``acquire``/``release`` bracket the fork; ``reinit`` rebuilds the
    object in the child.  Acquire honours *timeout* so a wedged debuggee
    lock turns into a diagnosable :class:`SyncObjectError` instead of
    hanging the fork forever.
    """

    def __init__(self, name: str,
                 acquire: Callable[[float], bool],
                 release: Callable[[], None],
                 reinit: Callable[[], None]):
        self.name = name
        self._acquire = acquire
        self._release = release
        self._reinit = reinit

    def acquire(self, timeout: float) -> bool:
        return self._acquire(timeout)

    def release(self) -> None:
        self._release()

    def reinit(self) -> None:
        self._reinit()


class SyncObjectRegistry:
    """Weak registry of managed sync objects plus the fork-time sweep."""

    def __init__(self, acquire_timeout: float = 5.0):
        self._lock = locks.RLock()
        #: token -> (alive_check, managed).  alive_check is a weakref to
        #: the owner (the entry drops when the owner is collected), or
        #: None for an owner that takes no weak references: the caller
        #: must unregister that entry explicitly.
        self._entries: Dict[int, tuple] = {}
        self._counter = itertools.count()
        self._held: List[ManagedSyncObject] = []
        self.acquire_timeout = acquire_timeout

    # -- registration --------------------------------------------------------

    def register(self, owner: object, managed: ManagedSyncObject) -> int:
        """Track *managed*, keyed by (and weakly bound to) *owner*.

        Returns the registration token (also the global lock-order rank).
        """
        with self._lock:
            token = next(self._counter)

            def _cleanup(_ref, token=token):
                with self._lock:
                    self._entries.pop(token, None)

            try:
                alive = weakref.ref(owner, _cleanup)
            except TypeError:
                alive = None  # owner not weak-referenceable: strong entry
            self._entries[token] = (alive, managed)
            return token

    def unregister(self, token: int) -> None:
        with self._lock:
            self._entries.pop(token, None)

    def live_objects(self) -> List[ManagedSyncObject]:
        """Currently-alive managed objects in global acquisition order."""
        with self._lock:
            live = []
            for token in sorted(self._entries):
                alive, managed = self._entries[token]
                if alive is None or alive() is not None:
                    live.append(managed)
            return live

    def __len__(self) -> int:
        with self._lock:
            return sum(1 for alive, _ in self._entries.values()
                       if alive is None or alive() is not None)

    # -- fork-time sweep ------------------------------------------------------

    def take_ownership(self) -> int:
        """Prepare phase: acquire every live object in global order.

        On any failure, everything acquired so far is released and the
        error propagates — the registry must leave the process exactly as
        it found it, since the bracket contains the failure and the fork
        proceeds without the sweep.
        """
        with self._lock:
            if self._held:
                raise SyncObjectError(
                    "take_ownership while a previous sweep is still held")
        acquired: List[ManagedSyncObject] = []
        for managed in self.live_objects():
            try:
                got = managed.acquire(self.acquire_timeout)
            except BaseException as exc:
                self._release_list(acquired)
                raise SyncObjectError(
                    f"acquiring {managed.name!r} raised {exc!r}") from exc
            if not got:
                self._release_list(acquired)
                raise SyncObjectError(
                    f"could not acquire {managed.name!r} within "
                    f"{self.acquire_timeout:.1f}s before fork")
            acquired.append(managed)
        with self._lock:
            self._held = acquired
        debug_event("syncobjects", f"took ownership of {len(acquired)} objects")
        return len(acquired)

    @staticmethod
    def _release_list(objects: List[ManagedSyncObject]) -> None:
        for managed in reversed(objects):
            try:
                managed.release()
            except BaseException:  # noqa: BLE001 - keep releasing the rest
                debug_event("syncobjects",
                            f"release of {managed.name!r} failed during unwind")

    def release_ownership(self) -> int:
        """Parent phase: release everything the sweep acquired."""
        with self._lock:
            held, self._held = self._held, []
        self._release_list(held)
        return len(held)

    def reinit_after_fork(self) -> int:
        """Child phase: rebuild every live object in a fresh unlocked state."""
        self._held = []
        count = 0
        for managed in self.live_objects():
            try:
                managed.reinit()
                count += 1
            except BaseException:  # noqa: BLE001
                debug_event("syncobjects",
                            f"reinit of {managed.name!r} failed in child")
        return count

    @property
    def holding(self) -> bool:
        with self._lock:
            return bool(self._held)


# -- adapters for the common stdlib primitives -------------------------------

def manage_lock(registry: SyncObjectRegistry, lock: threading.Lock,
                name: str = "lock", owner: object = None) -> int:
    """Register a ``threading.Lock``-like object (Lock, RLock, Semaphore).

    ``reinit`` force-releases the lock if the sweep left it held — in a
    real child the new lock state comes from the object's own owner
    (repro.mp primitives reinitialise their OS-level state instead).

    Pass *owner* (an object whose lifetime matches the lock's) to have
    the entry drop when it is collected.  Without one the entry is bound
    to the lock, which the entry's own callbacks keep alive, so it lives
    until :meth:`SyncObjectRegistry.unregister`.
    """
    def _acquire(timeout: float) -> bool:
        return lock.acquire(timeout=timeout)

    def _release() -> None:
        try:
            lock.release()
        except RuntimeError:
            pass  # already free: releasing twice must stay harmless

    return registry.register(owner if owner is not None else lock,
                             ManagedSyncObject(
                                 name=name, acquire=_acquire,
                                 release=_release, reinit=_release))

"""Augmented fork functions: hooking the registry into ``os.fork``.

Paper Listing 4 shows Dionea's Python technique verbatim::

    __python_fork = os.fork
    os.fork = _dionea_fork

i.e. a *method alias*: the original fork is saved and a wrapper installed
that brackets it with the prepare/parent/child handlers (phases A/B/C of
section 5.4).  We reproduce that mechanism as :class:`ForkPatcher`; it is
the only interception point.  The wrapper runs the one bracket,
:func:`~repro.forkhooks.registry.run_around_fork`, and hands the parent
the child's pid, which an interpreter-level at-fork hook never sees.

Only one patcher may be installed at a time, otherwise every handler
would run twice around one fork.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Optional

from ..obs import metrics as obs_metrics
from ..obs.spans import debug_event
from ..util import locks
from ..util.errors import ForkHookError
from . import resilience
from .registry import ForkHandlerRegistry, run_around_fork

_install_lock = locks.Lock()
_active_patcher: Optional["ForkPatcher"] = None


class ForkPatcher:
    """Owns the patched ``os.fork`` and routes it through a registry."""

    def __init__(self, registry: ForkHandlerRegistry):
        self.registry = registry
        self._original_fork: Optional[Callable[[], int]] = None
        self._wrapper: Optional[Callable[[], int]] = None
        self._installed = False
        #: reentrancy guard: a fork handler that itself calls os.fork
        #: would recurse into the bracket and deadlock on the locks the
        #: outer prepare already holds — the inner call gets a bare fork.
        self._reentry = threading.local()
        #: Called in the parent with the child's pid after a successful
        #: fork (paper Listing 4 appends the pid to ``_processes``).
        self.on_child_forked: Optional[Callable[[int], None]] = None

    # -- lifecycle ------------------------------------------------------------

    @property
    def installed(self) -> bool:
        return self._installed

    def install(self) -> None:
        global _active_patcher
        with _install_lock:
            if self._installed:
                raise ForkHookError("patcher already installed")
            if self._original_fork is not None:
                raise ForkHookError(
                    "patcher is still wrapped by a foreign os.fork")
            if _active_patcher is not None:
                raise ForkHookError(
                    "another fork patcher is active; uninstall it first")
            self._original_fork = os.fork
            self._installed = True
            _active_patcher = self
            # Bind the wrapper once: attribute access on a method
            # creates a fresh bound object every time, and uninstall
            # must compare identities.
            self._wrapper = self._augmented_fork
            os.fork = self._wrapper  # type: ignore[assignment]
            debug_event("forkhooks", "fork patcher installed")

    def uninstall(self) -> None:
        """Restore ``os.fork`` and free the one-patcher slot.

        If someone re-patched ``os.fork`` over us, their wrapper still
        calls ours: restoring would clobber theirs.  The chain is then
        left alone, our wrapper becomes a bare pass-through, the slot is
        freed all the same, and :class:`ForkHookError` tells the caller
        that ``os.fork`` was not restored.
        """
        global _active_patcher
        with _install_lock:
            if self._original_fork is None:
                return
            if os.fork is self._wrapper:
                os.fork = self._original_fork  # type: ignore[assignment]
                self._original_fork = None
            self._installed = False
            if _active_patcher is self:
                _active_patcher = None
            debug_event("forkhooks", "fork patcher uninstalled")
            if self._original_fork is not None:
                raise ForkHookError(
                    "os.fork was re-patched by someone else; left in "
                    "place, this alias now passes straight through")

    def __enter__(self) -> "ForkPatcher":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- the alias ---------------------------------------------------------------

    def _augmented_fork(self) -> int:
        """The Dionea fork of Listing 4: A, fork, then B or C."""
        if not self._installed:
            # Uninstalled while a foreign wrapper still calls us.
            return self._original_fork()
        if getattr(self._reentry, "depth", 0) \
                or resilience.in_handler_context():
            # fork() called from inside a fork handler (directly, or by
            # code a handler invoked).  Re-entering the bracket would
            # re-run prepare while its locks are already held — certain
            # deadlock.  The ability to fork is the debuggee's, not
            # ours: hand out a bare fork and log the misbehaviour.
            obs_metrics.inc("fork.reentrant")
            debug_event("forkhooks",
                        "fork called from a fork handler; "
                        "bypassing bracket (bare fork)")
            return self._original_fork()
        self._reentry.depth = 1
        try:
            pid, is_child = run_around_fork(self.registry,
                                            self._original_fork)
            if not is_child and self.on_child_forked is not None:
                try:
                    self.on_child_forked(pid)
                except Exception:  # noqa: BLE001 - bookkeeping must not break fork
                    debug_event("forkhooks",
                                "on_child_forked callback failed")
            return pid
        finally:
            self._reentry.depth = 0

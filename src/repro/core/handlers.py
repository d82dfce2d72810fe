"""Dionea's fork handlers — phases A, B and C of paper section 5.4.

::

    A  Prepare fork.        Acquire control over synchronization objects.
                            Disable the tracing until the listener thread
                            is restarted, to avoid a deadlock in the child
                            process (therefore it is not possible to step
                            inside of the augmented fork).

    B  Handle parent.       Immediately after the fork, release control of
                            synchronization objects, and re-enable tracing.

    C  Handle child.        Initialize the synchronization objects, close
                            the inherited sockets, initialize the data
                            structures, create a listener thread, register
                            the thread that called fork as the main thread,
                            inform the client about the creation of a new
                            debuggee, and finally re-enable the tracing
                            that was disabled in A.

The three phases are one trusted :class:`~repro.forkhooks.registry.
HandlerSet`, Dionea's only registration, so their order relative to any
other registered handlers follows POSIX ``pthread_atfork`` discipline
(section 5.2: other fork handlers run along with ours).  Phase C is the
one child-side reset path: every step runs in the order written here.
Its first step unlocks every debugger lock in place
(:func:`repro.util.locks.reinit_after_fork`), so no later step can wait
on a lock a vanished parent thread held, and none replaces one.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from .. import obs
from ..forkhooks.registry import ForkHandlerRegistry, HandlerSet
from ..forkhooks.syncobjects import SyncObjectRegistry
from ..obs.spans import debug_event
from ..server.debugserver import DebugServer
from ..tracing.engine import TraceEngine
from ..util import locks

if TYPE_CHECKING:  # pragma: no cover
    from .deadlock import DeadlockDetector
    from .disturb import DisturbMode

DIONEA_HANDLER_LABEL = "dionea"


def install_dionea_handlers(
        registry: ForkHandlerRegistry,
        server: DebugServer,
        sync_registry: SyncObjectRegistry,
        disturb: Optional["DisturbMode"] = None,
        deadlock: Optional["DeadlockDetector"] = None) -> HandlerSet:
    """Register phases A/B/C on *registry*; returns the handler set."""

    engine: TraceEngine = server.engine

    def prepare_fork() -> None:
        # A — take ownership of the debuggee's sync objects so the one
        # thread that survives in the child owns (and can release) them
        # all, "eliminating the possibility of deadlocks" (§5.3 item 1).
        sync_registry.take_ownership()
        # A — disable tracing across the fork: a trace stop between fork
        # and the child's new listener thread would park a UE that no one
        # could ever release.  disable() makes every dispatch return at
        # its first flag check for the fork window.
        engine.disable()
        debug_event("handlers", "phase A complete (locks held, trace off)")

    def handle_parent_at_fork() -> None:
        # B — mirror image of A, in the parent.
        engine.enable()
        sync_registry.release_ownership()
        debug_event("handlers", "phase B complete (parent resumed)")

    def handle_child_at_fork() -> None:
        # C — "initialize the synchronization objects": every debugger
        # lock a parent thread held at the fork is unlocked in place.
        locks.reinit_after_fork()
        # Telemetry next: the child inherits the parent's metric
        # shards and event ring, which describe threads that do not
        # exist here and a pid that is not ours (the telemetry flavour
        # of Fig. 4's stale metadata).  Resetting them before anything
        # else records lands every later phase-C timing in the child's
        # fresh registry.  Called through the module attribute.  If it
        # fails, the child still re-establishes itself before the
        # registry degrades it, so the degrade detaches the child's own
        # server rather than only dropping the inherited one.
        try:
            obs.reset_after_fork(labels={"program": server.session.program})
        finally:
            reestablish_child()

    def reestablish_child() -> None:
        # C, in paper order:
        # "Initialize the synchronization objects,"
        sync_registry.reinit_after_fork()
        # "close the inherited sockets, initialize the data structures,
        #  create a listener thread, ... inform the client":
        if deadlock is not None:
            deadlock.reset_after_fork()
        if disturb is not None:
            disturb.reset_after_fork()
        # "register the thread that called fork as the main thread":
        # reset_after_fork() drops inherited per-thread state AND the
        # LineTable verdicts, then re-installs the trace hooks — the
        # forker becomes the main thread the re-arm signal targets.
        engine.reset_after_fork()
        server.reinit_after_fork()
        # "finally re-enable the tracing that was disabled in A."
        engine.enable()
        debug_event("handlers", "phase C complete (child re-established)")

    # trusted=True: Dionea's phases run inline on the forking thread
    # (they own thread-affine state — RLocks, trace hooks) and are never
    # sandboxed or quarantined; their failures degrade the child instead.
    return registry.register(
        DIONEA_HANDLER_LABEL,
        prepare=prepare_fork,
        parent=handle_parent_at_fork,
        child=handle_child_at_fork,
        trusted=True,
    )


def uninstall_dionea_handlers(registry: ForkHandlerRegistry) -> None:
    registry.unregister(DIONEA_HANDLER_LABEL)

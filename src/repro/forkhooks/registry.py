"""Ordered fork-handler registry.

Paper section 5.2: *"Fork handlers are functions hooked to the fork
function"*; section 5.4 splits Dionea's handlers into three phases that
mirror POSIX ``pthread_atfork``:

* **prepare** — runs in the parent *before* the fork (Dionea phase A:
  acquire sync objects, disable tracing);
* **parent**  — runs in the parent *after* the fork (phase B: release sync
  objects, re-enable tracing);
* **child**   — runs in the child *after* the fork (phase C: reinitialise
  sync objects, close inherited sockets, rebuild metadata, restart the
  listener thread, announce to the client, re-enable tracing).

Ordering follows POSIX: *prepare* handlers run in **reverse** registration
order (last registered, first run), *parent* and *child* handlers run in
registration order.  That discipline is what lets independently written
handlers nest lock acquisitions correctly — section 5.2 notes that "other
hooked fork handlers will be called along with our fork handlers", so the
registry must compose with handlers it does not own.

Every registry runs under a :class:`~repro.forkhooks.resilience.
ResiliencePolicy` (the default one unless the caller passes its own),
and one prepare-failure contract, *do-no-harm*: whatever handler fails,
only that handler's own *parent* callback runs as its undo, its set is
skipped for the rest of the bracket and, if untrusted, benched; every
other set stays prepared, :meth:`ForkHandlerRegistry.run_prepare`
returns and the fork **proceeds**.  Untrusted handlers run under
per-phase deadlines on a sacrificial thread; a failure in a *trusted*
set (Dionea's own phases) flags the bracket so the child detaches the
debugger cleanly instead of running half-debugged.  Failing parent and
child handlers are recorded and the rest still run — half-configured
debugging must not kill the debuggee.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from time import perf_counter as _perf_counter
from typing import Callable, List, Optional, Tuple

from ..obs import causality
from ..obs import metrics as obs_metrics
from ..obs.blackbox import BLACKBOX
from ..obs.spans import SPANS, debug_event
from ..testkit import faults
from ..util import locks
from ..util.errors import ForkHookError
from .resilience import Quarantine, ResiliencePolicy, run_with_deadline

Handler = Callable[[], None]


def _timed(phase: str, label: str, handler: Handler) -> None:
    """Run one phase callback, recording its duration per hook.

    Fork-handler latency is a first-class §7 quantity: every phase runs
    with the debuggee wholly or partly stopped (prepare holds every sync
    object), so a slow hook is invisible intrusion.  The histogram is
    per (phase, label) so a misbehaving registration is attributable.
    """
    t0 = _perf_counter()
    try:
        handler()
    finally:
        obs_metrics.observe(f"fork.{phase}_seconds",
                            _perf_counter() - t0, label=label)


@dataclass(frozen=True)
class HandlerSet:
    """One registration: up to three phase callbacks plus a label.

    ``trusted`` marks a set whose callbacks manipulate thread-affine
    state (RLock ownership, trace hooks) and therefore must run inline
    on the forking thread — never on the resilience sandbox thread, and
    never quarantined (a trusted failure degrades the child instead).
    Dionea's own phases A/B/C register trusted; everything else defaults
    to untrusted.
    """

    label: str
    prepare: Optional[Handler] = None
    parent: Optional[Handler] = None
    child: Optional[Handler] = None
    trusted: bool = False

    def __post_init__(self):
        if self.prepare is None and self.parent is None and self.child is None:
            raise ForkHookError(
                f"handler set {self.label!r} registers no callbacks")


@dataclass
class HandlerFailure:
    """A phase callback that raised; kept for post-mortem inspection."""

    label: str
    phase: str
    exception: BaseException


class ForkHandlerRegistry:
    """Ordered registry of :class:`HandlerSet` objects.

    Applies *policy* (default :class:`ResiliencePolicy`) with the
    do-no-harm contract of the module docstring; ``on_child_degrade`` is
    called in the child when a trusted phase failed and the debugger
    must detach rather than run half-configured.

    The lock serialises registration only.  Every read is one list
    copy, atomic under the GIL, so the phases never wait on it — in the
    child it may have been copied held by a parent thread mid-register.
    """

    def __init__(self, policy: Optional[ResiliencePolicy] = None) -> None:
        self._lock = locks.RLock()
        self._handlers: List[HandlerSet] = []
        self._failures: List[HandlerFailure] = []
        self.policy = policy or ResiliencePolicy()
        self.quarantine = Quarantine(self.policy)
        #: child-side degrade hook (set by the Dionea facade)
        self.on_child_degrade: Optional[Callable[[str], None]] = None
        #: per-bracket state (skip set, degrade reason) — thread-local
        #: because the whole prepare→fork→parent/child bracket runs on
        #: the one thread that called fork()
        self._bracket = threading.local()

    # -- registration -------------------------------------------------------

    def register(self, label: str, prepare: Optional[Handler] = None,
                 parent: Optional[Handler] = None,
                 child: Optional[Handler] = None,
                 trusted: bool = False) -> HandlerSet:
        handler_set = HandlerSet(label=label, prepare=prepare,
                                 parent=parent, child=child,
                                 trusted=trusted)
        with self._lock:
            if any(existing.label == label for existing in self._handlers):
                raise ForkHookError(f"duplicate handler label: {label!r}")
            self._handlers.append(handler_set)
        return handler_set

    def unregister(self, label: str) -> None:
        with self._lock:
            for i, handler_set in enumerate(self._handlers):
                if handler_set.label == label:
                    del self._handlers[i]
                    return
        raise ForkHookError(f"unknown handler label: {label!r}")

    def clear(self) -> None:
        with self._lock:
            self._handlers.clear()
            self._failures.clear()

    @property
    def labels(self) -> List[str]:
        return [h.label for h in self._snapshot()]

    @property
    def failures(self) -> List[HandlerFailure]:
        return list(self._failures)

    def clear_failures(self) -> None:
        self._failures.clear()

    # -- phase execution -----------------------------------------------------

    def _snapshot(self) -> List[HandlerSet]:
        return list(self._handlers)

    # -- bracket-local state ---------------------------------------------------

    def _bracket_skips(self) -> set:
        skips = getattr(self._bracket, "skips", None)
        return skips if skips is not None else set()

    def _set_degrade(self, reason: str) -> None:
        if getattr(self._bracket, "degrade", None) is None:
            self._bracket.degrade = reason

    def _clear_bracket(self) -> None:
        self._bracket.skips = None
        self._bracket.degrade = None

    def note_clean_fork(self) -> None:
        """Parent side, after a completed fork: advance quarantine parole."""
        self.quarantine.note_clean_fork()

    def _run_phase_callback(self, phase: str, handler_set: HandlerSet,
                            callback: Handler) -> None:
        """One phase callback, timed; untrusted ones under the deadline."""
        if handler_set.trusted:
            _timed(phase, handler_set.label, callback)
        else:
            deadline = self.policy.prepare_deadline
            _timed(phase, handler_set.label,
                   lambda: run_with_deadline(handler_set.label, phase,
                                             callback, deadline))

    def _undo_failed_prepare(self, handler_set: HandlerSet,
                             exc: BaseException) -> None:
        """Do-no-harm response to a failed/hung prepare: undo, bench, skip.

        The handler's own *parent* callback is its designated undo; it
        runs under the same deadline discipline so a hung undo cannot
        re-wedge the fork.  The whole set is skipped for the rest of
        this bracket (parent/child of a set whose prepare failed would
        release locks it does not hold), and untrusted sets are benched
        across brackets.  A trusted failure means Dionea itself is
        broken mid-fork: flag the bracket so the child detaches.
        """
        label = handler_set.label
        obs_metrics.inc("fork.prepare_contained", label=label)
        debug_event("forkhooks",
                    f"prepare handler {label!r} failed "
                    f"({type(exc).__name__}: {exc}); containing — "
                    f"fork proceeds")
        self._record_failure(label, "prepare", exc)
        if handler_set.parent is not None:
            try:
                self._run_phase_callback("undo", handler_set,
                                         handler_set.parent)
            except BaseException as undo_exc:  # noqa: BLE001
                self._record_failure(label, "undo", undo_exc)
        self._bracket.skips.add(label)
        if handler_set.trusted:
            self._set_degrade(
                f"trusted prepare {label!r} failed: {type(exc).__name__}")
        else:
            self.quarantine.record_failure(
                label, f"prepare failed: {type(exc).__name__}")

    def run_prepare(self) -> List[HandlerSet]:
        """Run prepare handlers (reverse order); never raises.

        Returns the handler sets that are prepared.  A set that is
        benched, or whose prepare fails or outlives its deadline, is
        left out: it is undone and skipped for the rest of the bracket
        (see :meth:`_undo_failed_prepare`), and the fork proceeds —
        the debuggee's ability to fork is never hostage to a handler.
        """
        self._bracket.skips = set()
        self._bracket.degrade = None
        prepared: List[HandlerSet] = []
        for handler_set in reversed(self._snapshot()):
            if (not handler_set.trusted
                    and self.quarantine.should_skip(handler_set.label)):
                self._bracket.skips.add(handler_set.label)
                continue
            if handler_set.prepare is not None:
                try:
                    self._run_phase_callback("prepare", handler_set,
                                             handler_set.prepare)
                except BaseException as exc:
                    self._undo_failed_prepare(handler_set, exc)
                    continue
            prepared.append(handler_set)
        return prepared

    def run_parent(self) -> None:
        """Run parent handlers in registration order; contain failures."""
        skips = self._bracket_skips()
        try:
            for handler_set in self._snapshot():
                if handler_set.parent is None \
                        or handler_set.label in skips:
                    continue
                try:
                    self._run_phase_callback("parent", handler_set,
                                             handler_set.parent)
                except BaseException as exc:  # noqa: BLE001
                    self._record_failure(handler_set.label, "parent", exc)
                    if not handler_set.trusted:
                        self.quarantine.record_failure(
                            handler_set.label,
                            f"parent failed: {type(exc).__name__}")
        finally:
            self._clear_bracket()

    def run_child(self) -> None:
        """Run child handlers in registration order; contain failures.

        A *trusted* child failure (or a degrade flag set by a trusted
        prepare failure) means the child cannot be debugged safely:
        ``on_child_degrade`` fires so the facade can detach the
        debugger — the child runs on, undebugged, output and exit
        status untouched.
        """
        skips = self._bracket_skips()
        degrade = getattr(self._bracket, "degrade", None)
        try:
            for handler_set in self._snapshot():
                if handler_set.child is None \
                        or handler_set.label in skips:
                    continue
                try:
                    self._run_phase_callback("child", handler_set,
                                             handler_set.child)
                except BaseException as exc:  # noqa: BLE001
                    self._record_failure(handler_set.label, "child", exc)
                    if handler_set.trusted and degrade is None:
                        degrade = (f"trusted child {handler_set.label!r} "
                                   f"failed: {type(exc).__name__}")
                    elif not handler_set.trusted:
                        self.quarantine.record_failure(
                            handler_set.label,
                            f"child failed: {type(exc).__name__}")
        finally:
            self._clear_bracket()
        if degrade is not None and self.on_child_degrade is not None:
            obs_metrics.inc("fork.child_degrades")
            debug_event("forkhooks", f"child degrading: {degrade}")
            try:
                self.on_child_degrade(degrade)
            except Exception:  # noqa: BLE001 - degrade must not kill child
                debug_event("forkhooks", "on_child_degrade callback failed")

    def _record_failure(self, label: str, phase: str,
                        exc: BaseException) -> None:
        debug_event("forkhooks",
                    f"{phase} handler {label!r} raised {type(exc).__name__}")
        self._failures.append(HandlerFailure(label, phase, exc))


def run_around_fork(registry: ForkHandlerRegistry,
                    fork: Callable[[], int]) -> Tuple[int, bool]:
    """Execute *fork* bracketed by the registry's three phases.

    Returns ``(pid, is_child)``.  This is the one bracket: the augmented
    ``os.fork`` (repro.forkhooks.augment) and tests both drive it.  The
    ``fork.os_fork`` injection point fires between prepare and the fork
    call, standing in for ``fork(2)`` failing (EAGAIN/ENOMEM) at the
    worst moment.
    """
    # The whole parent-side bracket (prepare → fork(2) → parent phase)
    # is one span: it is the window during which the debuggee is frozen
    # by the fork protocol.  The child's copy of the open token dies
    # with the obs fork reset, so only the parent records it.  The
    # bracket parents on the forking thread's context — or the control
    # verb that resumed this process — and its own context is *staged*
    # so the child's phase C can root the child's trace under it (the
    # fork flow edge of the causal timeline).
    bracket = SPANS.begin("fork.bracket", cat="fork",
                          parent=causality.fork_parent_context())
    causality.stage_fork(bracket.context)
    registry.run_prepare()
    try:
        faults.maybe_fault("fork.os_fork")
        pid = fork()
    except BaseException:
        # fork itself failed: the parent still holds everything prepare
        # acquired; release it as if we were the (only) surviving parent.
        causality.clear_pending_fork()
        registry.run_parent()
        obs_metrics.inc("fork.failures")
        raise
    if pid == 0:
        registry.run_child()
        return pid, True
    causality.clear_pending_fork()
    registry.run_parent()
    if bracket.args is None:
        bracket.args = {"child_pid": pid}
    else:
        bracket.args["child_pid"] = pid
    bracket.end()
    # Make the lineage durable now: if this parent is SIGKILLed later,
    # the bracket span (with its child_pid) is what lets the post-mortem
    # timeline name the subtree.  No-op unless the black box is enabled;
    # non-blocking when it is.
    BLACKBOX.flush()
    obs_metrics.inc("fork.forks")
    registry.note_clean_fork()
    return pid, False

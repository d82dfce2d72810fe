"""Do-no-harm resilience for fork handlers: deadlines and quarantine.

The paper sells a *low-intrusive* debugger, but the fork-handler bracket
is the one place the debugger stands directly in the debuggee's control
flow: a prepare handler that hangs freezes every future ``fork()``, and
a handler that raises can abort a fork the program needed.  This module
supplies the policy that keeps the bracket harmless:

* **Per-phase deadlines.**  Untrusted phase callbacks run on a
  sacrificial daemon thread and are abandoned after
  ``DIONEA_FORK_DEADLINE`` seconds — the fork proceeds; debugging of the
  new child may degrade, the debuggee's ability to fork never does.

* **Quarantine.**  A handler that times out or raises is skipped on
  subsequent forks (counted, logged) and auto-reinstated after
  ``DIONEA_FORK_REINSTATE`` clean forks — a transiently sick handler
  gets back in, a permanently sick one stays benched instead of
  re-breaking every fork.

Trusted handler sets (Dionea's own phases A/B/C) are exempt from the
sandbox: they run inline on the forking thread because they manipulate
thread-affine state (``RLock`` ownership, ``sys.settrace``) that cannot
move to another thread.  Their failures are handled one level up: a
trusted phase-C failure triggers degraded mode (the debugger detaches,
the debuggee runs on undebugged).

The sandbox is deliberately best-effort about cleanup: a handler
abandoned mid-``acquire`` may leave a lock held by a zombie thread.  The
quarantined handler's *parent* callback (the designated undo of prepare,
per POSIX practice) is run — also under a deadline — to release what can
be released.  What cannot be released belonged to the handler's own
objects, never the debuggee's: Dionea's sync-object sweep is trusted and
never sandboxed.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..obs import metrics as obs_metrics
from ..obs.spans import debug_event
from ..util import locks
from ..util.errors import ForkHookError

Handler = Callable[[], None]

#: env knob: seconds an untrusted prepare/undo callback may run
DEADLINE_ENV = "DIONEA_FORK_DEADLINE"
#: env knob: clean forks before a quarantined handler is reinstated
REINSTATE_ENV = "DIONEA_FORK_REINSTATE"

_DEFAULT_DEADLINE = 5.0
_DEFAULT_REINSTATE = 3


class PhaseTimeout(ForkHookError):
    """An untrusted phase callback outlived its deadline."""


#: set on any thread currently executing a sandboxed phase callback, so
#: the fork patcher's reentrancy guard can see through the sandbox: a
#: handler that calls fork() gets a bare fork whether it runs inline on
#: the forking thread or on a sacrificial thread here.
_handler_context = threading.local()


def in_handler_context() -> bool:
    """True on a thread that is running a sandboxed phase callback."""
    return bool(getattr(_handler_context, "active", 0))


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value > 0 else default


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs for the do-no-harm bracket.

    ``prepare_deadline`` bounds each *untrusted* phase callback (and
    undo); ``reinstate_after`` is the clean-fork count that lifts a
    quarantine.
    """

    prepare_deadline: float = _DEFAULT_DEADLINE
    reinstate_after: int = _DEFAULT_REINSTATE

    @classmethod
    def from_env(cls) -> "ResiliencePolicy":
        return cls(
            prepare_deadline=_env_float(DEADLINE_ENV, _DEFAULT_DEADLINE),
            reinstate_after=_env_int(REINSTATE_ENV, _DEFAULT_REINSTATE),
        )


@dataclass
class QuarantineEntry:
    label: str
    reason: str
    #: clean forks still required before reinstatement
    remaining: int


class Quarantine:
    """Bench for misbehaving handler sets, with automatic parole.

    Thread-safe; consulted on every fork bracket.  A benched handler is
    *skipped* (all three phases — running parent/child for a handler
    whose prepare never ran would release locks it does not hold), each
    skip counted, and after ``reinstate_after`` completed forks the
    handler is quietly put back.
    """

    def __init__(self, policy: ResiliencePolicy):
        self.policy = policy
        self._lock = locks.Lock()
        self._benched: Dict[str, QuarantineEntry] = {}

    def record_failure(self, label: str, reason: str) -> None:
        with self._lock:
            self._benched[label] = QuarantineEntry(
                label=label, reason=reason,
                remaining=self.policy.reinstate_after)
        obs_metrics.inc("fork.quarantined", label=label)
        debug_event("forkhooks",
                    f"handler {label!r} quarantined: {reason}; "
                    f"reinstating after {self.policy.reinstate_after} "
                    f"clean forks")
        # Durable evidence: a quarantine is exactly the kind of "why did
        # debugging degrade" question the black box exists to answer.
        from ..obs.blackbox import BLACKBOX, REASON_QUARANTINE
        BLACKBOX.force_flush(f"{REASON_QUARANTINE}:{label}")

    def should_skip(self, label: str) -> bool:
        with self._lock:
            benched = label in self._benched
        if benched:
            obs_metrics.inc("fork.quarantine_skips", label=label)
        return benched

    def note_clean_fork(self) -> None:
        """One fork bracket completed; advance every bench clock."""
        reinstated = []
        with self._lock:
            for label, entry in list(self._benched.items()):
                entry.remaining -= 1
                if entry.remaining <= 0:
                    del self._benched[label]
                    reinstated.append(label)
        for label in reinstated:
            obs_metrics.inc("fork.reinstated", label=label)
            debug_event("forkhooks",
                        f"handler {label!r} reinstated after clean forks")

    def benched_labels(self):
        with self._lock:
            return sorted(self._benched)

    def clear(self) -> None:
        with self._lock:
            self._benched.clear()


def run_with_deadline(label: str, phase: str, handler: Handler,
                      deadline: float) -> None:
    """Run *handler* on a sacrificial thread; abandon it past *deadline*.

    Raises :class:`PhaseTimeout` if the handler outlives its budget (the
    thread is left to finish or hang as a daemon — it can never block
    process exit), and re-raises whatever the handler itself raised.

    This is only safe for *untrusted* handlers: the callback runs on a
    different thread than the one calling ``fork()``, so thread-affine
    state (RLock ownership, thread-locals) does not carry.  Dionea's own
    handlers are trusted and never routed through here.
    """
    box: dict = {}

    def _target() -> None:
        _handler_context.active = 1
        try:
            handler()
        except BaseException as exc:  # noqa: BLE001 - reported to caller
            box["exc"] = exc
        finally:
            _handler_context.active = 0

    thread = threading.Thread(
        target=_target, name=f"dionea-sandbox-{label}-{phase}", daemon=True)
    thread.start()
    thread.join(deadline)
    if thread.is_alive():
        obs_metrics.inc("fork.phase_timeouts", label=label, phase=phase)
        raise PhaseTimeout(
            f"{phase} handler {label!r} exceeded {deadline:.1f}s deadline; "
            f"abandoned")
    exc = box.get("exc")
    if exc is not None:
        raise exc

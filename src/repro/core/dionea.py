"""The Dionea facade: everything wired together.

This is the object the paper's ``python dioneas.py program.py`` entry
point builds: a debug server embedded in the debuggee process, augmented
fork functions, Dionea's fork handlers, disturb mode and the deadlock
detector — one :meth:`start` away from a debuggable process whose forked
children rendezvous with the client automatically.

Typical embedding (what the examples do)::

    from repro.core import Dionea

    with Dionea(program="wordcount") as dbg:
        ...   # run the parallel program; forks are followed

    # or, client side:
    client = DebugClient()
    client.watch_portfile(dbg.portfile)

Exactly one Dionea may be active per process (it owns ``os.fork`` and
the interpreter trace hook); :func:`current_dionea` is how the
instrumented :mod:`repro.mp` primitives find it.
"""

from __future__ import annotations

import json
import os
import uuid
from typing import Dict, Optional

from .. import obs
from ..forkhooks.augment import ForkPatcher
from ..forkhooks.registry import ForkHandlerRegistry
from ..forkhooks.resilience import ResiliencePolicy
from ..forkhooks.syncobjects import SyncObjectRegistry
from ..obs import causality
from ..obs import metrics as obs_metrics
from ..obs.blackbox import BLACKBOX, REASON_EXEC, REASON_STOP
from ..obs.spans import debug_event
from ..server.debugserver import DebugServer
from ..util import locks
from ..util.errors import ForkHookError, ReproError
from ..util.ids import UEId
from ..util.portfile import PortFile, default_portfile_path
from .deadlock import DeadlockDetector
from .disturb import DisturbMode
from .handlers import install_dionea_handlers, uninstall_dionea_handlers

_current_lock = locks.Lock()
_current: Optional["Dionea"] = None

#: env slot carrying a ``TraceContext.to_wire`` JSON dict across exec:
#: the old image stages it via :func:`exec_handoff_env`, the new image's
#: :meth:`Dionea.start` consumes it and continues the trace.
EXEC_HANDOFF_ENV = "DIONEA_EXEC_HANDOFF"


def exec_handoff_env(env: Optional[Dict[str, str]] = None
                     ) -> Dict[str, str]:
    """Environment for an ``exec`` the post-exec debugger should continue.

    Call just before ``os.exec*``: flushes a terminal ``exec`` marker
    for this image's black box (the dump's story ends here on purpose)
    and returns a copy of *env* (default ``os.environ``) with the
    current trace root staged under ``DIONEA_EXEC_HANDOFF`` so the new
    image's :meth:`Dionea.start` can root its trace under ours.
    """
    BLACKBOX.force_flush(REASON_EXEC, terminal=True)
    staged = dict(os.environ if env is None else env)
    staged[EXEC_HANDOFF_ENV] = json.dumps(
        causality.process_root().to_wire())
    return staged


def current_dionea() -> Optional["Dionea"]:
    """The active debugger in this process, if any.

    The repro.mp primitives consult this to register their sync objects
    (fork-ownership sweep) and to report waits (deadlock detection).
    """
    return _current


class Dionea:
    """Debuggee-side facade.  One per process."""

    def __init__(self,
                 program: Optional[str] = None,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 run_id: Optional[str] = None,
                 portfile_path: Optional[str] = None,
                 park_timeout: Optional[float] = 60.0,
                 disturb: bool = False,
                 capture_io: bool = False,
                 install_tracing: bool = True,
                 client_loss_grace: float = 3.0):
        self.run_id = run_id or uuid.uuid4().hex[:12]
        self.program = program or "dionea"
        self.portfile = PortFile(
            portfile_path or default_portfile_path(self.run_id))
        self.disturb_mode = DisturbMode(enabled=disturb)
        self.deadlock = DeadlockDetector()
        self.sync_registry = SyncObjectRegistry()
        # Do-no-harm bracket: deadlines + quarantine for third-party
        # fork handlers, degraded mode for failures in our own.
        self.fork_registry = ForkHandlerRegistry(
            policy=ResiliencePolicy.from_env())
        self.fork_registry.on_child_degrade = self._degrade
        self.server = DebugServer(
            host=host, port=port,
            portfile=self.portfile,
            program=program,
            park_timeout=park_timeout,
            disturb=self.disturb_mode,
            disturb_setter=self.disturb_mode.set_enabled,
            deadlock_reporter=self.deadlock.report,
            capture_io=capture_io,
            client_loss_grace=client_loss_grace,
        )
        self.patcher = ForkPatcher(self.fork_registry)
        self.patcher.on_child_forked = self._record_child
        self.server.on_detach = self._on_server_detach
        # A disturb toggle must invalidate the engine's fast-path flag.
        self.disturb_mode.on_change = self.server.engine.refresh_quiet
        self.server.engine.refresh_quiet()
        self._install_tracing = install_tracing
        self._started = False
        #: the process whose start() began the run: only it removes the
        #: run's port file (a forked child's stop() must not)
        self._owner_pid: Optional[int] = None

    # -- lifecycle -------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "Dionea":
        global _current
        with _current_lock:
            if _current is not None:
                raise ReproError("another Dionea is already active "
                                 "in this process")
            _current = self
        self._owner_pid = os.getpid()
        try:
            # Exec survival: the previous image staged its trace root in
            # the environment; continue that trace and relabel/rotate
            # the obs state before anything records against it.
            handoff_raw = os.environ.pop(EXEC_HANDOFF_ENV, None)
            if handoff_raw is not None:
                try:
                    handoff = json.loads(handoff_raw)
                except ValueError:
                    handoff = None
                obs.reset_after_exec(self.program,
                                     labels={"run_id": self.run_id},
                                     handoff=handoff)
            obs.configure_blackbox(self.program,
                                   labels={"run_id": self.run_id})
            self.disturb_mode.mark_primary(UEId.current())
            self.server.start(install_tracing=self._install_tracing,
                              announce=True)
            install_dionea_handlers(
                self.fork_registry, self.server, self.sync_registry,
                disturb=self.disturb_mode, deadlock=self.deadlock)
            self.patcher.install()
            self._started = True
        except BaseException:
            # Undo whatever did start: threads, port-file record,
            # handler set, alias and the facade slot.
            self._release(remove_portfile=True)
            raise
        debug_event("dionea", f"started (run {self.run_id}, "
                              f"port {self.port})")
        return self

    def stop(self, remove_portfile: bool = True) -> None:
        if not self._started:
            return
        # Orderly shutdown is a terminal event too: without this marker
        # the timeline would report a clean exit as an unclean death.
        BLACKBOX.force_flush(REASON_STOP, terminal=True)
        self._release(remove_portfile)
        debug_event("dionea", "stopped")

    def _release(self, remove_portfile: bool) -> None:
        """Everything stop() undoes; also a failed start()'s undo."""
        self._teardown()
        self.server.close()
        if remove_portfile and os.getpid() == self._owner_pid:
            try:
                self.portfile.remove()
            except OSError:
                pass

    def __enter__(self) -> "Dionea":
        if not self._started:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- degraded mode ---------------------------------------------------------

    def _degrade(self, reason: str) -> None:
        """Do-no-harm bail-out: the debugger removes itself entirely.

        Fired by the fork registry when a *trusted* phase failed in the
        child (half-configured debugging is worse than none) — and
        usable from anywhere the debugger concludes it can no longer be
        harmless.  The debuggee keeps running, undebugged, output and
        exit status untouched.
        """
        obs_metrics.inc("dionea.degrades")
        debug_event("dionea", f"entering degraded mode: {reason}")
        # detach() tears the server half down, then calls
        # _on_server_detach for the debugger half.
        self.server.detach(reason)

    def _on_server_detach(self, reason: str) -> None:
        """Server half is down (detach); take down the debugger half."""
        self._teardown()
        debug_event("dionea", f"debugger detached: {reason}")

    def _teardown(self) -> None:
        """The debugger half of stop() and detach: alias, handlers, slot."""
        global _current
        self._started = False
        try:
            self.patcher.uninstall()
        except ForkHookError:
            # Someone re-patched os.fork over us; restoring would
            # clobber their wrapper.  Ours stays in their chain as a
            # bare pass-through.
            pass
        try:
            uninstall_dionea_handlers(self.fork_registry)
        except ForkHookError:
            pass  # detached before start() registered them
        with _current_lock:
            if _current is self:
                _current = None

    # -- parent-side fork bookkeeping ---------------------------------------------

    def _record_child(self, pid: int) -> None:
        self.server.record_child(pid)

    # -- conveniences used by examples/tests ----------------------------------------

    def set_breakpoint(self, file: str, line: int, **kwargs) -> int:
        bp = self.server.engine.breakpoints.add(file, line, **kwargs)
        return bp.id

    def report_deadlocks(self) -> dict:
        return self.deadlock.report()

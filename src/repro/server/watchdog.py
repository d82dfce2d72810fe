"""Server watchdog: detect a wedged reactor and heal or detach.

The reactor thread is the debug server's single point of failure: the
paper's §4 non-blocking rule keeps it responsive, but a misbehaving
command handler (or injected fault) can still wedge it — and a wedged
reactor is worse than a dead one, because the thread stays "alive"
while every client request and heartbeat black-holes.  The debuggee
meanwhile must not care: do-no-harm says a broken debugger may never
cost the host process anything but its debugability.

Every *interval* the watchdog checks two signals:

* **thread death** — the reactor thread exited (an escaped exception,
  a selector wreck).  Healable: build a fresh reactor on a fresh port
  and re-announce; the client's watcher sees the same pid on a new port
  and redials.
* **an unanswered probe** — the watchdog posts a probe thunk to the
  reactor (:meth:`~repro.util.reactor.Reactor.call_soon`); a live loop
  runs it at its next turn.  A probe still pending after *stall*
  seconds means the loop is stuck inside a handler.  A wedged thread
  cannot be killed in Python, so the stuck reactor is *abandoned*: its
  sockets are closed out from under it and a replacement takes over.
  If even that fails, the server detaches and the debuggee runs on
  undebugged.

Started by :meth:`DebugServer.start`.  The 10 s default stall is far
above any legitimate reactor pause, including the test suite's injected
delays; a test that wants a faster verdict builds its own watchdog.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING, Optional

from ..obs import metrics as obs_metrics
from ..obs.spans import debug_event

if TYPE_CHECKING:  # pragma: no cover
    from .debugserver import DebugServer


class ServerWatchdog:
    """Background monitor for one :class:`DebugServer`'s reactor."""

    def __init__(self, server: "DebugServer",
                 interval: float = 1.0,
                 stall: float = 10.0):
        self.server = server
        self.interval = interval
        self.stall = stall
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: (token, posted-at) of the probe the reactor has not run yet
        self._probe: Optional[tuple] = None
        #: healing attempts are bounded: a reactor that needs a third
        #: heal inside one server lifetime is not sick, it is cursed —
        #: detach rather than flap forever.
        self.max_heals = 2
        self._heals = 0

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="dionea-watchdog", daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout)
        self._thread = None

    def reset_after_fork(self) -> None:
        """The watchdog thread did not survive the fork; forget it."""
        self._stop = threading.Event()
        self._thread = None
        self._probe = None
        self._heals = 0

    # -- the monitor loop ---------------------------------------------------

    def _run(self) -> None:
        from ..util.ids import untrace_current_thread
        untrace_current_thread()  # infra thread: never a debuggee UE
        while not self._stop.wait(self.interval):
            try:
                self._check()
            except Exception:  # noqa: BLE001 - monitor must not crash
                debug_event("watchdog", "watchdog check failed; continuing")

    def _check(self) -> None:
        server = self.server
        reactor = server._reactor  # noqa: SLF001 - the monitored loop
        if not server.started or reactor is None:
            return
        if not reactor.running:
            self._respond("reactor thread died")
            return
        probe = self._probe
        if probe is None:
            token = object()
            self._probe = (token, time.monotonic())
            reactor.call_soon(lambda: self._answer(token))
            return
        waited = time.monotonic() - probe[1]
        if waited > self.stall:
            obs_metrics.inc("server.watchdog_stalls")
            self._respond(f"reactor wedged for {waited:.1f}s")

    def _answer(self, token: object) -> None:
        """The probe, run on the reactor thread: the loop is turning."""
        probe = self._probe
        if probe is not None and probe[0] is token:
            self._probe = None

    def _respond(self, why: str) -> None:
        self._probe = None  # a probe posted to the old reactor is moot
        server = self.server
        if self._heals < self.max_heals:
            self._heals += 1
            debug_event("watchdog", f"{why}; healing reactor "
                                    f"(attempt {self._heals})")
            try:
                server.heal_listener(why)
                obs_metrics.inc("server.watchdog_heals")
                return
            except Exception:  # noqa: BLE001 - fall through to detach
                debug_event("watchdog", "heal failed; detaching")
        else:
            debug_event("watchdog", f"{why}; heal budget exhausted, "
                                    f"detaching")
        server.detach(f"watchdog: {why}")

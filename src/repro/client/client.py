"""DebugClient: one client, many sessions (paper Fig. 1 and section 4.1).

*"this distributed architecture makes possible to debug multiple
processes from a single client"* — the client keeps one
:class:`~repro.client.session.DebugSession` per debuggee process and one
:class:`~repro.client.view.DebugView` per UE, multiplexing views with a
single *active* view at a time (section 4.2 and Fig. 3).

New debuggees arrive two ways:

* explicitly, via :meth:`attach`;
* automatically, when a debuggee forks: the child's fork handler writes
  its port into the rendezvous file and the client's
  :class:`~repro.util.portfile.PortFileWatcher` dials it (Fig. 6).
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..obs import metrics as obs_metrics
from ..obs.spans import debug_event
from ..server import protocol
from ..tracing.frames import StackCapture
from ..util import locks
from ..util.errors import ReproError, SessionError, ViewError
from ..util.ids import IdAllocator, UEId
from ..util.portfile import (PortFile, PortFileWatcher, PortRecord,
                             drain_bell, pid_alive)
from ..util.reactor import Reactor
from .session import DebugSession, PendingCall
from .view import DebugView

#: Retained tail of :attr:`DebugClient.stop_history` — bounded the same
#: way the Output window is; ``stop_count`` keeps the monotonic total.
STOP_HISTORY_LIMIT = 1024


class DebugClient:
    """1 client : N servers session manager.

    All sessions share ONE :class:`~repro.util.reactor.Reactor`:
    the client costs two threads total (loop + dispatcher) no matter how
    many debuggees are attached — the property the fleet benchmark
    gates on.
    """

    def __init__(self,
                 on_stop: Optional[Callable[[DebugView], None]] = None,
                 on_new_session: Optional[
                     Callable[[DebugSession], None]] = None,
                 on_session_lost: Optional[
                     Callable[[DebugSession, str], None]] = None,
                 on_detached: Optional[
                     Callable[[DebugSession, str], None]] = None,
                 auto_reattach: bool = False,
                 reattach_base: float = 0.1,
                 reattach_cap: float = 2.0,
                 reattach_attempts: int = 6):
        self._sessions: Dict[int, DebugSession] = {}
        self._views: Dict[UEId, DebugView] = {}
        self._lock = locks.RLock()
        #: signalled whenever a session is added (attach/auto-attach)
        self._session_signal = threading.Condition(self._lock)
        self._session_ids = IdAllocator("s")
        self._view_ids = IdAllocator("v")
        self._watcher: Optional[PortFileWatcher] = None
        #: a doorbell poll is queued on the dispatcher and not yet begun;
        #: only the loop thread tests and sets it and only the
        #: dispatcher clears it, so it needs no lock
        self._bell_poll_queued = False
        self._active_view: Optional[DebugView] = None
        self.on_stop = on_stop
        self.on_new_session = on_new_session
        self.on_session_lost = on_session_lost
        #: degraded-mode notification: the server DETACHED (debuggee
        #: still running, just no longer debugged) — distinct from loss
        self.on_detached = on_detached
        #: exponential-backoff-with-jitter reconnect, layered on
        #: reattach(): on session LOSS (not server_exit/detach — those
        #: are deliberate) the client redials the old coordinates until
        #: the server answers, the pid dies, or the budget runs out.
        self.auto_reattach = auto_reattach
        self.reattach_base = reattach_base
        self.reattach_cap = reattach_cap
        self.reattach_attempts = reattach_attempts
        #: jitter decorrelates a fleet of clients redialing one server
        self._reattach_rng = random.Random()
        #: one selector loop for every session's sockets
        self.reactor = Reactor()
        #: recent stop notifications in arrival order (bounded tail)
        self.stop_history: List[DebugView] = []
        #: monotonic count of every stop ever routed — what
        #: :meth:`wait_for_stop` counts, immune to the history bound
        self.stop_count = 0
        self._stop_signal = threading.Condition()
        #: Fig. 2's Output window, per debuggee pid.
        self._output: Dict[int, List[tuple]] = {}
        #: Fig. 1's whole-program view: who forked whom.
        from ..core.metadata import ProcessTree
        self.process_tree = ProcessTree()

    # -- attaching ------------------------------------------------------------------

    def attach(self, host: str, port: int, **session_kwargs) -> DebugSession:
        """Open a session to the debug server at host:port."""
        session_kwargs.setdefault("reactor", self.reactor)
        session = DebugSession(host, port, self._session_ids.next(),
                               on_event=self._route_event, **session_kwargs)
        with self._lock:
            existing = self._sessions.get(session.pid)
            if existing is not None and not existing.closed:
                session.close()
                raise SessionError(
                    f"already attached to pid {session.pid}")
            self._sessions[session.pid] = session
            # A successor session for a known pid (reattach after loss):
            # existing views swap transports, keeping their stop state.
            for ue, view in self._views.items():
                if ue.pid == session.pid:
                    view.rebind(session)
            self._session_signal.notify_all()
        self.process_tree.observe(pid=session.pid,
                                  parent_pid=session.parent_pid,
                                  program=session.program)
        debug_event("client", f"attached to pid {session.pid} "
                              f"at {host}:{port}")
        if self.on_new_session is not None:
            try:
                self.on_new_session(session)
            except Exception:  # noqa: BLE001 - user callback
                pass
        return session

    def watch_portfile(self, portfile: PortFile,
                       poll_interval: float = 0.02) -> None:
        """Auto-attach every server announced in the rendezvous file.

        A record whose pid is already dead is never dialed (each dial
        would eat a connect timeout).

        The client binds the file's doorbell and polls as soon as an
        announce rings it; the timed poll every *poll_interval* is the
        safety net, and all that is left where the bind fails (another
        client already watches this file, or no bell off Linux).  The
        bell is one more reader on the shared reactor and the timed
        poll rides its timer wheel; both kinds of poll, and any dials
        (a dial blocks on connect, which the loop thread must never
        do), run on the dispatcher thread, so watching adds zero
        threads.
        """
        if self._watcher is not None:
            raise SessionError("already watching a port file")
        self._watcher = PortFileWatcher(
            portfile=portfile, on_record=self._on_port_record,
            poll_interval=poll_interval)
        # Bound before the first poll: a record appended before the
        # bind is in the file that poll reads, one appended after it
        # rings the bell.
        bell = portfile.bind_bell()
        if bell is not None:
            self.reactor.add_reader(bell, lambda: self._on_bell(bell))
        self._watcher.start(scheduler=self._schedule_poll)

    def _schedule_poll(self, delay: float,
                       fn: Callable[[], None]) -> object:
        """Timer-wheel scheduler handed to the portfile watcher."""
        return self.reactor.call_later(
            delay, lambda: self.reactor.defer(fn))

    def _on_bell(self, bell) -> None:
        """The doorbell rang (loop thread): queue one poll on the
        dispatcher unless one is queued already, so a burst of rings
        costs one poll."""
        drain_bell(bell)
        if not self._bell_poll_queued:
            self._bell_poll_queued = True
            self.reactor.defer(self._bell_poll)

    def _bell_poll(self) -> None:
        # Cleared before the poll starts: a ring during it queues the next.
        self._bell_poll_queued = False
        watcher = self._watcher
        if watcher is not None:
            watcher.poll_now()

    def _on_port_record(self, record: PortRecord) -> None:
        """Dial *record* (dispatcher thread, inside a watcher poll)."""
        self._forget_exited()
        with self._lock:
            existing = self._sessions.get(record.pid)
            if existing is not None and not existing.closed:
                return
        if not pid_alive(record.pid):
            self._forget(record.pid)  # announced, then died before we dialed
            return
        try:
            self.attach(record.host, record.port)
        except (ReproError, OSError) as exc:
            # The child may have exited between announce and dial; a
            # failed auto-attach must not kill the watcher.
            debug_event("client",
                        f"auto-attach to pid {record.pid} failed: {exc}")

    def _forget_exited(self) -> None:
        """Drop the closed session of every pid that no longer exists.

        A closed session of a live pid stays: :meth:`reattach` needs its
        token and breakpoints.  A zombie is alive until it is reaped.
        """
        with self._lock:
            gone = [pid for pid, session in self._sessions.items()
                    if session.closed and not pid_alive(pid)]
            for pid in gone:
                del self._sessions[pid]
        for pid in gone:
            self._forget(pid)

    def _forget(self, pid: int) -> None:
        watcher = self._watcher
        if watcher is not None:
            watcher.forget(pid)

    # -- lifecycle -------------------------------------------------------------------

    def close(self) -> None:
        if self._watcher is not None:
            self._watcher.stop()
            self._watcher = None
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
            self._views.clear()
            self._active_view = None
        for session in sessions:
            session.close()
        self.reactor.close()

    def __enter__(self) -> "DebugClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- sessions and views -----------------------------------------------------------

    def sessions(self) -> List[DebugSession]:
        with self._lock:
            return [s for s in self._sessions.values() if not s.closed]

    def session_for_pid(self, pid: int,
                        timeout: float = 5.0) -> DebugSession:
        """Get the session for *pid*, waiting for auto-attach if needed.

        Blocks on a condition signalled by :meth:`attach` — no polling;
        the waiter wakes the moment the watcher's dial completes.
        """
        deadline = time.monotonic() + timeout
        with self._session_signal:
            while True:
                session = self._sessions.get(pid)
                if session is not None and not session.closed:
                    return session
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise SessionError(f"no session for pid {pid}")
                self._session_signal.wait(remaining)

    def reattach(self, pid: int, host: Optional[str] = None,
                 port: Optional[int] = None, resync: bool = True,
                 **session_kwargs) -> DebugSession:
        """Reclaim a lost session to a still-running debug server.

        Dials the old coordinates (or the ones given), presenting the
        token the original hello_ack granted so the server can tell this
        rightful successor from a stale client of a previous epoch.  On
        success the server cancels its client-loss grace timer — parked
        UEs stay parked — and replays every live stop; existing views are
        rebound to the new transport.  With *resync*, breakpoints the old
        session had set but the server no longer has are re-sent.
        """
        with self._lock:
            old = self._sessions.get(pid)
        if old is None:
            raise SessionError(f"never attached to pid {pid}; "
                               f"use attach()")
        if not old.closed:
            return old
        session = self.attach(host or old.host, port or old.port,
                              resume_token=old.session_token,
                              **session_kwargs)
        if resync:
            self._resync_breakpoints(session, old)
        debug_event("client", f"reattached to pid {pid} "
                              f"(resumed={session.resumed})")
        return session

    def _resync_breakpoints(self, session: DebugSession,
                            old: DebugSession) -> None:
        """Re-send the old session's breakpoint intent, minus survivors."""
        from ..tracing.breakpoints import canonical_file
        specs = old.breakpoint_specs()
        if not specs:
            return
        try:
            table = session.request("breaks")
        except ReproError:
            table = []
        have = set()
        for bp in table or []:
            if bp.get("function"):
                have.add(("func", bp["function"], bp.get("condition")))
            else:
                have.add((bp.get("file"), bp.get("line"),
                          bp.get("condition")))
        for command, args in specs:
            if command == "set_function_break":
                key = ("func", args.get("function"), args.get("condition"))
            else:
                key = (canonical_file(str(args.get("file", ""))),
                       args.get("line"), args.get("condition"))
            if key in have:
                continue
            try:
                session.request(command, args)
            except ReproError as exc:
                debug_event("client",
                            f"breakpoint resync failed for {args}: {exc}")

    def view_for(self, ue: UEId,
                 session: Optional[DebugSession] = None) -> DebugView:
        """The view for *ue*, created on first use.

        *session* is the transport to bind a new view to when the
        registry has no entry yet: a stop replayed at hello time races
        the `attach()` bookkeeping (the reader thread starts before the
        session is registered), and the event's own delivering session
        is already the right one.
        """
        with self._lock:
            view = self._views.get(ue)
            if view is None:
                owner = self._sessions.get(ue.pid)
                if owner is None or owner.closed:
                    owner = session
                if owner is None or owner.closed:
                    raise ViewError(f"no session for {ue}")
                view = DebugView(self._view_ids.next(), owner, ue)
                self._views[ue] = view
            return view

    def views(self) -> List[DebugView]:
        with self._lock:
            return list(self._views.values())

    # -- active-view multiplexing (Fig. 3) ----------------------------------------------

    @property
    def active_view(self) -> Optional[DebugView]:
        with self._lock:
            return self._active_view

    def activate(self, view: DebugView) -> dict:
        """Make *view* the active view and render it (Fig. 3 steps 1-4:
        the previously active view's source is hidden, the new view's
        source is fetched and displayed)."""
        with self._lock:
            self._active_view = view
        return view.render()

    # -- event routing ---------------------------------------------------------------------

    def _route_event(self, session: DebugSession, message: dict) -> None:
        event = message.get("event")
        payload = message.get("payload", {})
        if event == protocol.EV_STOPPED:
            ue = protocol.ue_from_wire(payload["ue"])
            view = self.view_for(ue, session=session)
            view.mark_stopped(StackCapture.from_wire(payload["capture"]))
            with self._stop_signal:
                self.stop_count += 1
                self.stop_history.append(view)
                if len(self.stop_history) > STOP_HISTORY_LIMIT:
                    # Bounded like the Output window: at fleet scale an
                    # unbounded arrival log is a leak.  stop_count keeps
                    # wait_for_stop counting correct across the trim.
                    del self.stop_history[:len(self.stop_history)
                                          - STOP_HISTORY_LIMIT]
                self._stop_signal.notify_all()
            if self.on_stop is not None:
                try:
                    self.on_stop(view)
                except Exception:  # noqa: BLE001
                    pass
        elif event == protocol.EV_RESUMED:
            ue = protocol.ue_from_wire(payload["ue"])
            with self._lock:
                view = self._views.get(ue)
            if view is not None:
                view.mark_resumed()
        elif event == protocol.EV_OUTPUT:
            with self._lock:
                chunks = self._output.setdefault(payload["pid"], [])
                chunks.append((payload["stream"], payload["text"]))
                if len(chunks) > 4000:
                    del chunks[:len(chunks) - 4000]
        elif event == protocol.EV_PROCESS_FORKED:
            # Fig. 1: a child was born; the tree learns about it even
            # before the child's own announce/attach completes.
            self.process_tree.observe(pid=payload["child_pid"],
                                      parent_pid=payload["parent_pid"])
        elif event == protocol.EV_SERVER_EXIT:
            self.process_tree.mark_exited(session.pid)
            session.close()
        elif event == protocol.EV_DETACHED:
            # Degraded mode: the debugger removed itself from a LIVE
            # debuggee (do-no-harm bail-out).  The process is not
            # exited — only its debugability is gone; close the session
            # in an orderly way and surface the verdict.
            reason = payload.get("reason", "unknown")
            debug_event("client", f"debug server for pid {session.pid} "
                                  f"detached: {reason}")
            obs_metrics.inc("client.detaches")
            session.close()
            if self.on_detached is not None:
                try:
                    self.on_detached(session, reason)
                except Exception:  # noqa: BLE001 - user callback
                    pass
        elif event == protocol.EV_SESSION_LOST:
            # Synthesised by the session's supervision layer (missed
            # heartbeats / abrupt channel loss).  The debuggee may well
            # be dead; reflect that in the whole-program view and hand
            # the verdict to the embedder, who may try reattach().
            self.process_tree.mark_exited(session.pid)
            reason = payload.get("reason", "unknown")
            debug_event("client",
                        f"session to pid {session.pid} lost: {reason}")
            if self.on_session_lost is not None:
                try:
                    self.on_session_lost(session, reason)
                except Exception:  # noqa: BLE001 - user callback
                    pass
            if self.auto_reattach:
                self._schedule_reattach(session.pid, attempt=1)

    # -- backoff reconnect (layered on reattach) --------------------------------

    def _schedule_reattach(self, pid: int, attempt: int) -> None:
        """Arm one redial on the reactor timer wheel, with jitter.

        Exponential backoff (base × 2^attempt, capped) times a
        0.5–1.5× jitter factor: a fleet of clients that all lost the
        same server redial decorrelated instead of in lockstep.
        """
        if attempt > self.reattach_attempts:
            obs_metrics.inc("client.reattach_giveups")
            debug_event("client", f"giving up on pid {pid} after "
                                  f"{self.reattach_attempts} reattach "
                                  f"attempts")
            return
        delay = min(self.reattach_cap,
                    self.reattach_base * (2 ** (attempt - 1)))
        delay *= 0.5 + self._reattach_rng.random()
        # The dial blocks on connect, so it runs on the dispatcher
        # (defer), never on the loop thread the timer fires from.
        self.reactor.call_later(
            delay, lambda: self.reactor.defer(
                lambda: self._try_reattach(pid, attempt)))

    def _try_reattach(self, pid: int, attempt: int) -> None:
        with self._lock:
            session = self._sessions.get(pid)
        if session is None or not session.closed:
            return  # detached from the client side, or already back
        if not pid_alive(pid):
            debug_event("client", f"pid {pid} is gone; "
                                  f"abandoning reattach")
            return
        obs_metrics.inc("client.reattach_attempts")
        try:
            self.reattach(pid)
            debug_event("client", f"backoff reattach to pid {pid} "
                                  f"succeeded (attempt {attempt})")
        except (ReproError, OSError) as exc:
            debug_event("client", f"reattach attempt {attempt} to "
                                  f"pid {pid} failed: {exc}")
            self._schedule_reattach(pid, attempt + 1)

    def wait_for_stop(self, timeout: float = 10.0,
                      min_count: int = 1) -> List[DebugView]:
        """Block until at least *min_count* stop events have arrived.

        Counts against the monotonic :attr:`stop_count`, so the bound on
        :attr:`stop_history` can never make a waiter miscount; returns
        the retained history tail.
        """
        deadline = time.monotonic() + timeout
        with self._stop_signal:
            while self.stop_count < min_count:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ViewError(
                        f"only {self.stop_count}/{min_count} stops "
                        f"within {timeout:.1f}s")
                self._stop_signal.wait(remaining)
            return list(self.stop_history)

    def stopped_views(self) -> List[DebugView]:
        return [v for v in self.views() if v.is_stopped]

    # -- cluster-wide fan-out (scatter-gather) -------------------------------------

    def cluster_request(self, command: str, args: Optional[dict] = None,
                        timeout: Optional[float] = None,
                        sessions: Optional[List[DebugSession]] = None,
                        ) -> Tuple[Dict[int, Any], Dict[int, str]]:
        """Issue *command* to every live session concurrently.

        The scatter leg pipelines one request per session onto the
        shared reactor (no per-pid round trips); the gather leg collects
        under ONE deadline, so total sweep time scales with the slowest
        responder, not with the session count.  Returns
        ``(results_by_pid, errors_by_pid)`` — a pid that errors or times
        out becomes a *hole*, recorded in the errors dict AND on the obs
        event ring (``debug_event``), never an aborted sweep.
        """
        targets = self.sessions() if sessions is None else sessions
        calls: Dict[int, PendingCall] = {}
        errors: Dict[int, str] = {}
        for session in targets:
            try:
                calls[session.pid] = session.request_async(command, args)
            except (ReproError, OSError) as exc:
                errors[session.pid] = f"{type(exc).__name__}: {exc}"
        if timeout is None:
            timeout = max((s.request_timeout for s in targets),
                          default=10.0)
        deadline = time.monotonic() + timeout
        results: Dict[int, Any] = {}
        for pid, call in calls.items():
            remaining = max(0.0, deadline - time.monotonic())
            try:
                results[pid] = call.wait(remaining)
            except (ReproError, OSError) as exc:
                errors[pid] = f"{type(exc).__name__}: {exc}"
        for pid, why in errors.items():
            # The hole must be diagnosable after the sweep returns, not
            # only present in the dict the caller may drop.
            debug_event("client",
                        f"cluster {command!r}: hole at pid {pid}: {why}")
        if errors:
            obs_metrics.inc("client.cluster_holes", len(errors),
                            command=command)
        return results, errors

    def cluster_telemetry(self, reset: bool = False,
                          include_client: bool = True,
                          timeout: Optional[float] = None) -> dict:
        """Pull the ``telemetry`` snapshot from every live session.

        Scatter-gather: one batch of pipelined requests, gathered under
        a single deadline — a 200-worker sweep costs ~one round trip,
        not 200.  A session that dies mid-poll is recorded under
        ``"errors"`` (and on the event ring) rather than aborting the sweep
        — a cluster snapshot with a hole beats no snapshot during a
        crash.  The client process's own registry rides along
        (``"client"``), and ``"fleet"`` aggregates per-session heartbeat
        health so one slow worker is visible without reading N blobs.
        """
        processes, errors = self.cluster_request(
            "telemetry", {"reset": reset}, timeout=timeout)
        out: dict = {"processes": processes}
        if errors:
            out["errors"] = errors
        out["fleet"] = self.fleet_health()
        if include_client:
            from .. import obs
            client_snap = obs.telemetry_snapshot(reset=reset)
            client_snap["program"] = "dionea-client"
            out["client"] = client_snap
        return out

    def cluster_timeline(self, blackbox_dir: Optional[str] = None,
                         reset: bool = False,
                         timeout: Optional[float] = None,
                         flush: bool = True) -> dict:
        """One causally ordered Chrome trace for the WHOLE fork tree —
        the living answering ``telemetry``, the dead speaking through
        their black-box dumps.

        *blackbox_dir* defaults to ``DIONEA_BLACKBOX_DIR``; with
        *flush*, live sessions are asked to force a dump first so the
        on-disk record is as fresh as the live one.  Pids the client has
        ever observed (the process tree) are passed as expected pids, so
        a child that died before writing anything shows up as an
        explicit hole instead of vanishing.  Works with zero live
        sessions: a purely post-mortem timeline is the design point.
        """
        import os as _os

        from ..obs import timeline as obs_timeline
        from ..obs.blackbox import BLACKBOX_DIR_ENV

        if blackbox_dir is None:
            blackbox_dir = _os.environ.get(BLACKBOX_DIR_ENV)
        if flush and self.sessions():
            # Best-effort: a session that cannot flush still contributes
            # whatever its last incremental flush left on disk.
            self.cluster_request("blackbox", {"flush": True},
                                 timeout=timeout)
        telemetry = self.cluster_telemetry(reset=reset, timeout=timeout)
        live = list(telemetry.get("processes", {}).values())
        document = obs_timeline.assemble_from_dir(
            blackbox_dir, live_snapshots=live,
            client_snapshot=telemetry.get("client"),
            expected_pids=self.process_tree.pids())
        if telemetry.get("errors"):
            document["otherData"]["telemetry_errors"] = {
                str(pid): why
                for pid, why in telemetry["errors"].items()}
        return document

    def cluster_set_break(self, file: Optional[str] = None,
                          line: Optional[int] = None,
                          function: Optional[str] = None,
                          condition: Optional[str] = None,
                          temporary: bool = False,
                          timeout: Optional[float] = None) -> dict:
        """Set one breakpoint in EVERY attached debuggee at once.

        The fleet analogue of ``set_break`` / ``set_function_break``:
        scatter to all sessions, gather with a deadline.  Returns
        ``{"breakpoints": {pid: result}, "errors": {pid: reason}}``.
        """
        if function is not None:
            command = "set_function_break"
            args: dict = {"function": function}
        else:
            if file is None or line is None:
                raise ViewError("cluster_set_break needs file+line "
                                "or function")
            command = "set_break"
            args = {"file": file, "line": line}
        if condition is not None:
            args["condition"] = condition
        if temporary:
            args["temporary"] = True
        results, errors = self.cluster_request(command, args,
                                               timeout=timeout)
        return {"breakpoints": results, "errors": errors}

    def cluster_continue(self,
                         timeout: Optional[float] = None) -> dict:
        """Resume every parked UE across the whole fleet (continue-all).

        Fans ``resume_all`` out to every session concurrently; a pid
        that cannot be resumed is a hole, not an abort.  Returns
        ``{"resumed": {pid: result}, "errors": {pid: reason}}``.
        """
        results, errors = self.cluster_request("resume_all",
                                               timeout=timeout)
        return {"resumed": results, "errors": errors}

    def fleet_health(self) -> dict:
        """min/p50/max heartbeat aggregates across all live sessions.

        The 200-worker question is never "what is worker 137's RTT" but
        "is any worker slow" — so the sweep output leads with the
        distribution: RTT last/min/max/p50 across sessions plus the
        worst miss-budget usage, with the offending pid named.
        """
        stats = [s.heartbeat_stats() for s in self.sessions()]
        rtts = sorted((st["rtt_last"], st["pid"]) for st in stats
                      if st["rtt_last"] is not None)
        out: dict = {"sessions": len(stats),
                     "heartbeats_seen": sum(st["rtt_count"]
                                            for st in stats),
                     "missed_beats": sum(st["missed_beats"]
                                         for st in stats)}
        if rtts:
            out["rtt_seconds"] = {
                "min": rtts[0][0],
                "p50": rtts[len(rtts) // 2][0],
                "max": rtts[-1][0],
                "slowest_pid": rtts[-1][1],
            }
        budget_used = [(st["miss_budget_used"], st["pid"]) for st in stats
                       if st["miss_budget_used"] is not None]
        if budget_used:
            worst = max(budget_used)
            out["miss_budget_used"] = {"max": worst[0],
                                       "worst_pid": worst[1]}
        return out

    # -- Output window / process tree -------------------------------------------

    def output_for(self, pid: int, stream: Optional[str] = None) -> str:
        """Buffered output events received from debuggee *pid*."""
        with self._lock:
            chunks = list(self._output.get(pid, ()))
        return "".join(text for label, text in chunks
                       if stream is None or label == stream)

    def render_process_tree(self) -> str:
        """Fig. 2's Processes-and-threads pane, process level."""
        return self.process_tree.render()

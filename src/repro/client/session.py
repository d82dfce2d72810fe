"""DebugSession: the client's leg of one client ↔ debuggee relationship.

Paper section 4.1: *"a debug session is a sequence of interactions
between debugger and debuggee"*; one client holds one session per
debuggee process (1 client : N servers, 1 server : 1 client).

Each session owns the client side of the paper's socket layout: the
**command** connection (requests, responses, asynchronous events) and the
**source** connection (source-sync requests only, strictly
request/response).  Both sockets are multiplexed onto a shared
:class:`~repro.util.reactor.Reactor` — no per-session threads.  Each
channel's first frame is the server's hello_ack, read through the same
decoder the channel keeps for the rest of the session.
Responses correlate to pending requests by id, which also gives the
session **pipelining**: any number of requests may be in flight at once
(:meth:`DebugSession.request_async`), completing out of order as the
server answers.  Heartbeats ride the reactor's timer wheel.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional

from time import perf_counter as _perf_counter

from ..obs import metrics as obs_metrics
from ..obs.spans import SPANS
from ..server import protocol
from ..server.sockets import connect_endpoint
from ..util import locks
from ..util.errors import (
    CommandError,
    FramingError,
    HandshakeError,
    ReproError,
    RequestTimeoutError,
    SessionError,
    SessionLostError,
)
from ..util.ids import UEId
from ..util.reactor import Channel, Reactor


class PendingCall:
    """One in-flight request: a future resolved by the reactor.

    Returned by :meth:`DebugSession.request_async`; any number may be
    outstanding per session at once (pipelining).  :meth:`wait` applies
    the same error contract as the blocking :meth:`DebugSession.request`.
    """

    __slots__ = ("session", "command", "request_id", "args",
                 "_event", "_response", "_failure", "_sent_at", "_span")

    def __init__(self, session: "DebugSession", command: str,
                 request_id: int, args: Optional[dict]):
        self.session = session
        self.command = command
        self.request_id = request_id
        self.args = args
        self._event = threading.Event()
        self._response: Optional[dict] = None
        self._failure: Optional[BaseException] = None
        self._sent_at = _perf_counter()
        #: client-side rpc span; its context is stamped onto the wire
        #: request so the server's command span can link back to it.
        self._span = SPANS.begin(f"rpc:{command}", cat="rpc",
                                 pid=session.pid)

    def _finish_span(self, outcome: str) -> None:
        span = self._span
        if span is None:
            return
        self._span = None
        span.args["outcome"] = outcome
        span.end()

    # -- resolution (reactor thread) ---------------------------------------

    def _complete(self, response: Optional[dict]) -> None:
        self._response = response
        self._finish_span("ok" if response is not None else "closed")
        self._event.set()

    def _fail(self, exc: BaseException) -> None:
        self._failure = exc
        self._finish_span("error")
        self._event.set()

    # -- caller side -------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block for the response; raise exactly like ``request()``."""
        session = self.session
        deadline = timeout if timeout is not None \
            else session.request_timeout
        if not self._event.wait(deadline):
            session._forget(self.request_id)
            self._finish_span("timeout")
            obs_metrics.inc("client.request_timeouts", command=self.command)
            raise RequestTimeoutError(
                f"no response to {self.command!r} from pid {session.pid} "
                f"within {deadline:.1f}s")
        obs_metrics.observe("client.request_seconds",
                            _perf_counter() - self._sent_at,
                            command=self.command)
        if self._failure is not None:
            raise self._failure
        response = self._response
        if response is None:
            raise session._closed_error(
                f"session to pid {session.pid} closed while waiting "
                f"for {self.command!r}")
        if not response.get("ok", False):
            error = response.get("error") or {}
            raise CommandError(error.get("message", "unknown server error"))
        result = response.get("result")
        session._record_breakpoint_intent(self.command, self.args or {},
                                          result)
        return result


class DebugSession:
    """Client-side session over the command + source sockets."""

    def __init__(self, host: str, port: int, session_id: str,
                 on_event: Optional[Callable[["DebugSession", dict], None]] = None,
                 connect_timeout: float = 5.0,
                 request_timeout: float = 10.0,
                 heartbeat_interval: float = 2.0,
                 heartbeat_misses: int = 3,
                 resume_token: Optional[str] = None,
                 reactor: Optional[Reactor] = None):
        self.host = host
        self.port = port
        self.session_id = session_id
        self.request_timeout = request_timeout
        #: ping cadence on the command channel; <= 0 disables the monitor
        self.heartbeat_interval = heartbeat_interval
        #: consecutive unanswered beats before the session is declared lost
        self.heartbeat_misses = max(1, heartbeat_misses)
        self._on_event = on_event
        self._request_ids = itertools.count(1)
        self._pending: Dict[int, PendingCall] = {}
        self._pending_lock = locks.Lock()
        self._closed = threading.Event()
        self._source_lock = locks.Lock()
        #: set (with a reason) when the supervision layer declared this
        #: session dead, as opposed to an orderly local close
        self.lost_reason: Optional[str] = None
        self._server_exited = False
        self._last_pong = time.monotonic()
        #: in-flight heartbeat send stamps, seq -> monotonic send time;
        #: written and popped on the reactor thread only
        self._ping_sent: Dict[int, float] = {}
        self._hb_seq = 0
        #: heartbeat RTT accounting for the fleet aggregate view
        self._hb_stats_lock = locks.Lock()
        self._hb_rtt_last: Optional[float] = None
        self._hb_rtt_min: Optional[float] = None
        self._hb_rtt_max: Optional[float] = None
        self._hb_rtt_sum = 0.0
        self._hb_rtt_count = 0
        self._hb_missed_beats = 0
        #: client-side record of debugging intent, for reattach resync:
        #: server breakpoint id -> (command, args) that created it
        self._bp_log: Dict[int, tuple] = {}
        self._bp_lock = locks.Lock()

        # The shared loop (one per client); a standalone session builds
        # a private one so the constructor keeps working without a
        # DebugClient around it.
        self._reactor = reactor if reactor is not None else Reactor(
            name=f"dionea-reactor-{session_id}")
        self._owns_reactor = reactor is None
        #: hello_acks, resolved on the reactor thread from each channel's
        #: first frame (None: the channel closed first)
        self._acks: Dict[str, Optional[Any]] = {}
        self._acked = threading.Condition()

        # Dial both channels (the paper's command and source sockets),
        # then hand them to the loop at once: every event the command
        # channel delivers finds the whole session in place.
        token = f"client-{session_id}"
        sockets: List[socket.socket] = []
        try:
            for role in (protocol.ROLE_COMMAND, protocol.ROLE_SOURCE):
                sockets.append(connect_endpoint(
                    host, port, role, pid=0, session_token=token,
                    timeout=connect_timeout,
                    resume_token=(resume_token
                                  if role == protocol.ROLE_COMMAND
                                  else None)))
        except (OSError, ReproError):
            for sock in sockets:
                sock.close()
            if self._owns_reactor:
                self._reactor.close()
            raise
        self._cmd_channel: Channel = self._reactor.register(
            sockets[0], self._on_command_messages,
            self._on_command_closed, label=f"cmd-{port}")
        self._src_channel: Channel = self._reactor.register(
            sockets[1], self._on_source_messages,
            self._on_source_closed, label=f"src-{port}")
        ack = self._await_ack("cmd", connect_timeout)
        src_ack = self._await_ack("src", connect_timeout)
        for what, got in (("command", ack), ("source", src_ack)):
            if not isinstance(got, dict) or got.get("type") != "hello_ack":
                self._abort_handshake()
                raise HandshakeError(
                    f"bad hello_ack on {what} channel from "
                    f"{host}:{port}: {got!r}")

        self._hb_timer = None
        if self.heartbeat_interval > 0:
            self._last_pong = time.monotonic()
            self._hb_timer = self._reactor.call_later(
                self.heartbeat_interval, self._heartbeat_tick)

    # -- handshake ----------------------------------------------------------------

    def _resolve_ack(self, which: str, message: Optional[Any]) -> bool:
        """Reactor thread: record a channel's first frame (or its loss).
        Returns False once the handshake is over for *which*."""
        with self._acked:
            if which in self._acks:
                return False
            if (which == "cmd" and isinstance(message, dict)
                    and message.get("type") == "hello_ack"):
                # Identity lands before any event is deferred behind it.
                self.pid = message["pid"]
                self.parent_pid = message["parent_pid"]
                self.program = message.get("program")
                self.main_thread = message.get("main_thread", 0)
                #: the server's token epoch — present it as
                #: ``resume_token`` to reclaim this session after a
                #: client restart
                self.session_token = message.get("session_token")
                self.resumed = bool(message.get("resumed", False))
            self._acks[which] = message
            self._acked.notify_all()
            return True

    def _await_ack(self, which: str, timeout: float) -> Optional[Any]:
        with self._acked:
            arrived = self._acked.wait_for(lambda: which in self._acks,
                                           timeout)
        if not arrived:
            self._abort_handshake()
            raise HandshakeError(
                f"no hello_ack on {which} channel within "
                f"{timeout:.1f}s from {self.host}:{self.port}")
        return self._acks[which]

    def _abort_handshake(self) -> None:
        self._closed.set()
        self._reactor.close_channel(self._cmd_channel)
        self._reactor.close_channel(self._src_channel)
        if self._owns_reactor:
            self._reactor.close()

    # -- lifecycle --------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    @property
    def lost(self) -> bool:
        """True when the *peer* died (vs. an orderly local close)."""
        return self.lost_reason is not None

    def declare_lost(self, reason: str) -> None:
        """Supervision verdict: the server is gone or unresponsive.

        Fails every in-flight request with :class:`SessionLostError`
        immediately, delivers a synthetic ``session_lost`` event to the
        owning client (so the process tree can mark the debuggee exited),
        then closes the session.  Idempotent; a session that already
        closed in an orderly way cannot become lost.
        """
        if self._closed.is_set() or self.lost_reason is not None:
            return
        self.lost_reason = reason
        # The lost event must be queued before close() so the dispatcher
        # delivers it (close never purges queued callbacks).
        message = protocol.make_event(
            protocol.EV_SESSION_LOST, {"pid": self.pid, "reason": reason})
        self._reactor.defer(lambda: self._deliver_event(message))
        self.close()

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        if self._hb_timer is not None:
            self._hb_timer.cancel()
        for channel in (getattr(self, "_cmd_channel", None),
                        getattr(self, "_src_channel", None)):
            if channel is not None:
                self._reactor.close_channel(channel)
        # Fail any requester still waiting.
        with self._pending_lock:
            pending = list(self._pending.values())
            self._pending.clear()
        for entry in pending:
            entry._complete(None)
        if self._owns_reactor:
            self._reactor.close()

    # -- request/response over the command channel ------------------------------------

    def request_async(self, command: str,
                      args: Optional[dict] = None) -> PendingCall:
        """Issue one command without waiting: the pipelining primitive.

        Any number of calls may be outstanding; the reactor completes
        each as its response arrives, in whatever order the server
        answers.  Raises :class:`SessionLostError` /
        :class:`SessionError` if the send itself fails.
        """
        if self._closed.is_set():
            raise self._closed_error(f"session to pid {self.pid} is closed")
        request_id = next(self._request_ids)
        call = PendingCall(self, command, request_id, args)
        with self._pending_lock:
            self._pending[request_id] = call
        try:
            self._reactor.submit(
                self._cmd_channel,
                protocol.make_request(request_id, command, args,
                                      trace=call._span.context.to_wire()))
        except (OSError, FramingError) as exc:
            # A failed send never waits: the channel is closed (dead or
            # slow peer) and the session is lost with the reason.
            self._forget(request_id)
            call._finish_span("send-failed")
            raise SessionLostError(f"send failed: {exc}") from exc
        return call

    def request(self, command: str, args: Optional[dict] = None,
                timeout: Optional[float] = None) -> Any:
        """Send one command and wait for its response.

        Every call resolves within its deadline: the server answers, the
        server reports an error (:class:`CommandError`), the deadline
        expires (:class:`RequestTimeoutError`), or the session dies
        mid-request (:class:`SessionLostError` — raised immediately on
        disconnect, not after the deadline).
        """
        return self.request_async(command, args).wait(timeout)

    def _forget(self, request_id: int) -> None:
        with self._pending_lock:
            self._pending.pop(request_id, None)

    def _closed_error(self, message: str) -> SessionError:
        if self.lost_reason is not None:
            return SessionLostError(f"{message} ({self.lost_reason})")
        return SessionError(message)

    # -- client-side breakpoint intent (reattach resync) ----------------------------

    def _record_breakpoint_intent(self, command: str, args: dict,
                                  result: Any) -> None:
        if command in ("set_break", "set_function_break"):
            if isinstance(result, dict) and isinstance(result.get("id"),
                                                       int):
                with self._bp_lock:
                    self._bp_log[result["id"]] = (command, dict(args))
        elif command == "clear_break":
            if isinstance(result, dict):
                with self._bp_lock:
                    self._bp_log.pop(result.get("removed"), None)

    def breakpoint_specs(self) -> List[tuple]:
        """(command, args) for every breakpoint this session set and has
        not cleared — what a reattach re-sends if the server lost them."""
        with self._bp_lock:
            return list(self._bp_log.values())

    # -- source channel (lock-step request/response) -------------------------------------

    def fetch_source(self, file: str, start: int = 1,
                     end: Optional[int] = None) -> dict:
        """Source-sync: pull lines of *file* over the source socket."""
        if self._closed.is_set():
            raise self._closed_error(f"session to pid {self.pid} is closed")
        args = {"file": file, "start": start}
        if end is not None:
            args["end"] = end
        with self._source_lock:
            request_id = next(self._request_ids)
            call = PendingCall(self, "source", request_id, args)
            with self._pending_lock:
                self._pending[request_id] = call
            try:
                self._reactor.submit(
                    self._src_channel,
                    protocol.make_request(request_id, "source", args))
            except (OSError, FramingError) as exc:
                self._forget(request_id)
                raise SessionLostError(
                    f"source channel failed: {exc}") from exc
            try:
                return call.wait(self.request_timeout)
            except RequestTimeoutError as exc:
                raise RequestTimeoutError(
                    f"no source response from pid {self.pid} within "
                    f"{self.request_timeout:.1f}s") from exc

    # -- reactor callbacks (reactor thread; must not block) ---------------------------

    def _on_command_messages(self, channel: Channel,
                             messages: List[dict]) -> None:
        if "cmd" not in self._acks and self._resolve_ack("cmd", messages[0]):
            messages = messages[1:]
        for message in messages:
            if not isinstance(message, dict):
                continue
            mtype = message.get("type")
            if mtype == "response":
                self._complete(message)
            elif mtype == "pong":
                self._note_pong(message)
            elif mtype == "event":
                if message.get("event") in (protocol.EV_SERVER_EXIT,
                                            protocol.EV_DETACHED):
                    # Orderly farewell: the EOF that follows is expected.
                    # (A detach leaves the debuggee RUNNING — but the
                    # channel death is deliberate either way, so neither
                    # may be misread as session loss.)
                    self._server_exited = True
                self._reactor.defer(
                    lambda m=message: self._deliver_event(m))

    def _on_source_messages(self, channel: Channel,
                            messages: List[dict]) -> None:
        if "src" not in self._acks and self._resolve_ack("src", messages[0]):
            messages = messages[1:]
        for message in messages:
            if isinstance(message, dict) and message.get("type") == "response":
                self._complete(message)

    def _on_command_closed(self, channel: Channel,
                           reason: Optional[BaseException]) -> None:
        if self._resolve_ack("cmd", None):
            return  # closed during the handshake: the dialer reports it
        if not self._closed.is_set() and not self._server_exited:
            # The stream died under us with no farewell: a crashed or
            # SIGKILLed server, or a peer that stopped reading past the
            # high-water mark.  Fail pending requests *now* — their
            # deadlines would only add latency to a known-dead peer.
            self.declare_lost("command channel closed unexpectedly"
                              + (f": {reason}" if reason else ""))
        else:
            self.close()

    def _on_source_closed(self, channel: Channel,
                          reason: Optional[BaseException]) -> None:
        if self._resolve_ack("src", None):
            return
        # A dead source channel fails any in-flight source fetch at
        # once; the session itself lives or dies by the command channel.
        with self._pending_lock:
            stranded = [c for c in self._pending.values()
                        if c.command == "source"]
            for call in stranded:
                self._pending.pop(call.request_id, None)
        for call in stranded:
            call._fail(SessionLostError(
                f"source channel to pid {self.pid} closed"))

    def _note_pong(self, message: dict) -> None:
        now = time.monotonic()
        self._last_pong = now
        sent = self._ping_sent.pop(message.get("seq"), None)
        if sent is not None:
            rtt = now - sent
            # Heartbeat RTT doubles as a liveness latency probe: the
            # pong is answered inline on the server's reactor thread,
            # so this histogram IS the server reactor's responsiveness
            # as seen from outside the debuggee.
            obs_metrics.observe("client.heartbeat_rtt_seconds", rtt)
            with self._hb_stats_lock:
                self._hb_rtt_last = rtt
                self._hb_rtt_min = rtt if self._hb_rtt_min is None \
                    else min(self._hb_rtt_min, rtt)
                self._hb_rtt_max = rtt if self._hb_rtt_max is None \
                    else max(self._hb_rtt_max, rtt)
                self._hb_rtt_sum += rtt
                self._hb_rtt_count += 1

    def _deliver_event(self, message: dict) -> None:
        """Dispatcher thread: the one place user callbacks run."""
        if self._on_event is not None:
            try:
                self._on_event(self, message)
            except Exception:  # noqa: BLE001 - user callback
                pass

    def _complete(self, response: dict) -> None:
        with self._pending_lock:
            entry = self._pending.pop(response.get("id"), None)
        if entry is not None:
            entry._complete(response)

    # -- heartbeat (reactor timer wheel) ----------------------------------------------

    def _heartbeat_tick(self) -> None:
        if self._closed.is_set():
            return
        interval = self.heartbeat_interval
        budget = interval * self.heartbeat_misses
        self._hb_seq += 1
        seq = self._hb_seq
        self._ping_sent[seq] = time.monotonic()
        if len(self._ping_sent) > 2 * self.heartbeat_misses:
            # A dead or stalled peer never pops entries; trim the
            # oldest so the in-flight map stays bounded.
            oldest = min(self._ping_sent)
            self._ping_sent.pop(oldest, None)
        try:
            self._reactor.submit(self._cmd_channel, protocol.make_ping(seq))
        except (OSError, FramingError):
            self.declare_lost("heartbeat ping could not be sent")
            return
        # The pong for this ping may take up to `interval` to matter;
        # what we police is silence across the whole miss budget.
        silence = time.monotonic() - self._last_pong
        if silence > interval:
            with self._hb_stats_lock:
                self._hb_missed_beats += 1
        if silence > budget:
            self.declare_lost(
                f"no heartbeat ack for {silence:.1f}s "
                f"({self.heartbeat_misses} beats missed)")
            return
        self._hb_timer = self._reactor.call_later(interval,
                                                  self._heartbeat_tick)

    def heartbeat_stats(self) -> Dict[str, Any]:
        """Per-session heartbeat health, for the fleet aggregate view.

        ``miss_budget_used`` is current silence over the whole budget —
        0.0 right after a pong, 1.0 at the loss verdict — so one slow
        worker stands out in a 200-session sweep long before it is
        declared lost.
        """
        interval = self.heartbeat_interval
        budget = interval * self.heartbeat_misses if interval > 0 else 0.0
        silence = time.monotonic() - self._last_pong
        with self._hb_stats_lock:
            return {
                "pid": self.pid,
                "interval": interval,
                "rtt_last": self._hb_rtt_last,
                "rtt_min": self._hb_rtt_min,
                "rtt_max": self._hb_rtt_max,
                "rtt_mean": (self._hb_rtt_sum / self._hb_rtt_count
                             if self._hb_rtt_count else None),
                "rtt_count": self._hb_rtt_count,
                "missed_beats": self._hb_missed_beats,
                "silence_seconds": silence if interval > 0 else None,
                "miss_budget_used": (min(1.0, silence / budget)
                                     if budget > 0 else None),
            }

    # -- convenience ---------------------------------------------------------------------------

    def threads(self) -> List[dict]:
        return self.request("threads")

    def ue_for_main_thread(self) -> UEId:
        return UEId(self.pid, self.main_thread)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<DebugSession {self.session_id} pid={self.pid} "
                f"{self.host}:{self.port}>")

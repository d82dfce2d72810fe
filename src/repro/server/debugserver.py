"""The debug server: the shim that lives inside every debuggee process.

Paper section 4: *"In Dionea, each debuggee has its own debug server, the
debug server is a shim to control the execution of the debuggee based on
the commands sent by the client.  Both, debuggee and debug server run in
the same process."*

Composition:

* a :class:`~repro.tracing.engine.TraceEngine` hooked into the
  interpreter's tracing facility;
* a :class:`~repro.util.reactor.Reactor` (the dedicated listener
  thread) serving an ephemeral TCP port: the accept socket, hello/role
  routing, the inline pong and request dispatch are its callbacks, and
  events leave through each channel's bounded write buffer;
* a :class:`~repro.server.sessionstate.SessionState` (the Fig. 4
  metadata block);
* optional rendezvous through a :class:`~repro.util.portfile.PortFile`
  so the client finds this server — the original process announces
  itself the same way forked children do.

The 1 server : 1 client invariant of section 4.1 is enforced at hello
time: a second ``command``-role connection is refused, because *"two
different clients could control the same debuggee at the same time,
making it inconsistent"*.  The one exception is a hello presenting the
current session token: that is the same client redialing, and its new
channel supersedes the old one.
"""

from __future__ import annotations

import functools
import os
import time
import traceback
from typing import Any, Callable, Dict, List, Optional

from time import perf_counter as _perf_counter

from ..obs import causality
from ..obs import metrics as obs_metrics
from ..obs.blackbox import BLACKBOX, REASON_WATCHDOG_HEAL
from ..obs.spans import SPANS, debug_event
from ..testkit import faults
from ..tracing.breakpoints import BreakpointStore
from ..tracing.control import UEController
from ..tracing.engine import TraceEngine
from ..tracing.frames import StackCapture
from ..util import locks
from ..util.errors import CommandError, ProtocolError, ReproError
from ..util.framing import RecvBuffer, SendBuffer
from ..util.ids import UEId
from ..util.portfile import PortFile, PortRecord
from ..util.reactor import Channel, Reactor, Timer
from . import protocol
from .commands import dispatch
from .sessionstate import SessionState
from .sockets import ListenEndpoint
from .watchdog import ServerWatchdog


class DebugServer:
    """One process's debug server.  Construct, then :meth:`start`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 portfile: Optional[PortFile] = None,
                 program: Optional[str] = None,
                 park_timeout: Optional[float] = 60.0,
                 disturb: Optional[object] = None,
                 disturb_setter: Optional[Callable[[bool], None]] = None,
                 deadlock_reporter: Optional[Callable[[], dict]] = None,
                 capture_io: bool = False,
                 client_loss_grace: float = 3.0):
        self.session = SessionState(program=program)
        self.portfile = portfile
        #: Client-loss policy: on command-channel loss, parked UEs are
        #: held for this many seconds awaiting a reattach before the
        #: server falls back to ``release_all`` (<= 0: release at once).
        self.client_loss_grace = client_loss_grace
        #: the pending grace, a timer on the reactor's wheel
        self._grace_timer: Optional[Timer] = None
        self._host = host
        self._requested_port = port
        self.engine = TraceEngine(
            breakpoints=BreakpointStore(),
            controller=UEController(),
            on_stop=self._on_ue_stop,
            on_resume=self._on_ue_resume,
            disturb=disturb,
            park_timeout=park_timeout,
        )
        self._deadlock_reporter = deadlock_reporter
        self._disturb_setter = disturb_setter
        # Fig. 2's Output/Input windows: a stdout/stderr tee plus a
        # client-fed stdin, both optional (CLI `dionea run` enables them).
        from .iocapture import InputFeed, OutputCapture
        self._capture_io = capture_io
        self.output_capture = OutputCapture(on_output=self._on_output)
        self.input_feed = InputFeed()
        self._endpoint: Optional[ListenEndpoint] = None
        self._reactor: Optional[Reactor] = None
        #: the one command channel (1 server : 1 client, section 4.1);
        #: written on the reactor thread, read by any emitting thread
        self._command: Optional[Channel] = None
        #: lazily created by the profile_start command
        self.profiler = None
        self._last_stops: Dict[UEId, dict] = {}
        self._stops_lock = locks.Lock()
        self._started = False
        #: wedge monitor; created in start()
        self.watchdog: Optional[ServerWatchdog] = None
        #: called (with the reason) after a degraded-mode detach so the
        #: facade can take down the rest of the debugger (fork patcher,
        #: handler registrations) — the server only owns its own half.
        self.on_detach: Optional[Callable[[str], None]] = None
        self._detached = False
        self._detach_lock = locks.Lock()

    # -- lifecycle --------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    @property
    def port(self) -> int:
        if self._endpoint is None:
            raise ReproError("server not started")
        return self._endpoint.port

    def start(self, install_tracing: bool = True,
              announce: bool = True) -> None:
        if self._started:
            raise ReproError("debug server already started")
        self._open_transport(self._requested_port)
        if install_tracing and not self.engine.installed:
            self.engine.install()
        if self._capture_io and not self.output_capture.installed:
            self.output_capture.install()
        self._started = True
        self.watchdog = ServerWatchdog(self)
        self.watchdog.start()
        if announce and self.portfile is not None:
            self.announce()
        debug_event("server", f"debug server up on port {self.port}")

    def announce(self) -> None:
        """Write this server's coordinates into the rendezvous file."""
        if self.portfile is None:
            raise ReproError("no portfile configured")
        self.portfile.announce(PortRecord(
            pid=self.session.pid,
            parent_pid=self.session.parent_pid,
            host=self._host,
            port=self.port,
            created_at=time.time(),
        ))

    def _open_transport(self, port: int) -> None:
        """A fresh endpoint on a fresh reactor ("create a listener
        thread"): the accept socket is the reactor's first reader."""
        endpoint = ListenEndpoint(self._host, port)
        reactor = Reactor(name=f"dionea-listener-{endpoint.port}",
                          side="server")
        self._endpoint, self._reactor, self._command = \
            endpoint, reactor, None
        reactor.add_reader(endpoint, functools.partial(
            self._on_accept, reactor, endpoint))

    @property
    def client_attached(self) -> bool:
        """True while a command client holds this debuggee."""
        return self._command is not None

    def close(self) -> None:
        self._shutdown(protocol.make_event(protocol.EV_SERVER_EXIT,
                                           {"pid": self.session.pid}))
        debug_event("server", "debug server closed")

    def detach(self, reason: str) -> None:
        """Degraded mode: remove the debugger, leave the debuggee running.

        The do-no-harm escape hatch: uninstall the trace hooks, free
        every parked UE, drop the sockets, tombstone the portfile so no
        client ever redials this pid, and tell the attached client with
        an ``EV_DETACHED`` farewell (NOT ``server_exit`` — the process
        lives on).  Idempotent; safe from any thread, including the
        watchdog's.

        In a child still holding the parent's server (see
        :attr:`_inherited`) it touches nothing of the parent's: no
        tombstone, no farewell, and the inherited descriptors are closed
        the way phase C closes them.
        """
        inherited = self._inherited
        with self._detach_lock:
            if self._detached or not self._started:
                return
            self._detached = True
        obs_metrics.inc("server.detaches")
        debug_event("server", f"detaching from debuggee: {reason}")
        # Terminal black-box flush FIRST: "why did the debugger let go"
        # must hit disk before any teardown step can wedge or die.
        BLACKBOX.force_flush(f"detach:{reason}", terminal=True)
        # Tombstone BEFORE the sockets go: the instant the listener
        # dies, a watching client starts redialing unless told not to.
        if self.portfile is not None and not inherited:
            try:
                self.portfile.tombstone(self.session.pid, host=self._host,
                                        reason=reason)
            except (OSError, ReproError):
                debug_event("server", "portfile tombstone failed")
        self._shutdown(None if inherited else protocol.make_event(
            protocol.EV_DETACHED,
            {"pid": self.session.pid, "reason": reason}))
        callback = self.on_detach
        if callback is not None:
            try:
                callback(reason)
            except Exception:  # noqa: BLE001 - facade cleanup best-effort
                debug_event("server", "on_detach callback failed")

    @property
    def detached(self) -> bool:
        return self._detached

    @property
    def _inherited(self) -> bool:
        """True in a forked child whose phase C failed before
        :meth:`reinit_after_fork`: the session block still names the
        parent's pid, and the transport is the parent's."""
        return self.session.pid != os.getpid()

    def _shutdown(self, farewell: Optional[dict]) -> None:
        """Common teardown for close() and detach(): release everything."""
        if not self._started:
            return
        self._started = False
        # An inherited server's reactor and watchdog threads are the
        # parent's and did not survive the fork.
        inherited = self._inherited
        self._cancel_grace_timer()
        if self.watchdog is not None:
            if inherited:
                self.watchdog.reset_after_fork()
            else:
                self.watchdog.stop()
        if self.profiler is not None and self.profiler.running:
            self.profiler.stop()
        if self.output_capture.installed:
            self.output_capture.uninstall()
        if self.input_feed.installed:
            self.input_feed.uninstall()
        if self.engine.installed:
            self.engine.uninstall()  # also releases every parked UE
        if inherited:
            self._close_inherited_transport()
            return
        reactor = self._reactor
        if reactor is not None:
            # Best-effort farewell: a peer that died first only makes
            # the send report False.
            if farewell is not None:
                self._broadcast(farewell)
            reactor.close()
        self._reactor = self._endpoint = self._command = None

    def _close_inherited_transport(self) -> None:
        """Close every descriptor of the parent's reactor (its thread
        did not survive the fork) without shutdown(2), which would act
        on the parent's live sockets, and without taking any inherited
        lock.  The parent's grace timer lived on that reactor's wheel
        and goes with it."""
        if self._reactor is not None:
            self._reactor.close_after_fork()
        self._reactor = self._endpoint = self._command = None
        self._grace_timer = None

    def heal_listener(self, why: str) -> None:
        """Abandon a dead/wedged reactor and start a replacement.

        Python cannot kill a wedged thread, so the old reactor is cut
        loose: its sockets are closed out from under it (the attached
        client sees EOF) and a fresh reactor takes over on a fresh port.
        The re-announce puts the same pid on a new port in the
        rendezvous file; the client's watcher treats that as a redial.
        A client cut loose here is a lost client: the loss grace runs on
        the new reactor.
        """
        old = self._reactor
        if old is not None:
            old.abandon()
        lost_client = (self._command is not None
                       or self._grace_timer is not None)
        self._cancel_grace_timer()
        self._open_transport(0)
        if lost_client and self._started:
            self._begin_grace("listener healed")
        if self.portfile is not None:
            self.announce()
        debug_event("server", f"listener healed ({why}): "
                              f"now on port {self.port}")
        # Durable way-point: a heal means the debugger nearly died here.
        BLACKBOX.force_flush(f"{REASON_WATCHDOG_HEAL}:{why}")

    def __enter__(self) -> "DebugServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport callbacks (reactor thread; must not block) ------------------

    def _on_accept(self, reactor: Reactor, endpoint: ListenEndpoint) -> None:
        """The accept socket is readable: adopt one connection."""
        try:
            sock, address = endpoint.accept()
        except OSError:
            return
        reactor.register(sock, self._on_messages, self._handle_disconnect,
                         label=f"conn-{address[1]}",
                         recvbuf=RecvBuffer("server.listener.recv"),
                         sendbuf=SendBuffer("server.conn.send"))
        debug_event("listener", f"accepted connection from {address}")

    def _on_messages(self, channel: Channel, messages: List[Any]) -> None:
        """Route one batch of frames: hello first, then pings/requests."""
        for message in messages:
            if channel.closed:
                return
            try:
                if channel.role is None:
                    protocol.validate_hello(message)
                    channel.role = message["role"]
                    self._handle_hello(channel, message)
                elif protocol.message_type(message) == "ping":
                    self._handle_ping(channel, message)
                else:
                    protocol.validate_request(message)
                    self._contain_request(channel, message)
            except ProtocolError as exc:
                debug_event("listener",
                            f"protocol error on {channel.label}: {exc}")
                channel.reactor.close_channel(channel)
                return

    def _contain_request(self, channel: Channel, message: dict) -> None:
        try:
            self._handle_request(channel, message)
        except Exception as exc:  # noqa: BLE001 - reactor must survive
            # Containment is right (the reactor must survive), silence
            # is not: count it and keep the traceback diagnosable.
            obs_metrics.inc("server.loop_errors")
            debug_event("listener",
                        f"request handler raised {exc!r}\n"
                        + traceback.format_exc())
            self._send(channel, protocol.make_error(
                message.get("id", -1),
                f"internal error: {type(exc).__name__}: {exc}",
                kind="InternalError"))

    def _send(self, channel: Channel, message: dict) -> bool:
        """Frame *message* onto *channel*; False if the peer is gone.

        Never raises into a trace callback and never waits: a dead or
        slow peer is the reactor's to close, and its ``on_closed``
        (:meth:`_handle_disconnect`) starts the client-loss grace.
        """
        try:
            channel.reactor.submit(channel, message)
            return True
        except OSError:
            return False

    def _broadcast(self, message: dict) -> bool:
        """Send an event to the command client, if one is attached."""
        channel = self._command
        return channel is not None and self._send(channel, message)

    def _handle_hello(self, channel: Channel, hello: dict) -> None:
        resumed = False
        if channel.role == protocol.ROLE_COMMAND:
            current = self._command
            resume_token = hello.get("resume_token")
            resumed = resume_token == self.session.session_token
            if current is not None and not current.closed:
                if not resumed:
                    # 1 server : 1 client (paper section 4.1).
                    self._send(channel, protocol.make_error(
                        -1, "another client already controls this "
                            "debuggee", kind="SessionError"))
                    raise ProtocolError("second command client refused")
                # The token's holder redialed before the EOF of its old
                # channel reached this loop: that channel is its own,
                # superseded, and its close is no client loss.
                current.reactor.close_channel(current)
            elif resume_token is not None and not resumed:
                # Token-epoch mismatch: the reattacher holds a token
                # from a previous incarnation (a pre-fork parent, a
                # different process on a recycled port).  A stale
                # client driving this debuggee would corrupt both
                # sessions, so it is refused like a second client.
                self._send(channel, protocol.make_error(
                    -1, "stale session token: this debuggee is "
                        f"epoch {self.session.epoch}",
                    kind="SessionError"))
                raise ProtocolError("stale reattach token refused")
            self._command = channel
            # A command client (fresh or resuming) is back: whatever loss
            # grace was pending is void.
            self._cancel_grace_timer()
        self._send(channel, protocol.make_hello_ack(
            pid=self.session.pid,
            parent_pid=self.session.parent_pid,
            program=self.session.program,
            main_thread=self.session.main_thread_ident,
            session_token=self.session.session_token,
            resumed=resumed,
        ))
        if channel.role == protocol.ROLE_COMMAND:
            # Replay stops that happened before the client connected — a
            # forked child may hit an inherited breakpoint in the window
            # between its announce and the client's dial (Fig. 6), and a
            # reattaching client resyncs its views from the same replay.
            with self._stops_lock:
                replay = list(self._last_stops.items())
            for ue, wire in replay:
                self._send(channel, protocol.make_event(
                    protocol.EV_STOPPED,
                    {"ue": protocol.ue_to_wire(ue), "capture": wire,
                     "session_token": self.session.session_token}))

    def _handle_ping(self, channel: Channel, message: dict) -> None:
        """Heartbeat: ack a client ping inline on the reactor thread.

        Answering here (not in the command table) is deliberate: a pong
        proves the *reactor* is alive and draining its socket, which is
        exactly the liveness property the client's heartbeat monitor
        wants to measure.

        Injection point ``server.heartbeat.pong``: a ``delay`` fault
        stalls the reactor before acking (a frozen server); any other
        fault swallows the pong (a lossy/black-holed ack path).  Both
        starve the client of beats without touching the TCP stream.
        """
        fault = faults.fire("server.heartbeat.pong")
        if fault is not None:
            if fault.kind == "delay":
                fault.apply()
            else:
                return
        seq = message.get("seq", 0)
        self._send(channel, protocol.make_pong(
            seq if isinstance(seq, int) else 0))

    def _handle_disconnect(self, channel: Channel,
                           reason: Optional[BaseException]) -> None:
        """A channel's peer went away (EOF, error or slow peer)."""
        if channel is not self._command:
            # A source channel, a refused second client, or a channel
            # of a reactor a heal abandoned: not a client loss.
            return
        self._command = None
        if self._started:
            self._begin_grace(f"client lost ({reason or 'EOF'})")

    def _begin_grace(self, why: str) -> None:
        if self.client_loss_grace <= 0:
            self._release_for_lost_client(why)
            return
        # Hold parked UEs for the grace window: a restarting client may
        # reattach (resume token) and reclaim them with state intact.
        if self._grace_timer is None and self._reactor is not None:
            self._grace_timer = self._reactor.call_later(
                self.client_loss_grace, self._on_grace_expired)
            debug_event("server",
                        f"{why}; holding parked UEs for "
                        f"{self.client_loss_grace:.1f}s grace")

    def _on_grace_expired(self) -> None:
        self._grace_timer = None
        if self._started and self._command is None:
            self._release_for_lost_client("grace window expired")

    def _release_for_lost_client(self, why: str) -> None:
        # The client is gone: nothing will ever release parked UEs, so
        # set them free (debugging ends, the program survives).
        released = self.engine.controller.release_all()
        if released:
            debug_event("server", f"{why}; released {released} UEs")

    def _cancel_grace_timer(self) -> None:
        timer, self._grace_timer = self._grace_timer, None
        if timer is not None:
            timer.cancel()

    @property
    def grace_pending(self) -> bool:
        """True while parked UEs are being held for a client reattach."""
        return self._grace_timer is not None

    # -- request dispatch ---------------------------------------------------------------

    #: verbs that release debuggee execution: their trace context is
    #: parked as the process's *control context* so the next fork
    #: bracket — debuggee code this verb resumed — links back to it.
    _CONTROL_COMMANDS = frozenset((
        "resume", "resume_all", "feed_input", "close_input", "detach"))

    def _handle_request(self, channel: Channel, message: dict) -> None:
        request_id = message["id"]
        command_name = message["command"]
        # Server-side half of the command round trip: time from the frame
        # being decoded to the response handed to the socket.  The client
        # times the full round trip; the difference is the wire+queueing
        # cost, which is what §7's intrusion argument is about.
        obs_metrics.inc("server.commands", command=command_name)
        t0 = _perf_counter()
        # Causal link-back: the client stamped its request span on the
        # message; the command span becomes its child, with an rpc flow
        # descriptor so the exporter draws the cross-process edge.
        ctx = causality.from_wire(message.get("trace"))
        span_args: Dict[str, Any] = {}
        if ctx is not None:
            span_args["flow"] = {"kind": "rpc", "parent_span": ctx.span_id,
                                 "parent_pid": ctx.pid, "wall": ctx.wall}
        cmd_span = SPANS.begin(f"cmd:{command_name}", cat="command",
                               parent=ctx, **span_args)
        if command_name in self._CONTROL_COMMANDS:
            causality.note_control(cmd_span.context)
        with cmd_span, causality.activate(cmd_span.context):
            try:
                # Injection point server.request.dispatch: a `delay` fault
                # freezes the reactor mid-request (the client's per-request
                # deadline must fire); `kill`/`exit` faults die mid-request
                # (the client must surface session loss, not hang).
                faults.maybe_fault("server.request.dispatch")
                result = dispatch(self, command_name, message["args"])
            except CommandError as exc:
                obs_metrics.observe("server.command_seconds",
                                    _perf_counter() - t0,
                                    command=command_name)
                self._send(channel, protocol.make_error(request_id, str(exc)))
                return
            self._send(channel, protocol.make_response(request_id, result))
        obs_metrics.observe("server.command_seconds",
                            _perf_counter() - t0, command=command_name)

    # -- engine callbacks ------------------------------------------------------------------

    def _on_ue_stop(self, ue: UEId, capture: StackCapture) -> None:
        wire = capture.to_wire()
        with self._stops_lock:
            self._last_stops[ue] = wire
        self._broadcast(protocol.make_event(
            protocol.EV_STOPPED,
            {"ue": protocol.ue_to_wire(ue), "capture": wire,
             "session_token": self.session.session_token}))

    def _on_ue_resume(self, ue: UEId) -> None:
        with self._stops_lock:
            self._last_stops.pop(ue, None)
        self._broadcast(protocol.make_event(
            protocol.EV_RESUMED,
            {"ue": protocol.ue_to_wire(ue),
             "session_token": self.session.session_token}))

    def last_stop_for(self, ue: UEId) -> Optional[dict]:
        with self._stops_lock:
            return self._last_stops.get(ue)

    def _on_output(self, stream: str, text: str) -> None:
        """Tee callback: forward a debuggee write to the client."""
        self._broadcast(protocol.make_event(
            protocol.EV_OUTPUT,
            {"pid": self.session.pid, "stream": stream, "text": text}))

    # -- optional facilities used by the command table --------------------------------------

    def set_disturb(self, enabled: bool) -> None:
        """Toggled by the `disturb` command; wired by the Dionea facade."""
        if self._disturb_setter is None:
            raise CommandError("disturb mode not configured on this server")
        self._disturb_setter(enabled)

    def deadlock_report(self) -> dict:
        if self._deadlock_reporter is None:
            return {"available": False, "cycles": []}
        return self._deadlock_reporter()

    def emit_event(self, event: str, payload: dict) -> bool:
        """Used by the facade (fork announcements, deadlock alerts);
        True if the event reached an attached client's channel."""
        return self._broadcast(protocol.make_event(event, payload))

    # -- fork support -----------------------------------------------------------------------

    def reinit_after_fork(self) -> None:
        """Fork handler phase C, server part (paper section 5.4 C).

        Close the *inherited* descriptors (they belong to the parent's
        session — Fig. 5), rebuild the metadata block for the child
        (Fig. 4), open a fresh endpoint on a fresh reactor ("create a
        listener thread"), and announce the new server through the port
        file (Fig. 6).
        """
        # 1. The parent's reactor thread did not survive the fork; only
        #    its descriptors did.  Close them all — selector, wake pipe,
        #    channel sockets, accept socket.  The child's session is a
        #    fresh epoch with no client yet.
        self._close_inherited_transport()

        # 2. Rewrite the metadata block with child identity.  Phase C has
        #    already unlocked every lock here in place.
        self.session.rewrite_for_child()
        self._last_stops = {}
        self.output_capture.reset_after_fork()

        # 3. Fresh endpoint + reactor thread.
        self._open_transport(0)

        # 4. Restart the wedge monitor — its thread died with the fork.
        self._detached = False
        if self.watchdog is not None:
            self.watchdog.reset_after_fork()
            self.watchdog.start()

        # 5. Inform the client about the creation of a new debuggee.
        if self.portfile is not None:
            self.announce()
        debug_event("server",
                    f"child server re-established on port {self.port}")

    def record_child(self, pid: int) -> None:
        """Parent side: track forked child and tell the client (Fig. 1)."""
        self.session.record_child(pid)
        self.emit_event(protocol.EV_PROCESS_FORKED,
                        {"parent_pid": self.session.pid, "child_pid": pid})

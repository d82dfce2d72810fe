"""Reactor: the one selector loop, shared by the debug server and client.

Paper section 4: *"each debug server has a dedicated listener thread to
receive requests and send responses ... treating each request as an
event dispatched by a loop.  The implementation of this listener thread
is inspired by the Reactor pattern."*  The client needs the same loop at
fleet scale (one loop for every session's sockets instead of threads per
session), so both sides run this one class:

* the debug server registers its accept socket (:meth:`add_reader`) and
  every accepted connection; hello routing, the inline pong and request
  dispatch run as channel callbacks on the loop thread, and the
  client-loss grace is a timer on the wheel;
* the client registers each session's command and source sockets and
  rides the timer wheel for heartbeats and port-file polls.

Division of labour:

* **loop thread** — the selector.  Non-blocking framed I/O via the
  resumable :class:`~repro.util.framing.SendBuffer` /
  :class:`~repro.util.framing.RecvBuffer` pair, a timer wheel, and a
  queue of thunks posted from other threads (:meth:`call_soon`).
  Nothing here may block: no ``time.sleep``, no blocking ``recv`` —
  ``tools/lint_hotpath.py`` enforces this for this module and for the
  server handlers the loop calls.
* **dispatcher thread** — runs deferred callbacks that are allowed to
  block (client stop handlers that send requests, port-file dials),
  strictly in submission order.  It starts on the first :meth:`defer`:
  the debug server never defers, so a forked child's phase C starts
  exactly one thread, the loop.

Writers on any thread call :meth:`submit`, which appends the frame to
the channel's write buffer, pumps the socket inline (an uncontended
small frame goes out with no loop round trip) and arms write interest
only when the kernel pushed back.  One overflow rule holds on both
sides: a channel already holding more than :data:`HIGH_WATER_BYTES`
unsent when another frame arrives is closed as a slow peer.  No thread
ever waits on a peer — on the server such a wait would stall the
debuggee thread that emitted the event.
"""

from __future__ import annotations

import heapq
import itertools
import os
import queue
import selectors
import socket
import threading
from time import monotonic as _monotonic
from time import perf_counter as _perf_counter
from typing import Any, Callable, List, Optional

from ..obs import metrics as obs_metrics
from . import locks
from .errors import FramingError
from .framing import RecvBuffer, SendBuffer, encode_frame

#: Per-channel bound on unsent bytes.  A frame submitted while the
#: channel already holds more than this closes the channel: the peer
#: stopped reading, and buffering without limit (or waiting) would make
#: a stalled peer the writer's problem.
HIGH_WATER_BYTES = 1 << 20


class Timer:
    """One scheduled callback on the reactor's timer wheel."""

    __slots__ = ("when", "fn", "cancelled")

    def __init__(self, when: float, fn: Callable[[], None]):
        self.when = when
        self.fn = fn
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class Channel:
    """One registered socket: framing state + write queue + callbacks.

    ``on_messages(channel, messages)`` runs on the loop thread and must
    not block; ``on_closed(channel, reason)`` runs on the loop thread
    when the peer goes away (``reason`` is ``None`` for an orderly EOF,
    the exception otherwise) — never for an owner's
    :meth:`Reactor.close_channel`.  ``role`` is free for the owner (the
    server stores the role its hello named).
    """

    def __init__(self, reactor: "Reactor", sock: socket.socket,
                 on_messages: Callable[["Channel", List[Any]], None],
                 on_closed: Callable[["Channel", Optional[BaseException]],
                                     None],
                 label: str, recvbuf: RecvBuffer, sendbuf: SendBuffer):
        self.reactor = reactor
        self.sock = sock
        self.label = label
        self.on_messages = on_messages
        self.on_closed = on_closed
        self.recvbuf = recvbuf
        self.sendbuf = sendbuf
        #: guards sendbuf; a plain Lock (no Python-level frames to trace)
        self.lock = locks.Lock()
        self.closed = False
        self.role: Optional[str] = None
        #: loop-thread-only: is EVENT_WRITE currently registered?
        self.write_armed = False

    def fileno(self) -> int:
        return self.sock.fileno()


class Reactor:
    """Single-threaded selector loop multiplexing a set of sockets.

    *side* (``"server"`` or ``"client"``) prefixes the loop's metric
    names, so one process running both sides keeps them apart.
    """

    def __init__(self, name: str = "dionea-reactor", side: str = "client"):
        self.name = name
        self._selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self._selector.register(self._wake_r, selectors.EVENT_READ,
                                data=None)
        #: thunks to run on the loop thread (register/interest/close)
        self._commands: "queue.SimpleQueue[Callable[[], None]]" = \
            queue.SimpleQueue()
        self._timers: List[tuple] = []
        self._timer_seq = itertools.count()
        self._channels: List[Channel] = []
        #: non-channel readers (the server's accept socket)
        self._readers: List[Any] = []
        self._lock = locks.Lock()
        self._dispatch_queue: "queue.SimpleQueue[Optional[Callable]]" = \
            queue.SimpleQueue()
        self._stopping = False
        self._closed = False
        self._thread: Optional[threading.Thread] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._m_tick = f"{side}.reactor_tick_seconds"
        self._m_tx = f"{side}.reactor_tx_frames"
        self._m_rx = f"{side}.reactor_rx_frames"
        self._m_slow = f"{side}.reactor_slow_peers"

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the loop thread (idempotent)."""
        with self._lock:
            if self._closed:
                raise FramingError("reactor is closed")
            if self._thread is not None:
                return
            self._thread = threading.Thread(
                target=self._run, name=self.name, daemon=True)
            self._thread.start()

    def close(self, timeout: float = 5.0) -> None:
        """Stop both threads and close every registered socket."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            thread, dispatcher = self._thread, self._dispatcher
        self._stopping = True
        self._wake()
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout)
        if dispatcher is not None:
            self._dispatch_queue.put(None)
            if dispatcher is not threading.current_thread():
                dispatcher.join(timeout)
        # The loop's finally closed registered sockets; if the loop never
        # ran (close before first register), clean up directly.
        if thread is None:
            self._teardown()

    def abandon(self) -> None:
        """Cut a wedged loop loose: close its sockets, leave its thread.

        Python cannot kill a thread stuck in a handler, so the sockets
        are shut down and closed under it (peers see EOF at once); the
        loop exits on its own when the handler returns.  The selector
        and the wake pipe stay with that thread: their descriptor
        numbers may be reused the moment they close, and only the
        thread knows when it has stopped using them.
        """
        self._closed = self._stopping = True
        for channel in list(self._channels):
            channel.closed = True
            _close_socket(channel.sock, shutdown=True)
        for reader in list(self._readers):
            reader.close()
        self._wake()

    def close_after_fork(self) -> None:
        """Fork phase C: close every descriptor this process inherited.

        The loop thread did not survive the fork, so nothing else uses
        these descriptors: the selector, the wake pipe, every channel
        socket and every reader are closed here.  Never ``shutdown(2)``
        (it acts on the socket the parent still serves) and never take
        an inherited lock (the parent's loop may have held one at the
        fork, and no thread in the child will release it).
        """
        self._closed = self._stopping = True
        for channel in self._channels:
            channel.closed = True
            _close_socket(channel.sock, shutdown=False)
        for reader in self._readers:
            reader.close()
        try:
            self._selector.close()
        except OSError:
            pass
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass

    # -- cross-thread API --------------------------------------------------

    def register(self, sock: socket.socket,
                 on_messages: Callable[[Channel, List[Any]], None],
                 on_closed: Callable[[Channel, Optional[BaseException]],
                                     None],
                 label: str = "?",
                 recvbuf: Optional[RecvBuffer] = None,
                 sendbuf: Optional[SendBuffer] = None) -> Channel:
        """Adopt *sock* into the loop; returns its :class:`Channel`.

        The socket is switched to non-blocking mode; all further reads
        happen on the loop thread.  *recvbuf*/*sendbuf* default to
        buffers on the ``net.frame.*`` injection points.  Starts the
        loop on first use.
        """
        self.start()
        sock.setblocking(False)
        channel = Channel(self, sock, on_messages, on_closed, label,
                          recvbuf or RecvBuffer(), sendbuf or SendBuffer())
        self.call_soon(lambda: self._do_register(channel))
        return channel

    def add_reader(self, fileobj: Any, on_readable: Callable[[], None]) -> None:
        """Call *on_readable* on the loop thread whenever *fileobj* is
        readable (the accept socket); the reactor closes it on teardown.

        Before the loop's first turn the reader is registered inline, so
        the new loop thread starts straight into ``select`` (phase C
        pays no wake-up hand-off)."""
        if self._thread is None:
            self._do_add_reader(fileobj, on_readable)
        else:
            self.call_soon(lambda: self._do_add_reader(fileobj, on_readable))
        self.start()

    def submit(self, channel: Channel, message: Any) -> None:
        """Queue one framed *message* on *channel* and push it along.

        Never blocks.  Raises ``OSError`` if the channel is closed, if
        the send failed, or if the channel already held more than
        :data:`HIGH_WATER_BYTES` unsent (the channel is then closed as a
        slow peer and its owner's ``on_closed`` runs with the reason).
        """
        frame = encode_frame(message)
        failure: Optional[BaseException] = None
        drained = True
        with channel.lock:
            if channel.closed:
                raise OSError(f"channel {channel.label} is closed")
            pending = channel.sendbuf.pending_bytes
            if pending > HIGH_WATER_BYTES:
                obs_metrics.inc(self._m_slow)
                failure = ConnectionError(
                    f"slow peer on {channel.label}: {pending} bytes unsent "
                    f"(high-water mark {HIGH_WATER_BYTES})")
            else:
                channel.sendbuf.append(frame)
                obs_metrics.inc(self._m_tx)
                try:
                    drained = channel.sendbuf.pump(channel.sock)
                except (FramingError, OSError) as exc:
                    failure = exc
        if failure is not None:
            self.call_soon(lambda: self._do_close(channel, failure))
            raise OSError(
                f"send on {channel.label} failed: {failure}") from failure
        if not drained:
            self.call_soon(lambda: self._do_arm_write(channel))

    def close_channel(self, channel: Channel) -> None:
        """Owner's close: take *channel* out of the loop, shut it down."""
        channel.closed = True
        self.call_soon(lambda: self._do_unregister(channel, shutdown=True))

    def call_later(self, delay: float, fn: Callable[[], None]) -> Timer:
        """Run *fn* on the loop thread after *delay* seconds.

        Starts the loop on first use: a timer may well be the client's
        first interaction (``watch_portfile`` before any attach).
        """
        self.start()
        timer = Timer(_monotonic() + max(0.0, delay), fn)
        self.call_soon(lambda: heapq.heappush(
            self._timers, (timer.when, next(self._timer_seq), timer)))
        return timer

    def call_soon(self, fn: Callable[[], None]) -> None:
        """Run *fn* on the loop thread: inline if already there, else at
        the loop's next turn (the watchdog's liveness probe)."""
        if threading.current_thread() is self._thread:
            fn()
        else:
            self._commands.put(fn)
            self._wake()

    def defer(self, fn: Callable[[], None]) -> None:
        """Run *fn* on the dispatcher thread (blocking allowed there)."""
        self.start()
        with self._lock:
            if self._dispatcher is None and not self._closed:
                self._dispatcher = threading.Thread(
                    target=self._dispatch_loop, name=f"{self.name}-events",
                    daemon=True)
                self._dispatcher.start()
        self._dispatch_queue.put(fn)

    def _dispatch_loop(self) -> None:
        """Dispatcher thread: deferred callbacks, submission order."""
        from .ids import untrace_current_thread
        untrace_current_thread()  # infra thread: never a debuggee UE
        while True:
            fn = self._dispatch_queue.get()
            if fn is None:
                return
            try:
                fn()
            except Exception:  # noqa: BLE001 - callbacks must not kill it
                pass

    # -- loop internals (loop thread only) ---------------------------------

    def _wake(self) -> None:
        try:
            os.write(self._wake_w, b"x")
        except OSError:
            pass  # pipe full (the loop is already due to wake) or closed

    def _do_register(self, channel: Channel) -> None:
        if self._stopping:
            self._do_unregister(channel, shutdown=False)
            return
        self._channels.append(channel)
        try:
            self._selector.register(channel, selectors.EVENT_READ,
                                    data=channel)
        except (KeyError, ValueError, OSError):
            self._do_close(channel, None)

    def _do_add_reader(self, fileobj: Any,
                       on_readable: Callable[[], None]) -> None:
        self._readers.append(fileobj)
        if self._stopping:
            return  # teardown (or abandon) closes it
        try:
            self._selector.register(fileobj, selectors.EVENT_READ,
                                    data=on_readable)
        except (KeyError, ValueError, OSError):
            pass

    def _do_arm_write(self, channel: Channel) -> None:
        if channel.closed or channel.write_armed:
            return
        try:
            self._selector.modify(
                channel, selectors.EVENT_READ | selectors.EVENT_WRITE,
                data=channel)
            channel.write_armed = True
        except (KeyError, ValueError, OSError):
            pass

    def _do_disarm_write(self, channel: Channel) -> None:
        if not channel.write_armed:
            return
        try:
            self._selector.modify(channel, selectors.EVENT_READ,
                                  data=channel)
        except (KeyError, ValueError, OSError):
            pass
        channel.write_armed = False

    def _do_unregister(self, channel: Channel, shutdown: bool) -> None:
        try:
            self._selector.unregister(channel)
        except (KeyError, ValueError, OSError):
            pass
        if channel in self._channels:
            self._channels.remove(channel)
        _close_socket(channel.sock, shutdown)

    def _do_close(self, channel: Channel,
                  reason: Optional[BaseException]) -> None:
        """Peer loss noticed by the loop: tear down + notify the owner."""
        with channel.lock:
            already = channel.closed
            channel.closed = True
        self._do_unregister(channel, shutdown=False)
        if not already:
            try:
                channel.on_closed(channel, reason)
            except Exception:  # noqa: BLE001 - loop must survive owners
                pass

    def _service(self, channel: Channel, mask: int) -> None:
        if mask & selectors.EVENT_WRITE:
            failure: Optional[BaseException] = None
            drained = False
            with channel.lock:
                try:
                    drained = channel.sendbuf.pump(channel.sock)
                except (FramingError, OSError) as exc:
                    failure = exc
            if failure is not None:
                self._do_close(channel, failure)
                return
            if drained:
                self._do_disarm_write(channel)
        if mask & selectors.EVENT_READ:
            try:
                messages, eof = channel.recvbuf.pump(channel.sock)
            except (FramingError, OSError) as exc:
                self._do_close(channel, exc)
                return
            if messages:
                obs_metrics.inc(self._m_rx, len(messages))
                try:
                    channel.on_messages(channel, messages)
                except Exception:  # noqa: BLE001 - loop must survive owners
                    pass
            if eof:
                self._do_close(channel, None)

    def _run_timers(self) -> None:
        now = _monotonic()
        while self._timers and self._timers[0][0] <= now:
            _when, _seq, timer = heapq.heappop(self._timers)
            if timer.cancelled:
                continue
            try:
                timer.fn()
            except Exception:  # noqa: BLE001 - loop must survive owners
                pass

    def _next_timeout(self) -> Optional[float]:
        while self._timers and self._timers[0][2].cancelled:
            heapq.heappop(self._timers)
        if not self._timers:
            return None
        return max(0.0, self._timers[0][0] - _monotonic())

    def _run(self) -> None:
        from .ids import untrace_current_thread
        untrace_current_thread()  # infra thread: never a debuggee UE
        try:
            while not self._stopping:
                events = self._selector.select(self._next_timeout())
                tick_start = _perf_counter()
                for key, mask in events:
                    if key.data is None:
                        try:
                            os.read(self._wake_r, 4096)
                        except OSError:
                            pass
                    elif isinstance(key.data, Channel):
                        self._service(key.data, mask)
                    else:
                        try:
                            key.data()
                        except Exception:  # noqa: BLE001 - loop survives
                            pass
                while True:
                    try:
                        thunk = self._commands.get_nowait()
                    except queue.Empty:
                        break
                    thunk()
                self._run_timers()
                if events:
                    # Loop lag: how long one batch of ready events holds
                    # the single loop — every channel queues behind it.
                    obs_metrics.observe(self._m_tick,
                                        _perf_counter() - tick_start)
        finally:
            self._teardown()

    def _teardown(self) -> None:
        for channel in list(self._channels):
            self._do_close(channel, None)
        for reader in self._readers:
            reader.close()
        try:
            self._selector.close()
        except OSError:
            pass
        for fd in (self._wake_r, self._wake_w):
            try:
                os.close(fd)
            except OSError:
                pass

    # -- introspection ------------------------------------------------------

    def channel_count(self) -> int:
        return len(self._channels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Reactor {self.name} channels={len(self._channels)} "
                f"running={self.running}>")


def _close_socket(sock: socket.socket, shutdown: bool) -> None:
    if shutdown:
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
    try:
        sock.close()
    except OSError:
        pass

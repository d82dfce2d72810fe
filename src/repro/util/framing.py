"""Length-prefixed JSON framing for the debug wire protocol.

Dionea's client and servers speak over TCP sockets (paper section 4), so
message boundaries must be explicit.  We use the classic netstring-like
layout::

    +----------+----------------------+
    | 4 bytes  |  payload             |
    | big-end  |  UTF-8 JSON object   |
    | length   |                      |
    +----------+----------------------+

JSON keeps the protocol inspectable and language-neutral (the paper's
Dionea speaks to Ruby *and* Python servers from one client).  Pickle is
deliberately avoided on the control channel: the debugger must never let a
debuggee-controlled byte stream execute code in the client.

One codec and one pair of I/O pumps:

* :func:`encode_frame` / :class:`FrameDecoder` — sans-io, byte-buffer
  based;
* :class:`SendBuffer` / :class:`RecvBuffer` — *resumable* non-blocking
  pumps for the :mod:`~repro.util.reactor` loop on both sides: a
  partial write or a short read parks the remaining bytes and the next
  ``pump`` call picks up exactly where the kernel stopped.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Iterator, List, Tuple

from .errors import FramingError


def _io_fault(point: str, nbytes: int) -> int:
    """Fault-injection hook (late import: testkit sits above util)."""
    from ..testkit import faults
    return faults.io_fault(point, nbytes)

HEADER = struct.Struct(">I")
#: Refuse frames above this size: a corrupted length prefix must not make
#: the listener allocate gigabytes.
MAX_FRAME_BYTES = 32 * 1024 * 1024


def encode_frame(message: Any) -> bytes:
    """Serialize *message* (a JSON-able object) into one wire frame."""
    try:
        payload = json.dumps(message, separators=(",", ":"),
                             ensure_ascii=False).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise FramingError(f"message is not JSON-serializable: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise FramingError(
            f"frame too large: {len(payload)} > {MAX_FRAME_BYTES}")
    return HEADER.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Any:
    """Decode one frame payload back into a message object."""
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FramingError(f"bad frame payload: {exc}") from exc


class FrameDecoder:
    """Incremental frame decoder for non-blocking sockets.

    Feed arbitrary byte chunks with :meth:`feed`; collect complete messages
    with :meth:`messages`.  The decoder tolerates frames split across any
    chunk boundary, including inside the 4-byte header.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    def feed(self, data: bytes) -> None:
        self._buffer.extend(data)

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)

    def messages(self) -> Iterator[Any]:
        """Yield every complete message currently buffered."""
        while True:
            if len(self._buffer) < HEADER.size:
                return
            (length,) = HEADER.unpack_from(self._buffer, 0)
            if length > MAX_FRAME_BYTES:
                raise FramingError(
                    f"incoming frame too large: {length} > {MAX_FRAME_BYTES}")
            end = HEADER.size + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[HEADER.size:end])
            del self._buffer[:end]
            yield decode_payload(payload)


class SendBuffer:
    """Resumable non-blocking write buffer for one socket.

    Frames are appended whole (:meth:`append`); :meth:`pump` pushes as
    many bytes as the kernel will take right now and returns ``True``
    once the buffer is fully drained.  A short write leaves the unsent
    tail in place — no byte is ever re-sent or dropped regardless of
    where the kernel cut the write.  *point* names the fault-injection
    point each send consults (``net.frame.send`` on the client,
    ``server.conn.send`` on the debug server), so the testkit's
    short-write, EINTR and dead-peer schedules exercise this path.
    """

    def __init__(self, point: str = "net.frame.send") -> None:
        self.point = point
        self._chunks: List[memoryview] = []
        self._pending = 0

    @property
    def pending_bytes(self) -> int:
        return self._pending

    def __bool__(self) -> bool:
        return self._pending > 0

    def append(self, frame: bytes) -> None:
        """Queue one already-encoded frame for transmission."""
        if frame:
            self._chunks.append(memoryview(frame))
            self._pending += len(frame)

    def append_message(self, message: Any) -> None:
        self.append(encode_frame(message))

    def pump(self, sock) -> bool:
        """Write what the socket will take; True when fully drained.

        ``EAGAIN`` and ``EINTR`` both mean "resume later" — the caller
        (the reactor loop) keeps write interest registered and calls
        again when the selector says the socket is writable.  Raises
        :class:`FramingError` on a peer that closed mid-frame and lets
        other ``OSError``\\ s propagate for the caller's dead-peer
        handling.
        """
        while self._chunks:
            view = self._chunks[0]
            try:
                budget = _io_fault(self.point, len(view))
                sent = sock.send(view[:budget])
            except (BlockingIOError, InterruptedError):
                return False
            if sent == 0:
                raise FramingError("connection closed mid-send")
            self._pending -= sent
            if sent == len(view):
                self._chunks.pop(0)
            else:
                self._chunks[0] = view[sent:]
        return True


class RecvBuffer:
    """Resumable non-blocking read side: socket → complete messages.

    Wraps a :class:`FrameDecoder`; :meth:`pump` reads whatever bytes are
    available right now and returns the complete messages they finish,
    tolerating frames split at any byte boundary across any number of
    pumps.  *point* names the fault-injection point each read consults
    (``net.frame.recv`` on the client, ``server.listener.recv`` on the
    debug server; short-read and EINTR schedules apply).
    """

    def __init__(self, point: str = "net.frame.recv") -> None:
        self.point = point
        self._decoder = FrameDecoder()

    @property
    def pending_bytes(self) -> int:
        return self._decoder.pending_bytes

    def pump(self, sock, budget: int = 65536) -> Tuple[List[Any], bool]:
        """Drain readable bytes; returns ``(messages, eof)``.

        ``eof`` is True on orderly close (empty read).  A close landing
        *inside* a frame raises :class:`FramingError`.  ``EAGAIN`` /
        ``EINTR`` end the pump with whatever was decoded so far — the
        selector will re-arm the read.
        """
        messages: List[Any] = []
        while True:
            try:
                allowed = _io_fault(self.point, budget)
                data = sock.recv(allowed)
            except (BlockingIOError, InterruptedError):
                return messages, False
            if not data:
                if self._decoder.pending_bytes:
                    raise FramingError(
                        f"connection closed mid-frame "
                        f"({self._decoder.pending_bytes} bytes buffered)")
                return messages, True
            self._decoder.feed(data)
            messages.extend(self._decoder.messages())
            if len(data) < allowed:
                # The kernel gave less than asked: the queue is drained
                # for now; returning avoids one guaranteed-EAGAIN call.
                return messages, False

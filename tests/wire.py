"""Blocking frame I/O for test peers that stand in for the other side.

Production code frames through :class:`~repro.util.framing.SendBuffer` /
:class:`~repro.util.framing.RecvBuffer` on a reactor.  A fake server or a
raw test client only needs "write one frame, read one frame" on a
blocking socket, built here on the same codec.
"""

from repro.util.errors import FramingError
from repro.util.framing import HEADER, decode_payload, encode_frame


def send_msg(sock, message):
    sock.sendall(encode_frame(message))


def _read_exact(sock, n):
    chunks = bytearray()
    while len(chunks) < n:
        chunk = sock.recv(n - len(chunks))
        if not chunk:
            if not chunks:
                return None
            raise FramingError(f"connection closed mid-frame "
                               f"({len(chunks)}/{n} bytes)")
        chunks.extend(chunk)
    return bytes(chunks)


def recv_msg(sock):
    """One framed message, or None on orderly EOF between frames."""
    header = _read_exact(sock, HEADER.size)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    payload = _read_exact(sock, length) if length else b""
    if payload is None:
        raise FramingError("connection closed between header and payload")
    return decode_payload(payload)

"""Unit: resumable non-blocking framing buffers (the reactor seam).

The reactor's I/O correctness, on both sides, reduces to two properties:

* :class:`SendBuffer` — no byte is ever re-sent or dropped, no matter
  where the kernel (or an injected fault) cuts a write;
* :class:`RecvBuffer` — frames reassemble no matter how reads fragment,
  and EOF is only "orderly" on a frame boundary.

Both are proven here against scripted sockets and against the testkit's
``net.frame.send`` / ``net.frame.recv`` injection points (short I/O and
EINTR schedules), so the stress tier's fault schedules exercise the same
resume paths the selector loop runs in production.  The debug server's
buffers consult their own points (``server.conn.send`` /
``server.listener.recv``) through the same code.
"""

import pytest

from repro.testkit import faults
from repro.util.errors import FramingError
from repro.util.framing import (
    FrameDecoder,
    RecvBuffer,
    SendBuffer,
    encode_frame,
)


class ScriptedSendSocket:
    """Accepts at most *accept* bytes per send; then follows a script."""

    def __init__(self, script=None):
        #: per-call behavior: int = accept that many bytes,
        #: an exception class = raise it once
        self.script = list(script or [])
        self.sent = bytearray()
        self.calls = 0

    def send(self, data) -> int:
        self.calls += 1
        step = self.script.pop(0) if self.script else 1 << 20
        if isinstance(step, type) and issubclass(step, BaseException):
            raise step()
        n = min(len(data), step)
        self.sent.extend(bytes(data[:n]))
        return n


class ScriptedRecvSocket:
    """Returns scripted chunks; [] means EAGAIN, b"" means EOF."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def recv(self, budget: int) -> bytes:
        if not self.chunks:
            raise BlockingIOError()
        step = self.chunks.pop(0)
        if isinstance(step, type) and issubclass(step, BaseException):
            raise step()
        return bytes(step[:budget])


def decoded(data: bytes):
    decoder = FrameDecoder()
    decoder.feed(data)
    return list(decoder.messages())


@pytest.fixture(autouse=True)
def clean_faults():
    faults.registry().reset()
    yield
    faults.registry().reset()


class TestSendBuffer:
    def test_short_writes_resume_without_loss_or_dup(self):
        buf = SendBuffer()
        m1, m2 = {"n": 1, "pad": "x" * 100}, {"n": 2}
        buf.append_message(m1)
        buf.append_message(m2)
        # 3 bytes per call, EAGAIN every few calls: many pump resumes.
        sock = ScriptedSendSocket(
            script=[3, 3, BlockingIOError, 3, 3, 3, BlockingIOError] + [3] * 200)
        pumps = 0
        while not buf.pump(sock):
            pumps += 1
            assert pumps < 500, "pump made no progress"
        assert buf.pending_bytes == 0
        assert decoded(bytes(sock.sent)) == [m1, m2]

    def test_append_while_partially_sent_keeps_order(self):
        buf = SendBuffer()
        m1, m2 = {"first": True}, {"second": True}
        buf.append_message(m1)
        sock = ScriptedSendSocket(script=[2, BlockingIOError])
        assert buf.pump(sock) is False        # 2 bytes of m1 went out
        buf.append_message(m2)                # queued behind the tail
        assert buf.pump(sock) is True
        assert decoded(bytes(sock.sent)) == [m1, m2]

    def test_injected_eintr_is_resume_not_loss(self):
        buf = SendBuffer()
        message = {"payload": "y" * 64}
        buf.append_message(message)
        with faults.armed("net.frame.send", faults.Fault.eintr(),
                          faults.Schedule.on_hits(1)):
            sock = ScriptedSendSocket()
            assert buf.pump(sock) is False    # EINTR parks the frame
            assert buf.pending_bytes > 0
            assert buf.pump(sock) is True     # resumes cleanly
        assert decoded(bytes(sock.sent)) == [message]

    def test_injected_partial_budget_still_drains(self):
        buf = SendBuffer()
        message = {"k": "z" * 50}
        buf.append_message(message)
        with faults.armed("net.frame.send", faults.Fault.partial(1),
                          faults.Schedule.always()):
            sock = ScriptedSendSocket()
            assert buf.pump(sock) is True     # loops 1 byte at a time
        assert sock.calls >= len(encode_frame(message))
        assert decoded(bytes(sock.sent)) == [message]

    def test_peer_close_mid_send_raises(self):
        buf = SendBuffer()
        buf.append_message({"a": 1})
        sock = ScriptedSendSocket(script=[0])  # send() returning 0 = gone
        with pytest.raises(FramingError):
            buf.pump(sock)


class TestRecvBuffer:
    def test_byte_at_a_time_reassembly(self):
        m1, m2 = {"hello": 1}, {"world": [1, 2, 3]}
        wire = encode_frame(m1) + encode_frame(m2)
        buf = RecvBuffer()
        got = []
        sock = ScriptedRecvSocket([wire[i:i + 1] for i in range(len(wire))])
        while True:
            messages, eof = buf.pump(sock)
            got.extend(messages)
            assert not eof
            if len(got) == 2:
                break
        assert got == [m1, m2]
        assert buf.pending_bytes == 0

    def test_eof_on_frame_boundary_is_orderly(self):
        message = {"bye": True}
        buf = RecvBuffer()
        sock = ScriptedRecvSocket([encode_frame(message), b""])
        got = []
        eof = False
        while not eof:
            messages, eof = buf.pump(sock)
            got.extend(messages)
        assert got == [message]
        assert eof is True

    def test_eof_mid_frame_raises(self):
        wire = encode_frame({"cut": "short"})
        buf = RecvBuffer()
        sock = ScriptedRecvSocket([wire[:len(wire) - 2], b""])
        with pytest.raises(FramingError):
            while True:
                _messages, eof = buf.pump(sock)
                assert not eof

    def test_injected_eintr_ends_pump_keeps_bytes(self):
        message = {"resume": "me"}
        wire = encode_frame(message)
        buf = RecvBuffer()
        sock = ScriptedRecvSocket([wire[:3], wire[3:]])
        with faults.armed("net.frame.recv", faults.Fault.eintr(),
                          faults.Schedule.on_hits(2)):
            messages, eof = buf.pump(sock)   # reads first 3 bytes
            assert messages == [] and eof is False
            assert buf.pending_bytes == 3
            messages, eof = buf.pump(sock)   # EINTR: parked, not lost
            assert messages == [] and eof is False
            assert buf.pending_bytes == 3
            messages, eof = buf.pump(sock)   # resumes with the tail
            assert messages == [message]

    def test_injected_short_reads_reassemble(self):
        message = {"tiny": "budget", "pad": "p" * 40}
        wire = encode_frame(message)
        buf = RecvBuffer()
        # One big chunk available, but the fault clamps every recv to 1
        # byte — the frame must still reassemble across the clamped reads.
        sock = ScriptedRecvSocket([wire[i:i + 1] for i in range(len(wire))])
        with faults.armed("net.frame.recv", faults.Fault.partial(1),
                          faults.Schedule.always()):
            got = []
            while not got:
                messages, eof = buf.pump(sock)
                got.extend(messages)
                assert not eof
        assert got == [message]


class TestInjectionPointNames:
    def test_server_send_point_is_a_dead_peer(self):
        buf = SendBuffer("server.conn.send")
        buf.append_message({"a": 1})
        with faults.armed("server.conn.send",
                          faults.Fault.os_error(32, "injected EPIPE")):
            with pytest.raises(OSError):
                buf.pump(ScriptedSendSocket())
        assert buf.pump(ScriptedSendSocket()) is True

    def test_server_recv_point_clamps_reads(self):
        message = {"clamped": True}
        wire = encode_frame(message)
        buf = RecvBuffer("server.listener.recv")
        with faults.armed("server.listener.recv", faults.Fault.partial(2),
                          faults.Schedule.always()):
            sock = ScriptedRecvSocket([wire[i:i + 2]
                                       for i in range(0, len(wire), 2)])
            messages, eof = buf.pump(sock)
            stats = faults.registry().stats("server.listener.recv")
        assert messages == [message] and not eof
        assert stats[1] >= len(wire) // 2

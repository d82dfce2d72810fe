"""Unit tests: length-prefixed JSON framing (repro.util.framing)."""

import socket
import struct

import pytest

from repro.util.errors import FramingError
from repro.util.framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    RecvBuffer,
    SendBuffer,
    decode_payload,
    encode_frame,
)


class TestEncodeFrame:
    def test_roundtrip_simple_object(self):
        frame = encode_frame({"a": 1})
        decoder = FrameDecoder()
        decoder.feed(frame)
        assert list(decoder.messages()) == [{"a": 1}]

    def test_header_is_big_endian_length(self):
        frame = encode_frame([])
        (length,) = struct.unpack(">I", frame[:4])
        assert length == len(frame) - 4

    def test_unicode_payload(self):
        message = {"text": "déjà vu — ユニコード"}
        decoder = FrameDecoder()
        decoder.feed(encode_frame(message))
        assert list(decoder.messages()) == [message]

    def test_empty_containers(self):
        for message in ({}, [], "", 0, None, False):
            decoder = FrameDecoder()
            decoder.feed(encode_frame(message))
            assert list(decoder.messages()) == [message]

    def test_unserializable_raises_framing_error(self):
        with pytest.raises(FramingError):
            encode_frame({"sock": object()})

    def test_oversized_frame_rejected(self):
        huge = "x" * (MAX_FRAME_BYTES + 10)
        with pytest.raises(FramingError):
            encode_frame(huge)


class TestFrameDecoder:
    def test_multiple_messages_one_feed(self):
        decoder = FrameDecoder()
        decoder.feed(encode_frame(1) + encode_frame(2) + encode_frame(3))
        assert list(decoder.messages()) == [1, 2, 3]

    def test_split_inside_header(self):
        frame = encode_frame({"k": "v"})
        decoder = FrameDecoder()
        decoder.feed(frame[:2])
        assert list(decoder.messages()) == []
        decoder.feed(frame[2:])
        assert list(decoder.messages()) == [{"k": "v"}]

    def test_split_inside_payload(self):
        frame = encode_frame(list(range(100)))
        decoder = FrameDecoder()
        decoder.feed(frame[:10])
        assert list(decoder.messages()) == []
        decoder.feed(frame[10:])
        assert list(decoder.messages()) == [list(range(100))]

    def test_byte_at_a_time(self):
        frame = encode_frame({"x": [1, 2, 3]})
        decoder = FrameDecoder()
        received = []
        for i in range(len(frame)):
            decoder.feed(frame[i:i + 1])
            received.extend(decoder.messages())
        assert received == [{"x": [1, 2, 3]}]

    def test_pending_bytes_tracks_buffer(self):
        decoder = FrameDecoder()
        frame = encode_frame("hello")
        decoder.feed(frame[:6])
        assert decoder.pending_bytes == 6
        decoder.feed(frame[6:])
        list(decoder.messages())
        assert decoder.pending_bytes == 0

    def test_corrupt_length_rejected(self):
        decoder = FrameDecoder()
        decoder.feed(struct.pack(">I", MAX_FRAME_BYTES + 1))
        with pytest.raises(FramingError):
            list(decoder.messages())

    def test_bad_json_payload_rejected(self):
        payload = b"not json"
        decoder = FrameDecoder()
        decoder.feed(struct.pack(">I", len(payload)) + payload)
        with pytest.raises(FramingError):
            list(decoder.messages())

    def test_decode_payload_bad_utf8(self):
        with pytest.raises(FramingError):
            decode_payload(b"\xff\xfe")


def send_message(sock, message):
    out = SendBuffer()
    out.append(encode_frame(message))
    assert out.pump(sock)  # a blocking socket takes the whole frame


def recv_messages(sock, count):
    """Pump *sock* until *count* messages arrived (or EOF)."""
    inbox = RecvBuffer()
    got = []
    while len(got) < count:
        messages, eof = inbox.pump(sock)
        got.extend(messages)
        if eof:
            break
    return got


class TestBlockingHelpers:
    """The one pair of I/O pumps over a socketpair, end to end."""

    def test_send_recv_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            send_message(a, {"cmd": "step"})
            assert recv_messages(b, 1) == [{"cmd": "step"}]
        finally:
            a.close()
            b.close()

    def test_recv_returns_none_on_clean_eof(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert RecvBuffer().pump(b) == ([], True)
        finally:
            b.close()

    def test_recv_raises_on_eof_mid_frame(self):
        a, b = socket.socketpair()
        try:
            frame = encode_frame({"big": "x" * 100})
            a.sendall(frame[:10])
            a.close()
            with pytest.raises(FramingError):
                recv_messages(b, 1)
        finally:
            b.close()

    def test_many_frames_in_sequence(self):
        a, b = socket.socketpair()
        try:
            for i in range(50):
                send_message(a, {"seq": i})
            a.close()
            assert recv_messages(b, 50) == [{"seq": i} for i in range(50)]
        finally:
            b.close()

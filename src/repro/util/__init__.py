"""Shared infrastructure: framing, ids, rendezvous, rendering."""

from .errors import (
    BreakpointError,
    CommandError,
    CorpusError,
    DeadlockDetected,
    ForkHookError,
    FramingError,
    HandshakeError,
    PoolError,
    ProtocolError,
    QueueClosed,
    RendezvousError,
    ReproError,
    SessionError,
    SyncObjectError,
    TraceError,
    ViewError,
)
from .framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    decode_payload,
    encode_frame,
)
from .ids import IdAllocator, UEId, describe_ue
from .portfile import PortFile, PortFileWatcher, PortRecord, default_portfile_path
from .serde import render_namespace, render_value

__all__ = [
    "BreakpointError", "CommandError", "CorpusError", "DeadlockDetected",
    "ForkHookError", "FramingError", "HandshakeError", "PoolError",
    "ProtocolError", "QueueClosed", "RendezvousError", "ReproError",
    "SessionError", "SyncObjectError", "TraceError", "ViewError",
    "MAX_FRAME_BYTES", "FrameDecoder", "decode_payload", "encode_frame",
    "IdAllocator", "UEId", "describe_ue",
    "PortFile", "PortFileWatcher", "PortRecord", "default_portfile_path",
    "render_namespace", "render_value",
]

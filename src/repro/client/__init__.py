"""Debug client: sessions, views, shell (paper sections 4.1-4.2)."""

from .client import DebugClient
from .recording import SessionRecorder, TranscriptEntry
from .session import DebugSession, PendingCall
from .shell import Shell, parse_location
from .textui import TextUI
from .view import DebugView

__all__ = ["DebugClient", "PendingCall",
           "SessionRecorder", "TranscriptEntry",
           "DebugSession", "Shell", "parse_location", "TextUI",
           "DebugView"]

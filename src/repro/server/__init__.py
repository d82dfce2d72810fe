"""Debug server: shim, reactor transport, sockets, commands (paper §4)."""

from . import protocol
from .commands import dispatch, known_commands
from .debugserver import DebugServer
from .iocapture import InputFeed, OutputCapture
from .sessionstate import SessionState, new_session_token
from .sockets import ListenEndpoint, connect_endpoint

__all__ = [
    "protocol", "dispatch", "known_commands", "DebugServer",
    "InputFeed", "OutputCapture",
    "SessionState", "new_session_token", "ListenEndpoint",
    "connect_endpoint",
]

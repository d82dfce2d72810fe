"""Debug-session recording: the §4.1 definition, made literal.

Paper section 4.1: *"a debug session is a sequence of interactions
between debugger and debuggee, i.e., user commands sent from the GUI
client to the debug server, and replies sent from the debug server to
the client."*  :class:`SessionRecorder` captures exactly that sequence —
requests, responses and asynchronous events, timestamped and tagged with
the debuggee pid — to a JSONL transcript that can be reloaded, filtered
and rendered as a timeline.

Uses: post-mortem analysis of a debugging session (which worker stopped
when, in what order did the client release them — the §6.4 interleaving
record), regression fixtures, and documentation of reproduction steps.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..util import locks


@dataclass(frozen=True)
class TranscriptEntry:
    """One interaction."""

    timestamp: float
    pid: int
    direction: str  # "request" | "response" | "event"
    payload: Dict[str, Any]

    def to_json(self) -> str:
        return json.dumps({
            "timestamp": self.timestamp,
            "pid": self.pid,
            "direction": self.direction,
            "payload": self.payload,
        }, separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TranscriptEntry":
        raw = json.loads(line)
        return cls(timestamp=raw["timestamp"], pid=raw["pid"],
                   direction=raw["direction"], payload=raw["payload"])


class SessionRecorder:
    """Records the interaction stream of one DebugClient.

    Hooked in two places:

    * :meth:`wrap_session` intercepts a DebugSession's ``request`` so
      both the command and its result are recorded;
    * the client's event router calls :meth:`record_event` for every
      asynchronous server event.
    """

    def __init__(self) -> None:
        self._lock = locks.Lock()
        self._entries: List[TranscriptEntry] = []
        self._start = time.time()

    # -- capture -----------------------------------------------------------------

    def record(self, pid: int, direction: str,
               payload: Dict[str, Any]) -> None:
        entry = TranscriptEntry(timestamp=time.time() - self._start,
                                pid=pid, direction=direction,
                                payload=payload)
        with self._lock:
            self._entries.append(entry)

    def record_event(self, pid: int, message: Dict[str, Any]) -> None:
        self.record(pid, "event", {
            "event": message.get("event"),
            "payload": message.get("payload", {}),
        })

    def wrap_session(self, session) -> None:
        """Interpose on ``session.request`` (idempotent per session)."""
        if getattr(session, "_recorder_wrapped", False):
            return
        original = session.request

        def recorded_request(command: str,
                             args: Optional[dict] = None,
                             timeout: Optional[float] = None):
            self.record(session.pid, "request",
                        {"command": command, "args": args or {}})
            try:
                result = original(command, args, timeout)
            except Exception as exc:
                self.record(session.pid, "response",
                            {"command": command, "ok": False,
                             "error": f"{type(exc).__name__}: {exc}"})
                raise
            self.record(session.pid, "response",
                        {"command": command, "ok": True,
                         "result": result})
            return result

        session.request = recorded_request
        session._recorder_wrapped = True

    def attach_to(self, client) -> None:
        """Record everything a DebugClient does, now and in the future."""
        for session in client.sessions():
            self.wrap_session(session)
        previous_new = client.on_new_session

        def on_new(session):
            self.wrap_session(session)
            if previous_new is not None:
                previous_new(session)

        client.on_new_session = on_new

        # Tap the event stream non-invasively via the stop callback plus
        # a router shim.
        previous_route = client._route_event  # noqa: SLF001

        def recording_route(session, message):
            self.record_event(session.pid, message)
            previous_route(session, message)

        client._route_event = recording_route  # noqa: SLF001
        # future sessions are constructed with client._route_event...
        # sessions capture the bound method at attach time, so wrapping
        # the attribute above covers sessions created after this call;
        # existing sessions hold the old bound method — re-point them.
        for session in client.sessions():
            session._on_event = recording_route  # noqa: SLF001

    # -- access --------------------------------------------------------------------

    def entries(self, direction: Optional[str] = None,
                pid: Optional[int] = None) -> List[TranscriptEntry]:
        with self._lock:
            out = list(self._entries)
        if direction is not None:
            out = [e for e in out if e.direction == direction]
        if pid is not None:
            out = [e for e in out if e.pid == pid]
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- persistence ------------------------------------------------------------------

    def save(self, path: str) -> int:
        entries = self.entries()
        with open(path, "w", encoding="utf-8") as fh:
            for entry in entries:
                fh.write(entry.to_json() + "\n")
        return len(entries)

    @staticmethod
    def load(path: str) -> List[TranscriptEntry]:
        entries = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.strip():
                    entries.append(TranscriptEntry.from_json(line))
        return entries

    # -- rendering --------------------------------------------------------------------

    def render_timeline(self, max_entries: int = 200) -> str:
        """Human-readable interaction timeline."""
        lines = []
        for entry in self.entries()[:max_entries]:
            if entry.direction == "request":
                what = f"-> {entry.payload.get('command')}"
            elif entry.direction == "response":
                ok = "ok" if entry.payload.get("ok") else "ERROR"
                what = f"<- {entry.payload.get('command')} [{ok}]"
            else:
                what = f"** {entry.payload.get('event')}"
            lines.append(f"{entry.timestamp:9.3f}s  pid {entry.pid:<7d} "
                         f"{what}")
        return "\n".join(lines)

"""Stack capture and source access for the client's views.

When a UE stops, the server ships the client everything Fig. 2 displays:
the source line (Source code view), the call stack, and rendered variables
(Variables view).  Frames themselves never cross the wire — only plain
data — so the capture here is the serialization boundary.
"""

from __future__ import annotations

import gc
import linecache
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional  # noqa: F401 - Dict in wire

from ..util.serde import render_namespace


@dataclass(frozen=True)
class FrameInfo:
    """One stack entry, fully rendered."""

    file: str
    line: int
    function: str
    source: str
    locals: Dict[str, str] = field(default_factory=dict)

    def to_wire(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "function": self.function,
            "source": self.source,
            "locals": self.locals,
        }

    @classmethod
    def from_wire(cls, raw: dict) -> "FrameInfo":
        return cls(file=raw["file"], line=raw["line"],
                   function=raw["function"], source=raw["source"],
                   locals=dict(raw.get("locals", {})))


@dataclass(frozen=True)
class StackCapture:
    """A stopped UE's full state: stack (innermost first) + stop reason.

    ``watch`` carries the change record when the stop reason is a
    watchpoint hit (expression, old value, new value).
    """

    frames: List[FrameInfo]
    reason: str
    breakpoint_id: Optional[int] = None
    watch: Optional[Dict[str, Any]] = None

    @property
    def top(self) -> Optional[FrameInfo]:
        return self.frames[0] if self.frames else None

    def to_wire(self) -> dict:
        return {
            "frames": [f.to_wire() for f in self.frames],
            "reason": self.reason,
            "breakpoint_id": self.breakpoint_id,
            "watch": self.watch,
        }

    @classmethod
    def from_wire(cls, raw: dict) -> "StackCapture":
        return cls(
            frames=[FrameInfo.from_wire(f) for f in raw.get("frames", [])],
            reason=raw.get("reason", "unknown"),
            breakpoint_id=raw.get("breakpoint_id"),
            watch=raw.get("watch"),
        )


def current_frames() -> Dict[int, Any]:
    """``sys._current_frames()`` with the cyclic GC off: on 3.11 a
    collection inside it that frees a ``threading.local`` re-takes the
    thread-list lock it holds, and the process freezes with the GIL."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return sys._current_frames()
    finally:
        if enabled:
            gc.enable()


def source_line(file: str, line: int) -> str:
    """The text of *file*:*line*, or '' if unavailable.

    ``linecache.checkcache`` is deliberately not called on the hot path —
    the engine invalidates the cache once per attach, and source files do
    not change mid-run.
    """
    return linecache.getline(file, line).rstrip("\n")


def capture_frame(frame, with_locals: bool = True) -> FrameInfo:
    """Render one live frame into plain data."""
    file = frame.f_code.co_filename
    line = frame.f_lineno
    return FrameInfo(
        file=file,
        line=line,
        function=frame.f_code.co_name,
        source=source_line(file, line),
        locals=render_namespace(frame.f_locals) if with_locals else {},
    )


def capture_stack(frame, reason: str, breakpoint_id: Optional[int] = None,
                  watch: Optional[Dict[str, Any]] = None,
                  max_depth: int = 64,
                  locals_depth: int = 2) -> StackCapture:
    """Walk outward from *frame*, rendering up to *max_depth* frames.

    Locals are rendered only for the innermost *locals_depth* frames:
    deep stacks are common under MapReduce workers and rendering every
    namespace would violate the low-intrusion goal.
    """
    frames: List[FrameInfo] = []
    current = frame
    depth = 0
    while current is not None and depth < max_depth:
        frames.append(capture_frame(current, with_locals=depth < locals_depth))
        current = current.f_back
        depth += 1
    return StackCapture(frames=frames, reason=reason,
                        breakpoint_id=breakpoint_id, watch=watch)


def frame_location(frame) -> str:
    """Compact 'file:line (function)' label for logs and deadlock reports."""
    return (f"{frame.f_code.co_filename}:{frame.f_lineno} "
            f"({frame.f_code.co_name})")


def evaluate_in_frame(frame, expression: str) -> Any:
    """Evaluate *expression* in the frame's namespaces (shell ``p`` cmd)."""
    return eval(expression, frame.f_globals, frame.f_locals)  # noqa: S307

"""Debuggee stdout/stderr capture — Fig. 2's Output window.

The Dionea GUI shows an *"Output window: this area corresponds to the
standard output of the active UE"* and an Input window feeding its
stdin.  Server-side that means the debug server must observe the
debuggee's writes and forward them to the client as events, without
breaking programs that legitimately print.

:class:`OutputCapture` wraps ``sys.stdout``/``sys.stderr`` with a tee:
every write still reaches the real stream (the debuggee's behaviour is
preserved — Heisenberg, section 3) and is additionally buffered and
announced to the client as an ``output`` event.  Forked children keep
the wrapper objects but their fork handler re-arms the announcement
callback at the new server, so each process's output lands in its own
session.

Input (the client writing to the debuggee's stdin) is implemented as a
pipe swap: :meth:`InputFeed.install` replaces ``sys.stdin`` with the
read end of a pipe the server writes into on ``feed_input`` commands.
"""

from __future__ import annotations

import io
import os
import sys
from typing import Callable, List, Optional, Tuple

from ..util import locks


class _TeeStream(io.TextIOBase):
    """A write-through wrapper over a real text stream."""

    def __init__(self, stream, label: str, capture: "OutputCapture"):
        self._stream = stream
        self._label = label
        self._capture = capture

    # -- the parts of the file protocol debuggees actually use ------------

    def write(self, text: str) -> int:
        count = self._stream.write(text)
        self._capture._record(self._label, text)  # noqa: SLF001
        return count

    def writelines(self, lines) -> None:
        for line in lines:
            self.write(line)

    def flush(self) -> None:
        self._stream.flush()

    def fileno(self) -> int:
        return self._stream.fileno()

    def isatty(self) -> bool:
        try:
            return self._stream.isatty()
        except (AttributeError, ValueError):
            return False

    @property
    def encoding(self):  # type: ignore[override]
        return getattr(self._stream, "encoding", "utf-8")

    @property
    def raw(self):
        """The wrapped stream (uninstall and tests)."""
        return self._stream


class OutputCapture:
    """Tee stdout/stderr into a bounded buffer + an event callback."""

    def __init__(self, max_chunks: int = 2000,
                 on_output: Optional[Callable[[str, str], None]] = None):
        self.max_chunks = max_chunks
        self.on_output = on_output
        self._chunks: List[Tuple[str, str]] = []
        self._lock = locks.Lock()
        self._installed = False
        self._saved_stdout = None
        self._saved_stderr = None

    # -- lifecycle --------------------------------------------------------

    @property
    def installed(self) -> bool:
        return self._installed

    def install(self) -> None:
        if self._installed:
            return
        self._saved_stdout = sys.stdout
        self._saved_stderr = sys.stderr
        sys.stdout = _TeeStream(self._saved_stdout, "stdout", self)
        sys.stderr = _TeeStream(self._saved_stderr, "stderr", self)
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        # Only restore if nobody re-wrapped over us in the meantime.
        if isinstance(sys.stdout, _TeeStream):
            sys.stdout = self._saved_stdout
        if isinstance(sys.stderr, _TeeStream):
            sys.stderr = self._saved_stderr
        self._installed = False

    def reinstall(self) -> None:
        """Re-wrap whatever ``sys.stdout``/``sys.stderr`` are *now*.

        Test harnesses (pytest's capture) and logging setups swap the
        standard streams underneath long-lived processes; reinstalling
        puts the tee back on top of the current streams without losing
        the buffered output.
        """
        if self._installed:
            self._installed = False  # forget the stale wrap
        self.install()

    def __enter__(self) -> "OutputCapture":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- data path ----------------------------------------------------------

    def _record(self, label: str, text: str) -> None:
        if not text:
            return
        with self._lock:
            self._chunks.append((label, text))
            if len(self._chunks) > self.max_chunks:
                del self._chunks[:len(self._chunks) - self.max_chunks]
        callback = self.on_output
        if callback is not None:
            try:
                callback(label, text)
            except Exception:  # noqa: BLE001 - event glue must not break IO
                pass

    def snapshot(self, stream: Optional[str] = None) -> str:
        """Buffered output, optionally filtered to 'stdout'/'stderr'."""
        with self._lock:
            return "".join(text for label, text in self._chunks
                           if stream is None or label == stream)

    def clear(self) -> None:
        with self._lock:
            self._chunks.clear()

    def reset_after_fork(self) -> None:
        """Child fork handler: inherited buffer belongs to the parent."""
        self._chunks = []


class InputFeed:
    """Client-driven stdin — Fig. 2's Input window.

    ``install`` swaps ``sys.stdin`` for the read end of a private pipe;
    :meth:`feed` (driven by the ``feed_input`` debug command) writes
    into it.  ``close_input`` delivers EOF (like ^D).
    """

    def __init__(self) -> None:
        self._installed = False
        self._saved_stdin = None
        self._write_fd: Optional[int] = None
        self._reader = None
        self._lock = locks.Lock()

    @property
    def installed(self) -> bool:
        return self._installed

    def install(self) -> None:
        if self._installed:
            return
        read_fd, self._write_fd = os.pipe()
        self._saved_stdin = sys.stdin
        self._reader = os.fdopen(read_fd, "r", encoding="utf-8")
        sys.stdin = self._reader
        self._installed = True

    def uninstall(self) -> None:
        if not self._installed:
            return
        sys.stdin = self._saved_stdin
        with self._lock:
            if self._write_fd is not None:
                try:
                    os.close(self._write_fd)
                except OSError:
                    pass
                self._write_fd = None
        try:
            self._reader.close()
        except OSError:
            pass
        self._installed = False

    def feed(self, text: str) -> int:
        """Write *text* into the debuggee's stdin; returns bytes fed."""
        with self._lock:
            if self._write_fd is None:
                raise ValueError("input feed not installed")
            data = text.encode("utf-8")
            os.write(self._write_fd, data)
            return len(data)

    def close_input(self) -> None:
        """EOF for the debuggee (terminates input() loops cleanly)."""
        with self._lock:
            if self._write_fd is not None:
                try:
                    os.close(self._write_fd)
                except OSError:
                    pass
                self._write_fd = None

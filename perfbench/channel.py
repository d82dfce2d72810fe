"""Line-delimited JSON over a pair of pipes: the driver <-> debuggee link.

The driver (the debug client) and the debuggee are separate processes,
so the benchmark steers the debuggee through two plain pipes instead of
the debugger's own wire: one command line in, one reply line out.  Every
read has a deadline, so a wedged debuggee fails the run instead of
hanging it.
"""

from __future__ import annotations

import json
import os
import select
import time
from typing import Any, Optional


class ChannelError(RuntimeError):
    """The peer closed the pipe or missed a deadline."""


class Channel:
    """One direction in, one direction out; both raw file descriptors."""

    def __init__(self, read_fd: int, write_fd: int):
        self.read_fd = read_fd
        self.write_fd = write_fd
        self._buffer = b""

    def send(self, message: Any) -> None:
        data = (json.dumps(message, separators=(",", ":")) + "\n").encode()
        view = memoryview(data)
        while view:
            written = os.write(self.write_fd, view)
            view = view[written:]

    def recv(self, timeout: Optional[float]) -> Any:
        deadline = None if timeout is None else time.monotonic() + timeout
        while b"\n" not in self._buffer:
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ChannelError(f"no reply within {timeout:.1f}s")
                ready, _, _ = select.select([self.read_fd], [], [], remaining)
                if not ready:
                    continue
            chunk = os.read(self.read_fd, 65536)
            if not chunk:
                raise ChannelError("peer closed the pipe")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def close(self) -> None:
        for fd in (self.read_fd, self.write_fd):
            try:
                os.close(fd)
            except OSError:
                pass


def channel_pair():
    """Two pipes; returns ``(make_driver_end, make_debuggee_end)``.

    Call the first in the driver after ``fork`` and the second in the
    debuggee: each closes the two descriptors that belong to the peer.
    """
    to_debuggee_r, to_debuggee_w = os.pipe()
    to_driver_r, to_driver_w = os.pipe()

    def driver_end() -> Channel:
        os.close(to_debuggee_r)
        os.close(to_driver_w)
        return Channel(to_driver_r, to_debuggee_w)

    def debuggee_end() -> Channel:
        os.close(to_debuggee_w)
        os.close(to_driver_r)
        return Channel(to_debuggee_r, to_driver_w)

    return driver_end, debuggee_end

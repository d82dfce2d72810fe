"""Socket endpoints: the server's three-socket layout (paper section 4).

Dionea uses *"three TCP/IP sockets for communication between the server
and the client: one socket ... to listen and handle new connections, one
... to synchronize the source code ..., and ... another ... for sending
debug commands."*

Mapped here:

* :class:`ListenEndpoint` — the accept socket (bound to an ephemeral port
  so forked children can always grab a fresh one);
* each accepted socket becomes a :class:`~repro.util.reactor.Channel` on
  the server's reactor, typed by the role named in its hello frame
  (``command`` or ``source``);
* :func:`connect_endpoint` — the client's dial plus role hello.
"""

from __future__ import annotations

import socket
import time
from typing import Optional, Tuple

from ..testkit import faults
from ..util.errors import ProtocolError
from ..util.framing import encode_frame
from . import protocol


class ListenEndpoint:
    """The accept socket.  Port 0 (default) picks an ephemeral port."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        # Close-on-exec, explicitly: an exec'd debuggee must carry zero
        # debugger descriptors into its new image (see accept()).
        self.sock.set_inheritable(False)
        self.sock.bind((host, port))
        self.sock.listen(16)
        # Accepted on the reactor thread, which must never block.
        self.sock.setblocking(False)
        self.port = self.sock.getsockname()[1]
        self._closed = False

    def fileno(self) -> int:
        return self.sock.fileno()

    def accept(self) -> Tuple[socket.socket, tuple]:
        """Accept one pending connection: ``(socket, peer address)``."""
        faults.maybe_fault("server.listener.accept")
        sock, address = self.sock.accept()
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # Exec survival: PEP 446 makes Python sockets non-inheritable by
        # default, but the do-no-harm invariant (a debuggee that execs
        # must not leak debugger fds into its successor image) is too
        # important to rest on a default someone can flip — pin it.
        sock.set_inheritable(False)
        return sock, address

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self.sock.close()
        except OSError:
            pass


def connect_endpoint(host: str, port: int, role: str, pid: int,
                     session_token: str, timeout: float = 5.0,
                     program: Optional[str] = None,
                     refused_grace: float = 0.1,
                     resume_token: Optional[str] = None) -> socket.socket:
    """Client side: dial the server and send the role hello.

    Returns the connected socket; the caller reads the hello_ack through
    the channel it registers the socket as.

    A refused connect is retried with exponential backoff, but only for
    *refused_grace* seconds: a freshly forked child announces its port
    the instant the socket is bound, so the client routinely races the
    child's listener thread — a refusal inside that tiny window is a
    retry, not a failure.  Past the grace window the port is genuinely
    dead and the refusal propagates promptly (a watcher chewing through
    stale port records must not stall on each one).  Injected EINTR
    (point ``net.connect``) is retried until *timeout*.
    """
    if role not in protocol.VALID_ROLES:
        raise ProtocolError(f"invalid role {role!r}")
    start = time.monotonic()
    deadline = start + timeout
    grace_end = start + min(refused_grace, timeout)
    delay = 0.01
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ConnectionRefusedError(
                f"could not connect to {host}:{port} within {timeout:.1f}s")
        try:
            faults.maybe_fault("net.connect")
            sock = socket.create_connection((host, port),
                                            timeout=remaining)
            break
        except InterruptedError:
            continue
        except (ConnectionRefusedError, ConnectionResetError):
            if time.monotonic() + delay >= grace_end:
                raise
            time.sleep(delay)
            delay = min(delay * 2, 0.05)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    hello = protocol.make_hello(role=role, pid=pid,
                                session_token=session_token,
                                program=program,
                                resume_token=resume_token)
    faults.maybe_fault("net.hello.send")
    sock.sendall(encode_frame(hello))
    return sock

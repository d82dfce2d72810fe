"""Causal trace contexts: one trace across threads, forks and the wire.

The paper's fork handlers give the debugger a *tree* of processes; this
module gives the telemetry layer the matching causal spine.  A
:class:`TraceContext` is the classic distributed-tracing triple —
``trace_id`` / ``span_id`` / ``parent_span_id`` — plus the origin pid
and a wall+monotonic clock pair captured when the context was minted,
so a receiver in another process can place the sender's stamp on the
shared timeline without trusting either wall clock alone.

Propagation paths:

* **threads** — a per-thread context stack (:func:`activate` /
  :func:`current`): spans opened while a context is active become its
  children;
* **fork()** — the fork bracket *stages* its own span's context just
  before ``fork(2)`` (:func:`stage_fork`); the child's obs fork handler
  *consumes* it (:func:`consume_pending_fork`) and roots the child's
  new timeline under the parent's in-flight ``fork.bracket`` span,
  recording pid lineage for the exporter's flow edges;
* **the wire** — clients stamp requests with :meth:`TraceContext.
  to_wire`; the server rebuilds the context with :func:`from_wire` and
  parents its command span on the client's request span.  Control verbs
  additionally park their context as the process's *control context*
  (:func:`note_control`) so the next fork bracket — debuggee code
  resumed by that verb — links back to the command that released it.
  That is how a ``continue`` typed in the shell stays causally
  connected to the trace callbacks it triggers in a grandchild.

Hot-path discipline matches the rest of ``repro.obs``: id generation is
one counter increment and one string format; no I/O, no logging, no
locks beyond the GIL (the pending-fork slot is written inside the fork
bracket, where the forking thread is alone by construction).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..util import locks


@dataclass(frozen=True)
class TraceContext:
    """One node in the causal tree: where am I, and who caused me."""

    trace_id: str
    span_id: str
    parent_span_id: Optional[str] = None
    pid: int = 0
    wall: float = 0.0
    mono: float = 0.0

    def child(self, span_id: str) -> "TraceContext":
        """A context for a new span caused by this one."""
        wall, mono = time.time(), time.monotonic()
        return TraceContext(trace_id=self.trace_id, span_id=span_id,
                            parent_span_id=self.span_id, pid=os.getpid(),
                            wall=wall, mono=mono)

    def to_wire(self) -> Dict[str, Any]:
        """JSON-ready form for protocol messages."""
        return {"trace_id": self.trace_id, "span_id": self.span_id,
                "parent_span_id": self.parent_span_id, "pid": self.pid,
                "wall": self.wall, "mono": self.mono}


def from_wire(payload: Any) -> Optional[TraceContext]:
    """Rebuild a context from a protocol message; tolerant of garbage
    (a malformed trace field must never fail the request it rides on)."""
    if not isinstance(payload, dict):
        return None
    trace_id = payload.get("trace_id")
    span_id = payload.get("span_id")
    if not isinstance(trace_id, str) or not isinstance(span_id, str):
        return None
    parent = payload.get("parent_span_id")
    if parent is not None and not isinstance(parent, str):
        parent = None
    try:
        pid = int(payload.get("pid") or 0)
        wall = float(payload.get("wall") or 0.0)
        mono = float(payload.get("mono") or 0.0)
    except (TypeError, ValueError):
        pid, wall, mono = 0, 0.0, 0.0
    return TraceContext(trace_id=trace_id, span_id=span_id,
                        parent_span_id=parent, pid=pid,
                        wall=wall, mono=mono)


# ---------------------------------------------------------------------------
# Id generation: ids must be unique across every process of a fork tree
# without coordination.  The prefix couples the pid with a few random
# bytes; a forked child regenerates it (new pid *and* new randomness, so
# a recycled pid or an exec'd image can never collide with its ancestor).

_counter = itertools.count(1)
_prefix = ""


def _reseed() -> None:
    global _counter, _prefix
    _prefix = f"{os.getpid():x}.{os.urandom(3).hex()}"
    _counter = itertools.count(1)


_reseed()


def new_span_id() -> str:
    return f"s{_prefix}.{next(_counter):x}"


def new_trace_id() -> str:
    return f"t{_prefix}.{next(_counter):x}"


# ---------------------------------------------------------------------------
# Per-thread context stack + process root / control slots.

_tls = threading.local()

_state_lock = locks.Lock()
_root: Optional[TraceContext] = None
_control: Optional[TraceContext] = None
_pending_fork: Optional[TraceContext] = None


def _stack() -> list:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def current() -> Optional[TraceContext]:
    """The context active on the calling thread, if any."""
    stack = getattr(_tls, "stack", None)
    return stack[-1] if stack else None


class activate:
    """Context manager: make *ctx* current for the calling thread."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: Optional[TraceContext]):
        self.ctx = ctx

    def __enter__(self) -> Optional[TraceContext]:
        if self.ctx is not None:
            _stack().append(self.ctx)
        return self.ctx

    def __exit__(self, *exc_info) -> None:
        if self.ctx is not None:
            stack = _stack()
            if stack and stack[-1] is self.ctx:
                stack.pop()


def process_root() -> TraceContext:
    """The process's root context; minted lazily for trace-tree roots,
    installed explicitly in forked children (:func:`reset_after_fork`)."""
    global _root
    root = _root
    if root is None:
        with _state_lock:
            if _root is None:
                wall, mono = time.time(), time.monotonic()
                _root = TraceContext(trace_id=new_trace_id(),
                                     span_id=new_span_id(),
                                     parent_span_id=None,
                                     pid=os.getpid(),
                                     wall=wall, mono=mono)
            root = _root
    return root


def set_process_root(ctx: TraceContext) -> None:
    global _root
    with _state_lock:
        _root = ctx


def note_control(ctx: TraceContext) -> None:
    """Park the context of a control verb (continue/step/...): debuggee
    activity released by it — most importantly the next fork bracket —
    adopts it as causal parent."""
    global _control
    _control = ctx


def control_context() -> Optional[TraceContext]:
    return _control


def fork_parent_context() -> TraceContext:
    """The context a fork bracket should parent its span on: the
    forking thread's active context, else the last control verb that
    resumed this process, else the process root."""
    return current() or _control or process_root()


# ---------------------------------------------------------------------------
# Fork staging: the bracket publishes its span's context just before
# fork(2); only the child (which inherits this module's globals by copy)
# consumes it.  The parent clears the slot when the bracket closes.

def stage_fork(ctx: TraceContext) -> None:
    global _pending_fork
    _pending_fork = ctx


def clear_pending_fork() -> None:
    global _pending_fork
    _pending_fork = None


def pending_fork() -> Optional[TraceContext]:
    return _pending_fork


def consume_pending_fork() -> Optional[TraceContext]:
    global _pending_fork
    pending, _pending_fork = _pending_fork, None
    return pending


def reset_after_fork() -> Optional[TraceContext]:
    """Child-side fork handler body: regenerate the id prefix, consume
    the staged bracket context, and root the child's timeline under it
    (same trace as the parent — the tree shares one trace id).  Returns
    the staged parent context, or ``None`` for an untraced fork."""
    global _root, _control
    _reseed()
    pending = consume_pending_fork()
    _tls.stack = []
    _control = None
    wall, mono = time.time(), time.monotonic()
    if pending is not None:
        _root = TraceContext(trace_id=pending.trace_id,
                             span_id=new_span_id(),
                             parent_span_id=pending.span_id,
                             pid=os.getpid(), wall=wall, mono=mono)
    else:
        _root = TraceContext(trace_id=new_trace_id(),
                             span_id=new_span_id(), parent_span_id=None,
                             pid=os.getpid(), wall=wall, mono=mono)
    return pending


def reset_after_exec(handoff: Any = None) -> Optional[TraceContext]:
    """Exec-survival body: like :func:`reset_after_fork`, but the causal
    parent arrives via an environment handoff (the pre-exec image's root
    context as a wire dict) instead of inherited memory."""
    global _root, _control
    _reseed()
    _tls.stack = []
    _control = None
    parent = from_wire(handoff)
    wall, mono = time.time(), time.monotonic()
    if parent is not None:
        _root = TraceContext(trace_id=parent.trace_id,
                             span_id=new_span_id(),
                             parent_span_id=parent.span_id,
                             pid=os.getpid(), wall=wall, mono=mono)
    else:
        _root = None  # lazily minted on first use
    return parent

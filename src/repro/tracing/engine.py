"""The trace engine: Dionea's debug-server core.

Paper section 4: *"The debug server traces debuggee's execution using
custom functions in conjunction with the tracing facilities provided by
the interpreters, i.e. ... sys.settrace for ... Python."*

Responsibilities:

* install/remove event delivery through ``sys.settrace`` /
  ``threading.settrace``, the paper's mechanism;
* on each event decide — cheaply — whether the frame needs a local trace
  function at all.  Two layers keep section 7's overhead down:

  - the **armed/disarmed hook lifecycle**: while nothing is being
    debugged the main thread physically drops its trace hook (on 3.11+
    any per-thread hook defeats the specializing interpreter, which
    costs far more than the dispatch itself) and is re-armed via a
    signal when a feature goes live;
  - the **per-code fast path**: while only breakpoints are live, a
    :class:`~repro.tracing.linetable.LineTable` probe answers "can this
    code object ever hit one?" in a single dict lookup, declining local
    tracing for everything else — one probe per call, zero per line;
  - **code-object breakpoints** (:mod:`repro.tracing.codebp`): a line
    breakpoint the patcher can serve is compiled into the function that
    holds it, and only that line's executions call :meth:`_code_hit`.
    A patched breakpoint counts as quiet, so while every breakpoint is
    patched the main thread stays demoted; the rest stay on the two
    layers above;

* stop UEs at breakpoints, step targets, asynchronous suspend requests
  and disturb-mode birth events, parking only the stopping thread
  (low intrusion, footnote 1);
* expose ``disable``/``enable`` used by fork handler phases A and B/C
  (*"Disable the tracing until the listener thread is restarted, to avoid
  a deadlock in the child process"*, section 5.4), and the child's
  re-install in :meth:`reset_after_fork`.

Asynchronous suspend of an already-running thread works by injecting a
local trace function into that thread's live frames via
``sys._current_frames()`` — the same mechanism IDE debuggers use — so a
thread spinning in a long loop still honours a pause request at its next
line event.  The injected functions are removed again when the UE
continues, so a suspended-then-resumed thread returns to the fast path.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from threading import get_ident as _get_ident
from time import perf_counter as _perf_counter
from typing import Callable, Dict, Optional, Set, Tuple

from ..obs import metrics as obs_metrics
from ..obs.spans import SPANS, debug_event
from ..util import locks
from ..util.errors import TraceError
from ..util.ids import UEId
from . import codebp
from .breakpoints import BreakpointStore, canonical_file
from .control import ResumeCommand, UEController
from .frames import StackCapture, capture_stack, current_frames
from .linetable import LineTable
from .stepping import StepMode, StepState

#: Debugger-infrastructure packages whose frames are never traced; tracing
#: ourselves would recurse and inflate overhead.  The debuggee-level
#: substrates (repro.mp, repro.mapreduce, repro.workerpool, repro.corpus)
#: are deliberately NOT listed: the paper's Fig. 8 shows Dionea stepping
#: through multiprocessing queue internals.
_SELF_PACKAGES = ("tracing", "server", "client", "core", "util",
                  "forkhooks", "obs")

#: Environment knob for the per-code fast path (read at construction).
FASTPATH_ENV = "DIONEA_TRACE_FASTPATH"

#: The re-arm signal.  SIGURG is the conventional "free" signal (ignored
#: by default, unused by the runtime) and Python signal handlers always
#: execute in the main thread — exactly the thread whose trace hook was
#: dropped and cannot be restored from anywhere else.
REARM_SIGNAL = getattr(signal, "SIGURG", None)


def fastpath_enabled(override: Optional[bool] = None) -> bool:
    """The per-code fast path toggle (``DIONEA_TRACE_FASTPATH``)."""
    if override is not None:
        return bool(override)
    raw = os.environ.get(FASTPATH_ENV, "1").strip().lower()
    return raw not in ("0", "off", "false", "no")


def _self_prefixes() -> Tuple[str, ...]:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return tuple(os.path.join(root, pkg) + os.sep for pkg in _SELF_PACKAGES)


class TraceEngine:
    """One per debuggee process (embedded in its debug server)."""

    def __init__(self,
                 breakpoints: Optional[BreakpointStore] = None,
                 controller: Optional[UEController] = None,
                 on_stop: Optional[Callable[[UEId, StackCapture], None]] = None,
                 on_resume: Optional[Callable[[UEId], None]] = None,
                 disturb: Optional[object] = None,
                 park_timeout: Optional[float] = 60.0,
                 fastpath: Optional[bool] = None):
        self.breakpoints = breakpoints or BreakpointStore()
        self.controller = controller or UEController()
        self.on_stop = on_stop
        self.on_resume = on_resume
        #: duck-typed DisturbMode: an object with a raw-readable
        #: ``enabled`` attribute and a ``check(ue, frame)`` method.
        self.disturb = disturb
        self.park_timeout = park_timeout

        self._lock = locks.RLock()
        self._states: Dict[UEId, StepState] = {}
        self._paused_frames: Dict[UEId, object] = {}
        self._canonical: Dict[str, str] = {}
        self._skip_prefixes = _self_prefixes()
        #: per-filename skip decision cache: one dict lookup on the hot
        #: path instead of repeated startswith scans.
        self._skip_cache: Dict[str, bool] = {}
        #: UEs whose step state is not CONTINUE; non-empty disables the
        #: no-feature fast path.  Read lock-free on the hot path.
        self._active_steppers: Set[UEId] = set()
        self._installed = False
        self._enabled = True
        #: break-on-raise: when set, any 'exception' event parks the UE
        #: with the exception rendered into the capture (pdb's `catch`).
        #: Optionally filtered to exception type names.
        self._exception_breaks = False
        self._exception_filter: Optional[Set[str]] = None

        #: per-code fast path toggle (DIONEA_TRACE_FASTPATH; the parity
        #: matrix runs every suite with it off too).
        self._fastpath = fastpath_enabled(fastpath)

        #: pre-bound local dispatch: one bound-method object, so injected
        #: ``f_trace`` functions are identity-comparable (and strippable)
        self._local_fn = self._local_dispatch
        #: per-code-object breakpoint relevance (the fast path's probe)
        self.linetable = LineTable(self.breakpoints)
        self._lt_probe = self.linetable.probe
        #: code-object breakpoints: patched lines call _code_hit instead
        #: of needing a trace function (off with the fast path)
        self.codebp = codebp.CodePatcher(self, self._fastpath)
        #: thread ident -> (id(frame), line) of the last line event
        #: _local_dispatch handled while patches exist, so the patched
        #: call right after it does not stop a second time
        self._handled: Dict[int, Tuple[int, int]] = {}
        #: thread idents inside the engine's stop work (condition and
        #: watch evaluation, stack capture, parking): user code run there
        #: must not reach a breakpoint, as under a trace function
        self._busy: Set[int] = set()

        #: armed/disarmed hook lifecycle state: the main thread may drop
        #: its trace hook while quiet and is re-armed via REARM_SIGNAL.
        self._main_ident = threading.main_thread().ident
        self._demotable = False
        self._main_demoted = False
        self._arm_epoch = 0
        self._prev_handler = None

        #: precomputed "nothing is being debugged" flag: True while there
        #: are no breakpoints, no stepping UEs, no pending suspends and
        #: disturb mode is off.  Every feature toggle recomputes it so
        #: the per-event fast path is a single attribute read.
        self._quiet = True
        #: True while *only* breakpoints are live — the state in which a
        #: LineTable probe alone decides whether a frame needs tracing.
        self._code_fastpath_ok = False

        self.breakpoints.on_change = self._breakpoints_changed
        from .watchpoints import WatchpointStore
        self.watchpoints = WatchpointStore()
        self.watchpoints.on_change = self.refresh_quiet
        self.codebp.sync()
        #: events the engine processed; read by the overhead benchmarks.
        self.event_count = 0
        #: armed-mode calls the LineTable probe declined (plain int, read
        #: via a callback gauge so the hot path never touches obs).
        self.fastpath_hits = 0
        #: local trace functions injected into live frames (suspend /
        #: step arming); a suspended-then-resumed thread must not keep
        #: growing this.
        self.local_installs = 0
        self.refresh_quiet()

    # -- lifecycle --------------------------------------------------------------

    @property
    def installed(self) -> bool:
        return self._installed

    @property
    def enabled(self) -> bool:
        return self._enabled

    @property
    def fastpath(self) -> bool:
        return self._fastpath

    def install(self) -> None:
        """Install event delivery for this thread and all future threads."""
        with self._lock:
            if self._installed:
                raise TraceError("trace engine already installed")
            self._installed = True
        self._install_hooks()
        self.codebp.sync()
        self.refresh_quiet()
        # Expose the hot-path counters as callback gauges: the fast path
        # stays untouched (§7's overhead band); the registry reads the
        # plain ints only at snapshot time.
        obs_metrics.register_gauge("trace.events",
                                   lambda: self.event_count)
        obs_metrics.register_gauge("trace.fastpath_hits",
                                   lambda: self.fastpath_hits)
        obs_metrics.register_gauge("trace.local_installs",
                                   lambda: self.local_installs)
        debug_event("tracing",
                    f"engine installed "
                    f"(fastpath={'on' if self._fastpath else 'off'})")

    def uninstall(self) -> None:
        with self._lock:
            if not self._installed:
                return
            self._installed = False
        self._uninstall_hooks()
        self.codebp.restore_all()
        self.refresh_quiet()
        for gauge in ("trace.events", "trace.fastpath_hits",
                      "trace.local_installs"):
            obs_metrics.REGISTRY.unregister_gauge(gauge)
        self.controller.release_all()
        debug_event("tracing", "engine uninstalled")

    def disable(self) -> None:
        """Fork phase A: make every dispatch a near-no-op."""
        self._enabled = False

    def enable(self) -> None:
        """Fork phases B/C: resume normal dispatch."""
        self._enabled = True
        self._rearm_main()

    def refresh_quiet(self) -> None:
        """Recompute the fast-path flags after any feature toggle."""
        disturb = self.disturb
        other_quiet = (self.watchpoints.is_empty
                       and not self._exception_breaks
                       and not self._active_steppers
                       and not self.controller.has_pending
                       and (disturb is None or not disturb.enabled))
        # A patched breakpoint needs no trace function: while every
        # breakpoint is patched the engine is quiet (tracing.codebp).
        quiet = other_quiet and (self.breakpoints.is_empty
                                 or self.codebp.serves_all)
        self._code_fastpath_ok = self._fastpath and other_quiet
        was_quiet = self._quiet
        self._quiet = quiet
        if was_quiet != quiet and self._installed:
            if not quiet:
                # Closes the demote-vs-arm race: a main thread caught
                # mid-demotion re-checks the epoch and restores itself.
                self._arm_epoch += 1
            self._rearm_main()

    def _breakpoints_changed(self) -> None:
        """Breakpoint mutation: invalidate per-code caches, then rearm.

        Forked children re-own the store as data (Fig. 4), so this same
        callback — plus :meth:`reset_after_fork` — is what PROTOCOL.md
        means by the invalidation broadcast: every process that mutates
        its copy of the store drops its own LineTable verdicts.
        """
        self.linetable.invalidate()
        self.codebp.sync()
        self.refresh_quiet()

    def served(self, row: dict) -> str:
        """``"code"`` for a patched breakpoint, else ``"trace"`` (a
        ``breaks`` row, as :meth:`BreakpointStore.snapshot_state` gives
        it)."""
        if row.get("function") is not None:
            return codebp.TRACE
        return self.codebp.served(row["file"], row["line"])

    def set_exception_breaks(self, enabled: bool,
                             only: Optional[list] = None) -> None:
        """Toggle break-on-raise; *only* optionally names exception types.

        Fires at the 'exception' trace event — i.e. at the *raise*, in
        the frame where it happened, before any handler runs — which is
        the point pdb's uncaught-exception post-mortem cannot reach.
        """
        self._exception_breaks = enabled
        self._exception_filter = set(only) if only else None
        self.refresh_quiet()

    @property
    def exception_breaks(self) -> bool:
        return self._exception_breaks

    # -- hook lifecycle (settrace + main-thread demotion) -------------------------
    #
    # On CPython 3.11+ the mere presence of a per-thread trace function
    # disables the specializing interpreter (PEP 659), so even a cheap
    # Python-level dispatch costs >30 % on compute-bound code.  While the
    # engine is quiet the main thread therefore drops its hook entirely
    # from inside the dispatch, and is re-armed via REARM_SIGNAL when a
    # feature goes live (``sys.settrace`` is per-thread, and only a
    # signal handler runs code in the main thread on demand).  Other
    # threads keep their hooks, so asynchronous suspend works unchanged.

    def _install_hooks(self) -> None:
        self._main_ident = threading.main_thread().ident
        threading.settrace(self._global_dispatch)
        sys.settrace(self._global_dispatch)
        # Demotion needs the re-arm signal handler, and signal handlers
        # can only be installed from the main thread.  When the engine is
        # installed from elsewhere (the stress runner's worker threads),
        # every thread simply keeps its hook — correct, just slower.
        self._demotable = False
        if (self._fastpath and REARM_SIGNAL is not None
                and threading.get_ident() == self._main_ident):
            try:
                self._prev_handler = signal.signal(
                    REARM_SIGNAL, self._rearm_handler)
                self._demotable = True
            except (ValueError, OSError):  # non-main thread, exotic host
                self._prev_handler = None

    def _uninstall_hooks(self) -> None:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
        if self._demotable:
            try:
                signal.signal(REARM_SIGNAL,
                              self._prev_handler or signal.SIG_DFL)
            except (ValueError, OSError):
                pass
        self._demotable = False
        self._main_demoted = False

    def _rearm_main(self) -> None:
        """Re-arm the demoted main thread when a feature goes live.

        Quiet-direction edges need no action here: demotion is lazy (the
        dispatch drops the hook at the next call event it sees).
        """
        if not self._installed or not self._enabled:
            return
        if self._quiet or not self._main_demoted:
            return
        if threading.get_ident() == self._main_ident:
            sys.settrace(self._global_dispatch)
            self._main_demoted = False
        else:
            # Only the main thread can restore its own hook; interrupt it.
            try:
                os.kill(os.getpid(), REARM_SIGNAL)
            except OSError:  # pragma: no cover - kill(self) cannot fail
                pass

    def _rearm_handler(self, signum, frame) -> None:
        """Runs in the main thread: restore the dropped trace hook."""
        if self._installed and self._main_demoted and not self._quiet:
            sys.settrace(self._global_dispatch)
            self._main_demoted = False
            # A global hook only fires at the next *call* event.  A
            # pending asynchronous suspend is aimed at lines too, so arm
            # the interrupted stack the same way request_suspend() arms
            # other threads.  Plain breakpoint arming does NOT inject: a
            # trace-served breakpoint set mid-frame fires at the next
            # call event, as it always has.  A patched breakpoint re-arms
            # only for frames still running the code it replaced, and
            # the patcher injected those when it swapped the code
            # (tracing.codebp).
            if self.controller.has_pending and frame is not None:
                self._inject_frames(frame)
        prev = self._prev_handler
        if callable(prev):
            prev(signum, frame)

    # -- per-UE state -------------------------------------------------------------

    def state_for(self, ue: UEId) -> StepState:
        with self._lock:
            state = self._states.get(ue)
            if state is None:
                state = StepState()
                self._states[ue] = state
            return state

    def known_ues(self):
        with self._lock:
            return sorted(self._states)

    def paused_frame(self, ue: UEId):
        """The live frame a parked UE stopped in, or None.

        Safe to inspect from the listener thread: the owning thread is
        blocked on its gate for as long as the frame is registered.
        """
        with self._lock:
            return self._paused_frames.get(ue)

    # -- async suspend ---------------------------------------------------------------

    def request_suspend(self, ue: UEId) -> None:
        """Pause one running UE at its next line event."""
        self.controller.request_suspend(ue)
        self.refresh_quiet()
        self._inject_into_thread(ue.tid)

    def request_suspend_all(self) -> None:
        self.controller.request_suspend_all()
        self.refresh_quiet()
        for tid in list(current_frames()):
            if tid != _get_ident():
                self._inject_into_thread(tid)

    def resume_all(self) -> int:
        """Clear every suspend request and release all parked UEs."""
        self.controller.clear_suspend_all()
        released = self.controller.release_all()
        self.refresh_quiet()
        return released

    def _inject_into_thread(self, tid: int) -> None:
        """Set local trace functions on a live thread's frames so its next
        line event reaches the engine even if its frames opted out."""
        frame = current_frames().get(tid)
        if frame is not None:
            self._inject_frames(frame)

    def _inject_frames(self, frame) -> None:
        """Arm *frame* and its callers with the local dispatch, skipping
        debugger-infrastructure frames (`_SELF_PACKAGES`)."""
        local_fn = self._local_fn
        current = frame
        while current is not None:
            if (current.f_trace is not local_fn
                    and not self._should_skip(current.f_code.co_filename)):
                current.f_trace = local_fn
                current.f_trace_lines = True
                self.local_installs += 1
            current = current.f_back

    def _strip_injected_frames(self, frame) -> None:
        """Remove injected local traces once their UE continues.

        Without this a suspended-then-resumed thread would pay per-line
        dispatch for the rest of every live frame's lifetime.  Only our
        own pre-bound function is removed, and only from frames the
        current feature set no longer needs (a frame whose code still
        carries a breakpoint keeps its local trace so mid-frame hits
        stay possible, exactly like the pre-fastpath engine).
        """
        local_fn = self._local_fn
        quiet = self._quiet
        fastpath_ok = self._code_fastpath_ok
        current = frame
        while current is not None:
            if current.f_trace is local_fn:
                if quiet or (fastpath_ok
                             and not self._lt_probe(current.f_code)):
                    current.f_trace = None
            current = current.f_back

    # -- dispatch ----------------------------------------------------------------

    def _canonical_file(self, raw: str) -> str:
        cached = self._canonical.get(raw)
        if cached is None:
            cached = canonical_file(raw)
            self._canonical[raw] = cached
        return cached

    def _should_skip(self, filename: str) -> bool:
        skip = self._skip_cache.get(filename)
        if skip is None:
            skip = (filename.startswith("<")  # <string>, <frozen ...>
                    or filename.startswith(self._skip_prefixes))
            self._skip_cache[filename] = skip
        return skip

    def _suspend_due(self, ue: UEId, frame) -> bool:
        """Consume a suspend due for *ue*, unless the UE is inside
        debugger code.

        A frame is judged by the stack under it: when any caller is
        debugger code (``_SELF_PACKAGES``) — a stdlib ``Condition``
        entered from a session's request, a fault hook called from a
        channel's send — the UE may hold a lock the debugger itself
        needs (the session's Condition, the channel's lock), so the
        suspend stays pending until the UE is back in its own code.  The
        walk runs only while a suspend is due for this UE.
        """
        if not self.controller.suspend_due(ue):
            return False
        current = frame
        while current is not None:
            if current.f_code.co_filename.startswith(self._skip_prefixes):
                return False
            current = current.f_back
        if threading.current_thread().name.startswith("dionea-"):
            # A debugger thread still in its bootstrap frames: it
            # untraces itself first thing; parking it would kill the
            # debugger.
            return False
        return self.controller.consume_suspend(ue)

    def _global_dispatch(self, frame, event, arg):
        """Installed via sys.settrace; called for 'call' events.

        The first half is the **no-breakpoint fast path** the §7
        overhead numbers depend on: when nothing is being debugged the
        only per-call cost is a couple of attribute reads and one dict
        lookup — no locks, no UEId construction — and the quiet main
        thread then *demotes itself* (drops its hook entirely) so the
        specializing interpreter comes back.
        While only breakpoints are live, the LineTable probe declines
        local tracing per code object: one extra dict lookup per call,
        zero per line, for every frame that can never hit one.

        Hot-path discipline (enforced by tools/lint_hotpath.py): no
        ``obs_metrics`` attribute lookups here — the counters below are
        plain ints exported as callback gauges at install time.
        """
        if not self._enabled or not self._installed:
            return None
        filename = frame.f_code.co_filename
        skip = self._skip_cache.get(filename)
        if skip is None:
            skip = self._should_skip(filename)
        if skip:
            # Skipped frames never demote-gate the quiet check below, so
            # re-check here: a main thread that only executes debugger
            # infrastructure (or "<string>" code) after the engine goes
            # quiet must still drop its hook.
            if (self._quiet and self._demotable
                    and _get_ident() == self._main_ident):
                self._demote_main_thread()
            return None
        self.event_count += 1
        if self._quiet:
            if self._demotable and _get_ident() == self._main_ident:
                self._demote_main_thread()
            return None
        if self._code_fastpath_ok and not self._lt_probe(frame.f_code):
            self.fastpath_hits += 1
            return None
        return self._slow_dispatch(frame, event, arg)

    def _demote_main_thread(self) -> None:
        """Quiet main thread: physically drop this thread's trace hook.

        Runs inside the dispatch, in the main thread.  The re-arm
        signal handler restores the hook when a feature goes
        live; the epoch re-check below closes the window where an arm
        raced the demotion (the arm bumped the epoch and may have
        signalled before ``_main_demoted`` was visible).
        """
        epoch = self._arm_epoch
        self._main_demoted = True
        sys.settrace(None)
        if not self._installed:
            self._main_demoted = False
            return
        if self._arm_epoch != epoch or not self._quiet:
            self._main_demoted = False
            sys.settrace(self._global_dispatch)

    def _slow_dispatch(self, frame, event, arg):
        """Some debugging feature is live: full per-UE processing."""
        obs_metrics.inc("trace.slow_events")
        filename = frame.f_code.co_filename
        ue = UEId(os.getpid(), threading.get_ident())
        state = self.state_for(ue)

        # Disturb mode: the mode tracks which UEs it has already seen.
        disturb = self.disturb
        if disturb is not None and disturb.enabled:
            reason = disturb.check(ue, frame)
            if reason:
                self._pause(ue, frame, reason=reason)
                return self._local_fn

        if event != "call":
            # Defensive: injected frames may route non-call events here.
            return self._local_dispatch(frame, event, arg)

        # Function breakpoints fire on entry.
        if self.breakpoints.has_function_breaks():
            bp = self.breakpoints.effective(
                self._canonical_file(filename), frame.f_lineno,
                frame.f_globals, frame.f_locals,
                function=frame.f_code.co_name)
            if bp is not None:
                self._pause(ue, frame, reason="breakpoint",
                            breakpoint_id=bp.id)
                return self._local_fn

        if state.should_stop_on_call(frame):
            self._pause(ue, frame, reason="step")
            return self._local_fn

        if self._suspend_due(ue, frame):
            self._pause(ue, frame, reason="suspend")
            return self._local_fn

        # Trace this frame's lines at all?  Watchpoints and exception
        # breaks force local tracing everywhere (neither has a cheaper
        # software implementation; the cost exists only while one is
        # set).
        if (state.wants_call_tracing(frame)
                or not self.watchpoints.is_empty
                or self._exception_breaks
                or self.breakpoints.break_anywhere_in(
                    self._canonical_file(filename))):
            return self._local_fn
        return None

    def _local_dispatch(self, frame, event, arg):
        if not self._enabled or not self._installed:
            return None
        if self._should_skip(frame.f_code.co_filename):
            return None
        self.event_count += 1
        ue = UEId(os.getpid(), threading.get_ident())
        state = self.state_for(ue)

        if event == "line":
            if self._suspend_due(ue, frame):
                self._line_handled(ue.tid, frame)
                self._pause(ue, frame, reason="suspend")
            elif state.should_stop_on_line(frame):
                self._line_handled(ue.tid, frame)
                self._pause(ue, frame, reason="step")
            elif (frame.f_trace is self._local_fn
                  and (self._quiet
                       or (self._code_fastpath_ok
                           and not self._lt_probe(frame.f_code)))):
                # Same condition as _strip_injected_frames.  An async
                # suspend injects from ANOTHER thread, so its walk can
                # finish after the target already consumed the suspend,
                # resumed and stripped — leaving this frame armed with
                # nothing to stop on.  Shed the stale trace here rather
                # than paying per-line dispatch for the frame's lifetime.
                frame.f_trace = None
                return None
            else:
                self._line_handled(ue.tid, frame)
                hit = None
                # Conditions and watch expressions run user code: keep
                # patched lines it reaches quiet (see _code_hit).
                self._busy.add(ue.tid)
                try:
                    t0 = _perf_counter()
                    bp = self.breakpoints.effective(
                        self._canonical_file(frame.f_code.co_filename),
                        frame.f_lineno, frame.f_globals, frame.f_locals)
                    # Per-line dispatch latency while features are live
                    # (the no-feature fast path never reaches here, so
                    # the §7 band pays nothing for this observe).
                    obs_metrics.observe("trace.line_dispatch_seconds",
                                        _perf_counter() - t0)
                    if bp is None and not self.watchpoints.is_empty:
                        hit = self.watchpoints.evaluate(ue, frame)
                finally:
                    self._busy.discard(ue.tid)
                if bp is not None:
                    self._pause(ue, frame, reason="breakpoint",
                                breakpoint_id=bp.id)
                elif hit is not None:
                    self._pause(ue, frame, reason="watch",
                                watch=hit.to_wire())
        elif event == "return":
            was_suspend = state.mode is StepMode.SUSPEND
            if state.should_stop_on_return(frame):
                self._pause(ue, frame,
                            reason="suspend" if was_suspend else "return")
            patcher = self.codebp
            if patcher.active:
                # A dead frame's id may be reused by the next frame.
                self._handled.pop(ue.tid, None)
                if patcher.stale_live and patcher.is_stale(frame.f_code):
                    patcher.frame_returned(frame)
                    self.refresh_quiet()
        elif event == "call":
            return self._global_dispatch(frame, event, arg)
        elif event == "exception" and self._exception_breaks:
            exc_type, exc_value, _tb = arg
            name = getattr(exc_type, "__name__", str(exc_type))
            if (self._exception_filter is None
                    or name in self._exception_filter):
                # StopIteration/GeneratorExit are control flow, not
                # bugs; raises inside the stdlib or this library's own
                # substrate are implementation noise (e.g. the pipe
                # semaphore's BlockingIOError poll loop) — exception
                # breaks target the *user's* raise sites.
                if (name not in ("StopIteration", "GeneratorExit")
                        and self._is_user_frame(frame)):
                    self._pause(ue, frame, reason="exception",
                                watch={"exception": name,
                                       "message": str(exc_value)})
        return self._local_fn

    def _line_handled(self, tid: int, frame) -> None:
        """Mark this frame's line event as handled (see _code_hit)."""
        if self.codebp.active:
            self._handled[tid] = (id(frame), frame.f_lineno)

    def _code_hit(self, frame, line: int) -> None:
        """A patched line of *frame* is about to run (tracing.codebp).

        Decides exactly as the line check of :meth:`_local_dispatch`
        would, through ``BreakpointStore.effective`` (condition, ignore
        count, hit count, temporary), and parks through :meth:`_pause`.
        It does nothing when that check already ran for this line event
        (a traced frame), inside the engine's own stop work, or on a
        debugger thread; it never raises into the debuggee.  Like a
        trace function it runs with this thread's tracing off.

        Hot-path discipline (tools/lint_hotpath.py): no ``obs_metrics``
        lookups; a conditional breakpoint in a hot loop runs this on
        every iteration.
        """
        if not self._enabled or not self._installed:
            return
        tid = _get_ident()
        busy = self._busy
        if tid in busy:
            return
        if self._handled.pop(tid, None) == (id(frame), line):
            return
        if threading.current_thread().name.startswith("dionea-"):
            return
        trace = sys.gettrace()
        if trace is not None:
            sys.settrace(None)
        busy.add(tid)
        try:
            frame_locals = frame.f_locals
            bp = self.breakpoints.effective(
                self._canonical_file(frame.f_code.co_filename), line,
                frame.f_globals, frame_locals)
            if bp is not None:
                before = dict(frame_locals)
                self._pause(UEId(os.getpid(), tid), frame,
                            reason="breakpoint", breakpoint_id=bp.id)
                codebp.write_back(frame, frame_locals, before)
        except Exception:  # noqa: BLE001 - never raise into the debuggee
            debug_event("tracing", f"code breakpoint at line {line} failed")
        finally:
            busy.discard(tid)
            if trace is not None and self._installed:
                sys.settrace(trace)

    _stdlib_prefix_cache: Optional[str] = None

    def _is_user_frame(self, frame) -> bool:
        if TraceEngine._stdlib_prefix_cache is None:
            import sysconfig
            TraceEngine._stdlib_prefix_cache = \
                sysconfig.get_paths().get("stdlib", "\0none")
        filename = frame.f_code.co_filename
        if filename.startswith(TraceEngine._stdlib_prefix_cache):
            return False
        repro_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
        return not filename.startswith(repro_root)

    # -- stopping ------------------------------------------------------------------

    def _pause(self, ue: UEId, frame, reason: str,
               breakpoint_id: Optional[int] = None,
               watch: Optional[dict] = None) -> None:
        """Park the calling UE and apply the client's resume command."""
        self._busy.add(ue.tid)
        try:
            self._park(ue, frame, reason, breakpoint_id, watch)
        finally:
            self._busy.discard(ue.tid)

    def _park(self, ue: UEId, frame, reason: str,
              breakpoint_id: Optional[int],
              watch: Optional[dict]) -> None:
        state = self.state_for(ue)
        state.notify_stopped()
        capture = capture_stack(frame, reason=reason,
                                breakpoint_id=breakpoint_id, watch=watch)
        # Arm the gate BEFORE announcing the stop: a fast client may send
        # the resume command the instant it hears about the stop, and that
        # release must not be lost (see repro.tracing.control).
        gate = self.controller.gate_for(ue)
        gate.arm()
        with self._lock:
            self._paused_frames[ue] = frame
        if self.on_stop is not None:
            try:
                self.on_stop(ue, capture)
            except Exception:  # noqa: BLE001 - client glue must not kill UE
                debug_event("tracing", f"on_stop callback failed for {ue}")
        obs_metrics.inc("trace.pauses", reason=reason)
        parked = SPANS.begin(f"parked:{reason}", cat="tracing",
                             pid=ue.pid, tid=ue.tid)
        try:
            command = gate.await_release(timeout=self.park_timeout)
        finally:
            parked.end()
            obs_metrics.observe("trace.park_seconds",
                                time.monotonic() - parked.t0_mono)
            with self._lock:
                self._paused_frames.pop(ue, None)
        self._apply_command(state, frame, command)
        if self.on_resume is not None:
            try:
                self.on_resume(ue)
            except Exception:  # noqa: BLE001
                debug_event("tracing", f"on_resume callback failed for {ue}")

    def _apply_command(self, state: StepState, frame,
                       command: ResumeCommand) -> None:
        ue = UEId(os.getpid(), threading.get_ident())
        action = command.action
        if action == "continue":
            state.set_continue()
            self._active_steppers.discard(ue)
            if self.codebp.stale_live:
                self.codebp.recheck()
            self.refresh_quiet()
            self._strip_injected_frames(frame)
            return
        self._active_steppers.add(ue)
        self.refresh_quiet()
        if action == "step":
            state.set_step()
        elif action == "next":
            state.set_next(frame)
        elif action == "return":
            state.set_return(frame)
        elif action == "until":
            state.set_until(frame, command.until_line)
        else:
            debug_event("tracing", f"unknown resume action {action!r}; "
                                   f"continuing")
            state.set_continue()
            self._active_steppers.discard(ue)
            return
        # Frames entered while the UE ran free declined local tracing (the
        # no-breakpoint fast path), so a step/next/return targeting them
        # would never see a line or return event.  Inject the local trace
        # function up the stack — bdb does the same via f_trace.
        self._inject_frames(frame)

    # -- fork support ---------------------------------------------------------------

    def reset_after_fork(self) -> None:
        """Child fork handler: only the forking thread survives (§5.1).

        Parent thread states, seen-UE marks and parked gates describe
        threads that do not exist in this process; drop them all and keep
        a fresh state for the surviving thread.  The inherited LineTable
        verdicts are dropped too — the child re-owns its breakpoint store
        as data (Fig. 4), and its caches must be recomputed against its
        own copy (the PROTOCOL.md invalidation-broadcast contract).
        """
        surviving = UEId.current()
        self._states = {surviving: StepState()}
        # The patched code and the patch table are inherited as they
        # are (§5.3 duty (2)); only per-thread marks are dropped.
        self._handled = {}
        self._busy = set()
        self._active_steppers = set()
        self.controller.reset_after_fork(surviving)
        self.watchpoints.reset_after_fork()
        self.linetable.invalidate()
        self.refresh_quiet()
        # The child must re-arm event delivery for itself: settrace state
        # is per-thread and the child's only thread is the parent's
        # forker, which becomes the main thread the re-arm signal
        # reaches (phase C's "register the thread that called fork as
        # the main thread").
        if not self._installed:
            return
        self._main_ident = threading.get_ident()
        threading.settrace(self._global_dispatch)
        if self._fastpath and self._demotable and self._quiet:
            # Quiet child: stay (or become) demoted; the dispatch would
            # drop the hook at the first call event anyway.
            sys.settrace(None)
            self._main_demoted = True
        else:
            sys.settrace(self._global_dispatch)
            self._main_demoted = False

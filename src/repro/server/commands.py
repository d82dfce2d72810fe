"""Debug-command dispatch table.

Paper section 4: *"The client sends debug commands to the debugger
server, such as set break point, continue, step, next and so on; the
server receives commands from the client, executes them and sends
appropriate responses."*

Every handler is non-blocking: a ``resume`` releases the target UE's
gate and returns immediately; it never waits for the UE to run.  This is
what keeps the single listener thread responsive while any number of
debuggee threads sit parked.
"""

from __future__ import annotations

import linecache
import os
import threading
from typing import Any, Callable, Dict, TYPE_CHECKING

from ..tracing.control import ResumeCommand
from ..tracing.frames import capture_frame, evaluate_in_frame
from ..util.errors import BreakpointError, CommandError, TraceError
from ..util.ids import UEId, describe_ue
from ..util.serde import render_value
from . import protocol

if TYPE_CHECKING:  # pragma: no cover
    from .debugserver import DebugServer

Handler = Callable[["DebugServer", Dict[str, Any]], Any]
_HANDLERS: Dict[str, Handler] = {}


def command(name: str) -> Callable[[Handler], Handler]:
    def decorate(func: Handler) -> Handler:
        _HANDLERS[name] = func
        return func
    return decorate


def dispatch(server: "DebugServer", name: str,
             args: Dict[str, Any]) -> Any:
    handler = _HANDLERS.get(name)
    if handler is None:
        raise CommandError(f"unknown command {name!r}")
    return handler(server, args)


def known_commands():
    return sorted(_HANDLERS)


def _require_ue(args: Dict[str, Any]) -> UEId:
    raw = args.get("ue")
    if not isinstance(raw, dict):
        raise CommandError("missing or invalid 'ue' argument")
    return protocol.ue_from_wire(raw)


# -- introspection ------------------------------------------------------------

@command("info")
def cmd_info(server: "DebugServer", args: Dict[str, Any]) -> Any:
    state = server.session.describe()
    state["port"] = server.port
    state["commands"] = known_commands()
    return state


@command("status")
def cmd_status(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """Supervision snapshot: what a reattaching client needs to resync.

    Returns the token epoch, the parked-UE set and the breakpoint table
    in one round trip, so a client recovering from a crash can diff its
    local intent against the server's surviving state.
    """
    parked = server.engine.controller.parked_ues()
    return {
        "pid": server.session.pid,
        "session_token": server.session.session_token,
        "epoch": server.session.epoch,
        "fork_generation": server.session.fork_generation,
        "parked": [protocol.ue_to_wire(ue) for ue in parked],
        "breakpoints": server.engine.breakpoints.snapshot_state(),
        "grace_pending": server.grace_pending,
    }


@command("threads")
def cmd_threads(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """The Processes-and-threads view (Fig. 2), for this process."""
    parked = set(server.engine.controller.parked_ues())
    # The engine materialises per-UE state only on its slow path, and
    # the per-code fast path keeps quietly-running threads out of it
    # entirely — so the view unions in every live debuggee thread
    # instead of depending on dispatch policy.  The debugger's own
    # service threads are all named ``dionea-*`` and stay hidden.
    ues = set(server.engine.known_ues())
    pid = os.getpid()
    for thread in threading.enumerate():
        if thread.ident is None or thread.name.startswith("dionea-"):
            continue
        ues.add(UEId(pid, thread.ident))
    out = []
    for ue in sorted(ues):
        out.append({
            "ue": protocol.ue_to_wire(ue),
            "label": describe_ue(ue, server.session.main_thread_ident),
            "parked": ue in parked,
        })
    return out


# -- breakpoints -----------------------------------------------------------------

@command("set_break")
def cmd_set_break(server: "DebugServer", args: Dict[str, Any]) -> Any:
    file = args.get("file")
    line = args.get("line")
    if not isinstance(file, str) or not isinstance(line, int):
        raise CommandError("set_break needs 'file' (str) and 'line' (int)")
    bp = server.engine.breakpoints.add(
        file, line,
        condition=args.get("condition"),
        temporary=bool(args.get("temporary", False)),
        ignore_count=int(args.get("ignore_count", 0)))
    return {"id": bp.id, "file": bp.file, "line": bp.line}


@command("set_function_break")
def cmd_set_function_break(server: "DebugServer",
                           args: Dict[str, Any]) -> Any:
    function = args.get("function")
    if not isinstance(function, str):
        raise CommandError("set_function_break needs 'function' (str)")
    bp = server.engine.breakpoints.add_function(
        function, condition=args.get("condition"),
        temporary=bool(args.get("temporary", False)))
    return {"id": bp.id, "function": function}


@command("clear_break")
def cmd_clear_break(server: "DebugServer", args: Dict[str, Any]) -> Any:
    bp_id = args.get("id")
    if not isinstance(bp_id, int):
        raise CommandError("clear_break needs 'id' (int)")
    try:
        server.engine.breakpoints.remove(bp_id)
    except BreakpointError as exc:
        raise CommandError(str(exc)) from exc
    return {"removed": bp_id}


@command("enable_break")
def cmd_enable_break(server: "DebugServer", args: Dict[str, Any]) -> Any:
    bp_id = args.get("id")
    if not isinstance(bp_id, int):
        raise CommandError("enable_break needs 'id' (int)")
    enabled = bool(args.get("enabled", True))
    try:
        server.engine.breakpoints.set_enabled(bp_id, enabled)
    except BreakpointError as exc:
        raise CommandError(str(exc)) from exc
    return {"id": bp_id, "enabled": enabled}


@command("breaks")
def cmd_breaks(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """The breakpoint table; ``served`` says how each one is served:
    ``"code"`` (a patched line, tracing.codebp) or ``"trace"`` (the
    settrace path, whose armed cost is why it is worth showing)."""
    engine = server.engine
    return [dict(row, served=engine.served(row))
            for row in engine.breakpoints.snapshot_state()]


# -- watchpoints --------------------------------------------------------------------

@command("set_watch")
def cmd_set_watch(server: "DebugServer", args: Dict[str, Any]) -> Any:
    expression = args.get("expression")
    if not isinstance(expression, str):
        raise CommandError("set_watch needs 'expression' (str)")
    try:
        watch = server.engine.watchpoints.add(expression)
    except (BreakpointError, SyntaxError) as exc:
        raise CommandError(str(exc)) from exc
    return {"id": watch.id, "expression": watch.expression}


@command("clear_watch")
def cmd_clear_watch(server: "DebugServer", args: Dict[str, Any]) -> Any:
    watch_id = args.get("id")
    if not isinstance(watch_id, int):
        raise CommandError("clear_watch needs 'id' (int)")
    try:
        server.engine.watchpoints.remove(watch_id)
    except BreakpointError as exc:
        raise CommandError(str(exc)) from exc
    return {"removed": watch_id}


@command("watches")
def cmd_watches(server: "DebugServer", args: Dict[str, Any]) -> Any:
    return server.engine.watchpoints.snapshot_state()


@command("catch_exceptions")
def cmd_catch_exceptions(server: "DebugServer",
                         args: Dict[str, Any]) -> Any:
    """Break at every raise (optionally filtered to named types)."""
    enabled = bool(args.get("enabled", True))
    only = args.get("only")
    if only is not None and (
            not isinstance(only, list)
            or not all(isinstance(n, str) for n in only)):
        raise CommandError("'only' must be a list of exception names")
    server.engine.set_exception_breaks(enabled, only)
    return {"catching": server.engine.exception_breaks,
            "only": only}


# -- execution control --------------------------------------------------------------

@command("resume")
def cmd_resume(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """continue / step / next / return / until on one parked UE."""
    ue = _require_ue(args)
    action = args.get("action", "continue")
    if action not in ("continue", "step", "next", "return", "until"):
        raise CommandError(f"unknown resume action {action!r}")
    cmd = ResumeCommand(action=action, until_line=args.get("until_line"))
    try:
        server.engine.controller.release(ue, cmd)
    except TraceError as exc:
        raise CommandError(str(exc)) from exc
    return {"resumed": protocol.ue_to_wire(ue), "action": action}


@command("suspend")
def cmd_suspend(server: "DebugServer", args: Dict[str, Any]) -> Any:
    ue = _require_ue(args)
    server.engine.request_suspend(ue)
    return {"suspend_requested": protocol.ue_to_wire(ue)}


@command("suspend_all")
def cmd_suspend_all(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """Whole-program pause — the non-low-intrusive mode of section 4."""
    server.engine.request_suspend_all()
    return {"suspend_all": True}


@command("resume_all")
def cmd_resume_all(server: "DebugServer", args: Dict[str, Any]) -> Any:
    return {"released": server.engine.resume_all()}


# -- stopped-UE inspection --------------------------------------------------------------

@command("stack")
def cmd_stack(server: "DebugServer", args: Dict[str, Any]) -> Any:
    ue = _require_ue(args)
    capture = server.last_stop_for(ue)
    if capture is None:
        raise CommandError(f"{ue} is not stopped")
    return capture


@command("eval")
def cmd_eval(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """Shell `p expr`: evaluate in the parked UE's top frame."""
    ue = _require_ue(args)
    expression = args.get("expression")
    if not isinstance(expression, str):
        raise CommandError("eval needs 'expression' (str)")
    frame = server.engine.paused_frame(ue)
    if frame is None:
        raise CommandError(f"{ue} is not stopped")
    try:
        value = evaluate_in_frame(frame, expression)
    except Exception as exc:  # noqa: BLE001 - debuggee expression
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    return {"ok": True, "value": render_value(value)}


@command("variables")
def cmd_variables(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """The Variables view for a given frame of a parked UE."""
    ue = _require_ue(args)
    index = int(args.get("frame_index", 0))
    frame = server.engine.paused_frame(ue)
    if frame is None:
        raise CommandError(f"{ue} is not stopped")
    for _ in range(index):
        if frame.f_back is None:
            raise CommandError(f"frame index {index} out of range")
        frame = frame.f_back
    return capture_frame(frame, with_locals=True).to_wire()


# -- source sync (the second data socket of section 4) --------------------------------

@command("source")
def cmd_source(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """Ship source lines so the client's Source view matches the server's.

    This is the source-synchronisation channel's one command; the client
    issues it over the ``source``-role connection.
    """
    file = args.get("file")
    if not isinstance(file, str):
        raise CommandError("source needs 'file' (str)")
    start = max(1, int(args.get("start", 1)))
    end = int(args.get("end", start + 39))
    if end < start:
        raise CommandError("source range end < start")
    linecache.checkcache(file)
    lines = []
    for lineno in range(start, end + 1):
        text = linecache.getline(file, lineno)
        if not text and lineno > start:
            break
        lines.append(text.rstrip("\n"))
    return {"file": file, "start": start, "lines": lines}


# -- debuggee I/O (Fig. 2's Output and Input windows) ----------------------------------

@command("capture_output")
def cmd_capture_output(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """Toggle the stdout/stderr tee at runtime."""
    enabled = bool(args.get("enabled", True))
    if enabled:
        server.output_capture.install()
    else:
        server.output_capture.uninstall()
    return {"capturing": server.output_capture.installed}


@command("output")
def cmd_output(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """Buffered debuggee output (optionally one stream)."""
    stream = args.get("stream")
    if stream not in (None, "stdout", "stderr"):
        raise CommandError("stream must be 'stdout' or 'stderr'")
    return {"capturing": server.output_capture.installed,
            "text": server.output_capture.snapshot(stream)}


@command("feed_input")
def cmd_feed_input(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """Write into the debuggee's stdin (installs the feed on first use)."""
    text = args.get("text")
    if not isinstance(text, str):
        raise CommandError("feed_input needs 'text' (str)")
    if not server.input_feed.installed:
        server.input_feed.install()
    return {"fed": server.input_feed.feed(text)}


@command("close_input")
def cmd_close_input(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """EOF the debuggee's stdin."""
    server.input_feed.close_input()
    return {"closed": True}


# -- profiling and internals -----------------------------------------------------------

@command("profile_start")
def cmd_profile_start(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """Start the low-intrusion sampling profiler (no trace functions)."""
    from ..tracing.sampling import SamplingProfiler
    interval = float(args.get("interval_ms", 5.0)) / 1000.0
    if server.profiler is not None and server.profiler.running:
        raise CommandError("profiler already running")
    server.profiler = SamplingProfiler(interval=interval)
    server.profiler.start()
    return {"running": True, "interval_ms": interval * 1000}


@command("profile_stop")
def cmd_profile_stop(server: "DebugServer", args: Dict[str, Any]) -> Any:
    if server.profiler is None:
        raise CommandError("profiler was never started")
    server.profiler.stop()
    return {"running": False,
            "total_sweeps": server.profiler.total_samples,
            "skipped_passes": server.profiler.skipped_passes,
            "achieved_hz": round(server.profiler.achieved_rate_hz, 2)}


@command("profile_report")
def cmd_profile_report(server: "DebugServer",
                       args: Dict[str, Any]) -> Any:
    if server.profiler is None:
        raise CommandError("profiler was never started")
    return server.profiler.to_wire(top=int(args.get("top", 20)))


@command("telemetry")
def cmd_telemetry(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """One process's full observability snapshot (metrics, ring records).

    ``reset=True`` drains the metric shards and moves telemetry's own
    cursor on the event ring past what it returns — the next snapshot
    then covers only the interval since this one (rate measurement
    without client-side bookkeeping).  The ring itself is never
    cleared: a telemetry poll must not eat the crash evidence.
    """
    from .. import obs
    snap = obs.telemetry_snapshot(reset=bool(args.get("reset", False)))
    snap["pid"] = server.session.pid
    snap["program"] = server.session.program
    snap["epoch"] = server.session.epoch
    snap["fork_generation"] = server.session.fork_generation
    snap["session_token"] = server.session.session_token
    return snap


@command("blackbox")
def cmd_blackbox(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """Flight-recorder status; ``flush=True`` forces a dump to disk."""
    from ..obs.blackbox import BLACKBOX
    if args.get("flush"):
        BLACKBOX.force_flush("command")
    status = BLACKBOX.describe()
    status["pid"] = server.session.pid
    return status


@command("debug_log")
def cmd_debug_log(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """The debug-log lines (instants) still in the event ring — for
    debugging the debugger."""
    from ..obs.spans import SPANS, format_instant, is_instant
    lines = [format_instant(r) for r in SPANS.snapshot() if is_instant(r)]
    limit = int(args.get("limit", 200))
    return {"dropped": SPANS.dropped, "records": lines[-limit:]}


# -- modes and lifecycle ------------------------------------------------------------------

@command("disturb")
def cmd_disturb(server: "DebugServer", args: Dict[str, Any]) -> Any:
    enabled = bool(args.get("enabled", True))
    server.set_disturb(enabled)
    return {"disturb": enabled}


@command("deadlock_report")
def cmd_deadlock_report(server: "DebugServer", args: Dict[str, Any]) -> Any:
    return server.deadlock_report()


@command("detach")
def cmd_detach(server: "DebugServer", args: Dict[str, Any]) -> Any:
    """Let the debuggee run free; the server stays attachable."""
    released = server.engine.controller.release_all()
    return {"released": released}

"""The command shell: textual debug commands (Fig. 2's shell window).

*"The command shell is used to send commands to the debuggee, e.g.,
continue, step, next."*  The grammar is pdb-flavoured:

=====================  =====================================================
``break FILE:LINE [, COND]``   set a breakpoint (``b`` works too)
``tbreak FILE:LINE [, COND]``  one-shot breakpoint
``breakf NAME``                break on entry to function NAME
``clear ID``                   delete breakpoint ID
``breaks``                     list breakpoints
``continue`` / ``c``           resume the active UE
``step`` / ``s``               step into
``next`` / ``n``               step over
``return`` / ``r``             run until the current frame returns
``until [LINE]``               run until past LINE in this frame
``suspend``                    pause the active UE
``suspendall``                 pause the whole program
``resumeall``                  release every parked UE
``p EXPR``                     evaluate EXPR in the active UE's frame
``vars [N]``                   variables of stack frame N
``threads``                    processes-and-threads view
``sessions``                   list attached debuggees
``view PID [TID]``             switch the active view (Fig. 3)
``disturb on|off``             toggle disturb mode
``deadlocks``                  wait-for-graph report
=====================  =====================================================

The interpreter is deliberately decoupled from I/O: :meth:`execute`
returns the text a terminal would print, which is what the tests assert
against.
"""

from __future__ import annotations

import shlex
from typing import List, Optional, Tuple

from ..server import protocol
from ..util.errors import CommandError, SessionError, ViewError
from ..util.ids import UEId
from .client import DebugClient
from .view import DebugView


def parse_location(text: str) -> Tuple[str, int, Optional[str]]:
    """Parse ``FILE:LINE`` with an optional ``, condition`` suffix."""
    condition: Optional[str] = None
    if "," in text:
        text, condition = text.split(",", 1)
        condition = condition.strip() or None
    text = text.strip()
    if ":" not in text:
        raise CommandError(f"expected FILE:LINE, got {text!r}")
    file, _, line_text = text.rpartition(":")
    try:
        line = int(line_text)
    except ValueError as exc:
        raise CommandError(f"bad line number {line_text!r}") from exc
    return file, line, condition


class Shell:
    """Stateful interpreter bound to a :class:`DebugClient`."""

    def __init__(self, client: DebugClient):
        self.client = client

    # -- helpers -----------------------------------------------------------------

    def _active(self) -> DebugView:
        view = self.client.active_view
        if view is None:
            stopped = self.client.stopped_views()
            if stopped:
                view = stopped[0]
                self.client._active_view = view  # noqa: SLF001
            else:
                raise CommandError("no active view; use 'view PID [TID]'")
        return view

    def _session(self):
        view = self.client.active_view
        if view is not None:
            return view.session
        sessions = self.client.sessions()
        if not sessions:
            raise CommandError("no attached sessions")
        return sessions[0]

    # -- entry point -------------------------------------------------------------

    def execute(self, line: str) -> str:
        line = line.strip()
        if not line:
            return ""
        verb, _, rest = line.partition(" ")
        rest = rest.strip()
        method = getattr(self, f"do_{self._canonical(verb)}", None)
        if method is None:
            raise CommandError(f"unknown command {verb!r}")
        return method(rest)

    _ALIASES = {"b": "break", "c": "continue", "s": "step", "n": "next",
                "r": "return", "bt": "stack", "where": "stack"}

    def _canonical(self, verb: str) -> str:
        verb = self._ALIASES.get(verb, verb)
        return {"break": "break_", "continue": "continue_",
                "return": "return_"}.get(verb, verb)

    # -- breakpoints -----------------------------------------------------------------

    def do_break_(self, rest: str) -> str:
        file, lineno, condition = parse_location(rest)
        result = self._session().request(
            "set_break", {"file": file, "line": lineno,
                          "condition": condition})
        return f"breakpoint {result['id']} at {result['file']}:{result['line']}"

    def do_tbreak(self, rest: str) -> str:
        file, lineno, condition = parse_location(rest)
        result = self._session().request(
            "set_break", {"file": file, "line": lineno,
                          "condition": condition, "temporary": True})
        return (f"temporary breakpoint {result['id']} at "
                f"{result['file']}:{result['line']}")

    def do_breakf(self, rest: str) -> str:
        if not rest:
            raise CommandError("breakf needs a function name")
        result = self._session().request("set_function_break",
                                         {"function": rest})
        return f"breakpoint {result['id']} on function {rest}"

    def do_clear(self, rest: str) -> str:
        try:
            bp_id = int(rest)
        except ValueError as exc:
            raise CommandError("clear needs a breakpoint id") from exc
        self._session().request("clear_break", {"id": bp_id})
        return f"cleared breakpoint {bp_id}"

    def do_breaks(self, rest: str) -> str:
        rows = self._session().request("breaks")
        if not rows:
            return "no breakpoints"
        out = []
        for bp in rows:
            place = (bp["function"] if bp.get("function")
                     else f"{bp['file']}:{bp['line']}")
            flags = []
            if not bp["enabled"]:
                flags.append("disabled")
            if bp["temporary"]:
                flags.append("temporary")
            if bp["condition"]:
                flags.append(f"if {bp['condition']}")
            suffix = f" ({', '.join(flags)})" if flags else ""
            served = f"  served={bp['served']}" if "served" in bp else ""
            out.append(f"{bp['id']:3d}  {place}  hits={bp['hit_count']}"
                       f"{served}{suffix}")
        return "\n".join(out)

    # -- execution control ---------------------------------------------------------------

    def do_continue_(self, rest: str) -> str:
        view = self._active()
        view.cont()
        return f"continuing {view.ue}"

    def do_step(self, rest: str) -> str:
        view = self._active()
        view.step()
        return f"stepping {view.ue}"

    def do_next(self, rest: str) -> str:
        view = self._active()
        view.next()
        return f"next on {view.ue}"

    def do_return_(self, rest: str) -> str:
        view = self._active()
        view.step_return()
        return f"running {view.ue} to return"

    def do_until(self, rest: str) -> str:
        view = self._active()
        view.until(int(rest) if rest else None)
        return f"running {view.ue} until past line"

    def do_suspend(self, rest: str) -> str:
        view = self._active()
        view.suspend()
        return f"suspend requested for {view.ue}"

    def do_suspendall(self, rest: str) -> str:
        self._session().request("suspend_all")
        return "suspend requested for all UEs"

    def do_resumeall(self, rest: str) -> str:
        result = self._session().request("resume_all")
        return f"released {result['released']} UEs"

    # -- inspection -------------------------------------------------------------------------

    def do_p(self, rest: str) -> str:
        if not rest:
            raise CommandError("p needs an expression")
        result = self._active().evaluate(rest)
        if result.get("ok"):
            return result["value"]
        return f"error: {result['error']}"

    def do_vars(self, rest: str) -> str:
        frame_index = int(rest) if rest else 0
        frame = self._active().variables(frame_index)
        rows = [f"{name} = {value}"
                for name, value in sorted(frame["locals"].items())]
        header = (f"frame {frame_index}: {frame['function']} at "
                  f"{frame['file']}:{frame['line']}")
        return "\n".join([header] + rows)

    def do_stack(self, rest: str) -> str:
        capture = self._active().stack()
        return "\n".join(f"#{i} {f.function} at {f.file}:{f.line}"
                         for i, f in enumerate(capture.frames))

    def do_threads(self, rest: str) -> str:
        rows: List[str] = []
        for session in self.client.sessions():
            rows.append(f"process {session.pid} ({session.program or '?'})")
            for entry in session.threads():
                state = "stopped" if entry["parked"] else "running"
                rows.append(f"  {entry['label']} [{state}]")
        return "\n".join(rows) if rows else "no sessions"

    def do_sessions(self, rest: str) -> str:
        rows = [f"{s.session_id}: pid {s.pid} at {s.host}:{s.port}"
                for s in self.client.sessions()]
        return "\n".join(rows) if rows else "no sessions"

    def do_view(self, rest: str) -> str:
        parts = shlex.split(rest)
        if not parts:
            raise CommandError("view needs PID [TID]")
        pid = int(parts[0])
        session = self.client.session_for_pid(pid, timeout=0.1)
        tid = int(parts[1]) if len(parts) > 1 else session.main_thread
        view = self.client.view_for(UEId(pid, tid))
        if view.is_stopped:
            rendered = self.client.activate(view)
            return "\n".join(rendered["source"])
        self.client._active_view = view  # noqa: SLF001
        return f"active view is now {view.ue} (running)"

    # -- watchpoints -------------------------------------------------------------------

    def do_watch(self, rest: str) -> str:
        """`watch EXPR` — stop any UE when EXPR's value changes."""
        if not rest:
            raise CommandError("watch needs an expression")
        result = self._session().request("set_watch",
                                         {"expression": rest})
        return f"watchpoint {result['id']} on {result['expression']}"

    def do_unwatch(self, rest: str) -> str:
        try:
            watch_id = int(rest)
        except ValueError as exc:
            raise CommandError("unwatch needs a watchpoint id") from exc
        self._session().request("clear_watch", {"id": watch_id})
        return f"cleared watchpoint {watch_id}"

    def do_watches(self, rest: str) -> str:
        rows = self._session().request("watches")
        if not rows:
            return "no watchpoints"
        return "\n".join(
            f"{w['id']:3d}  {w['expression']}  hits={w['hit_count']}"
            f"{'' if w['enabled'] else ' (disabled)'}"
            for w in rows)

    def do_catch(self, rest: str) -> str:
        """`catch on|off [Type ...]` — break at every (matching) raise."""
        parts = rest.split()
        if not parts or parts[0] not in ("on", "off"):
            raise CommandError("catch needs 'on' or 'off' "
                               "(optionally followed by exception names)")
        only = parts[1:] or None
        result = self._session().request(
            "catch_exceptions",
            {"enabled": parts[0] == "on", "only": only})
        state = "on" if result["catching"] else "off"
        suffix = f" (only: {', '.join(only)})" if only else ""
        return f"exception catching {state}{suffix}"

    # -- debuggee I/O (Fig. 2 Input/Output windows) --------------------------------------

    def do_output(self, rest: str) -> str:
        """`output [stdout|stderr]` — the active session's Output window."""
        session = self._session()
        stream = rest or None
        result = session.request("output", {"stream": stream})
        if not result["capturing"] and not result["text"]:
            return ("no output captured (enable with 'capture on' or "
                    "start the server with capture_io)")
        return result["text"] or "(no output yet)"

    def do_capture(self, rest: str) -> str:
        if rest not in ("on", "off"):
            raise CommandError("capture needs 'on' or 'off'")
        result = self._session().request("capture_output",
                                         {"enabled": rest == "on"})
        return f"output capture {'on' if result['capturing'] else 'off'}"

    def do_input(self, rest: str) -> str:
        """`input TEXT` — feed a line to the debuggee's stdin."""
        result = self._session().request("feed_input",
                                         {"text": rest + "\n"})
        return f"fed {result['fed']} bytes"

    def do_eof(self, rest: str) -> str:
        self._session().request("close_input")
        return "stdin closed"

    def do_tree(self, rest: str) -> str:
        """The whole-program process tree (Fig. 1)."""
        rendered = self.client.render_process_tree()
        return rendered or "no processes observed"

    # -- modes ----------------------------------------------------------------------------------

    def do_disturb(self, rest: str) -> str:
        if rest not in ("on", "off"):
            raise CommandError("disturb needs 'on' or 'off'")
        self._session().request("disturb", {"enabled": rest == "on"})
        return f"disturb mode {rest}"

    def do_profile(self, rest: str) -> str:
        """`profile start [MS] | stop | report` — sampling profiler."""
        parts = rest.split()
        if not parts:
            raise CommandError("profile needs start/stop/report")
        session = self._session()
        if parts[0] == "start":
            interval = float(parts[1]) if len(parts) > 1 else 5.0
            session.request("profile_start", {"interval_ms": interval})
            return f"profiler started ({interval} ms interval)"
        if parts[0] == "stop":
            result = session.request("profile_stop")
            return f"profiler stopped after {result['total_sweeps']} sweeps"
        if parts[0] == "report":
            report = session.request("profile_report")
            lines = [f"{report['total_sweeps']} sweeps at "
                     f"{report['interval_ms']:.1f} ms"]
            for ue, data in sorted(report["profiles"].items()):
                lines.append(f"{ue}: {data['samples']} samples")
                for row in data["hottest"][:6]:
                    share = 100.0 * row["self"] / max(1, data["samples"])
                    lines.append(f"    {share:5.1f}%  {row['function']}")
            return "\n".join(lines)
        raise CommandError("profile needs start/stop/report")

    # -- telemetry (observability subsystem) -----------------------------------------

    @staticmethod
    def _render_metrics(snap: dict, indent: str = "") -> List[str]:
        """Counters, gauges and histogram summaries of one snapshot."""
        lines: List[str] = []
        metrics = snap.get("metrics", {})
        for name, value in sorted(metrics.get("counters", {}).items()):
            lines.append(f"{indent}{name} = {value}")
        for name, value in sorted(metrics.get("gauges", {}).items()):
            lines.append(f"{indent}{name} = {value} (gauge)")
        for name, hist in sorted(metrics.get("histograms", {}).items()):
            n = hist.get("count", 0)
            if not n:
                continue
            mean = hist.get("sum", 0.0) / n
            lines.append(f"{indent}{name}: n={n} mean={mean * 1e3:.3f}ms "
                         f"min={hist.get('min', 0.0) * 1e3:.3f}ms "
                         f"max={hist.get('max', 0.0) * 1e3:.3f}ms")
        records = snap.get("spans", [])
        if records:
            lines.append(f"{indent}{len(records)} ring records "
                         f"(spans and log lines)")
        return lines

    def do_telemetry(self, rest: str) -> str:
        """`telemetry [process|cluster|ue] [reset]` — observability snapshot.

        ``process`` (default) polls the active session's debuggee;
        ``cluster`` sweeps every attached debuggee plus this client;
        ``ue`` narrows the process snapshot's spans to the active UE's
        thread.  Append ``reset`` to drain counters as they are read.
        """
        parts = rest.split()
        scope = parts[0] if parts and parts[0] in ("process", "cluster",
                                                   "ue") else "process"
        reset = "reset" in parts
        if scope == "cluster":
            sweep = self.client.cluster_telemetry(reset=reset)
            lines: List[str] = []
            for pid, snap in sorted(sweep["processes"].items()):
                lines.append(f"process {pid} ({snap.get('program') or '?'}, "
                             f"epoch {snap.get('epoch')})")
                lines.extend(self._render_metrics(snap, indent="  "))
            for pid, err in sorted(sweep.get("errors", {}).items()):
                lines.append(f"process {pid}: telemetry failed: {err}")
            fleet = sweep.get("fleet") or {}
            if fleet.get("sessions"):
                line = (f"fleet: {fleet['sessions']} sessions, "
                        f"{fleet.get('heartbeats_seen', 0)} beats, "
                        f"{fleet.get('missed_beats', 0)} missed")
                rtt = fleet.get("rtt_seconds")
                if rtt:
                    line += (f"; hb rtt min/p50/max "
                             f"{rtt['min'] * 1e3:.1f}/"
                             f"{rtt['p50'] * 1e3:.1f}/"
                             f"{rtt['max'] * 1e3:.1f} ms "
                             f"(slowest pid {rtt['slowest_pid']})")
                lines.append(line)
            client_snap = sweep.get("client")
            if client_snap:
                lines.append("client (this process)")
                lines.extend(self._render_metrics(client_snap, indent="  "))
            return "\n".join(lines) if lines else "no telemetry"
        session = self._session()
        snap = session.request("telemetry", {"reset": reset})
        lines = [f"process {snap['pid']} ({snap.get('program') or '?'}, "
                 f"epoch {snap.get('epoch')}, "
                 f"fork generation {snap.get('fork_generation')})"]
        if scope == "ue":
            view = self._active()
            tid = view.ue.tid
            mine = [s for s in snap.get("spans", [])
                    if s.get("tid") == tid]
            lines.append(f"UE {view.ue}: {len(mine)} spans")
            for s in mine[-20:]:
                lines.append(f"  {s['name']} [{s['cat']}] "
                             f"{s['dur'] * 1e3:.3f}ms")
            return "\n".join(lines)
        lines.extend(self._render_metrics(snap, indent="  "))
        return "\n".join(lines)

    def do_log(self, rest: str) -> str:
        """`log [N]` — the debuggee-side debugger's internal event log."""
        limit = int(rest) if rest else 50
        result = self._session().request("debug_log", {"limit": limit})
        lines = result["records"]
        if result["dropped"]:
            lines.insert(0, f"({result['dropped']} older records dropped)")
        return "\n".join(lines) if lines else "(log empty)"

    def do_help(self, rest: str) -> str:
        verbs = sorted(name[3:].rstrip("_")
                       for name in dir(self) if name.startswith("do_"))
        aliases = ", ".join(f"{alias}={full}"
                            for alias, full in sorted(self._ALIASES.items()))
        return ("commands: " + ", ".join(verbs)
                + "\naliases: " + aliases)

    def do_deadlocks(self, rest: str) -> str:
        report = self._session().request("deadlock_report")
        if not report.get("available", True):
            return "deadlock detection not available"
        cycles = report.get("cycles", [])
        if not cycles:
            return "no deadlocks detected"
        out = []
        for cycle in cycles:
            out.append("deadlock: " + " -> ".join(cycle["nodes"]))
            for ue, where in cycle.get("locations", {}).items():
                out.append(f"  {ue} blocked at {where}")
        return "\n".join(out)

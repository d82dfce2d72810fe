"""Chaos tier: adversarial debuggees and the do-no-harm harness.

The resilience layer (repro.forkhooks.resilience, degraded mode, the
server watchdog) promises one hard invariant: **no debugger fault may
change the debuggee's output, its exit status, or its ability to
fork**.  This module is the harness that *measures* that promise
instead of asserting it piecewise:

every chaos scenario runs the same workload twice in fresh forked
processes —

* **bare**: the workload alone, no debugger anywhere near it;
* **debugged**: the workload under a full Dionea facade, with an
  adversary attached (a hung or raising third-party fork handler, an
  armed fault, a mid-fork SIGKILL);

— captures everything each run wrote to fd 1/2 plus its wait status,
and demands they be *byte-identical*.  Orderly debugged runs also ship
an evidence file (obs counters + debug-log lines) proving the resilience
machinery actually engaged: a pass where the adversary never fired
would be vacuous.

Scenario bodies are registered in ``SCENARIO_MATRIX`` next to the
stress tier's, and ``tests/chaos`` sweeps each across ≥10 seeds (the
seed perturbs round counts, payloads and kill points through
``ctx.rng``; both runs of a pair share the drawn values, so the
comparison stays exact).
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..obs import metrics as obs_metrics
from ..obs.spans import SPANS, format_instant, is_instant
from . import faults
from .scenarios import ScenarioContext, register_scenario

#: categories worth shipping back as evidence of resilience activity
_EVIDENCE_CATEGORIES = ("forkhooks", "dionea", "server")
#: counter prefixes worth shipping back
_EVIDENCE_PREFIXES = ("fork.", "dionea.", "server.")


def _emit(text: str) -> None:
    """Write workload output straight to fd 1 (never through the
    buffered ``sys.stdout``, which a test runner may have replaced)."""
    os.write(1, text.encode("utf-8"))


@dataclass
class RunOutcome:
    """One captured workload execution."""

    exit_code: Optional[int]      # waitstatus_to_exitcode; -N = signal N
    output: bytes                 # everything written to fd 1/2
    evidence: Dict[str, Any] = field(default_factory=dict)


def _write_evidence(path: str) -> None:
    """Dump the debugged process's resilience traces for the parent.

    Called in the *debugged harness child* right before an orderly
    exit; runs that die by signal or exec simply leave no file, and the
    scenario skips its evidence assertions for them.
    """
    snap = obs_metrics.REGISTRY.snapshot()
    counters = {key: value for key, value in snap["counters"].items()
                if key.startswith(_EVIDENCE_PREFIXES)}
    log = [format_instant(record) for record in SPANS.snapshot()
           if is_instant(record) and record["cat"] in _EVIDENCE_CATEGORIES]
    payload = json.dumps({"counters": counters, "log": log})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


def run_captured(ctx: ScenarioContext,
                 workload: Callable[[], Optional[int]],
                 *,
                 debugged: bool,
                 portfile_path: Optional[str] = None,
                 adversary: Optional[Callable[[Any], None]] = None,
                 arm: Optional[Callable[[], None]] = None,
                 env: Optional[Dict[str, str]] = None,
                 wait: float = 30.0) -> RunOutcome:
    """Fork, run *workload* with fd 1/2 redirected into a pipe, reap.

    In debugged mode the child builds a full Dionea facade first, then
    hands it to *adversary* (which registers the sick handler) and runs
    *arm* (which arms the child-local fault registry).  The workload's
    own forks go through the augmented ``os.fork`` — exactly the
    production bracket, adversary and all.
    """
    evidence_path = (f"{portfile_path}.evidence"
                     if debugged and portfile_path else None)
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            os.close(read_end)
            os.dup2(write_end, 1)
            os.dup2(write_end, 2)
            os.close(write_end)
            faults.registry().reset()
            for key, value in (env or {}).items():
                os.environ[key] = value
            debugger = None
            if debugged:
                from ..core import Dionea
                debugger = Dionea(program="chaos",
                                  portfile_path=portfile_path,
                                  park_timeout=10.0)
                debugger.start()
                if adversary is not None:
                    adversary(debugger)
                if arm is not None:
                    arm()
            code = workload() or 0
            if debugger is not None:
                if evidence_path is not None:
                    _write_evidence(evidence_path)
                if debugger.started:
                    debugger.stop()
                else:
                    # degraded mid-run: the facade already detached;
                    # just make sure the rendezvous file is gone.
                    try:
                        debugger.portfile.remove()
                    except OSError:
                        pass
        except BaseException:  # noqa: BLE001 - child must report and die
            os.write(2, traceback.format_exc().encode("utf-8"))
        finally:
            os._exit(code)
    os.close(write_end)
    ctx.track_child(pid)
    chunks: List[bytes] = []
    while True:
        chunk = os.read(read_end, 65536)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(read_end)
    code = ctx.wait_child(pid, timeout=wait)
    evidence: Dict[str, Any] = {}
    if evidence_path is not None and os.path.exists(evidence_path):
        try:
            with open(evidence_path, encoding="utf-8") as fh:
                evidence = json.load(fh)
        finally:
            os.unlink(evidence_path)
    return RunOutcome(exit_code=code, output=b"".join(chunks),
                      evidence=evidence)


def do_no_harm(ctx: ScenarioContext,
               make_workload: Callable[[str], Callable[[], Optional[int]]],
               *,
               adversary: Optional[Callable[[Any], None]] = None,
               arm_debugged: Optional[Callable[[], None]] = None,
               env: Optional[Dict[str, str]] = None,
               check_evidence: Optional[
                   Callable[[Dict[str, Any]], None]] = None,
               wait: float = 30.0) -> RunOutcome:
    """The invariant, executed: bare vs debugged must be identical.

    *make_workload(mode)* builds the workload closure for ``"bare"`` or
    ``"debugged"`` (the two may differ only in how the adversarial
    event is produced — e.g. the bare run SIGKILLs itself where the
    debugged run takes the kill from an armed fault).  Output bytes and
    the wait status must match exactly; *check_evidence* then inspects
    the debugged run's resilience traces.
    """
    portfile = ctx.portfile()
    ctx.defer(portfile.remove)
    bare = run_captured(ctx, make_workload("bare"),
                        debugged=False, wait=wait)
    debugged = run_captured(ctx, make_workload("debugged"),
                            debugged=True, portfile_path=portfile.path,
                            adversary=adversary, arm=arm_debugged,
                            env=env, wait=wait)
    assert debugged.exit_code == bare.exit_code, (
        f"do-no-harm: exit status diverged — bare {bare.exit_code}, "
        f"debugged {debugged.exit_code}; debugged output:\n"
        f"{debugged.output.decode('utf-8', 'replace')}")
    assert debugged.output == bare.output, (
        f"do-no-harm: output diverged.\n--- bare ---\n"
        f"{bare.output.decode('utf-8', 'replace')}\n--- debugged ---\n"
        f"{debugged.output.decode('utf-8', 'replace')}")
    if check_evidence is not None:
        check_evidence(debugged.evidence)
    ctx.details["exit_code"] = bare.exit_code
    ctx.details["output_bytes"] = len(bare.output)
    ctx.details["evidence_counters"] = dict(
        debugged.evidence.get("counters", {}))
    return debugged


def _counter(evidence: Dict[str, Any], prefix: str) -> float:
    """Sum every evidence counter whose key starts with *prefix*
    (labels fold into the key as ``name{label=...}``)."""
    return sum(value for key, value in evidence.get("counters", {}).items()
               if key.startswith(prefix))


def _fork_rounds(label: str, rounds: int) -> int:
    """The canonical chaos workload: *rounds* sequential fork/reap
    cycles, each child emitting one line.  Strictly sequential, so the
    output byte stream is a pure function of (label, rounds)."""
    for i in range(rounds):
        _emit(f"{label} round {i} start\n")
        pid = os.fork()
        if pid == 0:
            _emit(f"{label} round {i} child {i * i}\n")
            os._exit(0)
        _, status = os.waitpid(pid, 0)
        if status != 0:
            _emit(f"{label} round {i} child failed {status}\n")
            return 1
        _emit(f"{label} round {i} done\n")
    return 0


# ---------------------------------------------------------------------------
# chaos_hung_prepare: a third-party prepare handler that never returns.
# The deadline abandons it, the bench keeps it from re-wedging every
# later fork, and the debuggee's forks all proceed.


@register_scenario("chaos_hung_prepare")
def chaos_hung_prepare(ctx: ScenarioContext) -> None:
    rounds = ctx.rng.randint(3, 5)

    def make_workload(mode: str):
        return lambda: _fork_rounds("hung", rounds)

    def adversary(debugger) -> None:
        debugger.fork_registry.register(
            "chaos-hung", prepare=lambda: time.sleep(120))

    def check(evidence) -> None:
        assert _counter(evidence, "fork.phase_timeouts") >= 1, evidence
        assert _counter(evidence, "fork.quarantined{label=chaos-hung") \
            >= 1, evidence
        assert _counter(evidence, "fork.quarantine_skips") >= 1, evidence

    do_no_harm(ctx, make_workload, adversary=adversary,
               env={"DIONEA_FORK_DEADLINE": "0.4",
                    "DIONEA_FORK_REINSTATE": "1000"},
               check_evidence=check)
    ctx.details["rounds"] = rounds


# ---------------------------------------------------------------------------
# chaos_raising_prepare: a prepare handler that raises on every call.
# Contained each time; with a short parole the scenario also crosses
# quarantine → reinstate → re-quarantine.


@register_scenario("chaos_raising_prepare")
def chaos_raising_prepare(ctx: ScenarioContext) -> None:
    rounds = ctx.rng.randint(4, 6)

    def make_workload(mode: str):
        return lambda: _fork_rounds("raising", rounds)

    def adversary(debugger) -> None:
        def sick_prepare() -> None:
            raise RuntimeError("chaos: prepare always fails")
        debugger.fork_registry.register(
            "chaos-raising", prepare=sick_prepare, parent=lambda: None)

    def check(evidence) -> None:
        assert _counter(evidence, "fork.prepare_contained") >= 1, evidence
        assert _counter(evidence, "fork.quarantined{label=chaos-raising") \
            >= 1, evidence
        assert _counter(evidence, "fork.reinstated") >= 1, evidence

    do_no_harm(ctx, make_workload, adversary=adversary,
               env={"DIONEA_FORK_REINSTATE": "2"},
               check_evidence=check)
    ctx.details["rounds"] = rounds


# ---------------------------------------------------------------------------
# chaos_fork_in_fork_handler: the adversarial handler itself calls
# fork() from inside the bracket.  The reentrancy guard hands it a bare
# fork instead of recursing into the bracket it is already inside.


@register_scenario("chaos_fork_in_fork_handler")
def chaos_fork_in_fork_handler(ctx: ScenarioContext) -> None:
    rounds = ctx.rng.randint(2, 4)

    def make_workload(mode: str):
        return lambda: _fork_rounds("forker", rounds)

    def adversary(debugger) -> None:
        def forking_prepare() -> None:
            inner = os.fork()      # the patched fork: must not recurse
            if inner == 0:
                os._exit(0)
            os.waitpid(inner, 0)
        debugger.fork_registry.register(
            "chaos-forker", prepare=forking_prepare)

    def check(evidence) -> None:
        assert _counter(evidence, "fork.reentrant") >= rounds, evidence
        # the handler behaves (merely misguided), so it is never benched
        assert _counter(evidence, "fork.quarantined") == 0, evidence

    do_no_harm(ctx, make_workload, adversary=adversary,
               check_evidence=check)
    ctx.details["rounds"] = rounds


# ---------------------------------------------------------------------------
# chaos_exec_after_fork: the forked child execs a fresh interpreter.
# The exec'd program must inherit a clean process — no debugger fds
# (close-on-exec), stdout it can write through — and the parent's
# debugger must shrug off the vanished child.


@register_scenario("chaos_exec_after_fork")
def chaos_exec_after_fork(ctx: ScenarioContext) -> None:
    token = f"exec-ok-{ctx.rng.randrange(1 << 20):05x}"

    def make_workload(mode: str):
        def body() -> int:
            _emit("exec start\n")
            pid = os.fork()
            if pid == 0:
                os.execv(sys.executable, [
                    sys.executable, "-c",
                    f"import os; os.write(1, b'{token}\\n')"])
            _, status = os.waitpid(pid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                return 1
            _emit("exec done\n")
            return 0
        return body

    do_no_harm(ctx, make_workload)
    ctx.details["token"] = token


# ---------------------------------------------------------------------------
# chaos_daemonize: classic double-fork.  The intermediate child dies at
# once, the orphaned grandchild (re-rendezvoused through two phase-C
# passes when debugged) does the work and reports through a file.


@register_scenario("chaos_daemonize")
def chaos_daemonize(ctx: ScenarioContext) -> None:
    answer = ctx.rng.randrange(1000)
    scratch = ctx.portfile()   # unused as a portfile; donates a tmp path
    ctx.defer(scratch.remove)

    def make_workload(mode: str):
        sentinel = f"{scratch.path}.{mode}.daemon"
        ctx.defer(lambda: os.path.exists(sentinel) and os.unlink(sentinel))

        def body() -> int:
            _emit("daemon spawn\n")
            mid = os.fork()
            if mid == 0:
                grand = os.fork()
                if grand == 0:
                    # the daemon: report via the filesystem, never via
                    # the (inherited) stdout, then vanish.
                    tmp = sentinel + ".tmp"
                    with open(tmp, "w", encoding="utf-8") as fh:
                        fh.write(str(answer))
                    os.rename(tmp, sentinel)
                    os._exit(0)
                os._exit(0)    # the intermediate parent dies immediately
            _, status = os.waitpid(mid, 0)
            if os.waitstatus_to_exitcode(status) != 0:
                return 1
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                if os.path.exists(sentinel):
                    with open(sentinel, encoding="utf-8") as fh:
                        _emit(f"daemon said {fh.read()}\n")
                    _emit("daemon done\n")
                    return 0
                time.sleep(0.01)
            return 2           # daemon never reported
        return body

    do_no_harm(ctx, make_workload)
    ctx.details["answer"] = answer


# ---------------------------------------------------------------------------
# chaos_sigkill_mid_fork: the process dies by SIGKILL inside the fork
# bracket, between prepare and fork(2).  The bare run kills itself at
# the same round from outside any bracket; status and prior output must
# match — the bracket must not have published anything first.


@register_scenario("chaos_sigkill_mid_fork")
def chaos_sigkill_mid_fork(ctx: ScenarioContext) -> None:
    rounds = ctx.rng.randint(3, 5)
    kill_round = ctx.rng.randrange(1, rounds)

    def make_workload(mode: str):
        def body() -> int:
            for i in range(rounds):
                _emit(f"kill round {i} start\n")
                if mode == "bare" and i == kill_round:
                    os.kill(os.getpid(), signal.SIGKILL)
                pid = os.fork()  # debugged: fault fires inside the bracket
                if pid == 0:
                    _emit(f"kill round {i} child\n")
                    os._exit(0)
                os.waitpid(pid, 0)
                _emit(f"kill round {i} done\n")
            return 3           # unreachable: the kill always fires
        return body

    def arm() -> None:
        faults.registry().arm("fork.os_fork", faults.Fault.kill(),
                              faults.Schedule.on_hits(kill_round + 1))

    outcome = do_no_harm(ctx, make_workload, arm_debugged=arm)
    assert outcome.exit_code == -int(signal.SIGKILL), outcome.exit_code
    ctx.details["kill_round"] = kill_round


# ---------------------------------------------------------------------------
# chaos_deep_tree_churn: a 3-deep sequential fork tree while a flaky
# handler fails every other fork — quarantine and parole churn across
# three generations of processes, output still byte-exact.

_TREE_DEPTH = 3
#: every other fork fails — period 2 so even the root's short fork
#: sequence (the only process whose evidence survives) sees a failure
_FLAKY_PERIOD = 2


@register_scenario("chaos_deep_tree_churn")
def chaos_deep_tree_churn(ctx: ScenarioContext) -> None:
    branching = ctx.rng.choice([2, 3])

    def make_workload(mode: str):
        def node(label: str, depth: int) -> int:
            _emit(f"tree enter {label}\n")
            if depth < _TREE_DEPTH:
                for branch in range(branching):
                    child_label = f"{label}.{branch}"
                    pid = os.fork()
                    if pid == 0:
                        os._exit(node(child_label, depth + 1))
                    _, status = os.waitpid(pid, 0)
                    if os.waitstatus_to_exitcode(status) != 0:
                        _emit(f"tree child {child_label} failed\n")
                        return 1
            _emit(f"tree exit {label}\n")
            return 0

        return lambda: node("root", 0)

    def adversary(debugger) -> None:
        calls = {"n": 0}

        def flaky_prepare() -> None:
            calls["n"] += 1
            if calls["n"] % _FLAKY_PERIOD == 0:
                raise RuntimeError("chaos: flaky under churn")
        debugger.fork_registry.register(
            "chaos-flaky", prepare=flaky_prepare, parent=lambda: None)

    def check(evidence) -> None:
        assert _counter(evidence, "fork.prepare_contained") >= 1, evidence
        assert _counter(evidence, "fork.quarantined{label=chaos-flaky") \
            >= 1, evidence

    do_no_harm(ctx, make_workload, adversary=adversary,
               env={"DIONEA_FORK_REINSTATE": "1"},
               check_evidence=check, wait=40.0)
    ctx.details["branching"] = branching


# ---------------------------------------------------------------------------
# chaos_blackbox_postmortem: SIGKILL mid-fork with the black box on,
# then reconstruct the whole tree from the dump files ALONE.  This is
# the flight-recorder acceptance scenario: no process of the debugged
# run survives to answer telemetry, yet `dionea timeline` must name
# every pid, draw the fork flow edges, and report how each process
# ended (the SIGKILLed root's missing terminal marker IS the finding).

@register_scenario("chaos_blackbox_postmortem")
def chaos_blackbox_postmortem(ctx: ScenarioContext) -> None:
    import shutil
    import tempfile

    from ..obs import timeline
    from ..obs.blackbox import scan_dir
    from ..obs.export import validate_trace

    rounds = ctx.rng.randint(3, 5)
    kill_round = ctx.rng.randrange(1, rounds)
    bb_dir = tempfile.mkdtemp(prefix="dionea-chaos-bb-")
    ctx.defer(lambda: shutil.rmtree(bb_dir, ignore_errors=True))

    def make_workload(mode: str):
        def body() -> int:
            for i in range(rounds):
                _emit(f"bb round {i} start\n")
                if mode == "bare" and i == kill_round:
                    os.kill(os.getpid(), signal.SIGKILL)
                pid = os.fork()  # debugged: fault fires in the bracket
                if pid == 0:
                    _emit(f"bb round {i} child\n")
                    os._exit(0)
                os.waitpid(pid, 0)
                _emit(f"bb round {i} done\n")
            return 3           # unreachable: the kill always fires
        return body

    def arm() -> None:
        faults.registry().arm("fork.os_fork", faults.Fault.kill(),
                              faults.Schedule.on_hits(kill_round + 1))

    outcome = do_no_harm(ctx, make_workload, arm_debugged=arm,
                         env={"DIONEA_BLACKBOX_DIR": bb_dir})
    assert outcome.exit_code == -int(signal.SIGKILL), outcome.exit_code

    # Post-mortem: every process of the debugged run is dead.  The
    # dumps alone must reconstruct the tree.
    dumps = scan_dir(bb_dir)
    assert dumps, "no black-box dumps survived the kill"
    root_pids = [d.pid for d in dumps
                 if not any("parent_pid" in (r.get("labels") or {})
                            for r in d.records if r.get("kind") == "open")]
    assert len(root_pids) == 1, root_pids
    root_pid = root_pids[0]
    child_pids = sorted(d.pid for d in dumps if d.pid != root_pid)
    # Every round before the kill forked one child; each must speak.
    assert len(child_pids) == kill_round, (child_pids, kill_round)

    document = timeline.assemble_from_dir(bb_dir)
    assert validate_trace(document) == []
    other = document["otherData"]
    assert set(other["processes"]) >= {root_pid, *child_pids}
    assert other["holes"] == [], other["holes"]
    # Nobody got to write a terminal marker: unclean across the board —
    # for the root, that absence is the SIGKILL finding itself.
    assert other["terminals"][str(root_pid)] == timeline.UNCLEAN
    for pid in child_pids:
        assert other["terminals"][str(pid)] == timeline.UNCLEAN
    # The fork flow edges tie every child back to the root's brackets.
    flow_pids = {e["pid"] for e in document["traceEvents"]
                 if e.get("cat") == "flow" and e["ph"] == "f"}
    assert flow_pids >= set(child_pids), (flow_pids, child_pids)
    ctx.details["kill_round"] = kill_round
    ctx.details["dump_files"] = len(dumps)
    ctx.details["pids_reconstructed"] = len(other["processes"])


#: every chaos scenario name, for harnesses that sweep the whole tier
CHAOS_SCENARIOS = [
    "chaos_hung_prepare",
    "chaos_raising_prepare",
    "chaos_fork_in_fork_handler",
    "chaos_exec_after_fork",
    "chaos_daemonize",
    "chaos_sigkill_mid_fork",
    "chaos_deep_tree_churn",
    "chaos_blackbox_postmortem",
]

"""Deterministic multi-process stress scenarios and their runner.

A *scenario* is a plain function ``body(ctx)`` that builds a real
multi-process topology — fork chains, fan-out pools, client↔server
debug sessions — usually under an armed :class:`~repro.testkit.faults.
FaultPlan`.  The :class:`ScenarioRunner` executes it under a wall-clock
budget and then sweeps the process-level invariants the paper's whole
design hinges on:

* **no leaked children** — every pid the scenario forked is reaped (and
  anything still alive after the sweep is SIGKILLed and reported);
* **no orphaned port files** — every rendezvous file the scenario
  created, and every file whose name starts with its path, is gone by
  the end;
* **fork registry consistent** — the handler registry holds the same
  labels after the run as before it (failed forks must unwind cleanly);
* **no armed faults escape** — the global fault registry is clean.

Scenarios record soft facts in ``ctx.details`` (participating pids,
fault stats, message counts); the runner records hard *violations*.  A
scenario passes iff the violation list is empty.

Every scenario takes its randomness from ``ctx.rng`` (seeded) and its
fault schedules from :func:`~repro.testkit.faults.point_seed`, so one
seed pins the entire run — the stress tier replays a scenario twice and
asserts the injected fault sequence is byte-identical.
"""

from __future__ import annotations

import glob
import os
import random
import signal
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..util.portfile import PortFile, default_portfile_path
from . import faults

#: Default wall-clock budget per scenario (the acceptance bar is 60 s;
#: leave headroom so a pass here is a comfortable pass there).
DEFAULT_BUDGET = 45.0


@dataclass
class ScenarioResult:
    """Outcome of one seeded scenario run."""

    name: str
    seed: int
    duration: float = 0.0
    violations: List[str] = field(default_factory=list)
    details: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "ok" if self.ok else f"VIOLATIONS={self.violations}"
        return (f"<ScenarioResult {self.name} seed={self.seed} "
                f"{self.duration:.2f}s {state}>")


class ScenarioContext:
    """Hands a scenario its seeded RNG plus tracked process/file helpers.

    Everything a scenario creates through the context is swept by the
    runner afterwards, which is what turns "the test passed" into "the
    test passed *and cleaned up after a fault fired mid-run*".
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.details: Dict[str, Any] = {}
        self._children: List[int] = []
        self._portfiles: List[str] = []
        self._cleanups: List[Callable[[], None]] = []
        self._lock = threading.Lock()

    # -- child processes ----------------------------------------------------

    def fork(self, child_body: Callable[[], Optional[int]]) -> int:
        """Fork; the child runs *child_body* and ``os._exit``\\ s with its
        return value (``None`` → 0, uncaught exception → 70).  Returns the
        child pid in the parent and tracks it for the leak sweep."""
        pid = os.fork()
        if pid == 0:
            code = 70
            try:
                code = child_body() or 0
            except BaseException:  # noqa: BLE001 - child must report and die
                traceback.print_exc()
            finally:
                os._exit(code)
        self.track_child(pid)
        return pid

    def track_child(self, pid: int) -> None:
        with self._lock:
            self._children.append(pid)

    @property
    def children(self) -> List[int]:
        with self._lock:
            return list(self._children)

    def wait_child(self, pid: int, timeout: float = 10.0) -> Optional[int]:
        """Reap one child; returns its exit code or None on timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                done, status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                return None  # reaped elsewhere
            if done == pid:
                with self._lock:
                    if pid in self._children:
                        self._children.remove(pid)
                return os.waitstatus_to_exitcode(status)
            time.sleep(0.005)
        return None

    # -- port files ---------------------------------------------------------

    def portfile(self) -> PortFile:
        """A tracked rendezvous file; must be gone by scenario end."""
        path = default_portfile_path(
            f"stress-{os.getpid()}-{self.rng.randrange(1 << 30):08x}")
        with self._lock:
            self._portfiles.append(path)
        return PortFile(path)

    @property
    def portfile_paths(self) -> List[str]:
        with self._lock:
            return list(self._portfiles)

    # -- arbitrary teardown -------------------------------------------------

    def defer(self, cleanup: Callable[[], None]) -> None:
        """Run *cleanup* during the runner's sweep (LIFO), fault-proof."""
        with self._lock:
            self._cleanups.append(cleanup)

    def run_cleanups(self) -> List[str]:
        problems = []
        with self._lock:
            cleanups, self._cleanups = list(self._cleanups), []
        for cleanup in reversed(cleanups):
            try:
                cleanup()
            except BaseException as exc:  # noqa: BLE001
                problems.append(f"cleanup {cleanup!r} raised {exc!r}")
        return problems


class ScenarioRunner:
    """Runs one scenario body under a budget, then sweeps invariants."""

    def __init__(self, budget: float = DEFAULT_BUDGET):
        self.budget = budget

    def run(self, name: str, body: Callable[[ScenarioContext], None],
            seed: int, budget: Optional[float] = None) -> ScenarioResult:
        budget = budget or self.budget
        ctx = ScenarioContext(seed)
        result = ScenarioResult(name=name, seed=seed)
        start = time.monotonic()
        failure: List[BaseException] = []

        def _invoke() -> None:
            try:
                body(ctx)
            except BaseException as exc:  # noqa: BLE001 - recorded below
                failure.append(exc)

        # The body runs in a worker thread so a wedged scenario cannot
        # wedge the whole tier: the runner regains control at the budget
        # and still sweeps/kills whatever the body leaked.
        worker = threading.Thread(target=_invoke,
                                  name=f"scenario-{name}", daemon=True)
        worker.start()
        worker.join(budget)
        if worker.is_alive():
            result.violations.append(
                f"budget exceeded: still running after {budget:.0f}s")
        if failure:
            result.violations.append(
                f"scenario body raised {type(failure[0]).__name__}: "
                f"{failure[0]}")

        self._sweep(ctx, result)
        result.duration = time.monotonic() - start
        result.details.update(ctx.details)
        return result

    # -- invariant sweep ----------------------------------------------------

    def _sweep(self, ctx: ScenarioContext, result: ScenarioResult) -> None:
        result.violations.extend(ctx.run_cleanups())

        # 1. No leaked children.
        leaked = []
        for pid in ctx.children:
            code = ctx.wait_child(pid, timeout=5.0)
            if code is None and _pid_alive(pid):
                leaked.append(pid)
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
                ctx.wait_child(pid, timeout=2.0)
        if leaked:
            result.violations.append(f"leaked children killed: {leaked}")

        # 2. No orphaned port files, nor files named after one.
        orphaned = sorted(p for path in ctx.portfile_paths
                          for p in glob.glob(glob.escape(path) + "*"))
        for path in orphaned:
            try:
                os.unlink(path)
            except OSError:
                pass
        if orphaned:
            result.violations.append(f"orphaned port files: {orphaned}")

        # 3. No armed faults escape into later tests.
        still_armed = faults.registry().armed_points
        if still_armed:
            faults.registry().reset()
            result.violations.append(
                f"fault points left armed: {still_armed}")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


# ---------------------------------------------------------------------------
# The scenario matrix: named, seed-parametric bodies the stress tier
# iterates.  Test modules register their local bodies too, so one
# registry answers "what stress coverage exists?" in one place.

#: name -> body(ctx).  Populated by :func:`register_scenario`.
SCENARIO_MATRIX: Dict[str, Callable[[ScenarioContext], None]] = {}


def register_scenario(name: str,
                      body: Optional[Callable[[ScenarioContext], None]] = None):
    """Register *body* under *name*; usable as a decorator.

    Re-registration with the same function is idempotent (test modules
    re-import); a different function under a taken name is a bug.
    """
    def _register(fn):
        existing = SCENARIO_MATRIX.get(name)
        if existing is not None and existing is not fn:
            raise ValueError(f"scenario {name!r} already registered")
        SCENARIO_MATRIX[name] = fn
        return fn
    return _register(body) if body is not None else _register


# ---------------------------------------------------------------------------
# breakpoint_churn: seeded add/remove churn against a live 3-deep fork
# tree.  Exercises the LineTable invalidation path end-to-end: every
# set/clear must invalidate the per-code cache of the process it lands
# in, every fork must invalidate the child's inherited cache, and a
# demoted main thread must re-arm in time to honour a breakpoint set
# while it was running unhooked.


def _churn_loop(n):
    total = 0
    for _i in range(n):
        total += 2              # CHURN_BP_LINE — the client's breakpoint
    return total


CHURN_BP_LINE = _churn_loop.__code__.co_firstlineno + 3


def _churn_check_loop(n):
    acc = 0
    for _i in range(n):
        acc += 3                # CHURN_CHECK_LINE — debuggees self-set here
    return acc


CHURN_CHECK_LINE = _churn_check_loop.__code__.co_firstlineno + 3


def _churn_never_called():  # pragma: no cover - decoy anchor, never runs
    marker = 0
    marker += 1                 # CHURN_DECOY_LINE — decoys land here
    return marker


CHURN_DECOY_LINE = _churn_never_called.__code__.co_firstlineno + 2
_CHURN_SRC = os.path.abspath(__file__)

CHURN_DEPTH = 3
CHURN_ITERS = 3
CHURN_SELF_HITS = 2


def _alias_spellings() -> List[str]:
    """Path-alias spellings of this file — all canonicalise identically,
    so a breakpoint set through any of them must behave like the plain
    absolute path (the property suite proves this for the LineTable;
    here it runs against live sessions)."""
    directory, name = os.path.split(_CHURN_SRC)
    parent = os.path.basename(directory)
    return [
        _CHURN_SRC,
        os.path.join(directory, ".", name),
        os.path.join(directory, "..", parent, name),
        os.path.join(os.path.dirname(directory), parent, "..", parent, name),
    ]


def _wait_for_file(path: str, timeout: float = 20.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return True
        time.sleep(0.01)
    return False


def _reap(pid: int, timeout: float = 20.0) -> Optional[int]:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done == pid:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    return None


@register_scenario("breakpoint_churn")
def breakpoint_churn(ctx: ScenarioContext) -> None:
    """Seeded breakpoint add/remove schedule against a 3-deep fork tree.

    Topology: one forked debuggee runs a Dionea facade and builds a
    root → child → grandchild chain; each level gates on its own go-file,
    runs the breakpointed loop (the client must observe exactly
    ``CHURN_ITERS`` stops), then self-sets a private breakpoint on a
    second loop, verifies its ``hit_count``, removes it, and forks the
    next level.  Meanwhile the client churns: per level it clears every
    inherited breakpoint, adds/removes a seeded batch of decoys (alias
    spellings at a never-executed line, plus nonexistent files), and sets
    the real breakpoint through a seeded alias spelling.
    """
    from ..client import DebugClient
    from ..core import Dionea

    portfile = ctx.portfile()
    ctx.defer(portfile.remove)

    def go_path(level: int) -> str:
        return f"{portfile.path}.go{level}"

    def ack_path(level: int) -> str:
        return f"{portfile.path}.ack{level}"

    for level in range(1, CHURN_DEPTH + 1):
        for path in (go_path(level), ack_path(level)):
            ctx.defer(lambda p=path: os.path.exists(p) and os.unlink(p))

    def debuggee() -> int:
        faults.registry().reset()
        debugger = Dionea(program="stress-churn", portfile_path=portfile.path,
                          park_timeout=30.0)
        debugger.start()

        def run_level(level: int) -> int:
            if not _wait_for_file(go_path(level)):
                return 10 + level
            if _churn_loop(CHURN_ITERS) != 2 * CHURN_ITERS:
                return 20 + level
            # Post-churn self-check: a breakpoint added by the debuggee
            # itself (after the client's add/remove storm and, below
            # level 1, after a fork) must still stop and count hits —
            # i.e. the LineTable rebuilt and the main thread re-armed.
            engine = debugger.server.engine
            bp = engine.breakpoints.add(_CHURN_SRC, CHURN_CHECK_LINE)
            check = _churn_check_loop(CHURN_SELF_HITS)
            engine.breakpoints.remove(bp.id)
            if check != 3 * CHURN_SELF_HITS or bp.hit_count != CHURN_SELF_HITS:
                return 30 + level
            # Hold this level's server open until the client has read its
            # breakpoint table — exiting on the heels of the last resume
            # would race the verification step.
            if not _wait_for_file(ack_path(level)):
                return 50 + level
            if level < CHURN_DEPTH:
                pid = os.fork()
                if pid == 0:
                    os._exit(run_level(level + 1))
                code = _reap(pid)
                if code != 0:
                    return 40 + level
            return 0

        code = run_level(1)
        debugger.stop()
        return code

    root = ctx.fork(debuggee)

    stops: Dict[Any, int] = {}
    stop_lock = threading.Lock()

    def auto_continue(view) -> None:
        capture = view.capture
        line = capture.top.line if capture and capture.top else None
        with stop_lock:
            key = (view.ue.pid, line)
            stops[key] = stops.get(key, 0) + 1
        # Release from a fresh thread: on_stop runs on the client's
        # event thread, which must stay free to process the resume reply.
        threading.Thread(target=view.cont, daemon=True).start()

    def stop_count(pid: int, line: int) -> int:
        with stop_lock:
            return stops.get((pid, line), 0)

    def wait_stops(pid: int, line: int, want: int, timeout: float = 20.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if stop_count(pid, line) >= want:
                return
            time.sleep(0.01)
        raise AssertionError(
            f"pid {pid} produced {stop_count(pid, line)}/{want} stops "
            f"at line {line}; all stops: {dict(stops)}")

    def wait_descendant(parent_pid: int, timeout: float = 20.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for rec in portfile.read_all():
                if rec.parent_pid == parent_pid:
                    return rec.pid
            time.sleep(0.02)
        raise AssertionError(f"no descendant of {parent_pid} announced")

    client = DebugClient(on_stop=auto_continue)
    ctx.defer(client.close)
    client.watch_portfile(portfile)

    aliases = _alias_spellings()
    churn_log = []
    pid = root
    for level in range(1, CHURN_DEPTH + 1):
        if level > 1:
            pid = wait_descendant(pid)
        session = client.session_for_pid(pid, timeout=20.0)
        # Start from a clean slate: clear whatever this level inherited
        # (each clear_break must invalidate the child's LineTable too).
        for row in session.request("breaks"):
            session.request("clear_break", {"id": row["id"]})
        # Seeded decoy churn: aliases at a line that never executes plus
        # files that do not exist — invalidation traffic, zero stops.
        decoys = []
        for _ in range(ctx.rng.randint(2, 4)):
            if ctx.rng.random() < 0.5:
                target = {"file": ctx.rng.choice(aliases),
                          "line": CHURN_DECOY_LINE}
            else:
                target = {"file": f"/dionea/stress/none_"
                                  f"{ctx.rng.randrange(1 << 20):05x}.py",
                          "line": 1}
            decoys.append(session.request("set_break", target)["id"])
        ctx.rng.shuffle(decoys)
        for bp_id in decoys[:ctx.rng.randint(0, len(decoys))]:
            session.request("clear_break", {"id": bp_id})
        # The real breakpoint, through a seeded alias spelling.
        real = session.request("set_break",
                               {"file": ctx.rng.choice(aliases),
                                "line": CHURN_BP_LINE})
        with open(go_path(level), "w", encoding="utf-8") as fh:
            fh.write("go")
        wait_stops(pid, CHURN_BP_LINE, CHURN_ITERS)
        wait_stops(pid, CHURN_CHECK_LINE, CHURN_SELF_HITS)
        table = {row["id"]: row for row in session.request("breaks")}
        assert table[real["id"]]["hit_count"] == CHURN_ITERS, \
            f"level {level}: real breakpoint hit_count wrong: {table}"
        churn_log.append({"level": level, "pid": pid,
                          "decoys": len(decoys),
                          "hits": table[real["id"]]["hit_count"]})
        with open(ack_path(level), "w", encoding="utf-8") as fh:
            fh.write("ack")

    code = ctx.wait_child(root, timeout=25.0)
    assert code == 0, f"debuggee tree exited {code} (see level encoding)"
    ctx.details["churn_log"] = churn_log
    ctx.details["stops"] = {f"{p}:{ln}": n
                            for (p, ln), n in sorted(stops.items())}


# ---------------------------------------------------------------------------
# prefork_fleet: gunicorn-style master + N workers, one debug client
# multiplexing every session on one reactor.  The fleet-scale claims the
# client makes in unit/integration tests are re-proven here against real
# processes: auto-attach to the whole tree, O(1) client threads however
# many workers attach, and scatter-gather sweeps that cover every pid.

#: worker count knob — the stress tier default stays small so one seed
#: run fits the budget; the fleet benchmark raises it into the hundreds.
FLEET_WORKERS_ENV = "DIONEA_FLEET_WORKERS"
FLEET_DEFAULT_WORKERS = 8


def _fleet_traffic(n: int) -> int:
    total = 0
    for i in range(n):
        total += i % 7          # synthetic request handling, traceable
    return total


@register_scenario("prefork_fleet")
def prefork_fleet(ctx: ScenarioContext) -> None:
    """Master forks N workers; the client debugs the whole fleet at once.

    Topology mirrors a prefork WSGI server: a master under a Dionea
    facade forks ``DIONEA_FLEET_WORKERS`` children (each inheriting a
    debug server via the fork handlers), every worker serves synthetic
    traffic until a stop file appears, and the master reaps them all.
    The client auto-attaches via the rendezvous file and must observe:

    * a session per process (master + N workers) — attach keeps up with
      the fork storm;
    * a constant number of client-side threads (the single-reactor
      property, measured while the fleet is live);
    * cluster sweeps (``status`` fan-out + ``cluster_telemetry``) that
      cover every pid with zero holes while all workers are healthy.
    """
    from ..client import DebugClient
    from ..core import Dionea

    workers = int(os.environ.get(FLEET_WORKERS_ENV, FLEET_DEFAULT_WORKERS))
    portfile = ctx.portfile()
    ctx.defer(portfile.remove)
    stop_path = f"{portfile.path}.stop"
    ctx.defer(lambda: os.path.exists(stop_path) and os.unlink(stop_path))

    def master() -> int:
        faults.registry().reset()
        debugger = Dionea(program="fleet-master",
                          portfile_path=portfile.path, park_timeout=30.0)
        debugger.start()

        def worker() -> int:
            while not os.path.exists(stop_path):
                _fleet_traffic(50)
                time.sleep(0.01)
            return 0

        children = []
        for _ in range(workers):
            pid = os.fork()
            if pid == 0:
                code = 70
                try:
                    code = worker()
                finally:
                    os._exit(code)
            children.append(pid)
        bad = sum(1 for pid in children if _reap(pid, timeout=40.0) != 0)
        debugger.stop()
        return bad

    root = ctx.fork(master)

    client = DebugClient()
    ctx.defer(client.close)
    client.watch_portfile(portfile)

    want = workers + 1  # master announces too
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline and len(client.sessions()) < want:
        time.sleep(0.05)
    attached = len(client.sessions())
    assert attached == want, \
        f"only {attached}/{want} sessions attached within 30s"

    # The single-reactor property, measured against a LIVE fleet: the
    # client's thread bill is the loop + the dispatcher, not O(workers).
    fleet_threads = [t.name for t in threading.enumerate()
                     if t.name.startswith("dionea-")]
    assert len(fleet_threads) <= 2, \
        f"client thread count grew with the fleet: {fleet_threads}"

    sweep_log = []
    for _sweep in range(3):
        started = time.monotonic()
        results, errors = client.cluster_request("status", timeout=15.0)
        elapsed = time.monotonic() - started
        assert errors == {}, f"healthy fleet produced holes: {errors}"
        assert len(results) == want, \
            f"sweep covered {len(results)}/{want} pids"
        sweep_log.append(round(elapsed, 4))
    snapshot = client.cluster_telemetry(timeout=15.0, include_client=False)
    assert len(snapshot["processes"]) == want
    assert "errors" not in snapshot
    assert snapshot["fleet"]["sessions"] == want

    with open(stop_path, "w", encoding="utf-8") as fh:
        fh.write("stop")
    code = ctx.wait_child(root, timeout=40.0)
    assert code == 0, f"master reported {code} failed workers"
    ctx.details["workers"] = workers
    ctx.details["client_threads"] = fleet_threads
    ctx.details["sweep_seconds"] = sweep_log

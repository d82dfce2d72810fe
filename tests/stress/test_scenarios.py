"""Stress tier: seeded multi-process fault-injection scenarios.

Each test drives one scenario body through
:class:`repro.testkit.scenarios.ScenarioRunner`: real forks, real
sockets, real pipes, with faults injected at the named points in
:mod:`repro.testkit.faults`.  The runner sweeps the process-level
invariants afterwards (no leaked children, no orphaned port files, no
armed faults escaping), and every test asserts the sweep came back
clean.

Determinism: every scenario takes ONE seed; fault schedules derive from
it via :func:`point_seed`, so a failure reproduces by re-running with
the seed printed in the assertion message.  ``test_same_seed_same_fault_
sequence`` replays a single-threaded scenario twice and asserts the
fired-hit logs are byte-identical.

Run with ``make stress`` or ``pytest -m stress``; the tier is excluded
from the default (tier-1) run by the ``-m "not stress"`` addopts.
"""

import errno
import os
import select
import socket
import time

import pytest

from repro.forkhooks.registry import ForkHandlerRegistry, run_around_fork
from repro.mp.pool import Pool
from repro.mp.queues import Queue
from repro.mp.synchronize import Barrier
from repro.testkit.faults import (
    Fault,
    FaultPlan,
    Schedule,
    point_seed,
    registry as fault_registry,
)
from repro.testkit.scenarios import (
    SCENARIO_MATRIX,
    ScenarioRunner,
    register_scenario,
)
from repro.util.framing import RecvBuffer, SendBuffer
from repro.util.portfile import PortFile, PortRecord

pytestmark = [pytest.mark.stress, pytest.mark.forks]

#: One master seed for the tier; individual tests perturb it so no two
#: scenarios share schedules by accident.
MASTER_SEED = 20250806

RUNNER = ScenarioRunner()


@pytest.fixture(autouse=True)
def clean_faults():
    fault_registry().reset()
    yield
    fault_registry().reset()


def run_ok(name, body, seed, budget=None):
    result = RUNNER.run(name, body, seed=seed, budget=budget)
    assert result.ok, (f"scenario {name} (seed={seed}) violated "
                       f"invariants: {result.violations}; "
                       f"details={result.details}")
    assert result.duration < 60.0, \
        f"{name} took {result.duration:.1f}s (budget is 60s)"
    return result


# ---------------------------------------------------------------------------
# 1. fork(2) failing at the worst moment (EAGAIN between prepare and fork)


def _fork_failure_storm(ctx):
    reg = ForkHandlerRegistry()
    depth = {"n": 0}

    def prep():
        depth["n"] += 1

    def par():
        depth["n"] -= 1

    reg.register("balance", prepare=prep, parent=par)
    reg.register("noop", child=lambda: None)
    plan = FaultPlan(ctx.seed, {
        "fork.os_fork": (Fault.os_error(errno.EAGAIN, "injected EAGAIN"),
                         Schedule.seeded(point_seed(ctx.seed, "fork.os_fork"),
                                         rate=0.4)),
    })
    failed = succeeded = 0
    with plan:
        for _ in range(12):
            try:
                pid, is_child = run_around_fork(reg, os.fork)
            except OSError:
                failed += 1
                # The failed fork must leave the registry exactly as
                # found: prepare fully undone, labels intact.
                assert depth["n"] == 0, "prepare left un-unwound"
                assert reg.labels == ["balance", "noop"]
                continue
            if is_child:
                os._exit(0)
            ctx.track_child(pid)
            succeeded += 1
        ctx.details["fire_log"] = plan.fire_logs()["fork.os_fork"]
    for pid in ctx.children:
        code = ctx.wait_child(pid, timeout=10.0)
        assert code == 0, f"forked child {pid} exited {code}"
    assert failed >= 1, "seed produced no fork failures; pick another"
    assert succeeded >= 1, "seed produced no successful forks"
    ctx.details.update(failed=failed, succeeded=succeeded)


def test_fork_failure_storm():
    run_ok("fork_failure_storm", _fork_failure_storm, seed=MASTER_SEED)


# ---------------------------------------------------------------------------
# 2. Partial frame delivery on a single-threaded socketpair (also the
#    determinism witness: its hit sequence is purely local)


class FramedPair:
    """A socketpair moved by the reactor's I/O pumps: the sender
    pumps a blocking end, the receiver pumps a non-blocking end."""

    def __init__(self, ctx):
        self.left, self.right = socket.socketpair()
        self.right.setblocking(False)
        ctx.defer(self.left.close)
        ctx.defer(self.right.close)
        self.out = SendBuffer()
        self.inbox = RecvBuffer()
        self.ready = []

    def send(self, message):
        self.out.append_message(message)
        while not self.out.pump(self.left):
            pass  # injected EINTR: resume

    def recv(self, timeout=10.0):
        deadline = time.monotonic() + timeout
        while not self.ready:
            messages, eof = self.inbox.pump(self.right)
            self.ready.extend(messages)
            assert not eof, "socketpair closed under the receiver"
            if not self.ready:
                remaining = deadline - time.monotonic()
                assert remaining > 0, "frame never arrived"
                select.select([self.right], [], [], remaining)
        return self.ready.pop(0)


def _framing_partial_delivery(ctx):
    pair = FramedPair(ctx)
    plan = FaultPlan(ctx.seed, {
        "net.frame.send": (Fault.partial(4), 0.4),
        "net.frame.recv": (Fault.partial(3), 0.4),
    })
    payloads = [{"seq": i, "blob": "x" * (17 * (i % 7) + 1)}
                for i in range(40)]
    with plan:
        for message in payloads:
            pair.send(message)
            assert pair.recv() == message
        ctx.details["fire_logs"] = plan.fire_logs()
        ctx.details["stats"] = plan.stats()
    hits, fires = plan.stats()["net.frame.send"]
    assert fires >= 1, "rate=0.4 over 40 frames must clamp some sends"


def test_partial_frame_delivery():
    run_ok("framing_partial_delivery", _framing_partial_delivery,
           seed=MASTER_SEED + 2)


def test_same_seed_same_fault_sequence():
    """Replaying one seed twice must inject the identical fault
    sequence — the determinism contract of the whole tier."""
    first = run_ok("framing_replay_a", _framing_partial_delivery,
                   seed=MASTER_SEED + 3)
    second = run_ok("framing_replay_b", _framing_partial_delivery,
                    seed=MASTER_SEED + 3)
    assert first.details["fire_logs"] == second.details["fire_logs"]
    assert first.details["stats"] == second.details["stats"]


# ---------------------------------------------------------------------------
# 3. Queue fan-out across forked consumers under injected pipe EINTR


def _fork_chain_pipe_eintr(ctx):
    tasks = Queue(name="stress.tasks")
    results = Queue(name="stress.results")
    ctx.defer(tasks.close)
    ctx.defer(results.close)
    plan = FaultPlan(ctx.seed, {
        "mp.pipe.write": (Fault.eintr(), 0.15),
        "mp.pipe.read": (Fault.eintr(), 0.15),
    })
    n_children, n_items = 3, 30
    with plan:
        def consumer():
            while True:
                item = tasks.get(timeout=15.0)
                if item is None:
                    return 0
                results.put((os.getpid(), item))

        for _ in range(n_children):
            ctx.fork(consumer)
        for i in range(n_items):
            tasks.put(i)
        got = [results.get(timeout=15.0) for _ in range(n_items)]
        for _ in range(n_children):
            tasks.put(None)
        for pid in ctx.children:
            code = ctx.wait_child(pid, timeout=10.0)
            assert code == 0, f"consumer {pid} exited {code}"
        ctx.details["parent_fire_logs"] = plan.fire_logs()
    assert sorted(v for _, v in got) == list(range(n_items))
    ctx.details["consumers"] = len({pid for pid, _ in got})


def test_fork_chain_pipe_eintr():
    run_ok("fork_chain_pipe_eintr", _fork_chain_pipe_eintr,
           seed=MASTER_SEED + 5)


# ---------------------------------------------------------------------------
# 4. Queue flood with EINTR injected into every semaphore acquire


def _queue_flood_sem_eintr(ctx):
    tasks = Queue(name="stress.flood.tasks")
    results = Queue(name="stress.flood.results")
    ctx.defer(tasks.close)
    ctx.defer(results.close)
    plan = FaultPlan(ctx.seed, {
        "mp.sem.acquire": (Fault.eintr(), 0.2),
    })
    n_children, n_items = 4, 60
    with plan:
        def consumer():
            while True:
                item = tasks.get(timeout=15.0)
                if item is None:
                    return 0
                results.put(os.getpid())

        for _ in range(n_children):
            ctx.fork(consumer)
        for i in range(n_items):
            tasks.put(i)
        consumers = {results.get(timeout=15.0) for _ in range(n_items)}
        for _ in range(n_children):
            tasks.put(None)
        for pid in ctx.children:
            code = ctx.wait_child(pid, timeout=10.0)
            assert code == 0, f"consumer {pid} exited {code}"
    # Work-sharing must survive the injected storm (the fair-semaphore
    # guarantee the mp tier-1 tests pin in the happy path).
    assert len(consumers) >= 2, f"one consumer starved: {consumers}"
    ctx.details["consumers"] = len(consumers)


def test_queue_flood_sem_eintr():
    run_ok("queue_flood_sem_eintr", _queue_flood_sem_eintr,
           seed=MASTER_SEED + 7)


# ---------------------------------------------------------------------------
# 5. Pool fan-out with short writes + EINTR on the task/result pipes


def _square(x):
    return x * x


def _pool_fanout_partial_pipes(ctx):
    plan = FaultPlan(ctx.seed, {
        "mp.pipe.write": (Fault.partial(11), 0.3),
        "mp.pipe.read": (Fault.eintr(), 0.15),
    })
    with plan:
        pool = Pool(3)
        ctx.defer(pool.terminate)
        for pid in pool.worker_pids():
            ctx.track_child(pid)
        values = pool.map(_square, range(40), chunksize=3, timeout=20.0)
        pool.close()
        pool.join(10.0)
        ctx.details["parent_fire_logs"] = plan.fire_logs()
    assert values == [x * x for x in range(40)]


def test_pool_fanout_partial_pipes():
    run_ok("pool_fanout_partial_pipes", _pool_fanout_partial_pipes,
           seed=MASTER_SEED + 11)


# ---------------------------------------------------------------------------
# 6. Barrier generations across processes under semaphore EINTR


def _barrier_storm(ctx):
    barrier = Barrier(4, name="stress.barrier")
    ctx.defer(barrier.close)
    generations = 20
    plan = FaultPlan(ctx.seed, {
        "mp.sem.acquire": (Fault.eintr(), 0.05),
    })
    with plan:
        def party():
            for _ in range(generations):
                if not barrier.wait(timeout=20.0):
                    return 1
            return 0

        for _ in range(3):
            ctx.fork(party)
        for gen in range(generations):
            assert barrier.wait(timeout=20.0), \
                f"parent timed out in generation {gen}"
        for pid in ctx.children:
            code = ctx.wait_child(pid, timeout=10.0)
            assert code == 0, f"barrier party {pid} exited {code}"
    ctx.details["generations"] = generations


def test_barrier_storm():
    run_ok("barrier_storm", _barrier_storm, seed=MASTER_SEED + 13)


# ---------------------------------------------------------------------------
# 7. Client <-> debug server session with frames delivered in shreds


def _client_server_partial_frames(ctx):
    from repro.client import DebugClient
    from repro.server import DebugServer

    server = DebugServer(program="stress", park_timeout=15.0)
    server.start(install_tracing=False)
    ctx.defer(server.close)
    client = DebugClient()
    ctx.defer(client.close)
    plan = FaultPlan(ctx.seed, {
        "net.frame.send": (Fault.partial(5), 0.25),
        "net.frame.recv": (Fault.partial(3), 0.25),
        "server.listener.recv": (Fault.partial(7), 0.25),
    })
    with plan:
        session = client.attach("127.0.0.1", server.port)
        for _ in range(15):
            rows = session.request("threads", timeout=15.0)
            assert isinstance(rows, list)
        assert session.request("breaks", timeout=15.0) == []
        ctx.details["stats"] = plan.stats()
    client.close()
    assert session.closed
    hits, _ = ctx.details["stats"]["net.frame.send"]
    assert hits >= 15, "requests did not cross the framed send path"
    # Every armed point sat on the path this scenario drives: a point
    # that stops firing (renamed, or bypassed by a new read path) is a
    # silently weaker test, not a passing one.
    for point, (hits, _fires) in ctx.details["stats"].items():
        assert hits > 0, f"armed point {point} was never hit"


def test_client_server_partial_frames():
    run_ok("client_server_partial_frames", _client_server_partial_frames,
           seed=MASTER_SEED + 17)


# ---------------------------------------------------------------------------
# 8. Child dies mid-handshake: announced its port, dies on first accept


def _child_death_mid_handshake(ctx):
    from repro.client import DebugClient
    from repro.server import DebugServer

    portfile = ctx.portfile()
    ctx.defer(portfile.remove)

    def dying_server():
        # The child arms its own registry copy: the first accepted
        # connection kills the process between the TCP accept and the
        # hello exchange — the paper's "child vanished during
        # rendezvous" case.
        fault_registry().reset()
        fault_registry().arm("server.listener.accept", Fault.exit(3))
        server = DebugServer(program="stress-child", park_timeout=15.0)
        server.start(install_tracing=False)
        portfile.announce(PortRecord(
            pid=os.getpid(), parent_pid=os.getppid(),
            host="127.0.0.1", port=server.port, created_at=time.time()))
        time.sleep(30.0)  # the injected exit fires first
        return 1

    child = ctx.fork(dying_server)
    deadline = time.monotonic() + 10.0
    record = None
    while time.monotonic() < deadline and record is None:
        for rec in portfile.read_all():
            if rec.pid == child:
                record = rec
        time.sleep(0.02)
    assert record is not None, "child never announced its port"

    client = DebugClient()
    ctx.defer(client.close)
    try:
        client.attach(record.host, record.port)
    except Exception as exc:  # noqa: BLE001 - any *contained* error is a pass
        ctx.details["attach_error"] = type(exc).__name__
    else:
        raise AssertionError("attach to a dying child must not succeed")
    assert ctx.wait_child(child, timeout=10.0) == 3
    # The client survives the failed attach and holds no ghost session.
    assert client.sessions() == []


def test_child_death_mid_handshake():
    run_ok("child_death_mid_handshake", _child_death_mid_handshake,
           seed=MASTER_SEED + 19)


# ---------------------------------------------------------------------------
# 9. Dial races the listener: first connects refused, backoff recovers


def _connect_refused_then_recovers(ctx):
    from repro.client import DebugClient
    from repro.server import DebugServer

    server = DebugServer(program="stress", park_timeout=15.0)
    server.start(install_tracing=False)
    ctx.defer(server.close)
    client = DebugClient()
    ctx.defer(client.close)
    plan = FaultPlan(ctx.seed, {
        "net.connect": (
            Fault.raises(lambda: ConnectionRefusedError("injected refusal")),
            Schedule.on_hits(1, 2)),
    })
    with plan:
        session = client.attach("127.0.0.1", server.port)
        assert isinstance(session.request("threads", timeout=15.0), list)
        stats = plan.stats()["net.connect"]
    # Hits 1 and 2 were refused; the backoff inside connect_endpoint's
    # refusal grace window must have carried the dial through.
    assert stats[1] == 2, f"expected exactly 2 injected refusals: {stats}"
    ctx.details["connect_stats"] = stats


def test_connect_refused_then_recovers():
    run_ok("connect_refused_then_recovers", _connect_refused_then_recovers,
           seed=MASTER_SEED + 23)


# ---------------------------------------------------------------------------
# 10. Frame delays: slow wire, everything still completes in order


def _frame_delay_storm(ctx):
    pair = FramedPair(ctx)
    plan = FaultPlan(ctx.seed, {
        "net.frame.send": (Fault.delay(0.01), 0.3),
        "net.frame.recv": (Fault.delay(0.01), 0.3),
    })
    with plan:
        for seq in range(30):
            pair.send({"seq": seq})
            assert pair.recv() == {"seq": seq}
        ctx.details["stats"] = plan.stats()


def test_frame_delay_storm():
    run_ok("frame_delay_storm", _frame_delay_storm, seed=MASTER_SEED + 29)


# ---------------------------------------------------------------------------
# 11. Server SIGKILLed mid-command: the pending request must resolve
#     within its deadline and the loss must be surfaced (supervision
#     acceptance scenario A)


def _traced_loop(n):
    total = 0
    for i in range(n):
        total += 1              # TRACED_BP_LINE
    return total


TRACED_BP_LINE = _traced_loop.__code__.co_firstlineno + 3
_SRC = os.path.abspath(__file__)


def _server_sigkilled_mid_command(ctx):
    from repro.client import DebugClient
    from repro.server import DebugServer
    from repro.util.errors import RequestTimeoutError, SessionLostError

    portfile = ctx.portfile()
    ctx.defer(portfile.remove)

    def doomed_server():
        # The child arms its own registry copy: the first dispatched
        # command SIGKILLs the process mid-request — no farewell, no
        # FIN-with-goodbye, just a vanished peer.
        fault_registry().reset()
        fault_registry().arm("server.request.dispatch", Fault.kill())
        server = DebugServer(program="stress-doomed", park_timeout=15.0)
        server.start(install_tracing=False)
        portfile.announce(PortRecord(
            pid=os.getpid(), parent_pid=os.getppid(),
            host="127.0.0.1", port=server.port, created_at=time.time()))
        time.sleep(30.0)  # the injected SIGKILL fires first
        return 1

    child = ctx.fork(doomed_server)
    deadline = time.monotonic() + 10.0
    record = None
    while time.monotonic() < deadline and record is None:
        for rec in portfile.read_all():
            if rec.pid == child:
                record = rec
        time.sleep(0.02)
    assert record is not None, "doomed server never announced"

    lost = []
    client = DebugClient(on_session_lost=lambda s, r: lost.append(r))
    ctx.defer(client.close)
    session = client.attach(record.host, record.port,
                            request_timeout=5.0,
                            heartbeat_interval=0.2, heartbeat_misses=3)
    start = time.monotonic()
    try:
        session.request("threads", timeout=5.0)
    except (SessionLostError, RequestTimeoutError) as exc:
        ctx.details["request_error"] = type(exc).__name__
    else:
        raise AssertionError("request to a SIGKILLed server succeeded")
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, \
        f"pending request blocked {elapsed:.1f}s past the server's death"
    assert session.lost, "supervision never declared the session lost"
    end = time.monotonic() + 5.0
    while time.monotonic() < end and not lost:
        time.sleep(0.02)
    assert lost, "EV_SESSION_LOST never reached the client callback"

    assert ctx.wait_child(child, timeout=10.0) == -9  # SIGKILL
    ctx.details["elapsed"] = elapsed


def test_server_sigkilled_mid_command():
    run_ok("server_sigkilled_mid_command", _server_sigkilled_mid_command,
           seed=MASTER_SEED + 31)


# ---------------------------------------------------------------------------
# 12. Client restart: reattach to a surviving server within the grace
#     window, reclaiming parked UEs with breakpoints intact (supervision
#     acceptance scenario B)


def _client_restart_reattach(ctx):
    from repro.client import DebugClient
    from repro.server import DebugServer

    portfile = ctx.portfile()
    ctx.defer(portfile.remove)
    go_path = portfile.path + ".go"
    ctx.defer(lambda: os.path.exists(go_path) and os.unlink(go_path))

    def debuggee():
        fault_registry().reset()
        server = DebugServer(program="stress-reattach", park_timeout=30.0,
                             client_loss_grace=5.0)
        server.start()  # tracing on: the loop below is debuggable
        portfile.announce(PortRecord(
            pid=os.getpid(), parent_pid=os.getppid(),
            host="127.0.0.1", port=server.port, created_at=time.time()))
        end = time.monotonic() + 20.0
        while time.monotonic() < end and not os.path.exists(go_path):
            time.sleep(0.01)
        result = _traced_loop(3)  # parks at the client's breakpoint
        server.close()
        return 0 if result == 3 else 1

    child = ctx.fork(debuggee)
    deadline = time.monotonic() + 10.0
    record = None
    while time.monotonic() < deadline and record is None:
        for rec in portfile.read_all():
            if rec.pid == child:
                record = rec
        time.sleep(0.02)
    assert record is not None, "debuggee never announced"

    client = DebugClient()
    ctx.defer(client.close)
    session = client.attach(record.host, record.port)
    bp = session.request("set_break", {"file": _SRC,
                                       "line": TRACED_BP_LINE})
    with open(go_path, "w", encoding="utf-8") as fh:
        fh.write("go")
    view = client.wait_for_stop(timeout=15.0)[0]
    view.wait_stopped(15.0)

    # The client "crashes": the transport dies with stop state live.
    session.close()

    # ...and restarts within the server's grace window, presenting the
    # resume token.  Parked UE and breakpoint must both have survived.
    reclaimed = client.reattach(child)
    assert reclaimed.resumed, "server treated the reattach as fresh"
    view.wait_stopped(15.0)  # stop replay refreshed the view
    table = reclaimed.request("breaks")
    assert len(table) == 1, f"breakpoints not intact: {table}"

    reclaimed.request("clear_break", {"id": bp["id"]})
    view.cont()
    assert ctx.wait_child(child, timeout=15.0) == 0
    ctx.details["reattached"] = True


def test_client_restart_reattach():
    run_ok("client_restart_reattach", _client_restart_reattach,
           seed=MASTER_SEED + 37)


# ---------------------------------------------------------------------------
# 13. Breakpoint churn against a live 3-deep fork tree (body lives in
#     repro.testkit.scenarios so other harnesses can reuse it via the
#     scenario matrix).  The tentpole's cache-invalidation contract:
#     every seed must produce exactly the scripted stop counts at every
#     tree level, whatever the decoy add/remove schedule did in between.


@pytest.mark.parametrize("offset", range(10))
def test_breakpoint_churn_ten_seeds(offset):
    body = SCENARIO_MATRIX["breakpoint_churn"]
    result = run_ok("breakpoint_churn", body, seed=MASTER_SEED + 41 + offset)
    assert len(result.details["churn_log"]) == 3


# ---------------------------------------------------------------------------
# 14. Prefork fleet: gunicorn-style master + N workers, every session
#     multiplexed onto the client's single reactor (body lives in
#     repro.testkit.scenarios; the fleet benchmark reuses it at scale
#     via DIONEA_FLEET_WORKERS).


@pytest.mark.slow
@pytest.mark.parametrize("offset", range(2))
def test_prefork_fleet(offset):
    body = SCENARIO_MATRIX["prefork_fleet"]
    result = run_ok("prefork_fleet", body, seed=MASTER_SEED + 53 + offset)
    assert len(result.details["client_threads"]) <= 2
    assert len(result.details["sweep_seconds"]) == 3


# ---------------------------------------------------------------------------
# The scenario matrix: register this module's bodies so the registry in
# repro.testkit.scenarios names the tier's full coverage in one place.


for _name, _body in [
    ("fork_failure_storm", _fork_failure_storm),
    ("framing_partial_delivery", _framing_partial_delivery),
    ("fork_chain_pipe_eintr", _fork_chain_pipe_eintr),
    ("queue_flood_sem_eintr", _queue_flood_sem_eintr),
    ("pool_fanout_partial_pipes", _pool_fanout_partial_pipes),
    ("barrier_storm", _barrier_storm),
    ("client_server_partial_frames", _client_server_partial_frames),
    ("child_death_mid_handshake", _child_death_mid_handshake),
    ("connect_refused_then_recovers", _connect_refused_then_recovers),
    ("frame_delay_storm", _frame_delay_storm),
    ("server_sigkilled_mid_command", _server_sigkilled_mid_command),
    ("client_restart_reattach", _client_restart_reattach),
]:
    register_scenario(_name, _body)


def test_matrix_names_every_scenario():
    # >= rather than ==: the chaos tier (repro.testkit.chaos) registers
    # its own scenarios into the same matrix when collected alongside.
    assert set(SCENARIO_MATRIX) >= {
        "fork_failure_storm", "framing_partial_delivery",
        "fork_chain_pipe_eintr", "queue_flood_sem_eintr",
        "pool_fanout_partial_pipes", "barrier_storm",
        "client_server_partial_frames", "child_death_mid_handshake",
        "connect_refused_then_recovers", "frame_delay_storm",
        "server_sigkilled_mid_command", "client_restart_reattach",
        "breakpoint_churn", "prefork_fleet",
    }
    assert all(callable(body) for body in SCENARIO_MATRIX.values())


# ---------------------------------------------------------------------------
# Runner self-checks: the sweep actually reports what it claims to


class TestRunnerSweep:
    def test_leaked_child_is_killed_and_reported(self):
        pids = []

        def leaker(ctx):
            pids.append(ctx.fork(lambda: time.sleep(60) or 0))

        result = RUNNER.run("leaker", leaker, seed=1)
        assert not result.ok
        assert any("leaked children" in v for v in result.violations)
        # ...and the child is actually gone.
        assert pids
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_orphaned_portfile_is_reported_and_removed(self):
        paths = []

        def orphaner(ctx):
            pf = ctx.portfile()
            paths.append(pf.path)
            pf.announce(PortRecord(pid=1, parent_pid=0, host="h", port=1,
                                   created_at=0.0))

        result = RUNNER.run("orphaner", orphaner, seed=2)
        assert not result.ok
        assert any("orphaned port files" in v for v in result.violations)
        assert paths and not os.path.exists(paths[0])

    def test_armed_fault_left_behind_is_reported_and_reset(self):
        def armer(ctx):
            fault_registry().arm("left.behind", Fault.eintr())

        result = RUNNER.run("armer", armer, seed=3)
        assert not result.ok
        assert any("left armed" in v for v in result.violations)
        assert fault_registry().armed_points == []

    def test_budget_violation_reported(self):
        def sleeper(ctx):
            time.sleep(5.0)

        result = RUNNER.run("sleeper", sleeper, seed=4, budget=0.2)
        assert not result.ok
        assert any("budget exceeded" in v for v in result.violations)

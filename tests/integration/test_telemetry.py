"""Integration: fork-aware telemetry end to end (the obs subsystem).

A real Dionea facade, a watching client, real ``os.fork`` calls: every
process in the fork tree must answer the ``telemetry`` command with its
OWN numbers (child registries reset and re-labeled by the obs fork
handler), ``cluster_telemetry`` must cover every live pid, and the merged
sweep must export as a valid Chrome trace-event document.
"""

import os
import time

import pytest

from repro import obs
from repro.client import DebugClient
from repro.obs.export import chrome_trace, validate_trace

pytestmark = pytest.mark.forks


def wait_child(pid, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done == pid:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, 9)
    os.waitpid(pid, 0)
    raise AssertionError(f"child {pid} did not exit in {timeout}s")


@pytest.fixture
def watching_client(dionea, waiter):
    client = DebugClient()
    client.watch_portfile(dionea.portfile)
    waiter(lambda: client.sessions(), message="attach to parent")
    yield client
    client.close()


class TestTelemetryCommand:
    def test_snapshot_shape_and_identity(self, dionea, watching_client):
        session = watching_client.sessions()[0]
        snap = session.request("telemetry", {})
        assert snap["pid"] == os.getpid()
        assert snap["program"] == "test"
        assert snap["epoch"] == dionea.server.session.epoch
        assert snap["fork_generation"] == 0
        assert {"clock", "metrics", "spans"} <= set(snap)
        # One ring: debug-log lines ride in "spans" as instants.
        assert "ringlog" not in snap
        assert any(r.get("ph") == "i" for r in snap["spans"])
        assert {"wall", "mono"} <= set(snap["clock"])
        metrics = snap["metrics"]
        assert metrics["labels"]["pid"] == os.getpid()
        # the command that fetched this snapshot is itself counted
        assert metrics["counters"]["server.commands{command=telemetry}"] >= 1

    def test_command_latency_histogram_populated(self, dionea,
                                                 watching_client):
        session = watching_client.sessions()[0]
        session.request("info")
        session.request("threads")
        snap = session.request("telemetry", {})
        hists = snap["metrics"]["histograms"]
        assert any(k.startswith("server.command_seconds") for k in hists)
        info_key = "server.command_seconds{command=info}"
        assert hists[info_key]["count"] >= 1
        assert hists[info_key]["sum"] > 0

    def test_spans_record_commands(self, dionea, watching_client):
        session = watching_client.sessions()[0]
        session.request("info")
        snap = session.request("telemetry", {})
        names = {s["name"] for s in snap["spans"]}
        assert "cmd:info" in names

    def test_reset_drains_counters(self, dionea, watching_client):
        obs.inc("test.reset_sentinel", 5)
        session = watching_client.sessions()[0]
        first = session.request("telemetry", {"reset": True})
        assert first["metrics"]["counters"]["test.reset_sentinel"] == 5
        second = session.request("telemetry", {})
        assert "test.reset_sentinel" not in second["metrics"]["counters"]

    def test_ringlog_rides_along_but_is_not_drained(self, dionea,
                                                    watching_client):
        obs.debug_event("test", "telemetry ringlog probe")
        session = watching_client.sessions()[0]
        snap = session.request("telemetry", {"reset": True})
        probes = [r for r in snap["spans"]
                  if r["name"] == "telemetry ringlog probe"]
        assert [r.get("ph") for r in probes] == ["i"]
        # reset moves telemetry's cursor, never clears the ring: the
        # line is still there for debug_log (and the black box)
        log = session.request("debug_log", {"limit": 10000})
        assert any("telemetry ringlog probe" in line
                   for line in log["records"])


class TestForkAwareness:
    def test_child_registry_reset_and_relabeled(self, dionea,
                                                watching_client):
        """The telemetry flavour of Fig. 4: the child must not report
        the parent's numbers under its own pid."""
        obs.inc("test.parent_sentinel", 42)
        pid = os.fork()
        if pid == 0:
            time.sleep(0.5)
            os._exit(0)
        session = watching_client.session_for_pid(pid, timeout=10)
        snap = session.request("telemetry", {})
        assert snap["pid"] == pid
        labels = snap["metrics"]["labels"]
        assert labels["pid"] == pid
        assert labels["epoch"] >= 1
        # inherited shards were dropped: the parent's counter is gone
        assert "test.parent_sentinel" not in snap["metrics"]["counters"]
        wait_child(pid)

    def test_child_fork_phase_timings_survive_the_reset(self, dionea,
                                                        watching_client):
        """The obs reset runs FIRST among child handlers, so the dionea
        child phase's own per-hook duration lands in the child's fresh
        registry instead of being wiped with the parent's shards."""
        # The child announces from inside phase C, and the client dials
        # at once, so wait for the child's os.fork() to return: only
        # then has the registry timed the whole phase.
        done_r, done_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(done_r)
            os.write(done_w, b"x")
            time.sleep(0.5)
            os._exit(0)
        os.close(done_w)
        os.read(done_r, 1)
        os.close(done_r)
        session = watching_client.session_for_pid(pid, timeout=10)
        snap = session.request("telemetry", {})
        hists = snap["metrics"]["histograms"]
        assert any(k.startswith("fork.child_seconds") for k in hists)
        wait_child(pid)

    def test_parent_registry_unaffected_by_fork(self, dionea,
                                                watching_client):
        obs.inc("test.parent_keeps_this", 7)
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        wait_child(pid)
        parent_session = watching_client.session_for_pid(os.getpid())
        snap = parent_session.request("telemetry", {})
        assert snap["metrics"]["counters"]["test.parent_keeps_this"] == 7
        assert snap["metrics"]["labels"]["pid"] == os.getpid()
        # the parent-side fork bracket was counted
        assert snap["metrics"]["counters"].get("fork.forks", 0) >= 1


class TestClusterTelemetry:
    def test_covers_every_live_pid(self, dionea, watching_client):
        pids = []
        for _ in range(2):
            pid = os.fork()
            if pid == 0:
                time.sleep(1.0)
                os._exit(0)
            pids.append(pid)
        for pid in pids:
            watching_client.session_for_pid(pid, timeout=10)
        sweep = watching_client.cluster_telemetry()
        covered = set(sweep["processes"])
        assert covered >= {os.getpid(), *pids}
        for pid, snap in sweep["processes"].items():
            assert snap["pid"] == pid
            assert snap["metrics"]["labels"]["pid"] == pid
        assert "client" in sweep
        for pid in pids:
            wait_child(pid)

    def test_sweep_exports_as_valid_chrome_trace(self, dionea,
                                                 watching_client,
                                                 tmp_path):
        pid = os.fork()
        if pid == 0:
            time.sleep(0.8)
            os._exit(0)
        watching_client.session_for_pid(pid, timeout=10)
        # make sure both processes have spans/commands to export
        for session in watching_client.sessions():
            session.request("info")
        sweep = watching_client.cluster_telemetry()
        document = chrome_trace(list(sweep["processes"].values()),
                                client_snapshot=sweep.get("client"))
        assert validate_trace(document) == []
        event_pids = {e["pid"] for e in document["traceEvents"]}
        assert {os.getpid(), pid} <= event_pids
        x_events = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert x_events, "no spans exported"
        wait_child(pid)


class TestShellAndHeartbeat:
    def test_shell_telemetry_verbs(self, dionea, watching_client):
        from repro.client.shell import Shell
        shell = Shell(watching_client)
        text = shell.execute("telemetry")
        assert f"process {os.getpid()}" in text
        assert "server.commands" in text
        cluster = shell.execute("telemetry cluster")
        assert "client (this process)" in cluster

    def test_heartbeat_rtt_recorded_client_side(self, dionea, waiter):
        client = DebugClient()
        try:
            client.attach("127.0.0.1", dionea.port,
                          heartbeat_interval=0.1)
            waiter(lambda: any(
                k.startswith("client.heartbeat_rtt_seconds")
                for k in obs.REGISTRY.snapshot()["histograms"]),
                timeout=5.0, message="heartbeat RTT sample")
            hist = obs.REGISTRY.snapshot()["histograms"][
                "client.heartbeat_rtt_seconds"]
            assert hist["count"] >= 1
            assert 0 < hist["max"] < 5.0
        finally:
            client.close()

"""Integration: the paper's core loop — following forks (sections 5.3-5.4).

A Dionea facade in the parent, a client watching the rendezvous file,
real ``os.fork`` calls: children must re-establish their own debug
servers, inherit breakpoints, rewrite metadata, and stay individually
controllable.
"""

import os
import time

import pytest

from repro.client import DebugClient
from tests.conftest import wait_child

pytestmark = pytest.mark.forks

SRC = os.path.abspath(__file__)


def child_compute(n):
    acc = 0
    for i in range(n):
        acc += i * 3           # CHILD_BP_LINE
    return acc


CHILD_BP_LINE = child_compute.__code__.co_firstlineno + 3


@pytest.fixture
def watching_client(dionea, waiter):
    client = DebugClient()
    client.watch_portfile(dionea.portfile)
    waiter(lambda: client.sessions(), message="attach to parent")
    yield client
    client.close()


class TestChildRendezvous:
    def test_child_announces_and_client_attaches(self, dionea,
                                                 watching_client, waiter):
        pid = os.fork()
        if pid == 0:
            time.sleep(0.3)  # give the client time to attach
            os._exit(0)
        session = watching_client.session_for_pid(pid, timeout=10)
        assert session.pid == pid
        assert session.parent_pid == os.getpid()
        assert wait_child(pid) == 0

    def test_parent_records_child(self, dionea, watching_client):
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        wait_child(pid)
        assert pid in dionea.server.session.children

    def test_portfile_contains_both_generations(self, dionea,
                                                watching_client):
        pid = os.fork()
        if pid == 0:
            time.sleep(0.1)
            os._exit(0)
        wait_child(pid)
        records = dionea.portfile.read_all()
        pids = [r.pid for r in records]
        assert os.getpid() in pids and pid in pids
        child_record = next(r for r in records if r.pid == pid)
        assert child_record.parent_pid == os.getpid()
        # child listens on its own fresh port
        parent_record = next(r for r in records if r.pid == os.getpid())
        assert child_record.port != parent_record.port

    def test_child_stop_keeps_the_runs_portfile(self, dionea):
        """Only the process that started the run removes its port file:
        a child's ``stop()`` (``dionea run`` calls it when the script
        ends) must not take the rendezvous from its parent and
        siblings."""
        pid = os.fork()
        if pid == 0:
            dionea.stop()
            os._exit(0)
        assert wait_child(pid) == 0
        assert os.path.exists(dionea.portfile.path)
        assert os.getpid() in [r.pid for r in dionea.portfile.read_all()]


class TestInheritedBreakpoints:
    def test_child_stops_at_parent_breakpoint(self, dionea,
                                              watching_client):
        dionea.set_breakpoint(SRC, CHILD_BP_LINE)
        pid = os.fork()
        if pid == 0:
            result = child_compute(4)
            os._exit(0 if result == 18 else 1)

        session = watching_client.session_for_pid(pid, timeout=10)
        views = watching_client.wait_for_stop(timeout=20)
        view = next(v for v in views if v.ue.pid == pid)
        capture = view.wait_stopped(10)
        assert capture.top.line == CHILD_BP_LINE
        assert capture.reason == "breakpoint"
        # inspect the child remotely
        assert view.evaluate("n")["value"] == "4"

        # clear in the CHILD's server (its own store), then run free
        for bp in session.request("breaks"):
            session.request("clear_break", {"id": bp["id"]})
        view.cont()
        assert wait_child(pid) == 0

    def test_parent_tracing_survives_fork(self, dionea, watching_client):
        """Phase B re-enables tracing: a parent-side breakpoint set after
        the fork still fires in the parent."""
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        wait_child(pid)
        assert dionea.server.engine.enabled
        assert dionea.server.engine.installed

    def test_parent_session_survives_child_fork(self, dionea,
                                                watching_client):
        """Regression: the child's phase C must close its inherited
        copies of the parent's client connections WITHOUT shutdown(2) —
        shutdown acts on the shared socket and would sever the parent's
        live session.  Observable symptom when broken: parent-side
        breakpoints stop firing at the client after any fork."""
        import threading
        dionea.set_breakpoint(SRC, CHILD_BP_LINE)
        pid = os.fork()
        if pid == 0:
            os._exit(0)  # child does nothing; its handler C still runs
        wait_child(pid)

        # the parent's own session must still deliver stops
        box = {}
        thread = threading.Thread(
            target=lambda: box.setdefault("r", child_compute(3)))
        thread.start()
        views = watching_client.wait_for_stop(timeout=15)
        parent_views = [v for v in views if v.ue.pid == os.getpid()]
        assert parent_views, "parent stop lost after fork " \
                             "(inherited-socket shutdown bug)"
        view = parent_views[0]
        view.wait_stopped(10)
        for bp in view.session.request("breaks"):
            view.session.request("clear_break", {"id": bp["id"]})
        view.cont()
        thread.join(10)
        assert box["r"] == 9


class TestChildMetadataRewrite:
    def test_grandchild_chain(self, dionea, watching_client):
        """fork → fork: generation 2 re-announces through the same file."""
        pid = os.fork()
        if pid == 0:
            grandchild = os.fork()
            if grandchild == 0:
                time.sleep(0.3)
                os._exit(0)
            done, status = os.waitpid(grandchild, 0)
            os._exit(os.waitstatus_to_exitcode(status))

        session = watching_client.session_for_pid(pid, timeout=10)
        assert session.pid == pid
        # the grandchild eventually announces too
        deadline = time.monotonic() + 10
        grandchild_record = None
        while time.monotonic() < deadline and grandchild_record is None:
            for record in dionea.portfile.read_all():
                if record.parent_pid == pid:
                    grandchild_record = record
            time.sleep(0.02)
        assert grandchild_record is not None, "grandchild never announced"
        assert wait_child(pid) == 0

    def test_child_session_identity(self, dionea, watching_client):
        pid = os.fork()
        if pid == 0:
            time.sleep(0.3)
            os._exit(0)
        session = watching_client.session_for_pid(pid, timeout=10)
        info = session.request("info")
        assert info["pid"] == pid
        assert info["parent_pid"] == os.getpid()
        assert info["fork_generation"] == 1
        assert info["children"] == []
        wait_child(pid)


class TestIsolation:
    def test_breakpoint_added_in_child_does_not_affect_parent(
            self, dionea, watching_client):
        pid = os.fork()
        if pid == 0:
            time.sleep(0.5)
            os._exit(0)
        session = watching_client.session_for_pid(pid, timeout=10)
        session.request("set_break", {"file": SRC, "line": CHILD_BP_LINE})
        # parent's own store is untouched
        assert len(dionea.server.engine.breakpoints) == 0
        wait_child(pid)

    def test_sessions_are_independent(self, dionea, watching_client):
        pids = []
        for _ in range(2):
            pid = os.fork()
            if pid == 0:
                time.sleep(0.5)
                os._exit(0)
            pids.append(pid)
        sessions = [watching_client.session_for_pid(p, timeout=10)
                    for p in pids]
        tokens = {s.request("info")["session_token"] for s in sessions}
        assert len(tokens) == 2
        for pid in pids:
            wait_child(pid)


class TestDoorbell:
    """A child's announce rings the watching client's doorbell: it is
    followed at once, not at the next timed poll."""

    def test_child_followed_without_the_timed_poll(self, dionea, waiter):
        with DebugClient() as client:
            client.watch_portfile(dionea.portfile, poll_interval=3600)
            waiter(lambda: client.sessions(), message="attach to parent")
            pid = os.fork()
            if pid == 0:
                time.sleep(0.3)
                os._exit(0)
            session = client.session_for_pid(pid, timeout=5)
            assert session.pid == pid
        assert wait_child(pid) == 0

    def test_second_client_follows_through_the_timed_poll(self, dionea,
                                                          waiter):
        with DebugClient() as first, DebugClient() as second:
            first.attach = lambda host, port, **kw: None  # binds, never dials
            first.watch_portfile(dionea.portfile, poll_interval=3600)
            second.watch_portfile(dionea.portfile)  # its bind is refused
            assert dionea.portfile.bind_bell() is None
            waiter(lambda: second.sessions(), message="attach to parent")
            pid = os.fork()
            if pid == 0:
                time.sleep(0.3)
                os._exit(0)
            assert second.session_for_pid(pid, timeout=5).pid == pid
        assert wait_child(pid) == 0


class TestExitedChildren:
    def test_client_forgets_exited_children(self, dionea, watching_client,
                                            waiter):
        """Neither the client's sessions nor the watcher's records keep
        a pid that has exited and been reaped."""
        exited = []
        for _ in range(10):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(w)
                os.read(r, 1)  # until the parent closes its end
                os._exit(0)
            os.close(r)
            session = watching_client.session_for_pid(pid, timeout=10)
            os.close(w)
            assert wait_child(pid) == 0
            waiter(lambda: session.closed, message=f"pid {pid} lost")
            exited.append(pid)
        pid = os.fork()
        if pid == 0:
            time.sleep(0.3)
            os._exit(0)
        watching_client.session_for_pid(pid, timeout=10)
        assert not set(exited) & set(watching_client._sessions)
        assert not set(exited) & set(watching_client._watcher._seen)
        assert os.getpid() in watching_client._sessions
        assert wait_child(pid) == 0

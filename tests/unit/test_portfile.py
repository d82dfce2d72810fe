"""Unit tests: port-file rendezvous (repro.util.portfile)."""

import json
import os
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.util.errors import RendezvousError
from repro.util.portfile import (
    PortFile,
    PortFileWatcher,
    PortRecord,
    bell_address,
    default_portfile_path,
)
from repro.util.reactor import Reactor

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def record(pid=100, parent=1, port=5000):
    return PortRecord(pid=pid, parent_pid=parent, host="127.0.0.1",
                      port=port, created_at=time.time())


class TestPortRecord:
    def test_json_roundtrip(self):
        rec = record()
        assert PortRecord.from_json(rec.to_json()) == rec

    def test_corrupt_json_raises(self):
        with pytest.raises(RendezvousError):
            PortRecord.from_json("{not json")

    def test_missing_field_raises(self):
        with pytest.raises(RendezvousError):
            PortRecord.from_json(json.dumps({"pid": 1}))


class TestPortFile:
    def test_announce_then_read(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        pf.announce(record(pid=1))
        pf.announce(record(pid=2))
        assert [r.pid for r in pf.read_all()] == [1, 2]

    def test_read_missing_file_is_empty(self, tmp_path):
        pf = PortFile(str(tmp_path / "nope"))
        assert pf.read_all() == []

    def test_remove_idempotent(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        pf.announce(record())
        pf.remove()
        pf.remove()  # second remove of a missing file must not raise
        assert pf.read_all() == []

    def test_file_is_private(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        pf.announce(record())
        mode = os.stat(pf.path).st_mode & 0o777
        assert mode == 0o600

    def test_concurrent_appends_from_threads(self, tmp_path):
        """O_APPEND writes below PIPE_BUF must never interleave."""
        pf = PortFile(str(tmp_path / "ports"))

        def announce_many(base):
            mine = PortFile(pf.path)  # separate instance, like a child
            for i in range(50):
                mine.announce(record(pid=base + i))

        threads = [threading.Thread(target=announce_many, args=(b,))
                   for b in (1000, 2000, 3000)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        pids = [r.pid for r in pf.read_all()]
        assert len(pids) == 150
        assert len(set(pids)) == 150


@pytest.fixture
def scheduler():
    """A reactor's timer wheel, the scheduler a client watches with."""
    reactor = Reactor(name="test-watcher")
    yield reactor.call_later
    reactor.close()


class TestPortFileWatcher:
    def test_poll_once_sees_new_records_exactly_once(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append)
        pf.announce(record(pid=11))
        assert [r.pid for r in watcher.poll_once()] == [11]
        assert watcher.poll_once() == []  # no duplicates
        pf.announce(record(pid=12))
        assert [r.pid for r in watcher.poll_once()] == [12]
        assert [r.pid for r in seen] == [11, 12]
        watcher.stop()

    def test_background_thread_delivers(self, tmp_path, waiter, scheduler):
        pf = PortFile(str(tmp_path / "ports"))
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append,
                                  poll_interval=0.005)
        watcher.start(scheduler)
        try:
            pf.announce(record(pid=77))
            waiter(lambda: len(seen) == 1, message="watcher callback")
            assert seen[0].pid == 77
        finally:
            watcher.stop()

    def test_first_poll_runs_as_soon_as_watching_starts(self, tmp_path,
                                                        waiter, scheduler):
        # A debuggee that announced before the client started watching
        # is picked up by the first tick, not one poll interval later.
        pf = PortFile(str(tmp_path / "ports"))
        pf.announce(record(pid=78))
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append,
                                  poll_interval=5.0)
        watcher.start(scheduler)
        try:
            waiter(lambda: len(seen) == 1, timeout=1.0,
                   message="the first poll")
            assert seen[0].pid == 78
        finally:
            watcher.stop()

    def test_double_start_rejected(self, tmp_path, scheduler):
        watcher = PortFileWatcher(portfile=PortFile(str(tmp_path / "p")),
                                  on_record=lambda r: None)
        watcher.start(scheduler)
        try:
            with pytest.raises(RendezvousError):
                watcher.start(scheduler)
        finally:
            watcher.stop()

    def test_corrupt_line_does_not_kill_watcher(self, tmp_path, waiter,
                                                scheduler):
        pf = PortFile(str(tmp_path / "ports"))
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append,
                                  poll_interval=0.005)
        watcher.start(scheduler)
        try:
            with open(pf.path, "a", encoding="utf-8") as fh:
                fh.write("garbage line\n")
            time.sleep(0.05)
            # Replace the file: a re-created file may take the unlinked
            # one's inode number, and a watcher that let go of the old
            # file between polls would resume at its offset, mid-record.
            # Holding it open keeps the two numbers apart.
            os.unlink(pf.path)
            pf.announce(record(pid=5))
            waiter(lambda: len(seen) == 1, message="recovery after corrupt")
        finally:
            watcher.stop()

    def test_raising_callback_does_not_stop_watching(self, tmp_path, waiter,
                                                     scheduler):
        pf = PortFile(str(tmp_path / "ports"))
        pf.announce(record(pid=1))
        pf.announce(record(pid=2))
        delivered = []

        def on_record(rec):
            delivered.append(rec.pid)
            if rec.pid == 1:
                raise RuntimeError("callback bug")

        watcher = PortFileWatcher(portfile=pf, on_record=on_record,
                                  poll_interval=0.005)
        watcher.start(scheduler)
        try:
            waiter(lambda: delivered == [1, 2],
                   message="the rest of the batch")
            pf.announce(record(pid=3))
            waiter(lambda: delivered == [1, 2, 3],
                   message="a record after the raise")
        finally:
            watcher.stop()


class TestLogReader:
    """The watcher reads the log by offset: only what was appended."""

    def test_poll_parses_only_the_new_line(self, tmp_path, monkeypatch):
        pf = PortFile(str(tmp_path / "ports"))
        for pid in range(1, 41):
            pf.announce(record(pid=pid))
        watcher = PortFileWatcher(portfile=pf, on_record=lambda r: None)
        assert len(watcher.poll_once()) == 40
        parsed = []
        parse = PortRecord.from_json.__func__

        def counting(cls, line):
            parsed.append(line)
            return parse(cls, line)

        monkeypatch.setattr(PortRecord, "from_json", classmethod(counting))
        pf.announce(record(pid=41))
        assert [r.pid for r in watcher.poll_once()] == [41]
        assert len(parsed) == 1
        watcher.stop()

    def test_torn_tail_waits_for_its_newline(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append)
        line = (record(pid=9).to_json() + "\n").encode("utf-8")
        fd = os.open(pf.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o600)
        try:
            os.write(fd, line[:20])
            assert watcher.poll_once() == []
            os.write(fd, line[20:])
        finally:
            os.close(fd)
        assert [r.pid for r in watcher.poll_once()] == [9]
        assert watcher.poll_once() == []
        assert [r.pid for r in seen] == [9]
        watcher.stop()

    def test_corrupt_line_between_records_is_skipped(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append)
        pf.announce(record(pid=1))
        with open(pf.path, "a", encoding="utf-8") as fh:
            fh.write("garbage line\n")
        pf.announce(record(pid=2))
        assert [r.pid for r in watcher.poll_once()] == [1, 2]
        pf.announce(record(pid=3))
        assert [r.pid for r in watcher.poll_once()] == [3]
        assert [r.pid for r in seen] == [1, 2, 3]
        watcher.stop()

    def test_truncated_file_is_read_from_its_start(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append)
        pf.announce(record(pid=1))
        pf.announce(record(pid=2))
        watcher.poll_once()
        os.truncate(pf.path, 0)
        pf.announce(record(pid=3))
        assert [r.pid for r in watcher.poll_once()] == [3]
        assert [r.pid for r in seen] == [1, 2, 3]
        watcher.stop()

    def test_stop_closes_the_held_file(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        pf.announce(record(pid=1))
        watcher = PortFileWatcher(portfile=pf, on_record=lambda r: None)
        watcher.poll_once()
        held = watcher._log
        assert held is not None and not held.closed
        watcher.stop()
        assert held.closed
        assert watcher._log is None

    def test_removed_file_is_let_go(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        pf.announce(record(pid=1))
        watcher = PortFileWatcher(portfile=pf, on_record=lambda r: None)
        watcher.poll_once()
        held = watcher._log
        pf.remove()
        assert watcher.poll_once() == []
        assert held.closed
        assert watcher._log is None


def test_started_and_stopped_dionea_leaves_no_file(tmp_path):
    from repro.core import Dionea

    debugger = Dionea(program="tidy",
                      portfile_path=str(tmp_path / "ports.jsonl"),
                      park_timeout=15.0)
    debugger.start()
    assert os.listdir(tmp_path) == ["ports.jsonl"]
    debugger.stop()
    assert os.listdir(tmp_path) == []


def test_default_path_is_per_run():
    a = default_portfile_path("runA")
    b = default_portfile_path("runB")
    assert a != b
    assert "runA" in a


class TestPidAlive:
    def test_own_pid_is_alive(self):
        from repro.util.portfile import pid_alive
        assert pid_alive(os.getpid())

    def test_nonsense_pids_are_dead(self):
        from repro.util.portfile import pid_alive
        assert not pid_alive(0)
        assert not pid_alive(-1)
        assert not pid_alive(99999999)

    @pytest.mark.forks
    def test_reaped_child_is_dead(self):
        from repro.util.portfile import pid_alive
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        assert not pid_alive(pid)


class TestWatcherLiveness:
    def test_dead_record_never_dialed(self, tmp_path, waiter):
        from repro.client import DebugClient

        pf = PortFile(str(tmp_path / "ports"))
        pf.announce(PortRecord(pid=99999999, parent_pid=1, host="127.0.0.1",
                               port=5000, created_at=time.time() - 60))
        pf.announce(record(pid=os.getppid(), port=5001))
        pf.tombstone(os.getppid(), reason="exec")
        pf.announce(record(pid=os.getpid(), port=5002))
        dialed = []
        with DebugClient() as client:
            client.attach = lambda host, port, **kw: dialed.append(port)
            client.watch_portfile(pf, poll_interval=0.005)
            waiter(lambda: dialed, message="the live record's dial")
        # the records share one poll, so the dead pid's came first
        assert dialed == [5002]

    def test_gc_off_by_default_dials_everything(self, tmp_path):
        """The watcher stays policy-free: even a dead pid's record is
        delivered (tests forge these); declining to dial it is the
        client's call."""
        pf = PortFile(str(tmp_path / "ports"))
        dead = PortRecord(pid=99999999, parent_pid=1, host="127.0.0.1",
                          port=1, created_at=time.time() - 60)
        pf.announce(dead)
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append)
        watcher.poll_once()
        assert [r.pid for r in seen] == [99999999]
        assert len(pf.read_all()) == 1
        watcher.stop()


class TestTombstones:
    def test_tombstone_masks_older_record(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        pf.announce(record(pid=os.getpid()))
        pf.tombstone(os.getpid(), reason="exec")
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append)
        assert watcher.poll_once() == []
        assert seen == []
        watcher.stop()

    def test_reannounce_after_tombstone_is_dialed(self, tmp_path):
        """A recycled (or re-attached) pid announcing after its own
        tombstone is a fresh debuggee: dial it."""
        pf = PortFile(str(tmp_path / "ports"))
        pid = os.getpid()
        pf.announce(record(pid=pid, port=5000))
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append)
        watcher.poll_once()
        pf.tombstone(pid, reason="daemonize")
        watcher.poll_once()
        fresh = PortRecord(pid=pid, parent_pid=1, host="127.0.0.1",
                           port=5001, created_at=time.time() + 1)
        pf.announce(fresh)
        watcher.poll_once()
        assert [(r.pid, r.port) for r in seen] == [(pid, 5000), (pid, 5001)]
        watcher.stop()

    def test_tombstone_state_roundtrips(self):
        rec = PortRecord(pid=7, parent_pid=1, host="", port=0,
                         created_at=time.time(), state="tombstone",
                         reason="exec")
        back = PortRecord.from_json(rec.to_json())
        assert back.tombstoned
        assert back.reason == "exec"

    def test_pre_tombstone_reader_compat(self):
        """Live records serialise without the state field, so a reader
        from before the tombstone era still parses them."""
        rec = record()
        assert "state" not in json.loads(rec.to_json())
        assert not PortRecord.from_json(rec.to_json()).tombstoned


class TestWatcherRedial:
    def test_new_port_for_known_pid_is_redialed(self, tmp_path):
        """Watchdog heal: same pid announces fresh coordinates — the
        old port is dead, the new one must be dialed."""
        pf = PortFile(str(tmp_path / "ports"))
        pid = os.getpid()
        pf.announce(record(pid=pid, port=5000))
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append)
        watcher.poll_once()
        healed = PortRecord(pid=pid, parent_pid=1, host="127.0.0.1",
                            port=5001, created_at=time.time() + 1)
        pf.announce(healed)
        watcher.poll_once()
        assert [(r.pid, r.port) for r in seen] == [(pid, 5000), (pid, 5001)]
        watcher.stop()

    def test_duplicate_announce_not_redialed(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        pid = os.getpid()
        pf.announce(record(pid=pid, port=5000))
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append)
        watcher.poll_once()
        dup = PortRecord(pid=pid, parent_pid=1, host="127.0.0.1",
                         port=5000, created_at=time.time() + 1)
        pf.announce(dup)
        watcher.poll_once()
        assert len(seen) == 1
        watcher.stop()


def run_script(script, *flags):
    """Run *script* in a fresh interpreter with this tree importable."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    return subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


class TestDoorbell:
    """Each announce rings a datagram doorbell the watching client binds."""

    def test_address_is_abstract_and_names_the_file(self, tmp_path,
                                                    monkeypatch):
        path = str(tmp_path / "ports")
        assert bell_address(path).startswith(b"\0dionea-bell-")
        assert bell_address(path) != bell_address(path + "2")
        monkeypatch.chdir(tmp_path)
        assert bell_address("ports") == bell_address(path)

    def test_announce_with_nobody_bound_raises_nothing(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        pf.announce(record(pid=1))
        pf.tombstone(1, reason="exec")
        assert [(r.pid, r.tombstoned) for r in pf.read_all()] == [
            (1, False), (1, True)]
        assert os.listdir(tmp_path) == ["ports"]

    def test_announce_and_tombstone_ring(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        bell = pf.bind_bell()
        try:
            assert PortFile(pf.path).bind_bell() is None  # one binder
            pf.announce(record(pid=1))
            assert bell.recv(64) == b"\0"
            pf.tombstone(1, reason="exec")
            assert bell.recv(64) == b"\0"
            with pytest.raises(BlockingIOError):
                bell.recv(64)
        finally:
            bell.close()

    def test_stray_rings_queue_at_most_one_poll(self, tmp_path, waiter):
        from repro.client import DebugClient

        pf = PortFile(str(tmp_path / "ports"))
        pf.announce(record(pid=os.getpid(), port=5000))
        dialed = []
        with DebugClient() as client:
            client.attach = lambda host, port, **kw: dialed.append(port)
            client.watch_portfile(pf, poll_interval=3600)
            waiter(lambda: dialed == [5000], message="the first poll")
            deferred = []
            defer = client.reactor.defer

            def counting_defer(fn):
                deferred.append(fn)
                defer(fn)

            client.reactor.defer = counting_defer
            # Hold the dispatcher so that no bell poll can start.
            gate, held = threading.Event(), threading.Event()
            defer(lambda: (held.set(), gate.wait(10)))
            assert held.wait(5)
            with socket.socket(socket.AF_UNIX, socket.SOCK_DGRAM) as stray:
                stray.settimeout(5)  # waits while the loop drains
                for _ in range(1000):
                    stray.sendto(b"?", pf.bell)
            assert deferred == [client._bell_poll]
            gate.set()
            pf.announce(record(pid=os.getpid(), port=5001))
            waiter(lambda: dialed == [5000, 5001], message="the next record")

    def test_ring_after_stop_or_close_leaves_nothing_open(self, tmp_path):
        script = f"""
import gc, os, time
from repro.client import DebugClient
from repro.util.portfile import PortFile, PortRecord

pf = PortFile({str(tmp_path / "ports")!r})

def announce(port):
    pf.announce(PortRecord(pid=os.getpid(), parent_pid=1,
                           host="127.0.0.1", port=port,
                           created_at=time.time()))

announce(5000)
client = DebugClient()
dialed = []
client.attach = lambda host, port, **kw: dialed.append(port)
client.watch_portfile(pf, poll_interval=3600)
while not dialed:
    time.sleep(0.01)
client._watcher.stop()
announce(5001)  # rings a watcher that has stopped
time.sleep(0.3)
client.close()
announce(5002)  # rings a closed client
time.sleep(0.1)
del client
gc.collect()
print(dialed)
"""
        done = run_script(script, "-X", "dev")
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[5000]"]
        assert "ResourceWarning" not in done.stderr, done.stderr

    def test_debuggee_never_loads_hashlib(self, tmp_path):
        script = f"""
import sys
from repro.core import Dionea

debugger = Dionea(program="bell",
                  portfile_path={str(tmp_path / "ports.jsonl")!r})
debugger.start()
debugger.server.announce()
debugger.stop()
print(sorted({{"hashlib", "_hashlib"}} & set(sys.modules)))
"""
        done = run_script(script)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]"]

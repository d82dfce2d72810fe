"""Unit tests: port-file rendezvous (repro.util.portfile)."""

import json
import os
import threading
import time

import pytest

from repro.util.errors import RendezvousError
from repro.util.portfile import (
    PortFile,
    PortFileWatcher,
    PortRecord,
    default_portfile_path,
)
from repro.util.reactor import Reactor


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

    def test_wait_for_pid(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        watcher = PortFileWatcher(portfile=pf, on_record=lambda r: None)

        def announce_later():
            time.sleep(0.05)
            pf.announce(record(pid=42))

        thread = threading.Thread(target=announce_later)
        thread.start()
        rec = watcher.wait_for_pid(42, timeout=2.0)
        thread.join()
        assert rec.pid == 42

    def test_wait_for_pid_times_out(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        watcher = PortFileWatcher(portfile=pf, on_record=lambda r: None)
        with pytest.raises(RendezvousError):
            watcher.wait_for_pid(999, timeout=0.1)

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
            # A valid record written later must still be delivered...
            # after repairing the file (real writers only append whole
            # JSON lines; a corrupt line would keep raising).
            os.unlink(pf.path)
            pf.announce(record(pid=5))
            waiter(lambda: len(seen) == 1, message="recovery after corrupt")
        finally:
            watcher.stop()


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


class TestReapDead:
    def test_old_dead_record_reaped_live_kept(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        stale = PortRecord(pid=99999999, parent_pid=1, host="127.0.0.1",
                           port=1, created_at=time.time() - 60)
        live = record(pid=os.getpid())
        pf.announce(stale)
        pf.announce(live)
        reaped = pf.reap_dead(min_age=5.0)
        assert [r.pid for r in reaped] == [99999999]
        assert [r.pid for r in pf.read_all()] == [os.getpid()]

    def test_min_age_protects_newborns(self, tmp_path):
        """A freshly announced record is never a GC candidate, even if
        its pid probe says dead (the child may not have drawn breath)."""
        pf = PortFile(str(tmp_path / "ports"))
        fresh = PortRecord(pid=99999999, parent_pid=1, host="127.0.0.1",
                           port=1, created_at=time.time())
        pf.announce(fresh)
        assert pf.reap_dead(min_age=5.0) == []
        assert len(pf.read_all()) == 1

    def test_noop_reap_leaves_file_untouched(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        pf.announce(record(pid=os.getpid()))
        before = os.stat(pf.path).st_mtime_ns
        assert pf.reap_dead(min_age=0.0) == []
        assert os.stat(pf.path).st_mtime_ns == before


class TestWatcherLiveness:
    def test_dead_record_never_dialed_and_reaped(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        dead = PortRecord(pid=99999999, parent_pid=1, host="127.0.0.1",
                          port=1, created_at=time.time() - 60)
        live = record(pid=os.getpid())
        pf.announce(dead)
        pf.announce(live)
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append,
                                  gc_interval=0.001)
        fresh = watcher.poll_once()
        assert [r.pid for r in fresh] == [os.getpid()]
        assert [r.pid for r in seen] == [os.getpid()]
        # the corpse was reaped from the file and forgotten, so a
        # recycled pid's future record would be dialed afresh
        assert [r.pid for r in pf.read_all()] == [os.getpid()]
        assert 99999999 not in watcher._seen

    def test_gc_off_by_default_dials_everything(self, tmp_path):
        """The primitive layer stays policy-free: without gc_interval,
        even a dead pid's record is delivered (tests forge these)."""
        pf = PortFile(str(tmp_path / "ports"))
        dead = PortRecord(pid=99999999, parent_pid=1, host="127.0.0.1",
                          port=1, created_at=time.time() - 60)
        pf.announce(dead)
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append)
        watcher.poll_once()
        assert [r.pid for r in seen] == [99999999]
        assert len(pf.read_all()) == 1


class TestTombstones:
    def test_tombstone_masks_older_record(self, tmp_path):
        pf = PortFile(str(tmp_path / "ports"))
        pf.announce(record(pid=os.getpid()))
        pf.tombstone(os.getpid(), reason="exec")
        seen = []
        watcher = PortFileWatcher(portfile=pf, on_record=seen.append)
        assert watcher.poll_once() == []
        assert seen == []

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

    def test_reap_drops_tombstone_and_covered_records(self, tmp_path):
        """Tombstoned pids are reaped regardless of age or liveness —
        the tombstone says the debugger is gone for good."""
        pf = PortFile(str(tmp_path / "ports"))
        pf.announce(record(pid=os.getpid()))  # alive AND fresh
        pf.tombstone(os.getpid(), reason="detach")
        pf.announce(record(pid=123456789, port=6000))
        reaped = pf.reap_dead(min_age=3600.0)
        assert sorted({r.pid for r in reaped}) == [os.getpid()]
        assert [r.pid for r in pf.read_all()] == [123456789]

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


class TestPortProbeGC:
    def test_execd_pid_reaped_after_two_strikes(self, tmp_path):
        """pid alive but debug port refusing: the debuggee exec'd away
        without a tombstone.  Two consecutive failed probes condemn it
        (one strike could be a watchdog mid-heal)."""
        import socket
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        dead_port = placeholder.getsockname()[1]
        placeholder.close()  # nothing listens here any more
        pf = PortFile(str(tmp_path / "ports"))
        execd = PortRecord(pid=os.getpid(), parent_pid=1, host="127.0.0.1",
                           port=dead_port, created_at=time.time() - 60)
        pf.announce(execd)
        assert pf.reap_dead(min_age=5.0, probe_ports=True) == []  # strike 1
        reaped = pf.reap_dead(min_age=5.0, probe_ports=True)      # strike 2
        assert [r.pid for r in reaped] == [os.getpid()]
        assert pf.read_all() == []

    def test_listening_port_never_struck(self, tmp_path):
        import socket
        server = socket.socket()
        server.bind(("127.0.0.1", 0))
        server.listen(1)
        try:
            port = server.getsockname()[1]
            pf = PortFile(str(tmp_path / "ports"))
            live = PortRecord(pid=os.getpid(), parent_pid=1,
                              host="127.0.0.1", port=port,
                              created_at=time.time() - 60)
            pf.announce(live)
            for _ in range(3):
                assert pf.reap_dead(min_age=5.0, probe_ports=True) == []
            assert len(pf.read_all()) == 1
        finally:
            server.close()

    def test_successful_probe_clears_strikes(self, tmp_path):
        """A watchdog heal between probes resets the clock: strike,
        then success, then strike again must NOT reap."""
        import socket
        pf = PortFile(str(tmp_path / "ports"))
        placeholder = socket.socket()
        placeholder.bind(("127.0.0.1", 0))
        port = placeholder.getsockname()[1]
        placeholder.close()
        rec = PortRecord(pid=os.getpid(), parent_pid=1, host="127.0.0.1",
                         port=port, created_at=time.time() - 60)
        pf.announce(rec)
        assert pf.reap_dead(min_age=5.0, probe_ports=True) == []  # strike 1
        server = socket.socket()
        server.bind(("127.0.0.1", port))
        server.listen(1)
        try:
            assert pf.reap_dead(min_age=5.0, probe_ports=True) == []  # clear
        finally:
            server.close()
        assert pf.reap_dead(min_age=5.0, probe_ports=True) == []  # strike 1
        assert len(pf.read_all()) == 1


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

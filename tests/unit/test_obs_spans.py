"""Unit tests: the span flight-recorder (repro.obs.spans)."""

import os
import threading
import time

import pytest

from repro import obs
from repro.obs.blackbox import FLUSH_INTERVAL
from repro.obs.spans import SPANS, SpanRecorder
from repro.util import locks
from tests.conftest import fork_child, fork_while_held, wait_child


class TestRecording:
    def test_begin_end_records_duration(self):
        rec = SpanRecorder(capacity=16)
        token = rec.begin("work", cat="test")
        time.sleep(0.01)
        token.end()
        (span,) = rec.snapshot()
        assert span["name"] == "work"
        assert span["cat"] == "test"
        assert span["dur"] >= 0.01
        assert span["pid"] == os.getpid()
        assert span["tid"] == threading.get_ident()

    def test_context_manager(self):
        rec = SpanRecorder(capacity=4)
        with rec.span("cm", cat="test", key="v"):
            pass
        (span,) = rec.snapshot()
        assert span["name"] == "cm"
        assert span["args"] == {"key": "v"}

    def test_wall_and_mono_pair_recorded(self):
        rec = SpanRecorder(capacity=4)
        before_wall, before_mono = time.time(), time.monotonic()
        with rec.span("clocks"):
            pass
        (span,) = rec.snapshot()
        assert span["wall"] >= before_wall - 1.0
        assert span["mono"] >= before_mono - 1.0
        assert "dur" in span

    def test_ring_overflow_keeps_newest(self):
        rec = SpanRecorder(capacity=4)
        for i in range(10):
            rec.record(f"s{i}", "test", time.time(), time.monotonic(), 0.0)
        names = [s["name"] for s in rec.snapshot()]
        assert names == ["s6", "s7", "s8", "s9"]
        assert rec.dropped == 6

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)


class TestReset:
    def test_snapshot_reset_drains(self):
        # A telemetry reset moves telemetry's own cursor: each record
        # comes back once, and the ring keeps it for every other reader.
        with SPANS.span("telemetry-reset-probe"):
            pass

        def probes(records):
            return [r for r in records
                    if r["name"] == "telemetry-reset-probe"]

        assert len(probes(obs.telemetry_snapshot(reset=True)["spans"])) == 1
        assert probes(obs.telemetry_snapshot(reset=True)["spans"]) == []
        assert len(probes(SPANS.snapshot())) == 1

    def test_reset_after_fork_clears_inherited_timeline(self):
        rec = SpanRecorder(capacity=8)
        with rec.span("parent-era"):
            pass
        rec.reset_after_fork()
        assert rec.snapshot() == []
        assert rec.dropped == 0
        with rec.span("child-era"):
            pass
        assert [s["name"] for s in rec.snapshot()] == ["child-era"]

    @pytest.mark.forks
    def test_reset_after_fork_survives_a_held_lock(self):
        # The fork may land while a parent thread is mid-record; the
        # child inherits that held lock and is single-threaded, so phase
        # C's first step unlocks it in place before the reset.
        rec = SpanRecorder(capacity=8)

        def child():
            locks.reinit_after_fork()
            rec.reset_after_fork()
            with rec.span("child-era"):
                pass
            assert [s["name"] for s in rec.snapshot()] == ["child-era"]

        fork_while_held(rec._lock, child)

    @pytest.mark.forks
    def test_child_of_a_full_ring_reads_only_its_own_records(self):
        # The reset leaves the inherited slots in place: a reader must
        # see only what the child recorded, and no loss.
        rec = SpanRecorder(capacity=16)
        for i in range(40):
            rec.instant("parent", f"parent line {i}")

        def child():
            rec.reset_after_fork()
            for name in ("one", "two", "three"):
                with rec.span(name):
                    pass
            cursor, dropped, records = rec.drain_since(0)
            assert [r["name"] for r in records] == ["one", "two", "three"]
            assert {r["pid"] for r in records} == {os.getpid()}
            assert (cursor, dropped, rec.dropped) == (3, 0, 0)

        assert wait_child(fork_child(child), timeout=10.0) == 0


class TestFlushHook:
    def test_instants_never_fire_the_flush_hook(self):
        # Phases A and B log; a log line must never cost I/O.
        def hook():
            raise AssertionError("an instant fired the flush hook")

        rec = SpanRecorder()
        rec.set_flush_hook(hook, FLUSH_INTERVAL)
        for i in range(2 * FLUSH_INTERVAL):
            rec.instant("test", f"line {i}")
        # The hook is armed: the first span past the interval fires it.
        with pytest.raises(AssertionError, match="instant fired"):
            rec.record("span", "test", time.time(), time.monotonic(), 0.0)

    def test_spans_fire_the_hook_once_per_interval(self):
        fired = []
        rec = SpanRecorder()
        rec.set_flush_hook(lambda: fired.append(rec.drain_since(0)[0]), 4)
        for _ in range(9):
            rec.record("s", "test", time.time(), time.monotonic(), 0.0)
        assert fired == [4, 8]


class TestThreadSafety:
    def test_concurrent_spans_all_complete(self):
        rec = SpanRecorder(capacity=4096)
        n_threads, n_spans = 6, 200
        barrier = threading.Barrier(n_threads)

        def worker(i):
            barrier.wait()
            for j in range(n_spans):
                with rec.span(f"t{i}"):
                    pass

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        spans = rec.snapshot()
        assert len(spans) == n_threads * n_spans
        assert rec.dropped == 0

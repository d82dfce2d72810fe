"""Unit tests: debug-log lines as instants on the one event ring
(repro.obs.spans.SpanRecorder.instant / debug_event)."""

import threading

import pytest

from repro.obs.spans import SpanRecorder, format_instant, is_instant
from repro.util import locks
from tests.conftest import fork_while_held


def messages(rec):
    return [r["name"] for r in rec.snapshot() if is_instant(r)]


class TestBasics:
    def test_emit_and_snapshot(self):
        rec = SpanRecorder(capacity=8)
        rec.instant("cat", "first")
        rec.instant("cat", "second")
        records = rec.snapshot()
        assert [r["name"] for r in records] == ["first", "second"]
        assert records[0]["seq"] == 0 and records[1]["seq"] == 1
        # An instant: zero duration and no span id.
        assert all(is_instant(r) and r["dur"] == 0.0 and "id" not in r
                   for r in records)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanRecorder(capacity=0)

    def test_format_contains_fields(self):
        rec = SpanRecorder()
        rec.instant("tracing", "hello")
        text = format_instant(rec.snapshot()[0])
        assert "tracing" in text and "hello" in text

    def test_records_carry_wall_and_mono_clock_pair(self):
        """Cross-process trace merging needs both clocks per record:
        wall for the anchor, monotonic for every offset (NTP-robust)."""
        import time
        wall_before, mono_before = time.time(), time.monotonic()
        rec = SpanRecorder()
        rec.instant("c", "stamped")
        wall_after, mono_after = time.time(), time.monotonic()
        record = rec.snapshot()[0]
        assert wall_before <= record["wall"] <= wall_after
        assert mono_before <= record["mono"] <= mono_after

    def test_to_dict_is_json_ready(self):
        import json
        rec = SpanRecorder()
        rec.instant("server", "wire me")
        d = rec.snapshot()[0]
        json.dumps(d)
        assert d["name"] == "wire me"
        assert d["cat"] == "server"
        assert {"seq", "wall", "mono", "pid", "tid"} <= set(d)


class TestRingSemantics:
    def test_overwrites_oldest(self):
        rec = SpanRecorder(capacity=3)
        for i in range(5):
            rec.instant("c", f"m{i}")
        assert messages(rec) == ["m2", "m3", "m4"]

    def test_dropped_count(self):
        rec = SpanRecorder(capacity=2)
        for i in range(5):
            rec.instant("c", str(i))
        assert rec.dropped == 3

    def test_drain_clears(self):
        # Readers keep cursors; reading never clears the ring, so one
        # reader cannot eat what another has not read yet.
        rec = SpanRecorder(capacity=4)
        rec.instant("c", "x")
        cursor, dropped, drained = rec.drain_since(0)
        assert (cursor, dropped) == (1, 0)
        assert [r["name"] for r in drained] == ["x"]
        assert rec.drain_since(cursor)[2] == []
        assert messages(rec) == ["x"]
        assert [r["name"] for r in rec.drain_since(0)[2]] == ["x"]

    def test_reset_after_fork_clears(self):
        rec = SpanRecorder(capacity=4)
        rec.instant("c", "parent record")
        rec.reset_after_fork()
        assert rec.snapshot() == []

    @pytest.mark.forks
    def test_reset_after_fork_survives_a_held_lock(self):
        # A parent thread mid-emit at the fork moment leaves the lock
        # held in the single-threaded child; phase C's first step
        # unlocks it in place before the reset.
        rec = SpanRecorder(capacity=4)

        def child():
            locks.reinit_after_fork()
            rec.reset_after_fork()
            rec.instant("c", "child record")
            assert messages(rec) == ["child record"]

        fork_while_held(rec._lock, child)


class TestConcurrency:
    def test_parallel_emitters_keep_all_records(self):
        rec = SpanRecorder(capacity=10000)

        def emit_many(tag):
            for i in range(500):
                rec.instant(tag, f"{tag}-{i}")

        threads = [threading.Thread(target=emit_many, args=(f"t{k}",))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = rec.snapshot()
        assert len(records) == 2000
        # sequence numbers are unique and dense
        seqs = [r["seq"] for r in records]
        assert seqs == list(range(2000))

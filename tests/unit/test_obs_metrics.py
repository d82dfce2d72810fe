"""Unit tests: the lock-light metrics registry (repro.obs.metrics)."""

import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BOUNDS,
    MetricsRegistry,
    enabled,
    labeled,
    set_enabled,
)
from repro.util import locks
from tests.conftest import fork_while_held


class TestLabels:
    def test_no_labels_is_plain_name(self):
        assert labeled("a.b") == "a.b"

    def test_labels_sorted_and_folded(self):
        assert labeled("cmd", b=2, a=1) == "cmd{a=1,b=2}"


class TestCounters:
    def test_inc_and_snapshot(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.inc("x", 4)
        reg.inc("y", 2.5)
        snap = reg.snapshot()
        assert snap["counters"]["x"] == 5
        assert snap["counters"]["y"] == 2.5

    def test_labeled_counters_are_distinct(self):
        reg = MetricsRegistry()
        reg.inc("cmd", command="step")
        reg.inc("cmd", command="step")
        reg.inc("cmd", command="resume")
        snap = reg.snapshot()
        assert snap["counters"]["cmd{command=step}"] == 2
        assert snap["counters"]["cmd{command=resume}"] == 1

    def test_concurrent_increments_sum_exactly(self):
        """The tentpole claim: per-thread shards lose no increments.

        Eight threads hammer the same counter with no lock on the inc
        path; the merged snapshot must equal the exact total.
        """
        reg = MetricsRegistry()
        n_threads, n_incs = 8, 5000
        barrier = threading.Barrier(n_threads)

        def worker():
            barrier.wait()
            for _ in range(n_incs):
                reg.inc("hot")
                reg.observe("lat", 0.001)

        threads = [threading.Thread(target=worker)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        snap = reg.snapshot()
        assert snap["counters"]["hot"] == n_threads * n_incs
        assert snap["histograms"]["lat"]["count"] == n_threads * n_incs

    def test_snapshot_during_concurrent_writes_is_sane(self):
        """Snapshotting mid-storm never crashes and never over-counts."""
        reg = MetricsRegistry()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                reg.inc("storm")

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            last = 0
            for _ in range(50):
                value = reg.snapshot()["counters"].get("storm", 0)
                assert value >= last  # monotone under concurrent incs
                last = value
        finally:
            stop.set()
            for t in threads:
                t.join(10)


class TestHistograms:
    def test_bucketing_and_stats(self):
        reg = MetricsRegistry()
        for v in (0.0005, 0.002, 0.002, 1.5):
            reg.observe("d", v)
        hist = reg.snapshot()["histograms"]["d"]
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(1.5045)
        assert hist["min"] == pytest.approx(0.0005)
        assert hist["max"] == pytest.approx(1.5)
        assert len(hist["bounds"]) == len(DEFAULT_BOUNDS)
        assert len(hist["counts"]) == len(DEFAULT_BOUNDS) + 1
        assert sum(hist["counts"]) == 4

    def test_declared_bounds_override_default(self):
        reg = MetricsRegistry()
        reg.declare_histogram("sized", (10, 100, 1000))
        reg.observe("sized", 50)
        hist = reg.snapshot()["histograms"]["sized"]
        assert hist["bounds"] == [10, 100, 1000]
        assert hist["counts"] == [0, 1, 0, 0]


class TestGauges:
    def test_set_gauge(self):
        reg = MetricsRegistry()
        reg.set_gauge("depth", 3)
        assert reg.snapshot()["gauges"]["depth"] == 3

    def test_callback_gauge_evaluated_at_snapshot(self):
        reg = MetricsRegistry()
        box = {"v": 1}
        reg.register_gauge("live", lambda: box["v"])
        assert reg.snapshot()["gauges"]["live"] == 1.0
        box["v"] = 7
        assert reg.snapshot()["gauges"]["live"] == 7.0

    def test_failing_callback_gauge_is_dropped_not_fatal(self):
        reg = MetricsRegistry()

        def boom():
            raise RuntimeError("dead gauge")

        reg.register_gauge("bad", boom)
        reg.set_gauge("good", 1)
        snap = reg.snapshot()
        assert "bad" not in snap["gauges"]
        assert snap["gauges"]["good"] == 1

    def test_unregister_gauge(self):
        reg = MetricsRegistry()
        reg.register_gauge("g", lambda: 1)
        reg.unregister_gauge("g")
        assert "g" not in reg.snapshot()["gauges"]


class TestEnableSwitch:
    def test_disabled_recording_is_a_no_op(self):
        reg = MetricsRegistry()
        assert enabled()
        set_enabled(False)
        try:
            reg.inc("off")
            reg.observe("off.h", 1.0)
            assert not enabled()
        finally:
            set_enabled(True)
        snap = reg.snapshot()
        assert "off" not in snap["counters"]
        assert "off.h" not in snap["histograms"]
        reg.inc("on")
        assert reg.snapshot()["counters"]["on"] == 1


class TestSnapshotReset:
    def test_reset_drains_counters_keeps_labels(self):
        reg = MetricsRegistry(labels={"program": "t"})
        reg.inc("c")
        first = reg.snapshot(reset=True)
        assert first["counters"]["c"] == 1
        second = reg.snapshot()
        assert second["counters"] == {}
        assert second["labels"]["program"] == "t"

    def test_writes_after_reset_land_in_fresh_shards(self):
        reg = MetricsRegistry()
        reg.inc("c")
        reg.snapshot(reset=True)
        reg.inc("c", 2)
        assert reg.snapshot()["counters"]["c"] == 2


class TestShardRetirement:
    def test_exited_threads_fold_into_one_retired_shard(self):
        # A process that starts and stops threads (one reactor thread
        # per Dionea start) must not keep one shard per thread forever.
        reg = MetricsRegistry()

        def work(i):
            reg.inc("t.count", 2)
            reg.observe("t.seconds", 0.001 * (i + 1))

        for i in range(20):
            thread = threading.Thread(target=work, args=(i,))
            thread.start()
            thread.join()
            # live threads owning a shard: only this one so far, and
            # the exited ones fold into one retired shard
            assert len(reg._shards) <= 2  # noqa: SLF001
        reg.inc("t.count")
        assert len(reg._shards) == 2  # noqa: SLF001 - main + retired
        snap = reg.snapshot()
        assert snap["counters"]["t.count"] == 41
        hist = snap["histograms"]["t.seconds"]
        assert hist["count"] == 20
        assert sum(hist["counts"]) == 20
        assert hist["sum"] == pytest.approx(0.001 * 210)
        assert hist["min"] == pytest.approx(0.001)
        assert hist["max"] == pytest.approx(0.020)

    def test_live_threads_keep_their_own_shards(self):
        reg = MetricsRegistry()
        ready, release = threading.Barrier(4), threading.Event()

        def work():
            reg.inc("t.live")
            ready.wait(5)
            release.wait(5)

        threads = [threading.Thread(target=work) for _ in range(3)]
        for thread in threads:
            thread.start()
        ready.wait(5)
        reg.inc("t.live")  # a birth while all three are alive
        assert len(reg._shards) == 4  # noqa: SLF001
        release.set()
        for thread in threads:
            thread.join()
        assert reg.snapshot()["counters"]["t.live"] == 4


class TestForkAwareness:
    def test_reset_after_fork_relabels_and_drops(self):
        reg = MetricsRegistry(labels={"program": "parent-prog"})
        reg.inc("parent.only", 9)
        reg.set_gauge("parent.g", 1)
        epoch_before = reg.labels["epoch"]
        reg.reset_after_fork(labels={"program": "child-prog"})
        snap = reg.snapshot()
        assert snap["counters"] == {}
        assert snap["gauges"] == {}
        assert snap["labels"]["epoch"] == epoch_before + 1
        assert snap["labels"]["program"] == "child-prog"
        import os
        assert snap["labels"]["pid"] == os.getpid()

    @pytest.mark.forks
    def test_reset_after_fork_survives_a_held_lock(self):
        # A parent thread mid-snapshot at the fork moment leaves the
        # lock held in the single-threaded child; phase C's first step
        # unlocks it in place before the reset.
        reg = MetricsRegistry()

        def child():
            locks.reinit_after_fork()
            reg.reset_after_fork()
            reg.inc("child.only")
            assert reg.snapshot()["counters"] == {"child.only": 1}

        fork_while_held(reg._lock, child)

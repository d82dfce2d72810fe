"""Unit tests: UE identifiers and id allocators (repro.util.ids)."""

import os
import threading

from repro.util.ids import IdAllocator, UEId, describe_ue


class TestUEId:
    def test_current_uses_pid_and_tid(self):
        ue = UEId.current()
        assert ue.pid == os.getpid()
        assert ue.tid == threading.get_ident()

    def test_process_sentinel(self):
        ue = UEId.process()
        assert ue.pid == os.getpid()
        assert ue.is_process_main

    def test_equality_is_pairwise(self):
        assert UEId(1, 2) == UEId(1, 2)
        assert UEId(1, 2) != UEId(1, 3)
        assert UEId(1, 2) != UEId(2, 2)

    def test_ordering_and_hash(self):
        ues = [UEId(2, 1), UEId(1, 9), UEId(1, 2)]
        assert sorted(ues) == [UEId(1, 2), UEId(1, 9), UEId(2, 1)]
        assert len({UEId(1, 2), UEId(1, 2)}) == 1

    def test_different_threads_get_different_ids(self):
        ids = []

        def record():
            ids.append(UEId.current())

        thread = threading.Thread(target=record)
        thread.start()
        thread.join()
        assert ids[0] != UEId.current()
        assert ids[0].pid == os.getpid()


class TestIdAllocator:
    def test_monotonic_with_prefix(self):
        alloc = IdAllocator("s")
        assert [alloc.next() for _ in range(3)] == ["s1", "s2", "s3"]

    def test_thread_safety_no_duplicates(self):
        alloc = IdAllocator("x")
        out = []
        lock = threading.Lock()

        def grab():
            for _ in range(200):
                value = alloc.next()
                with lock:
                    out.append(value)

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(out) == len(set(out)) == 800


class TestDescribeUE:
    def test_process_level(self):
        assert describe_ue(UEId(10, 0)) == "process 10"

    def test_main_thread_label(self):
        assert describe_ue(UEId(10, 55), main_thread_ident=55) == \
            "process 10 / main thread"

    def test_worker_thread_label(self):
        assert describe_ue(UEId(10, 77), main_thread_ident=55) == \
            "process 10 / thread 77"

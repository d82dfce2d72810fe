"""Unit tests: the forked worker pool (repro.mp.pool)."""

import os
import time

import pytest

from repro.mp.pool import Pool, RemoteError, _run_chunk
from repro.util.errors import PoolError

pytestmark = pytest.mark.forks


def square(x):
    return x * x


def crash(x):
    raise ValueError(f"task {x} failed")


def slow_identity(x):
    time.sleep(0.05)
    return x


def whoami(_x):
    return os.getpid()


class TestMap:
    def test_map_preserves_order(self):
        with Pool(3) as pool:
            assert pool.map(square, range(20)) == [x * x for x in range(20)]

    def test_map_with_chunksize(self):
        with Pool(2) as pool:
            assert pool.map(square, range(10), chunksize=4) == \
                [x * x for x in range(10)]

    def test_map_empty_iterable(self):
        with Pool(2) as pool:
            assert pool.map(square, []) == []

    def test_invalid_chunksize(self):
        with Pool(1) as pool:
            with pytest.raises(PoolError):
                pool.map(square, [1], chunksize=0)

    def test_work_spreads_across_processes(self):
        with Pool(4) as pool:
            pids = set(pool.map(whoami, range(40)))
        assert len(pids) >= 2
        assert os.getpid() not in pids  # really ran in children


class TestApply:
    def test_apply_returns_value(self):
        with Pool(2) as pool:
            assert pool.apply(square, (7,)) == 49

    def test_apply_async_handle(self):
        with Pool(2) as pool:
            handle = pool.apply_async(square, (6,))
            assert handle.get(timeout=5.0) == 36
            assert handle.ready() and handle.successful()
            assert handle.worker_pid in pool.worker_pids()

    def test_async_result_not_ready_initially(self):
        with Pool(1) as pool:
            handle = pool.apply_async(slow_identity, (1,))
            with pytest.raises(PoolError):
                handle.successful()
            handle.get(5.0)

    def test_get_timeout(self):
        with Pool(1) as pool:
            handle = pool.apply_async(time.sleep, (2.0,))
            with pytest.raises(PoolError):
                handle.get(timeout=0.1)
            handle.get(timeout=10.0)


class TestErrors:
    def test_remote_exception_raised_with_traceback(self):
        with Pool(2) as pool:
            with pytest.raises(RemoteError) as exc_info:
                pool.apply(crash, (3,))
        assert "task 3 failed" in str(exc_info.value)
        assert "ValueError" in exc_info.value.remote_traceback

    def test_pool_survives_task_errors(self):
        with Pool(2) as pool:
            with pytest.raises(RemoteError):
                pool.apply(crash, (1,))
            assert pool.apply(square, (4,)) == 16

    def test_submit_after_close_rejected(self):
        pool = Pool(1)
        pool.close()
        with pytest.raises(PoolError):
            pool.apply_async(square, (1,))
        pool.join(5.0)

    def test_join_before_close_rejected(self):
        pool = Pool(1)
        try:
            with pytest.raises(PoolError):
                pool.join()
        finally:
            pool.close()
            pool.join(5.0)


class TestShutdown:
    def test_close_join_reaps_workers(self):
        pool = Pool(3)
        pids = pool.worker_pids()
        pool.map(square, range(6))
        pool.close()
        pool.join(5.0)
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # ESRCH: really gone

    def test_terminate_kills_workers(self):
        pool = Pool(2)
        pool.apply_async(time.sleep, (30,))
        time.sleep(0.1)
        pids = pool.worker_pids()
        pool.terminate()
        time.sleep(0.2)
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)

    def test_initializer_runs_in_workers(self):
        init_flag = "/tmp/pool-init-%d" % os.getpid()

        def initializer(path):
            with open(path + f".{os.getpid()}", "w") as fh:
                fh.write("up")

        import glob
        pool = Pool(2, initializer=initializer, initargs=(init_flag,))
        pool.map(square, range(4))
        pool.close()
        pool.join(5.0)
        files = glob.glob(init_flag + ".*")
        assert len(files) == 2
        for path in files:
            os.unlink(path)


class TestDescriptors:
    @staticmethod
    def open_fds():
        return sorted(os.listdir("/proc/self/fd"))

    def test_jobs_leave_no_descriptors_behind(self):
        """Each job's task and result queues close with the pool."""
        with Pool(2) as pool:  # warm lazy module state outside the count
            pool.map(square, range(4))
        before = self.open_fds()
        for _ in range(3):
            with Pool(2) as pool:
                assert pool.map(square, range(8)) == [x * x
                                                      for x in range(8)]
        assert self.open_fds() == before

    def test_terminate_closes_the_queues(self):
        before = self.open_fds()
        pool = Pool(2)
        pool.terminate()
        assert self.open_fds() == before


class TestChunkRunner:
    def test_run_chunk(self):
        assert _run_chunk(square, [1, 2, 3]) == [1, 4, 9]

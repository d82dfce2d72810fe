"""Worker pool over forked processes and the §6.3 queues.

The shape the paper's MapReduce word count runs on: N forked workers
share one input queue and one output queue with the parent (Fig. 8
caption: *"the parent and the worker processes share the same input and
output queues"*).  Because workers block on ``Queue.get``, a worker
stopped at a breakpoint simply doesn't contend — *"we observe that an
available child process takes over the jobs"* — the work-stealing
behaviour the integration tests assert.

Tasks and results are pickled function calls; functions must therefore
be importable top-level callables, the same constraint multiprocessing
imposes.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import traceback
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..util.errors import PoolError
from .process import Process
from .queues import Queue
from .synchronize import Semaphore

_STOP = "__pool_stop__"

#: How long Pool() waits for every worker to check in before accepting
#: work on faith.  Generous: a worker only misses this if it died (or a
#: debugger parked it) during startup.
_READY_TIMEOUT = 5.0


class RemoteError(PoolError):
    """A task raised in the worker; carries the remote traceback text."""

    def __init__(self, kind: str, message: str, remote_traceback: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.remote_traceback = remote_traceback


def _pool_worker(task_queue: Queue, result_queue: Queue, ready: Semaphore,
                 initializer: Optional[Callable], initargs: Tuple) -> None:
    """Worker main loop: run in the forked child until the stop sentinel."""
    if initializer is not None:
        initializer(*initargs)
    # Check in only once genuinely ready to consume: the parent holds
    # Pool() open until every worker reaches this line, so the first
    # map() finds all N workers blocked on the task queue instead of
    # racing one early-born worker against siblings still mid-fork.
    ready.release()
    while True:
        task = task_queue.get()
        if task == _STOP:
            break
        task_id, func, args, kwargs = task
        try:
            value = func(*args, **(kwargs or {}))
            result_queue.put((task_id, True, value, os.getpid()))
        except BaseException as exc:  # noqa: BLE001 - ship it to the parent
            result_queue.put((
                task_id, False,
                (type(exc).__name__, str(exc), traceback.format_exc()),
                os.getpid()))


class AsyncResult:
    """Handle for one submitted task."""

    def __init__(self, task_id: int):
        self.task_id = task_id
        self._event = threading.Event()
        self._success = False
        self._value: Any = None
        self.worker_pid: Optional[int] = None

    def _resolve(self, success: bool, value: Any, worker_pid: int) -> None:
        self._success = success
        self._value = value
        self.worker_pid = worker_pid
        self._event.set()

    def ready(self) -> bool:
        return self._event.is_set()

    def successful(self) -> bool:
        if not self._event.is_set():
            raise PoolError("result not ready")
        return self._success

    def get(self, timeout: Optional[float] = None) -> Any:
        if not self._event.wait(timeout):
            raise PoolError(f"task {self.task_id} not done "
                            f"within {timeout}s")
        if self._success:
            return self._value
        kind, message, remote_tb = self._value
        raise RemoteError(kind, message, remote_tb)


class Pool:
    """N forked workers fed by one task queue."""

    def __init__(self, processes: Optional[int] = None,
                 initializer: Optional[Callable] = None,
                 initargs: Tuple = ()):
        self.processes = processes or (os.cpu_count() or 2)
        if self.processes < 1:
            raise PoolError("pool needs at least one process")
        self.task_queue = Queue(name="pool.tasks")
        self.result_queue = Queue(name="pool.results")
        self._ready = Semaphore(0, name="pool.ready")
        self._task_ids = itertools.count(1)
        self._pending: Dict[int, AsyncResult] = {}
        self._pending_lock = threading.Lock()
        self._closed = False
        self._workers: List[Process] = []
        for i in range(self.processes):
            worker = Process(
                target=_pool_worker,
                args=(self.task_queue, self.result_queue, self._ready,
                      initializer, initargs),
                name=f"pool-worker-{i}")
            worker.start()
            self._workers.append(worker)
        self._collector = threading.Thread(
            target=self._collect, name="pool-collector", daemon=True)
        self._collector.start()
        self._await_workers_ready()

    def _await_workers_ready(self) -> None:
        """Block until every worker has checked in (bounded wait).

        A worker that dies during startup must not wedge pool creation,
        so a missed check-in degrades to a warning-by-behaviour: the
        pool still works on whatever workers made it up.
        """
        deadline = time.monotonic() + _READY_TIMEOUT
        for _ in self._workers:
            if not self._ready.acquire(
                    timeout=max(0.0, deadline - time.monotonic())):
                break

    # -- result collection ----------------------------------------------------------

    def _collect(self) -> None:
        remaining_stops = None
        while True:
            item = self.result_queue.get()
            if item == _STOP:
                break
            task_id, success, value, worker_pid = item
            with self._pending_lock:
                result = self._pending.pop(task_id, None)
            if result is not None:
                result._resolve(success, value, worker_pid)  # noqa: SLF001

    # -- submission --------------------------------------------------------------------

    def apply_async(self, func: Callable, args: Sequence = (),
                    kwds: Optional[dict] = None) -> AsyncResult:
        if self._closed:
            raise PoolError("pool is closed")
        task_id = next(self._task_ids)
        result = AsyncResult(task_id)
        with self._pending_lock:
            self._pending[task_id] = result
        self.task_queue.put((task_id, func, tuple(args), kwds))
        return result

    def apply(self, func: Callable, args: Sequence = (),
              kwds: Optional[dict] = None,
              timeout: Optional[float] = None) -> Any:
        return self.apply_async(func, args, kwds).get(timeout)

    def map(self, func: Callable, iterable: Iterable,
            chunksize: int = 1,
            timeout: Optional[float] = None) -> List[Any]:
        """Parallel map preserving input order."""
        if chunksize < 1:
            raise PoolError("chunksize must be >= 1")
        items = list(iterable)
        chunks = [items[i:i + chunksize]
                  for i in range(0, len(items), chunksize)]
        handles = [self.apply_async(_run_chunk, (func, chunk))
                   for chunk in chunks]
        out: List[Any] = []
        for handle in handles:
            out.extend(handle.get(timeout))
        return out

    # -- lifecycle -----------------------------------------------------------------------

    def close(self) -> None:
        """No more tasks; workers exit after draining the queue."""
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            self.task_queue.put(_STOP)

    def join(self, timeout: Optional[float] = None) -> None:
        if not self._closed:
            raise PoolError("join before close")
        for worker in self._workers:
            worker.join(timeout)
        self.result_queue.put(_STOP)
        self._release_queues(timeout or 5.0)

    def terminate(self) -> None:
        self._closed = True
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(1.0)
        try:
            self.result_queue.put(_STOP)
        except Exception:  # noqa: BLE001 - queue may already be closed
            pass
        self._release_queues(1.0)

    def _release_queues(self, timeout: float) -> None:
        """Close both queues' pipes once the collector has stopped
        reading them (a collector that outlives *timeout* keeps them)."""
        self._collector.join(timeout)
        if not self._collector.is_alive():
            self.task_queue.close()
            self.result_queue.close()
        self._ready.close()

    def worker_pids(self) -> List[int]:
        return [w.pid for w in self._workers if w.pid is not None]

    def __enter__(self) -> "Pool":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._closed:
            self.close()
            self.join(10.0)


def _run_chunk(func: Callable, chunk: List[Any]) -> List[Any]:
    """Top-level (picklable) chunk runner for :meth:`Pool.map`."""
    return [func(item) for item in chunk]

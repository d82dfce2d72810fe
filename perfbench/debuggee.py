"""The debuggee process: runs the workload's jobs on command.

The driver forks this process before any client thread exists and then
steers it over a :class:`~perfbench.channel.Channel`.  Between a
``start`` and a ``stop`` command the process runs under a live
``Dionea``; otherwise it runs bare.  The job code is identical in both
arms.  Each reply carries the debuggee-side timings and the result
checks, so the driver only ever compares numbers.
"""

from __future__ import annotations

import os
import resource
import select
import signal
import stat
import time
from time import perf_counter
from typing import Optional

from . import jobcode
from .layers import Sink, install_debuggee

#: How long a parked UE waits for a resume before the engine frees it.
#: Far above any healthy stop-service time (a few ms), so it only ends a
#: wedge; short enough that a job whose every stop wedges still ends
#: well inside a run's time limit.
PARK_TIMEOUT = 10.0


def _open_pipes() -> set:
    """Descriptors below 1024 (select()'s ceiling) that are pipes."""
    found = set()
    for fd in range(1024):
        try:
            mode = os.fstat(fd).st_mode
        except OSError:
            continue
        if stat.S_ISFIFO(mode):
            found.add(fd)
    return found


class Debuggee:
    def __init__(self, channel, inputs: dict):
        self.channel = channel
        self.inputs = inputs
        self.dionea = None
        self.portfile: Optional[str] = None
        self.sink = Sink()
        self.patches = None
        self.child: Optional[dict] = None
        #: every pid this process forked, for the straggler sweep
        self.forked: set = set()
        # The forkchurn child reports on one pipe and is released on the
        # other; only one child is alive at a time.
        self.report_r, self.report_w = os.pipe()
        self.release_r, self.release_w = os.pipe()

    def serve(self) -> None:
        while True:
            message = self.channel.recv(timeout=None)
            op = message.pop("op")
            if op == "exit":
                self.channel.send(self.finish())
                return
            self.channel.send(getattr(self, f"op_{op}")(**message))

    # -- debugger lifecycle ----------------------------------------------

    def op_arm(self, label: str) -> dict:
        self.sink.arm = label
        return {}

    def op_start(self, portfile: str) -> dict:
        from repro.core import Dionea
        self.portfile = portfile
        self.dionea = Dionea(program="perfbench", portfile_path=portfile,
                             park_timeout=PARK_TIMEOUT)
        t0 = perf_counter()
        self.dionea.start()
        return {"t0": t0}

    def op_stop(self) -> dict:
        self.dionea.stop()
        self.dionea = None
        # Dionea.stop removes the port file; its flock sidecar is left
        # for whoever owns the directory.
        left = os.path.exists(self.portfile)
        try:
            os.unlink(f"{self.portfile}.lock")
        except FileNotFoundError:
            pass
        return {"portfile_left": left}

    def op_rss(self) -> dict:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {"rss_mb": rss_kib / 1024.0}

    def op_metrics(self, enabled: bool) -> dict:
        from repro.obs import metrics
        metrics.set_enabled(enabled)
        return {}

    def op_trace(self, path: Optional[str]) -> dict:
        if path is not None:
            self.sink = Sink(path)
            self.patches = install_debuggee(self.sink)
        else:
            self.patches.undo()
            self.patches = None
            self.sink.close()
            self.sink = Sink()
        return {}

    def _engine_counters(self) -> dict:
        if self.dionea is None:
            return {}
        engine = self.dionea.server.engine
        return {"events": engine.event_count,
                "fastpath_hits": engine.fastpath_hits,
                "local_installs": engine.local_installs}

    def _counter_delta(self, before: dict) -> dict:
        after = self._engine_counters()
        return {key: after[key] - before[key] for key in before}

    # -- wordcount ----------------------------------------------------------

    def op_wordcount(self, workers: int, chunksize: int,
                     think: float) -> dict:
        from repro.mapreduce.engine import MapReduceEngine, MapReduceJob
        from repro.mapreduce.wordcount import map_wordcount, reduce_wordcount
        job = MapReduceJob(map_func=map_wordcount,
                           reduce_func=reduce_wordcount, name="wordcount")
        engine = MapReduceEngine(n_workers=workers, chunksize=chunksize)
        before = self._engine_counters()
        pipes = _open_pipes()
        time.sleep(think)
        t0 = perf_counter()
        result = engine.run(job, self.inputs["documents"], timeout=60)
        elapsed = perf_counter() - t0
        self.forked.update(engine.last_stats.worker_pids)
        # repro.mp.Pool never closes its task and result queues, so each
        # job leaves its pipes open; without this sweep the debuggee runs
        # out of select()-able descriptors after ~60 jobs.  The count is
        # reported so the leak stays visible.
        leaked = _open_pipes() - pipes
        for fd in leaked:
            os.close(fd)
        return {"t0": t0, "elapsed": elapsed,
                "ok": result == self.inputs["reference"],
                "workers": engine.last_stats.worker_pids,
                "leaked_fds": len(leaked),
                "counters": self._counter_delta(before)}

    # -- forkchurn ------------------------------------------------------------

    def op_fork(self, think: float, document: int) -> dict:
        time.sleep(think)
        t0 = perf_counter()
        pid = os.fork()
        if pid == 0:
            self._child_body(document)
        self.child = {"pid": pid, "t0": t0}
        self.forked.add(pid)
        return {"pid": pid, "t0": t0}

    def _child_body(self, document: int) -> None:
        """The forked child: report, wait for release, work, exit."""
        status = 1
        try:
            # Drop the parent's ends: if the debuggee dies, the release
            # read sees EOF instead of blocking for ever.
            os.close(self.release_w)
            os.close(self.report_r)
            os.write(self.report_w, f"{perf_counter()!r}\n".encode())
            os.read(self.release_r, 1)
            _path, text = self.inputs["documents"][document]
            counts = jobcode.count_words(text)
            status = 0 if counts == self.inputs["doc_counts"][document] \
                else 3
            os.write(self.report_w, f"{perf_counter()!r}\n".encode())
        finally:
            os._exit(status)

    def _read_stamp(self, timeout: float) -> float:
        line = b""
        deadline = time.monotonic() + timeout
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.report_r], [], [],
                                        max(0.0, remaining))
            if not ready:
                raise TimeoutError("child report missed its deadline")
            line += os.read(self.report_r, 1)
        return float(line)

    def op_release(self) -> dict:
        child, self.child = self.child, None
        ok = True
        try:
            t_user = self._read_stamp(10.0)
            os.write(self.release_w, b"x")
            t_exit = self._read_stamp(10.0)
        except TimeoutError:
            os.kill(child["pid"], signal.SIGKILL)
            t_user = t_exit = perf_counter()
            ok = False
        _pid, status = os.waitpid(child["pid"], 0)
        t_reap = perf_counter()
        ok = ok and os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        return {"cycle": (t_user - child["t0"]) + (t_reap - t_exit),
                "ok": ok}

    # -- breakpoints ----------------------------------------------------------

    def op_count(self, stop_at: list) -> dict:
        before = self._engine_counters()
        t0 = perf_counter()
        counts = jobcode.count_documents(self.inputs["documents"],
                                         frozenset(stop_at))
        elapsed = perf_counter() - t0
        return {"elapsed": elapsed,
                "ok": counts == self.inputs["reference"],
                "counters": self._counter_delta(before)}

    # -- teardown ---------------------------------------------------------------

    def finish(self) -> dict:
        """Reap stragglers (each one fails the run) and report peak RSS."""
        if self.dionea is not None:
            self.dionea.stop()
        stragglers = 0
        deadline = time.monotonic() + 5.0
        while True:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid != 0:
                continue
            # A child outlived its job: count it once, kill what we
            # forked, and keep reaping until none is left.
            if stragglers == 0:
                stragglers = 1
                for known in self.forked:
                    try:
                        os.kill(known, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            if time.monotonic() > deadline:
                break
            time.sleep(0.02)
        return dict(self.op_rss(), stragglers=stragglers)

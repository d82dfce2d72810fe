"""Driver side: the client that drives each workload's bare and debugged arms.

The driver process is the debug client and the only load generator, with
one driving thread.  A *pair* is one bare arm and one debugged arm over
the same seeded unit of work, run back to back; the order flips from one
pair of a variant to the next so slow drift of the host cancels out of
the ratio.
"""

from __future__ import annotations

import os
import random
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

from . import jobcode
from .debuggee import PARK_TIMEOUT

#: ``rss_mb`` is read after this many pairs (or at the end of a shorter
#: run): a fixed amount of work, so a per-arm leak shows as growth while
#: the speed of the host, which sets how many pairs fit in a run, does not.
RSS_PAIRS = 10
#: Every wait on the debugger has a deadline; missing one is a failure.
FOLLOW_TIMEOUT = 10.0
#: A run that has failed this often stops measuring: it is already
#: incorrect, and more deadlines would only push it past its time limit.
MAX_FAILURES = 10
#: The client's port-file poll interval (``DebugClient.watch_portfile``
#: default).
POLL_INTERVAL = 0.02
#: Think times are drawn from [0, THINK_SPAN] so that forks land at
#: random phases of the poll grid.  The grid's period is the poll
#: interval plus the poll itself; a span of one interval does not cover
#: it, and the follow latency then splits into two clusters with its
#: median in the gap between them.  Three intervals cover the grid
#: about evenly (forkchurn follow_ms.p50 quartile spread over ten seeds:
#: 4% against 10% with two intervals).
THINK_SPAN = 3 * POLL_INTERVAL


class Run:
    """One run's driver state: the debuggee link, the checks, the arms."""

    def __init__(self, channel, debuggee_pid: int, rundir: str, sink):
        self.channel = channel
        self.debuggee_pid = debuggee_pid
        self.rundir = rundir
        self.sink = sink
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._seq = 0

    # -- plumbing ----------------------------------------------------------

    def send(self, op: str, **fields) -> None:
        self.channel.send(dict(fields, op=op))

    def recv(self, timeout: float) -> dict:
        return self.channel.recv(timeout)

    def call(self, op: str, **fields) -> dict:
        self.send(op, **fields)
        return self.recv(120.0)

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; a mismatch counts as failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def label(self, arm: str, variant: str) -> str:
        self._seq += 1
        label = f"{arm}:{variant}:{self._seq}"
        self.sink.arm = label
        self.call("arm", label=label)
        return label

    # -- debugged-arm lifecycle ----------------------------------------------

    def attach(self, breakpoints=(), on_new_session=None) -> dict:
        """Start Dionea in the debuggee and take the session, as deployed.

        Returns the client, the root session, ``setup`` (``Dionea.start``
        until the session is held and the breakpoints are set) and
        ``follow`` (``Dionea.start`` until ``session_for_pid`` returns).
        """
        from repro.client import DebugClient
        from repro.util.portfile import PortFile
        path = os.path.join(self.rundir, f"ports-{self._seq}.jsonl")
        reply = self.call("start", portfile=path)
        client = DebugClient(on_new_session=on_new_session)
        try:
            client.watch_portfile(PortFile(path))
            session = client.session_for_pid(self.debuggee_pid,
                                             timeout=FOLLOW_TIMEOUT)
            follow = perf_counter() - reply["t0"]
            self.check(session.pid == self.debuggee_pid,
                       "root session has the debuggee's pid")
            for file, line in breakpoints:
                placed = session.request("set_break",
                                         {"file": file, "line": line})
                self.check(placed.get("line") == line,
                           f"breakpoint placed at line {line}")
            setup = perf_counter() - reply["t0"]
        except BaseException:
            self.detach(client)
            raise
        return {"client": client, "session": session, "setup": setup,
                "follow": follow}

    def detach(self, client) -> None:
        reply = self.call("stop")
        self.check(not reply["portfile_left"],
                   "Dionea.stop removed its port file")
        client.close()


class Workload:
    """One workload: its seeded inputs and its two arms."""

    name = ""
    #: debugged-arm variants the traced run rotates through
    traced_variants = ("full",)

    def __init__(self, seed: int, nproc: int):
        self.seed = seed
        self.nproc = nproc
        self.rng = random.Random(seed)

    def inputs(self) -> dict:
        """Everything the debuggee needs, built before it is forked."""
        raise NotImplementedError

    def unit(self) -> dict:
        """The seeded unit of work both arms of one pair run."""
        return {}

    def bare(self, run: Run, unit: dict) -> float:
        raise NotImplementedError

    def debugged(self, run: Run, unit: dict, variant: str,
                 samples: "Samples") -> float:
        raise NotImplementedError


class Samples:
    """Everything one measuring phase collected."""

    def __init__(self):
        self.pairs: Dict[str, List[tuple]] = {}
        self.setup: List[float] = []
        self.follow: List[float] = []
        #: forkchurn's per-child follow stamps, for the reconciliation
        self.follow_detail: List[dict] = []
        self.jobs: Dict[str, List[dict]] = {}
        self.stop_ms: List[float] = []
        self.stop_ops: List[tuple] = []
        #: peak RSS after RSS_PAIRS pairs, then at the end of the phase
        self.rss_mb: Optional[float] = None
        self.rss_end_mb: Optional[float] = None

    def job(self, variant: str, reply: dict, arm: str) -> None:
        self.jobs.setdefault(variant, []).append(dict(reply, arm=arm))

    def ratios(self, variant: str) -> List[float]:
        return [d / b for b, d in self.pairs.get(variant, []) if b > 0]


def measure(run: Run, workload: Workload, seconds: float,
            variants=("full",)) -> Samples:
    """One warm-up pair, then order-alternated pairs until *seconds* pass.

    Variants take turns, and each variant's pairs alternate their order
    whatever the number of variants.  A debugger error (a missed
    deadline, a lost session) counts as one failed operation and ends
    the phase; it is never retried.
    """
    from repro.util.errors import ReproError
    samples = Samples()
    unit = workload.unit()
    run.label("bare", "warmup")
    workload.bare(run, unit)
    run.label("debugged", "warmup")
    workload.debugged(run, unit, "full", Samples())
    deadline = perf_counter() + seconds
    index = 0
    while perf_counter() < deadline and run.failed < MAX_FAILURES:
        variant = variants[index % len(variants)]
        bare_first = (index // len(variants)) % 2 == 0
        unit = workload.unit()
        times = {}
        try:
            for arm in (("bare", "debugged") if bare_first
                        else ("debugged", "bare")):
                run.label(arm, variant)
                times[arm] = workload.bare(run, unit) if arm == "bare" \
                    else workload.debugged(run, unit, variant, samples)
        except ReproError as exc:
            run.check(False, f"{arm} arm: {exc}")
            break
        samples.pairs.setdefault(variant, []).append(
            (times["bare"], times["debugged"]))
        index += 1
        if index == RSS_PAIRS:
            samples.rss_mb = run.call("rss")["rss_mb"]
    samples.rss_end_mb = run.call("rss")["rss_mb"]
    if samples.rss_mb is None:
        samples.rss_mb = samples.rss_end_mb
    return samples


# -- wordcount ------------------------------------------------------------------

class WordCount(Workload):
    """The paper's §7 pair: ``run_wordcount`` on nproc workers."""

    name = "wordcount"
    traced_variants = ("full", "metrics_off")
    n_files = 400
    lines_per_file = 140
    chunksize = 4

    def inputs(self) -> dict:
        from repro.corpus import CorpusProfile, generate_corpus
        from repro.mapreduce.wordcount import map_wordcount, merge_counts
        documents = generate_corpus(CorpusProfile(
            name="perfbench-wordcount", n_files=self.n_files,
            lines_per_file=self.lines_per_file, vocabulary_size=1500,
            seed=self.seed))
        return {"documents": documents,
                "reference": merge_counts(map_wordcount(d)
                                          for d in documents)}

    def unit(self) -> dict:
        return {"think": self.rng.uniform(0.0, THINK_SPAN)}

    def _job(self, run: Run, unit: dict) -> dict:
        reply = run.call("wordcount", workers=self.nproc,
                         chunksize=self.chunksize, think=unit["think"])
        run.check(reply["ok"], "wordcount equals the merge_counts reference")
        return reply

    def bare(self, run: Run, unit: dict) -> float:
        return self._job(run, unit)["elapsed"]

    def debugged(self, run: Run, unit: dict, variant: str,
                 samples: Samples) -> float:
        attached: Dict[int, float] = {}

        def note(session) -> None:
            attached.setdefault(session.pid, perf_counter())

        arm = run.attach(on_new_session=note)
        try:
            samples.setup.append(arm["setup"])
            if variant == "metrics_off":
                run.call("metrics", enabled=False)
            reply = self._job(run, unit)
            if variant == "metrics_off":
                run.call("metrics", enabled=True)
            samples.job(variant, reply, run.sink.arm)
            for pid in reply["workers"]:
                seen = attached.get(pid)
                if run.check(seen is not None,
                             f"pool worker {pid} followed"):
                    samples.follow.append(seen - reply["t0"])
        finally:
            run.detach(arm["client"])
        return reply["elapsed"]


# -- forkchurn ------------------------------------------------------------------

class ForkChurn(Workload):
    """One child at a time, each followed before it is released."""

    name = "forkchurn"
    n_files = 64
    lines_per_file = 12
    cycles = 12

    def inputs(self) -> dict:
        from repro.corpus import CorpusProfile, generate_corpus
        from repro.mapreduce.wordcount import merge_counts
        documents = generate_corpus(CorpusProfile(
            name="perfbench-forkchurn", n_files=self.n_files,
            lines_per_file=self.lines_per_file, vocabulary_size=400,
            seed=self.seed))
        return {"documents": documents,
                "doc_counts": [merge_counts([Counter(text.split())])
                               for _path, text in documents]}

    def unit(self) -> dict:
        return {"cycles": [(self.rng.uniform(0.0, THINK_SPAN),
                            self.rng.randrange(self.n_files))
                           for _ in range(self.cycles)]}

    def _release(self, run: Run) -> float:
        reply = run.call("release")
        run.check(reply["ok"], "child counted its document and exited 0")
        return reply["cycle"]

    def bare(self, run: Run, unit: dict) -> float:
        total = 0.0
        for think, document in unit["cycles"]:
            run.call("fork", think=think, document=document)
            total += self._release(run)
        return total

    def debugged(self, run: Run, unit: dict, variant: str,
                 samples: Samples) -> float:
        from repro.util.errors import ReproError
        arm = run.attach()
        client = arm["client"]
        total = 0.0
        try:
            samples.setup.append(arm["setup"])
            for think, document in unit["cycles"]:
                forked = run.call("fork", think=think, document=document)
                pid = forked["pid"]
                try:
                    session = client.session_for_pid(
                        pid, timeout=FOLLOW_TIMEOUT)
                    followed = perf_counter()
                    status = session.request("status")
                    if run.check(session.pid == pid
                                 and status["pid"] == pid,
                                 f"child {pid} followed with its own pid"):
                        samples.follow.append(followed - forked["t0"])
                        samples.follow_detail.append(
                            {"pid": pid, "t0": forked["t0"],
                             "t1": followed})
                except ReproError as exc:
                    run.check(False, f"follow child {pid}: {exc}")
                    total += self._release(run)
                    break
                total += self._release(run)
        finally:
            run.detach(client)
        return total


# -- breakpoints ------------------------------------------------------------------

class Breakpoints(Workload):
    """Two armed breakpoints; one hit every ``stride`` documents."""

    name = "breakpoints"
    traced_variants = ("full", "quiet", "armed")
    #: Six stops in a job that armed tracing dominates: servicing them is
    #: about an eighth of the debugged job.  It is bound by cross-process
    #: wake-ups, so a larger share lets a slow period of the host move
    #: the ratio (one stop per 120 documents: 3.2 -> 3.65).
    n_files = 2160
    lines_per_file = 20
    stride = 360

    def __init__(self, seed: int, nproc: int):
        super().__init__(seed, nproc)
        self.stop_line = jobcode.marker_line("stop line")
        self.never_line = jobcode.marker_line("never line")

    def inputs(self) -> dict:
        from repro.corpus import CorpusProfile, generate_corpus
        from repro.mapreduce.wordcount import merge_counts
        documents = generate_corpus(CorpusProfile(
            name="perfbench-breakpoints", n_files=self.n_files,
            lines_per_file=self.lines_per_file, vocabulary_size=1500,
            seed=self.seed))
        return {"documents": documents,
                "reference": merge_counts(Counter(text.split())
                                          for _path, text in documents)}

    def unit(self) -> dict:
        blocks = self.n_files // self.stride
        return {"stop_at": [block * self.stride
                            + self.rng.randrange(self.stride)
                            for block in range(blocks)]}

    def _finish(self, run: Run, reply: dict) -> float:
        run.check(reply["ok"], "document counts equal the "
                               "merge_counts reference")
        return reply["elapsed"]

    def bare(self, run: Run, unit: dict) -> float:
        return self._finish(run, run.call("count", stop_at=unit["stop_at"]))

    def debugged(self, run: Run, unit: dict, variant: str,
                 samples: Samples) -> float:
        source = jobcode.SOURCE_FILE
        breakpoints = {"full": [(source, self.stop_line),
                                (source, self.never_line)],
                       "quiet": [],
                       "armed": [(source, self.never_line)]}[variant]
        arm = run.attach(breakpoints=breakpoints)
        try:
            samples.setup.append(arm["setup"])
            samples.follow.append(arm["follow"])
            if variant == "full":
                reply = self._serve_stops(run, arm, unit["stop_at"], samples)
            else:
                reply = run.call("count", stop_at=unit["stop_at"])
            samples.job(variant, reply, run.sink.arm)
        finally:
            run.detach(arm["client"])
        return self._finish(run, reply)

    def _serve_stops(self, run: Run, arm: dict, stop_at: list,
                     samples: Samples) -> dict:
        """stack, eval and continue at each stop, checking each answer."""
        from repro.util.errors import ReproError
        from repro.util.ids import UEId
        session = arm["session"]
        view = arm["client"].view_for(
            UEId(run.debuggee_pid, session.main_thread), session=session)
        marker = view.stop_marker
        run.send("count", stop_at=stop_at)
        resumed: Optional[float] = None
        for index in stop_at:
            try:
                capture = view.wait_stopped_after(marker,
                                                  timeout=FOLLOW_TIMEOUT)
                stopped = perf_counter()
                if resumed is not None:
                    samples.stop_ms.append((stopped - resumed) * 1000.0)
                marker = view.stop_marker
                top = capture.top
                run.check(top is not None and top.file == jobcode.SOURCE_FILE
                          and top.line == self.stop_line,
                          f"stop {index} reported at the stop line")
                t0 = perf_counter()
                stack = view.stack()
                run.check(stack.top is not None
                          and stack.top.line == self.stop_line
                          and stack.top.function == "checkpoint",
                          f"stack at stop {index} tops at checkpoint")
                value = view.evaluate("index")
                run.check(value == {"ok": True, "value": repr(index)},
                          f"eval at stop {index} returned {value!r}")
                resumed = perf_counter()
                view.cont()
                samples.stop_ops.append((t0, perf_counter()))
            except ReproError as exc:
                run.check(False, f"servicing stop {index}: {exc}")
                break
        # After a failure no stop is serviced: each one left parks the UE
        # until PARK_TIMEOUT frees it, and the job then finishes.
        return run.recv(timeout=len(stop_at) * PARK_TIMEOUT + 30.0)


WORKLOADS: Dict[str, Callable[[int, int], Workload]] = {
    "wordcount": WordCount,
    "forkchurn": ForkChurn,
    "breakpoints": Breakpoints,
}

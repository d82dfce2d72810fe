"""Low-intrusion sampling profiler.

Section 7 measures what *tracing* costs; this module is the
complementary tool built on the other interpreter facility the debugger
already uses, ``sys._current_frames()``: a sampler thread periodically
snapshots every UE's stack and aggregates where time is spent — without
installing any trace function, so the debuggee runs at full speed
(the Heisenberg concern of §3, minimised).

The output is per-UE and per-frame inclusive/self sample counts, in the
same UE vocabulary as the rest of the debugger, so a client can show
"where is this worker spending its time" next to "where is it stopped".
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..util import locks
from ..util.errors import TraceError
from ..util.ids import UEId
from .frames import current_frames

#: (file, line-of-function, function-name) — one profile node.
FrameKey = Tuple[str, int, str]


@dataclass
class UEProfile:
    """Aggregated samples for one UE."""

    samples: int = 0
    #: frame → times seen anywhere on the stack (inclusive)
    inclusive: Dict[FrameKey, int] = field(default_factory=dict)
    #: frame → times seen at the top of the stack (self time)
    self_counts: Dict[FrameKey, int] = field(default_factory=dict)

    def hottest(self, n: int = 10,
                by_self: bool = True) -> List[Tuple[FrameKey, int]]:
        counts = self.self_counts if by_self else self.inclusive
        return sorted(counts.items(), key=lambda kv: -kv[1])[:n]


class SamplingProfiler:
    """Samples all threads of this process at a fixed interval."""

    def __init__(self, interval: float = 0.005,
                 skip_debugger_threads: bool = True,
                 max_depth: int = 64):
        if interval <= 0:
            raise TraceError("sampling interval must be positive")
        self.interval = interval
        self.skip_debugger_threads = skip_debugger_threads
        self.max_depth = max_depth
        self._lock = locks.Lock()
        self._profiles: Dict[UEId, UEProfile] = {}
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        #: sweeps that recorded at least one UE.  Passes where every
        #: thread was skipped (all debugger infra) do NOT count here —
        #: they would inflate any rate/share arithmetic — and are
        #: tallied separately in :attr:`skipped_passes`.
        self.total_samples = 0
        self.skipped_passes = 0
        #: sampling-wall bookkeeping for the achieved-rate report
        self._started_mono: Optional[float] = None
        self._elapsed = 0.0

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            raise TraceError("profiler already running")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="dionea-sampler", daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 2.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- sampling ---------------------------------------------------------------

    def _debugger_tids(self) -> set:
        return {t.ident for t in threading.enumerate()
                if t.name.startswith("dionea-")}

    def _run(self) -> None:
        from ..util.ids import untrace_current_thread
        untrace_current_thread()
        my_tid = threading.get_ident()
        pid = os.getpid()
        # Schedule against a monotonic deadline, not "interval after each
        # pass": sleeping a full interval *after* a non-trivial sampling
        # pass makes the real period interval + pass-cost, so the
        # achieved rate silently drifts below the requested one.  With a
        # deadline, pass cost eats into the wait instead of extending it;
        # if a pass overruns whole periods, the missed slots are skipped
        # (never bunched) and the achieved-rate report shows the truth.
        start = time.monotonic()
        deadline = start + self.interval
        with self._lock:
            self._started_mono = start
        while not self._stop.is_set():
            skip = self._debugger_tids() if self.skip_debugger_threads \
                else set()
            skip.add(my_tid)
            frames = current_frames()
            with self._lock:
                recorded = 0
                for tid, frame in frames.items():
                    if tid in skip:
                        continue
                    self._record(UEId(pid, tid), frame)
                    recorded += 1
                if recorded:
                    self.total_samples += 1
                else:
                    self.skipped_passes += 1
                self._elapsed = time.monotonic() - start
            now = time.monotonic()
            if deadline <= now:  # overran: jump past the missed slots
                missed = int((now - deadline) / self.interval) + 1
                deadline += missed * self.interval
            self._stop.wait(deadline - now)
            deadline += self.interval
        with self._lock:
            self._elapsed = time.monotonic() - start

    def _record(self, ue: UEId, frame) -> None:
        profile = self._profiles.get(ue)
        if profile is None:
            profile = UEProfile()
            self._profiles[ue] = profile
        profile.samples += 1
        seen = set()
        depth = 0
        top = True
        while frame is not None and depth < self.max_depth:
            code = frame.f_code
            key = (code.co_filename, code.co_firstlineno, code.co_name)
            if top:
                profile.self_counts[key] = \
                    profile.self_counts.get(key, 0) + 1
                top = False
            if key not in seen:  # recursion counts once per sample
                seen.add(key)
                profile.inclusive[key] = \
                    profile.inclusive.get(key, 0) + 1
            frame = frame.f_back
            depth += 1

    # -- results -------------------------------------------------------------------

    def profiles(self) -> Dict[UEId, UEProfile]:
        with self._lock:
            return dict(self._profiles)

    def profile_for(self, ue: UEId) -> UEProfile:
        with self._lock:
            return self._profiles.get(ue, UEProfile())

    @property
    def achieved_rate_hz(self) -> float:
        """Real sweeps/second over the sampling wall (vs. the requested
        ``1 / interval``); the drift the deadline scheduler bounds."""
        with self._lock:
            sweeps = self.total_samples + self.skipped_passes
            elapsed = self._elapsed
        if elapsed <= 0:
            return 0.0
        return sweeps / elapsed

    def reset(self) -> None:
        with self._lock:
            self._profiles.clear()
            self.total_samples = 0
            self.skipped_passes = 0
            self._elapsed = 0.0

    def render(self, top: int = 8) -> str:
        """Flat per-UE report, hottest self-time frames first."""
        lines: List[str] = []
        with self._lock:
            profiles = dict(self._profiles)
            total = self.total_samples
        lines.append(f"sampling profile: {total} sweeps, "
                     f"interval {self.interval * 1000:.1f} ms "
                     f"(requested {1.0 / self.interval:.1f} Hz, "
                     f"achieved {self.achieved_rate_hz:.1f} Hz)")
        for ue in sorted(profiles):
            profile = profiles[ue]
            lines.append(f"{ue}: {profile.samples} samples")
            for (file, _lineno, func), count in profile.hottest(top):
                share = 100.0 * count / max(1, profile.samples)
                lines.append(f"    {share:5.1f}%  {func} "
                             f"({os.path.basename(file)})")
        return "\n".join(lines)

    def to_wire(self, top: int = 20) -> dict:
        """JSON-ready summary for the `profile` debug command."""
        out = {}
        for ue, profile in self.profiles().items():
            out[str(ue)] = {
                "samples": profile.samples,
                "hottest": [
                    {"file": file, "function": func, "line": line,
                     "self": count,
                     "inclusive": profile.inclusive.get(
                         (file, line, func), 0)}
                    for (file, line, func), count in profile.hottest(top)
                ],
            }
        return {"total_sweeps": self.total_samples,
                "skipped_passes": self.skipped_passes,
                "interval_ms": self.interval * 1000,
                "requested_hz": 1.0 / self.interval,
                "achieved_hz": round(self.achieved_rate_hz, 2),
                "profiles": out}

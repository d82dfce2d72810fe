"""Lock-light metrics registry: counters, gauges, fixed-bucket histograms.

The paper's §3 low-intrusion rule applies to the debugger's *own*
telemetry as hard as it applies to the debuggee's: a metrics layer that
locks, allocates or does I/O on the hot path would perturb exactly the
schedules it is supposed to observe.  The registry therefore follows the
same discipline as the event ring (:mod:`repro.obs.spans`):

* **per-thread shards** — every writing thread owns a private shard
  (plain dicts it alone mutates), so increments and histogram observes
  touch no lock and contend with nobody;
* **merge on snapshot** — the registry lock is taken only when a shard
  is born and when a snapshot merges all shards, both off the hot path;
  a shard's birth also folds the shards of exited threads into one
  retired shard, so a process that starts and stops threads keeps one
  shard per live thread plus one;
* **no I/O, bounded allocation** — counters are dict slots, histograms
  are fixed bucket arrays sized at first observe; nothing is formatted
  or written until a `telemetry` command asks.

Fork-awareness (§5.3's stale-metadata problem, applied to telemetry):
a forked child inherits the parent's shards, which describe threads
that no longer exist and a pid that is no longer ours.
:meth:`MetricsRegistry.reset_after_fork` drops every inherited shard and
re-labels the registry with the child's pid and session epoch, so
per-process numbers stay honest across the fork chain.
"""

from __future__ import annotations

import bisect
import os
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..util import locks

#: Default histogram bucket upper bounds, in seconds: 1 µs .. 30 s,
#: roughly x3 per step.  Chosen to straddle every duration this debugger
#: produces, from a dispatch tick to a parked UE's think time.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3,
    1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0)

#: Global on/off switch, checked first on every hot-path call so the
#: metrics-off arm of ``make bench-json`` measures a true no-op.
_enabled = True


def set_enabled(on: bool) -> None:
    """Globally enable/disable metric recording (snapshot still works)."""
    global _enabled
    _enabled = bool(on)


def enabled() -> bool:
    return _enabled


def labeled(name: str, **labels: Any) -> str:
    """Fold labels into a metric key: ``name{k=v,k2=v2}`` (sorted)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class _Histogram:
    """One thread's view of one histogram: bucket counts + sum + count."""

    __slots__ = ("bounds", "counts", "total", "n", "vmin", "vmax")

    def __init__(self, bounds: Sequence[float]):
        self.bounds = bounds
        # one slot per bound plus the +Inf overflow slot
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.n = 0
        self.vmin = float("inf")
        self.vmax = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += value
        self.n += 1
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value

    def fold(self, other: "_Histogram") -> None:
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.total += other.total
        self.n += other.n
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)


class _Shard:
    """Per-thread storage: only the owning thread ever writes here.

    *owner* is that thread; the retired shard, which holds the totals
    of exited threads, has none."""

    __slots__ = ("counters", "hists", "owner")

    def __init__(self, owner: Optional[threading.Thread] = None) -> None:
        self.counters: Dict[str, float] = {}
        self.hists: Dict[str, _Histogram] = {}
        self.owner = owner

    def fold(self, other: "_Shard") -> None:
        """Add *other*'s values into this shard."""
        for key, value in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + value
        for key, hist in other.hists.items():
            mine = self.hists.get(key)
            if mine is None:
                mine = self.hists[key] = _Histogram(hist.bounds)
            mine.fold(hist)


class MetricsRegistry:
    """Process-wide metrics with per-thread shards merged on snapshot."""

    def __init__(self, labels: Optional[Dict[str, Any]] = None):
        self._lock = locks.Lock()
        self._local = threading.local()
        self._shards: List[_Shard] = []
        self._gauges: Dict[str, float] = {}
        self._gauge_fns: Dict[str, Callable[[], float]] = {}
        self._hist_bounds: Dict[str, Tuple[float, ...]] = {}
        self.labels: Dict[str, Any] = dict(labels or {})
        self.labels.setdefault("pid", os.getpid())
        self.labels.setdefault("epoch", 0)

    # -- hot path ---------------------------------------------------------------

    def _shard(self) -> _Shard:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = _Shard(threading.current_thread())
            with self._lock:
                self._shards = self._retire_exited(self._shards)
                self._shards.append(shard)
            self._local.shard = shard
        return shard

    @staticmethod
    def _retire_exited(shards: List[_Shard]) -> List[_Shard]:
        """Fold the shards of exited threads into one retired shard.

        Copy-on-write: a snapshot merging outside the lock may still be
        reading the old shards, so a new retired shard replaces them.
        """
        live: List[_Shard] = []
        gone: List[_Shard] = []
        for shard in shards:
            alive = shard.owner is not None and shard.owner.is_alive()
            (live if alive else gone).append(shard)
        if len(gone) < 2:
            return shards  # one non-live shard is already the retired one
        retired = _Shard()
        for shard in gone:
            retired.fold(shard)
        return [retired] + live

    def inc(self, name: str, n: float = 1, **labels: Any) -> None:
        """Add *n* to counter *name*.  Lock-free for the calling thread."""
        if not _enabled:
            return
        counters = self._shard().counters
        key = labeled(name, **labels) if labels else name
        counters[key] = counters.get(key, 0) + n

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Record *value* into histogram *name*.  Lock-free."""
        if not _enabled:
            return
        hists = self._shard().hists
        key = labeled(name, **labels) if labels else name
        hist = hists.get(key)
        if hist is None:
            hist = _Histogram(self._hist_bounds.get(name, DEFAULT_BOUNDS))
            hists[key] = hist
        hist.observe(value)

    # -- configuration / gauges (not hot) -----------------------------------------

    def declare_histogram(self, name: str,
                          bounds: Sequence[float]) -> None:
        """Override the bucket bounds used for *name* (before first use)."""
        self._hist_bounds[name] = tuple(sorted(bounds))

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        if not _enabled:
            return
        with self._lock:
            self._gauges[labeled(name, **labels)] = value

    def register_gauge(self, name: str, fn: Callable[[], float]) -> None:
        """A callback gauge, evaluated at snapshot time — the zero-cost
        way to expose an existing hot-path counter (e.g. the trace
        engine's ``event_count``) without touching its fast path."""
        with self._lock:
            self._gauge_fns[name] = fn

    def unregister_gauge(self, name: str) -> None:
        with self._lock:
            self._gauge_fns.pop(name, None)
            self._gauges.pop(name, None)

    # -- snapshot / reset ----------------------------------------------------------

    def snapshot(self, reset: bool = False) -> Dict[str, Any]:
        """Merge every shard into one JSON-ready view.

        With ``reset``, counters and histograms are drained (shards are
        dropped; writers re-create theirs on next use).  Gauges and
        labels persist.
        """
        with self._lock:
            shards = list(self._shards)
            if reset:
                self._shards = []
                self._local = threading.local()
            gauges = dict(self._gauges)
            gauge_fns = dict(self._gauge_fns)
            labels = dict(self.labels)
        merged = _Shard()
        for shard in shards:
            merged.fold(shard)
        hists = {key: {"bounds": list(hist.bounds),
                       "counts": hist.counts,
                       "sum": hist.total,
                       "count": hist.n,
                       "min": hist.vmin if hist.n else 0.0,
                       "max": hist.vmax if hist.n else 0.0}
                 for key, hist in merged.hists.items()}
        for name, fn in gauge_fns.items():
            try:
                gauges[name] = float(fn())
            except Exception:  # noqa: BLE001 - a dead gauge must not
                pass           # poison the whole snapshot
        return {"labels": labels, "counters": merged.counters,
                "gauges": gauges, "histograms": hists}

    def reset(self) -> None:
        """Drop all recorded values (counters, histograms, set gauges)."""
        with self._lock:
            self._shards = []
            self._local = threading.local()
            self._gauges.clear()

    def reset_after_fork(self,
                         labels: Optional[Dict[str, Any]] = None) -> None:
        """Child fork handler: drop inherited shards, adopt child labels.

        The inherited shards describe the parent's threads (which do not
        exist here — §5.1) and the parent's pid; keeping them would be
        the telemetry version of the Fig. 4 stale-metadata bug.
        """
        self._shards = []
        self._local = threading.local()
        self._gauges = {}
        self.labels["pid"] = os.getpid()
        self.labels["epoch"] = int(self.labels.get("epoch", 0)) + 1
        if labels:
            self.labels.update(labels)


#: The process-global registry every subsystem instruments into.  Forked
#: children reset it via the obs fork handler (repro.core.handlers).
REGISTRY = MetricsRegistry()


def inc(name: str, n: float = 1, **labels: Any) -> None:
    REGISTRY.inc(name, n, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    REGISTRY.observe(name, value, **labels)


def set_gauge(name: str, value: float, **labels: Any) -> None:
    REGISTRY.set_gauge(name, value, **labels)


def register_gauge(name: str, fn: Callable[[], float]) -> None:
    REGISTRY.register_gauge(name, fn)

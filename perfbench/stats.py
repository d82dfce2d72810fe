"""Order statistics and the machine-speed probe."""

from __future__ import annotations

from time import perf_counter
from typing import List, Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile; 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def _reference_loop() -> int:
    total = 0
    for i in range(60_000):
        total += (i * i) % 7
    return total


def cpu_ref_ms() -> float:
    """Median of seven timings of a fixed pure-Python loop, in ms.

    An environment record, not a metric: it shows a slow period on a
    shared host next to the numbers that period affected.
    """
    samples: List[float] = []
    for _ in range(7):
        t0 = perf_counter()
        _reference_loop()
        samples.append((perf_counter() - t0) * 1000.0)
    return median(samples)


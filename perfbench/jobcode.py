"""Debuggee code the ``breakpoints`` workload runs and stops in.

A pure-Python per-document word count on the debuggee's main thread,
the same shape as ``benchmarks/bench_trace.py``.  ``checkpoint`` runs
once for each document listed in the seeded stop schedule and holds the
breakpoint that is hit; ``never_called`` holds the breakpoint that is
armed but never reached.  The two breakpoint lines are found by their
marker comments, so editing this file cannot silently move them.
"""

from __future__ import annotations

import os


def count_documents(documents, stop_at):
    counts = {}
    for index, (_path, text) in enumerate(documents):
        for word in text.split():
            counts[word] = counts.get(word, 0) + 1
        if index in stop_at:
            checkpoint(index)
    return counts


def checkpoint(index):
    return index  # perfbench: stop line


def never_called():
    return None  # perfbench: never line


def count_words(text):
    """The forkchurn child's small fixed task: one document's counts."""
    counts = {}
    for word in text.split():
        counts[word] = counts.get(word, 0) + 1
    return counts


SOURCE_FILE = os.path.abspath(__file__)


def marker_line(marker: str) -> int:
    """1-based line number of the line carrying ``# perfbench: <marker>``."""
    with open(SOURCE_FILE, encoding="utf-8") as fh:
        for lineno, text in enumerate(fh, start=1):
            if text.rstrip().endswith(f"# perfbench: {marker}"):
                return lineno
    raise LookupError(f"no '{marker}' marker in {SOURCE_FILE}")

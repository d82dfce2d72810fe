"""The repository's benchmark: Dionea's cost, end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload wordcount --seed 1 --seconds 20 --trace 0

Three workloads (``wordcount``, ``forkchurn``, ``breakpoints``; see
``perfbench/README.md``).  The driver process is the debug client; it
forks one debuggee process before any client thread starts and drives
it through order-alternated bare/debugged pairs for ``--seconds``.

``--trace 0`` prints the end-to-end metrics: every one is a ratio
against a bare run interleaved in the same run, or a latency set mainly
by the client's port-file poll timer.  ``--trace 1`` spends half the
time on an untraced pass and half on a traced pass that wraps the public
functions of each ``src/repro`` layer, and prints the per-layer table,
its reconciliation against the end-to-end numbers and the tracing cost.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every operation
is checked; a mismatch or a missed deadline counts as failed, and any
failure makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback

# No byte-code caches: the run leaves nothing behind in the checkout.
sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("wordcount", "forkchurn", "breakpoints"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    # The black box would write outside the checkout; it is off unless
    # this variable names a directory.
    os.environ.pop("DIONEA_BLACKBOX_DIR", None)

    from perfbench.driver import run_benchmark

    rundir = os.path.join(ROOT, f".perfbench-run-{os.getpid()}")
    os.mkdir(rundir)
    try:
        result = run_benchmark(args, ROOT, rundir)
    except Exception:  # noqa: BLE001 - a crashed run prints no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

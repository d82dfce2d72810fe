"""Trace-dispatch overhead benchmark: what does an idle debugger cost?

Three experiments, one JSON artifact (``BENCH_trace.json``):

1. **The §7 overhead pair** (normal vs attached-debugger) on the
   word-count workload — the paper's headline number, re-measured under
   the per-code fast path and the armed/disarmed hook lifecycle.  The
   acceptance bound is ≤ 25% (the pre-fastpath engine sat at ~46%).
2. **The no-breakpoint attach arm**: a single-process, main-thread
   compute loop timed normal vs attached.  This isolates the engine's
   quiet cost on the thread that used to pay the most (on CPython 3.11+
   a mere per-thread trace hook disables the specializing interpreter);
   with the engine's main-thread demotion the hook is physically gone
   while quiet.  The acceptance bound is ≤ 15%
   (Makefile-gated).
3. **Armed-with-irrelevant-breakpoint** (informational): the same
   compute loop with one breakpoint set in a file that never executes.
   The engine is armed — the hook is back, the specializer is off — but
   every call resolves through the LineTable probe
   (``trace.fastpath_hits``).  This is the honest price of *being about
   to debug* on 3.11.

Best-of-N timing on all comparisons: the minimum is the run least
perturbed by the OS, which is the quantity a fixed-cost bound is about.

Usage::

    PYTHONPATH=src python benchmarks/bench_trace.py --out BENCH_trace.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, os.path.dirname(HERE))

from benchmarks.harness import (  # noqa: E402
    attached_debugger,
    measure_arm,
    overhead_pair,
)
from repro.corpus import generate_corpus, get_profile  # noqa: E402


def _count_words(documents) -> dict:
    """Pure-Python word count in the calling thread — the §7 workload's
    bottleneck shape, minus the fork/IPC machinery, so the measured
    delta is the trace engine's and nothing else's."""
    counts: dict = {}
    for _name, text in documents:
        for word in text.split():
            counts[word] = counts.get(word, 0) + 1
    return counts


def _arm_dict(arm) -> dict:
    return {"times": arm.times, "best": arm.best, "mean": arm.mean}


def attach_arm(profile_name: str, repeats: int) -> dict:
    """Experiment 2: normal vs attached, no breakpoints, main thread."""
    documents = generate_corpus(get_profile(profile_name))

    def run():
        return _count_words(documents)

    run()  # warm (allocator, string interning) outside both arms
    normal = measure_arm(run, repeats)
    with attached_debugger(program=f"trace-bench-{profile_name}") as dbg:
        engine = dbg.server.engine
        run()  # let the quiet main thread demote before timing
        debugging = measure_arm(run, repeats)
        state = {
            "fastpath": engine.fastpath,
            "main_demoted": engine._main_demoted,  # noqa: SLF001
            "event_count": engine.event_count,
        }
    overhead = 100.0 * (debugging.best - normal.best) / normal.best
    return {
        "profile": profile_name,
        "repeats": repeats,
        "normal": _arm_dict(normal),
        "debugging": _arm_dict(debugging),
        "overhead_percent": overhead,
        "engine": state,
    }


def armed_irrelevant_arm(profile_name: str, repeats: int) -> dict:
    """Experiment 3: one breakpoint that can never hit (informational)."""
    documents = generate_corpus(get_profile(profile_name))

    def run():
        return _count_words(documents)

    run()
    normal = measure_arm(run, repeats)
    with attached_debugger(program=f"trace-armed-{profile_name}") as dbg:
        engine = dbg.server.engine
        bp = engine.breakpoints.add("/dionea/never/executed.py", 1)
        run()
        hits_before = engine.fastpath_hits
        debugging = measure_arm(run, repeats)
        counters = {
            "fastpath_hits": engine.fastpath_hits,
            "fastpath_hits_during_arm": engine.fastpath_hits - hits_before,
            "local_installs": engine.local_installs,
            "linetable_generation": engine.linetable.generation,
        }
        engine.breakpoints.remove(bp.id)
    overhead = 100.0 * (debugging.best - normal.best) / normal.best
    return {
        "profile": profile_name,
        "repeats": repeats,
        "normal": _arm_dict(normal),
        "debugging": _arm_dict(debugging),
        "overhead_percent": overhead,
        "counters": counters,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(
        os.path.dirname(HERE), "BENCH_trace.json"))
    parser.add_argument("--profile", default="dionea",
                        help="corpus profile for all experiments")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--pair-budget-percent", type=float, default=25.0,
                        help="fail if the §7 pair's debugging overhead "
                             "exceeds this")
    parser.add_argument("--attach-budget-percent", type=float, default=15.0,
                        help="fail if the no-breakpoint attach arm "
                             "exceeds this")
    args = parser.parse_args(argv)

    print(f"bench-trace: §7 overhead pair ({args.profile}, "
          f"{args.workers} workers, best of {args.repeats}) ...",
          flush=True)
    pair = overhead_pair(args.profile, n_workers=args.workers,
                         repeats=args.repeats)
    print(pair.render(paper_label="10-20% band"))

    print("bench-trace: no-breakpoint attach arm (main thread) ...",
          flush=True)
    attach = attach_arm(args.profile, args.repeats)
    print(f"  normal:    best {attach['normal']['best']:8.3f}s")
    print(f"  attached:  best {attach['debugging']['best']:8.3f}s")
    print(f"  overhead:  {attach['overhead_percent']:+6.2f}% "
          f"(budget {args.attach_budget_percent:.1f}%; "
          f"demoted={attach['engine']['main_demoted']})")

    print("bench-trace: armed-with-irrelevant-breakpoint arm ...",
          flush=True)
    armed = armed_irrelevant_arm(args.profile, args.repeats)
    print(f"  overhead:  {armed['overhead_percent']:+6.2f}% "
          f"(informational; fastpath hits during arm: "
          f"{armed['counters']['fastpath_hits_during_arm']})")

    pair_ok = pair.overhead_percent <= args.pair_budget_percent
    attach_ok = attach["overhead_percent"] <= args.attach_budget_percent
    document = {
        "benchmark": "trace-dispatch",
        "fastpath": attach["engine"]["fastpath"],
        "section7_pair": {
            "profile": pair.profile,
            "workers": pair.n_workers,
            "corpus": pair.corpus,
            "normal": _arm_dict(pair.normal),
            "debugging": _arm_dict(pair.debugging),
            "overhead_percent": pair.overhead_percent,
            "budget_percent": args.pair_budget_percent,
        },
        "attach_arm": dict(attach,
                           budget_percent=args.attach_budget_percent),
        "armed_irrelevant": armed,
        "gates": {
            "section7_pair_ok": pair_ok,
            "attach_arm_ok": attach_ok,
        },
        "within_budget": pair_ok and attach_ok,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=2)
        fh.write("\n")
    print(f"bench-trace: wrote {args.out}")

    if not pair_ok:
        print(f"bench-trace: FAIL — §7 debugging overhead "
              f"{pair.overhead_percent:.2f}% "
              f"(> {args.pair_budget_percent:.1f}% budget)",
              file=sys.stderr)
    if not attach_ok:
        print(f"bench-trace: FAIL — no-breakpoint attach arm costs "
              f"{attach['overhead_percent']:.2f}% "
              f"(> {args.attach_budget_percent:.1f}% budget)",
              file=sys.stderr)
    return 0 if document["within_budget"] else 1


if __name__ == "__main__":
    sys.exit(main())

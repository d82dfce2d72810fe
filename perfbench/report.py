"""Metric computation and the printed table.

``BENCHMARK.json`` is the metric catalogue: the names and units a run
reports, in order, and in each workload's ``why`` the arrows from
per-layer to end-to-end metrics.  The functions here compute
``{name: (value, sample count)}``; the driver reports the names the
catalogue lists.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from .stats import median, quantile
from .workloads import RSS_PAIRS

Metrics = Dict[str, Tuple[float, int]]


def load_catalogue(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(samples) -> Metrics:
    ratios = samples.ratios("full")
    follow = [f * 1000.0 for f in samples.follow]
    return {
        "overhead": (median(ratios), len(ratios)),
        "setup_s": (median(samples.setup), len(samples.setup)),
        "follow_ms.p50": (quantile(follow, 0.5), len(follow)),
        "follow_ms.p90": (quantile(follow, 0.9), len(follow)),
        "rss_mb": (samples.rss_mb, 1),
    }


# -- traced run ---------------------------------------------------------------

class Records:
    """Span records of the traced pass, indexed for the table."""

    def __init__(self, records: List[dict], root_pid: int):
        self.root_pid = root_pid
        # Only the full debugged arms describe the workload as measured;
        # the other variants feed their own ratios.
        self.full = [r for r in records
                     if r["arm"].startswith("debugged:full:")]

    def of(self, kind: str, **match) -> List[dict]:
        return [r for r in self.full if r["k"] == kind
                and all(r.get(k) == v for k, v in match.items())]

    def spans(self, kind: str, scale: float, **match) -> List[float]:
        return [(r["t1"] - r["t0"]) * scale for r in self.of(kind, **match)]


def _spread(metrics: Metrics, stem: str, values: List[float]) -> None:
    metrics[f"{stem}.p50"] = (quantile(values, 0.5), len(values))
    metrics[f"{stem}.p90"] = (quantile(values, 0.9), len(values))


def _follow_spans(rec: Records, driver: List[dict],
                  root_follow: bool) -> Dict[tuple, dict]:
    """Per-follow blocking-path spans, keyed by ``(arm, pid)``.

    Path: prepare (parent) → kernel fork (to the child's return) →
    phase C up to the announce → pickup (announce → ``attach``
    entered) → attach (dial + hello).  The root process of the
    breakpoints workload is not forked: its path starts at
    ``Dionea.start`` and the fork spans are absent.
    """
    attaches = {(r["arm"], r["port"]): r for r in driver
                if r["k"] == "attach"}
    prepares = sorted(rec.of("prepare", pid=rec.root_pid),
                      key=lambda r: r["t0"])
    out = {}
    for announce in rec.of("announce"):
        pid = announce["pid"]
        if (pid == rec.root_pid) != root_follow:
            continue
        attach = attaches.get((announce["arm"], announce["port"]))
        if attach is None:
            continue
        entry = {"pickup": attach["t0"] - announce["t1"],
                 "attach": attach["t1"] - attach["t0"]}
        if pid != rec.root_pid:
            kfork = [r for r in rec.of("kfork", pid=pid) if r["child"]]
            child = rec.of("child", pid=pid)
            if not kfork or not child:
                continue
            before = [r for r in prepares if r["t1"] <= kfork[0]["t0"]]
            entry["prepare"] = (before[-1]["t1"] - before[-1]["t0"]) \
                if before else 0.0
            entry["kernel_fork"] = kfork[0]["t1"] - kfork[0]["t0"]
            entry["phase_c"] = announce["t1"] - child[0]["t0"]
        out[(announce["arm"], pid)] = entry
    return out


def _wire(rec: Records, driver: List[dict]) -> Dict[str, List[float]]:
    """Independently timed wire per verb: client send → server handler
    entered, plus server handler left → client reactor received."""
    sends = {(r["arm"], r["peer"], r["id"]): r for r in driver
             if r["k"] == "send"}
    recvs = {(r["arm"], r["peer"], r["id"]): r for r in driver
             if r["k"] == "recv"}
    wire: Dict[str, List[float]] = {}
    for cmd in rec.of("cmd"):
        key = (cmd["arm"], cmd["pid"], cmd["id"])
        send, recv = sends.get(key), recvs.get(key)
        if send is None or recv is None:
            continue
        wire.setdefault(cmd["verb"], []).append(
            (cmd["t0"] - send["t0"]) + (recv["t0"] - cmd["t1"]))
    return wire


def _unattributed(workload, rec: Records, samples, driver: List[dict],
                  follow: dict) -> List[float]:
    """Op latency minus the layer spans on its blocking path, in ms."""
    if workload.name == "forkchurn":
        by_pid = {pid: spans for (_arm, pid), spans in follow.items()}
        out = []
        for detail in samples.follow_detail:
            spans = by_pid.get(detail["pid"])
            if spans is not None and "phase_c" in spans:
                out.append((detail["t1"] - detail["t0"]
                            - sum(spans.values())) * 1000.0)
        return out
    if workload.name == "breakpoints":
        # One serviced stop: stack + eval + resume round trips, each a
        # server handler plus its wire, i.e. client send → reactor receive.
        recvs = {(r["arm"], r["peer"], r["id"]): r for r in driver
                 if r["k"] == "recv"}
        sends = [r for r in driver if r["k"] == "send"
                 and r["arm"].startswith("debugged:full:")]
        out = []
        for t0, t1 in samples.stop_ops:
            covered = 0.0
            for send in sends:
                recv = recvs.get((send["arm"], send["peer"], send["id"]))
                if recv is not None and t0 <= send["t0"] <= t1:
                    covered += recv["t0"] - send["t0"]
            out.append((t1 - t0 - covered) * 1000.0)
        return out
    # wordcount: one debugged job minus pool start, the map phase (first
    # map submit → shuffle), the shuffle, the reduce phase (first reduce
    # submit → pool exit) and pool stop.
    out = []
    for job in samples.jobs.get("full", []):
        spans = [r for r in rec.full
                 if r["arm"] == job["arm"] and r["pid"] == rec.root_pid]

        def first(kind: str, func: Optional[str] = None) -> Optional[float]:
            stamps = [r["t0"] for r in spans if r["k"] == kind
                      and (func is None or r.get("func") == func)]
            return min(stamps) if stamps else None

        def total(kind: str) -> float:
            return sum(r["t1"] - r["t0"] for r in spans if r["k"] == kind)

        marks = (first("submit", "_map_chunk"), first("shuffle"),
                 first("submit", "_reduce_bucket"), first("pool_stop"))
        if None in marks:
            continue
        map_phase = marks[1] - marks[0]
        reduce_phase = marks[3] - marks[2]
        out.append((job["elapsed"] - total("pool_start") - map_phase
                    - total("shuffle") - reduce_phase - total("pool_stop"))
                   * 1000.0)
    return out


def layer_metrics(workload, traced, debuggee_records: List[dict],
                  driver: List[dict], run, root_pid: int,
                  e2e_untraced: Metrics, env: dict) -> Metrics:
    rec = Records(debuggee_records, root_pid)
    m: Metrics = {}
    _spread(m, "forkhooks.prepare_us", rec.spans("prepare", 1e6))
    _spread(m, "forkhooks.parent_us", rec.spans("parent", 1e6))
    _spread(m, "forkhooks.child_us", rec.spans("child", 1e6))
    _spread(m, "forkhooks.kernel_fork_us",
            rec.spans("kfork", 1e6, child=False))
    _spread(m, "core.start_ms", rec.spans("start", 1e3))
    _spread(m, "core.engine_reset_us", rec.spans("engine_reset", 1e6))
    _spread(m, "server.reinit_ms", rec.spans("reinit", 1e3))
    _spread(m, "util.announce_us", rec.spans("announce", 1e6))
    _spread(m, "obs.reset_us", rec.spans("obs_reset", 1e6))
    for verb in ("status", "stack", "eval", "resume", "set_break"):
        _spread(m, f"server.cmd_us.{verb}",
                rec.spans("cmd", 1e6, verb=verb))
    _spread(m, "server.emit_us", rec.spans("emit", 1e6))

    root_follow = workload.name == "breakpoints"
    follow = _follow_spans(rec, driver, root_follow)
    _spread(m, "client.pickup_ms",
            [f["pickup"] * 1e3 for f in follow.values()])
    _spread(m, "client.attach_ms",
            [f["attach"] * 1e3 for f in follow.values()])
    polls = [r for r in driver if r["k"] == "poll"
             and r["arm"].startswith("debugged:full:")]
    _spread(m, "client.poll_us",
            [(r["t1"] - r["t0"]) * 1e6 for r in polls])
    _spread(m, "util.portfile_records",
            [float(r["records"]) for r in polls])
    requests = [r for r in driver if r["k"] == "request"
                and r["arm"].startswith("debugged:full:")]
    wire = _wire(rec, [r for r in driver
                       if r["arm"].startswith("debugged:full:")])
    for verb in ("status", "stack", "eval", "resume", "set_break"):
        _spread(m, f"client.request_ms.{verb}",
                [(r["t1"] - r["t0"]) * 1e3 for r in requests
                 if r["verb"] == verb])
        _spread(m, f"client.wire_ms.{verb}",
                [w * 1e3 for w in wire.get(verb, [])])
    _spread(m, "client.stop_ms", traced.stop_ms)

    jobs = traced.jobs.get("full", [])
    for name in ("events", "fastpath_hits", "local_installs"):
        deltas = [j["counters"][name] for j in jobs if j.get("counters")]
        m[f"tracing.{name}"] = (median(deltas), len(deltas))
    for name, variant in (("quiet_ratio", "quiet"), ("armed_ratio", "armed")):
        ratios = traced.ratios(variant)
        m[f"tracing.{name}"] = (median(ratios), len(ratios))

    _spread(m, "mp.pool_start_ms", rec.spans("pool_start", 1e3))
    _spread(m, "mp.pool_stop_ms", rec.spans("pool_stop", 1e3))
    pairs = sum(len(p) for p in traced.pairs.values())
    grown = (traced.rss_end_mb - traced.rss_mb) * 1024.0
    m["core.rss_growth_kib_per_pair"] = (
        grown / (pairs - RSS_PAIRS) if pairs > RSS_PAIRS else 0.0,
        max(0, pairs - RSS_PAIRS))
    leaked = [j["leaked_fds"] for j in jobs if "leaked_fds" in j]
    m["mp.leaked_fds"] = (median(leaked), len(leaked))
    # Only wordcount's arms are map-reduce jobs.
    jobs_s = traced.pairs.get("full", []) \
        if workload.name == "wordcount" else []
    m["mapreduce.job_s.bare"] = (median([b for b, _d in jobs_s]),
                                 len(jobs_s))
    m["mapreduce.job_s.debugged"] = (median([d for _b, d in jobs_s]),
                                     len(jobs_s))
    off = traced.ratios("metrics_off")
    on = traced.ratios("full")
    m["obs.metrics_share"] = ((median(on) - median(off)) if off else 0.0,
                              len(off))

    residual = _unattributed(workload, rec, traced, driver, follow)
    m["bench.unattributed_ms"] = (median(residual), len(residual))
    for name, (value, n) in end_to_end(traced).items():
        m[f"bench.trace_cost.{name}"] = (value - e2e_untraced[name][0], n)
    m["bench.fail_ratio"] = (run.failed / max(1, run.attempted),
                             run.attempted)
    m["env.cpu_ref_ms"] = ((env["cpu_ref_ms.start"]
                            + env["cpu_ref_ms.end"]) / 2.0, 2)
    return m


# -- output ---------------------------------------------------------------------

def print_table(args, run, listed: List[dict], metrics: Metrics,
                env: dict, why: str) -> None:
    """The catalogue's metrics in its order, then the run's records."""
    mode = "traced (per-layer)" if args.trace else "untraced (end-to-end)"
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} {mode}")
    print(f"  why: {why}")
    for entry in listed:
        value, n = metrics[entry["name"]]
        print(f"  {entry['name']:<34} {value:14.6f} {entry['unit']:<6} "
              f"n={n}")
    fail_ratio = run.failed / max(1, run.attempted)
    print(f"  {'fail_ratio':<34} {fail_ratio:14.6f} ratio  "
          f"({run.failed} failed of {run.attempted} checked operations)")
    print(f"  {'env.cpu_ref_ms':<34} start {env['cpu_ref_ms.start']:.3f} "
          f"end {env['cpu_ref_ms.end']:.3f} ms (environment record)")
    for problem in run.problems:
        print(f"  FAILED: {problem}")

"""One benchmark run: fork the debuggee, measure, check, report."""

from __future__ import annotations

import os
import signal
import time
import traceback

from .channel import channel_pair
from .debuggee import Debuggee
from .layers import Sink, install_client, read_records
from .report import end_to_end, layer_metrics, load_catalogue, print_table
from .stats import cpu_ref_ms
from .workloads import WORKLOADS, Run, measure

TRACE_FILE = "spans.jsonl"


def _fork_debuggee(inputs: dict):
    """Fork the debuggee in its own process group; returns (pid, channel).

    The group lets the driver sweep the debuggee and everything it
    forked in one ``killpg`` if the run breaks down.
    """
    driver_end, debuggee_end = channel_pair()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.setpgid(0, 0)
            Debuggee(debuggee_end(), inputs).serve()
            status = 0
        except BaseException:  # noqa: BLE001 - report, then leave
            traceback.print_exc()
        finally:
            os._exit(status)
    try:
        os.setpgid(pid, pid)
    except PermissionError:
        pass  # the child already moved itself
    return pid, driver_end()


def _sweep_group(pgid: int) -> bool:
    """True if the debuggee's process group is already empty."""
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return True
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.waitpid(pgid, os.WNOHANG)
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.02)
    return False


def run_benchmark(args, root: str, rundir: str) -> dict:
    catalogue = load_catalogue(root)
    why = {w["name"]: w["why"]
           for w in catalogue["workloads"]}[args.workload]
    workload = WORKLOADS[args.workload](args.seed, os.cpu_count() or 2)
    cpu_start = cpu_ref_ms()
    inputs = workload.inputs()
    # Import both sides before the fork so neither arm pays for it.
    import repro.client  # noqa: F401
    import repro.core  # noqa: F401
    import repro.mapreduce.engine  # noqa: F401

    pid, channel = _fork_debuggee(inputs)
    sink = Sink()
    run = Run(channel, pid, rundir, sink)
    finished = None
    untraced = traced = None
    try:
        if args.trace:
            untraced = measure(run, workload, args.seconds / 2.0)
            run.call("trace", path=os.path.join(rundir, TRACE_FILE))
            client_patches = install_client(sink)
            try:
                traced = measure(run, workload, args.seconds / 2.0,
                                 variants=workload.traced_variants)
            finally:
                client_patches.undo()
                run.call("trace", path=None)
        else:
            untraced = measure(run, workload, args.seconds)
        finished = run.call("exit")
        _pid, status = os.waitpid(pid, 0)
        run.check(os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0,
                  "debuggee exited 0")
    finally:
        clean = _sweep_group(pid)
        channel.close()
    run.check(clean and finished["stragglers"] == 0,
              "every forked process was reaped")

    debuggee_records = []
    if args.trace:
        debuggee_records = read_records(os.path.join(rundir, TRACE_FILE))
        os.unlink(os.path.join(rundir, TRACE_FILE))
    leftovers = sorted(os.listdir(rundir))
    run.check(not leftovers, f"nothing left behind (found {leftovers})")
    cpu_end = cpu_ref_ms()

    e2e = end_to_end(untraced)
    env = {"cpu_ref_ms.start": cpu_start, "cpu_ref_ms.end": cpu_end}
    if args.trace:
        metrics = layer_metrics(workload, traced, debuggee_records,
                                sink.records, run, pid, e2e, env)
    else:
        metrics = e2e
    listed = catalogue["per_layer" if args.trace else "end_to_end"]
    print_table(args, run, listed, metrics, env, why)
    return {"correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                    "unit": m["unit"]} for m in listed}}

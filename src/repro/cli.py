"""Command-line entry points (paper section 6.1).

*"we start Dionea server issuing ... ``python dioneas.py
path/to/debuggee/python/program.py``; once Dionea server has been started
it waits until the client connects to it."*

Subcommands:

``dionea run PROGRAM [args...]``
    Run a Python program under a Dionea debug server in this process.
    Prints the port and rendezvous file, optionally waits for a client
    before executing the first line.

``dionea shell --portfile PATH | --connect HOST:PORT``
    Interactive client: attaches (and auto-attaches forked children via
    the port file), then reads shell commands from stdin.

``dionea corpus PROFILE --out DIR``
    Materialise one of the §7 benchmark corpora on disk.
"""

from __future__ import annotations

import argparse
import runpy
import sys
import time
from typing import List, Optional

from ._version import __version__
from .util.errors import CommandError, ReproError


def _cmd_run(args: argparse.Namespace) -> int:
    from .core.dionea import Dionea

    dionea = Dionea(program=args.program,
                    portfile_path=args.portfile,
                    disturb=args.disturb,
                    capture_io=args.capture_io,
                    park_timeout=args.park_timeout)
    dionea.start()
    print(f"dionea: serving pid {dionea.server.session.pid} "
          f"on port {dionea.port}", file=sys.stderr)
    print(f"dionea: port file {dionea.portfile.path}", file=sys.stderr)
    if args.wait_client:
        print("dionea: waiting for a client ...", file=sys.stderr)
        while not dionea.server.client_attached:
            time.sleep(0.05)
    saved_argv = sys.argv
    sys.argv = [args.program] + list(args.args)
    try:
        runpy.run_path(args.program, run_name="__main__")
        return 0
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    finally:
        sys.argv = saved_argv
        dionea.stop()


def _cmd_shell(args: argparse.Namespace) -> int:
    from .client import DebugClient, Shell
    from .util.portfile import PortFile

    client = DebugClient(
        on_stop=lambda view: print(f"* stopped: {view.ue} "
                                   f"({view.capture.reason})",
                                   file=sys.stderr))
    try:
        if args.portfile:
            client.watch_portfile(PortFile(args.portfile))
            # scripted (-c) runs fire immediately; give the watcher a
            # moment to dial the already-announced servers first.
            deadline = time.monotonic() + args.attach_timeout
            while (not client.sessions()
                   and time.monotonic() < deadline):
                time.sleep(0.05)
        if args.connect:
            host, _, port = args.connect.rpartition(":")
            client.attach(host or "127.0.0.1", int(port))
        shell = Shell(client)
        print("dionea shell — 'threads', 'break FILE:LINE', 'continue', "
              "... (EOF to quit)", file=sys.stderr)
        for line in _read_lines(args):
            try:
                output = shell.execute(line)
            except (CommandError, ReproError) as exc:
                output = f"error: {exc}"
            if output:
                print(output)
        return 0
    finally:
        client.close()


def _read_lines(args: argparse.Namespace):
    if args.command:
        yield from args.command
        return
    while True:
        try:
            yield input("(dionea) ")
        except EOFError:
            return


def _cmd_telemetry(args: argparse.Namespace) -> int:
    """Pull cluster-wide telemetry; print it or export a Chrome trace."""
    import json

    from .client import DebugClient, Shell
    from .obs.export import write_chrome_trace
    from .util.portfile import PortFile

    client = DebugClient()
    try:
        if args.portfile:
            client.watch_portfile(PortFile(args.portfile))
            deadline = time.monotonic() + args.attach_timeout
            while (not client.sessions()
                   and time.monotonic() < deadline):
                time.sleep(0.05)
        if args.connect:
            host, _, port = args.connect.rpartition(":")
            client.attach(host or "127.0.0.1", int(port))
        if not client.sessions():
            print("dionea: no debug servers found to poll",
                  file=sys.stderr)
            return 2
        sweep = client.cluster_telemetry(reset=args.reset)
        if args.export:
            document = write_chrome_trace(
                args.export,
                list(sweep["processes"].values()),
                client_snapshot=sweep.get("client"))
            print(f"dionea: wrote {len(document['traceEvents'])} trace "
                  f"events to {args.export} "
                  f"(load in about:tracing or ui.perfetto.dev)")
            return 0
        if args.json:
            print(json.dumps(sweep, indent=2, default=str))
            return 0
        shell = Shell(client)
        for pid, snap in sorted(sweep["processes"].items()):
            print(f"process {pid} ({snap.get('program') or '?'}, "
                  f"epoch {snap.get('epoch')})")
            print("\n".join(shell._render_metrics(snap, indent="  "))  # noqa: SLF001
                  or "  (no metrics)")
        for pid, err in sorted(sweep.get("errors", {}).items()):
            print(f"process {pid}: telemetry failed: {err}")
        return 0
    finally:
        client.close()


def _cmd_timeline(args: argparse.Namespace) -> int:
    """Assemble the whole-fork-tree timeline: live sessions + dumps.

    Unlike ``telemetry`` this works with ZERO live servers — the
    post-mortem case (every process SIGKILLed) is the design point: the
    black-box dumps under ``--blackbox-dir`` are enough.
    """
    import json
    import os

    from .client import DebugClient
    from .obs import timeline as obs_timeline
    from .obs.blackbox import BLACKBOX_DIR_ENV
    from .util.portfile import PortFile

    blackbox_dir = args.blackbox_dir or os.environ.get(BLACKBOX_DIR_ENV)
    want_live = bool(args.portfile or args.connect)

    if want_live:
        client = DebugClient()
        try:
            if args.portfile:
                client.watch_portfile(PortFile(args.portfile))
                deadline = time.monotonic() + args.attach_timeout
                while (not client.sessions()
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
            if args.connect:
                host, _, port = args.connect.rpartition(":")
                client.attach(host or "127.0.0.1", int(port))
            document = client.cluster_timeline(blackbox_dir=blackbox_dir)
        finally:
            client.close()
    else:
        if not blackbox_dir:
            print("dionea timeline: no --blackbox-dir (or "
                  f"{BLACKBOX_DIR_ENV}) and no live server to poll",
                  file=sys.stderr)
            return 2
        document = obs_timeline.assemble_from_dir(blackbox_dir)

    other = document.get("otherData", {})
    pids = other.get("processes", [])
    holes = other.get("holes", [])
    terminals = other.get("terminals", {})
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=1)
        print(f"dionea: wrote {len(document['traceEvents'])} trace events "
              f"for {len(pids)} processes to {args.out} "
              f"(load in about:tracing or ui.perfetto.dev)")
    else:
        print(json.dumps(document, indent=1, default=str))
    for pid in sorted(int(p) for p in terminals):
        print(f"process {pid}: terminal {terminals[str(pid)]!r}",
              file=sys.stderr)
    for pid in holes:
        print(f"process {pid}: MISSING (no telemetry, no dump)",
              file=sys.stderr)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Run the §7 overhead pair for one corpus profile, print the row."""
    import importlib.util
    import os

    # benchmarks/ ships alongside the source tree, not inside the
    # package; locate it relative to the repo root when available.
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    harness_path = os.path.join(here, "benchmarks", "harness.py")
    if not os.path.isfile(harness_path):
        print("benchmarks/harness.py not found; run from a source "
              "checkout or use pytest benchmarks/", file=sys.stderr)
        return 2
    spec = importlib.util.spec_from_file_location("bench_harness",
                                                  harness_path)
    harness = importlib.util.module_from_spec(spec)
    sys.modules["bench_harness"] = harness  # dataclasses needs this
    spec.loader.exec_module(harness)

    result = harness.overhead_pair(args.profile,
                                   n_workers=args.workers,
                                   repeats=args.repeats)
    print(result.render())
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    from .corpus import corpus_stats, get_profile, write_corpus

    profile = get_profile(args.profile)
    paths = write_corpus(profile, args.out)
    stats = corpus_stats(profile)
    print(f"wrote {len(paths)} files "
          f"({stats['bytes']} bytes, {stats['lines']} lines) "
          f"for profile {profile.name!r} "
          f"(stands in for {profile.stands_in_for})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dionea",
        description="Dionea-style multi-process debugger (PMAM '15 repro)")
    parser.add_argument("--version", action="version",
                        version=f"dionea/repro {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="run a program under the debug server")
    run.add_argument("program")
    run.add_argument("args", nargs=argparse.REMAINDER)
    run.add_argument("--portfile", default=None,
                     help="rendezvous file path (default: per-run temp file)")
    run.add_argument("--disturb", action="store_true",
                     help="stop every newly created process/thread (§6.4)")
    run.add_argument("--capture-io", action="store_true",
                     help="tee the debuggee's stdout/stderr to the client "
                          "(the Fig. 2 Output window)")
    run.add_argument("--wait-client", action="store_true",
                     help="block until a client connects before running")
    run.add_argument("--park-timeout", type=float, default=60.0,
                     help="seconds a stopped UE waits before auto-resuming")
    run.set_defaults(func=_cmd_run)

    shell = sub.add_parser("shell", help="interactive debug client")
    shell.add_argument("--portfile", default=None,
                       help="watch this rendezvous file and auto-attach")
    shell.add_argument("--connect", default=None, metavar="HOST:PORT",
                       help="attach to one debug server directly")
    shell.add_argument("-c", "--command", action="append", default=None,
                       help="run this shell command and exit "
                            "(repeatable, disables the prompt)")
    shell.add_argument("--attach-timeout", type=float, default=5.0,
                       help="seconds to wait for the first auto-attach "
                            "when watching a port file")
    shell.set_defaults(func=_cmd_shell)

    telemetry = sub.add_parser(
        "telemetry",
        help="pull cluster-wide telemetry; optionally export a Chrome trace")
    telemetry.add_argument("--portfile", default=None,
                           help="watch this rendezvous file and attach to "
                                "every announced server")
    telemetry.add_argument("--connect", default=None, metavar="HOST:PORT",
                           help="attach to one debug server directly")
    telemetry.add_argument("--export", default=None, metavar="PATH",
                           help="write a Chrome trace-event JSON file "
                                "(about:tracing / Perfetto) instead of text")
    telemetry.add_argument("--json", action="store_true",
                           help="print the raw snapshot sweep as JSON")
    telemetry.add_argument("--reset", action="store_true",
                           help="drain counters/histograms/spans as they "
                                "are read")
    telemetry.add_argument("--attach-timeout", type=float, default=5.0,
                           help="seconds to wait for the first auto-attach "
                                "when watching a port file")
    telemetry.set_defaults(func=_cmd_telemetry)

    timeline = sub.add_parser(
        "timeline",
        help="merge live telemetry + black-box dumps into one Chrome "
             "trace for the whole (possibly dead) fork tree")
    timeline.add_argument("--blackbox-dir", default=None,
                          help="directory of bb-*.jsonl dumps "
                               "(default: $DIONEA_BLACKBOX_DIR)")
    timeline.add_argument("--portfile", default=None,
                          help="also attach to live servers via this "
                               "rendezvous file")
    timeline.add_argument("--connect", default=None, metavar="HOST:PORT",
                          help="also attach to one live debug server")
    timeline.add_argument("--out", default=None, metavar="PATH",
                          help="write the trace JSON here instead of stdout")
    timeline.add_argument("--attach-timeout", type=float, default=5.0,
                          help="seconds to wait for the first auto-attach "
                               "when watching a port file")
    timeline.set_defaults(func=_cmd_timeline)

    corpus = sub.add_parser("corpus", help="materialise a benchmark corpus")
    corpus.add_argument("profile")
    corpus.add_argument("--out", required=True)
    corpus.set_defaults(func=_cmd_corpus)

    bench = sub.add_parser(
        "bench", help="run one §7 overhead pair (normal vs debugging)")
    bench.add_argument("profile", nargs="?", default="dionea")
    bench.add_argument("--workers", type=int, default=4)
    bench.add_argument("--repeats", type=int, default=3)
    bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Unit tests: post-mortem timeline assembly (repro.obs.timeline).

The satellite's edge cases: out-of-order / duplicated / truncated
black-box records, clock skew between processes, and subtrees whose
dumps are missing — holes must be explicit, never silent.
"""

import json

from repro.obs import timeline
from repro.obs.blackbox import SCHEMA_VERSION, BlackBoxDump, read_dump
from repro.obs.export import validate_trace


def make_dump(path="bb-test.jsonl", pid=100, records=()):
    dump = BlackBoxDump(path)
    for record in records:
        full = {"v": SCHEMA_VERSION, "wall": 1000.0, "mono": 10.0}
        full.update(record)
        full.setdefault("pid", pid) if record.get("kind") == "open" else None
        dump.records.append(full)
    return dump


def open_record(pid, trace=None, **extra):
    record = {"kind": "open", "pid": pid, "ppid": 1, "program": "worker",
              "labels": {}}
    if trace is not None:
        record["trace"] = trace
    record.update(extra)
    return record


def span(name, seq, mono, span_id=None, args=None, pid=100):
    record = {"name": name, "cat": "debug", "pid": pid, "tid": 1,
              "wall": 990.0 + mono, "mono": mono, "dur": 0.001,
              "seq": seq}
    if span_id is not None:
        record["id"] = span_id
    if args is not None:
        record["args"] = args
    return record


class TestSnapshotFromDump:
    def test_out_of_order_records_sorted_by_seq(self):
        dump = make_dump(records=[
            open_record(100),
            {"kind": "spans", "spans": [span("late", 5, 5.0)],
             "ring_dropped": 0},
            {"kind": "spans", "spans": [span("early", 1, 1.0)],
             "ring_dropped": 0},
        ])
        snap = timeline.snapshot_from_dump(dump)
        assert [s["name"] for s in snap["spans"]] == ["early", "late"]

    def test_duplicate_span_batches_deduped(self):
        # A force_flush right after an incremental flush can write the
        # same batch twice; span identity collapses them.
        batch = [span("once", 3, 3.0, span_id="sX")]
        dump = make_dump(records=[
            open_record(100),
            {"kind": "spans", "spans": batch, "ring_dropped": 0},
            {"kind": "spans", "spans": batch, "ring_dropped": 0},
        ])
        snap = timeline.snapshot_from_dump(dump)
        assert len(snap["spans"]) == 1

    def test_anchor_is_latest_record(self):
        dump = make_dump(records=[open_record(100)])
        dump.records[0]["wall"], dump.records[0]["mono"] = 1000.0, 10.0
        dump.records.append({"v": SCHEMA_VERSION, "kind": "marker",
                             "reason": "stop", "terminal": True,
                             "wall": 1060.0, "mono": 70.0})
        snap = timeline.snapshot_from_dump(dump)
        assert snap["clock"] == {"wall": 1060.0, "mono": 70.0}
        assert snap["terminal"] == "stop"

    def test_no_terminal_marker_reports_unclean(self):
        snap = timeline.snapshot_from_dump(
            make_dump(records=[open_record(100)]))
        assert snap["terminal"] == timeline.UNCLEAN

    def test_pidless_dump_is_skipped(self):
        dump = make_dump(records=[{"kind": "marker", "reason": "stop",
                                   "terminal": True}])
        assert timeline.snapshot_from_dump(dump) is None


class TestAssemble:
    def test_missing_subtree_is_an_explicit_hole(self):
        # The parent's bracket names child 222; nobody else speaks for it.
        parent = make_dump(pid=111, records=[
            open_record(111),
            {"kind": "spans", "ring_dropped": 0, "spans": [
                span("fork.bracket", 1, 1.0, span_id="sB", pid=111,
                     args={"child_pid": 222})]},
            {"kind": "marker", "reason": "stop", "terminal": True},
        ])
        doc = timeline.assemble([], [parent])
        other = doc["otherData"]
        assert other["holes"] == [222]
        assert 222 in other["processes"]
        hole_events = [e for e in doc["traceEvents"]
                       if e.get("name") == "blackbox:hole"]
        assert [e["pid"] for e in hole_events] == [222]
        assert validate_trace(doc) == []

    def test_expected_pids_force_holes(self):
        doc = timeline.assemble([], [], expected_pids=[555])
        assert doc["otherData"]["holes"] == [555]

    def test_clock_skew_does_not_reorder_within_process(self):
        # Process 300's wall clock is an hour ahead; its two spans must
        # still be 1s apart and in monotonic order after alignment.
        skewed = make_dump(pid=300, records=[
            open_record(300),
            {"kind": "spans", "ring_dropped": 0, "spans": [
                span("first", 1, 1.0, pid=300),
                span("second", 2, 2.0, pid=300)]},
            {"kind": "marker", "reason": "stop", "terminal": True,
             "wall": 1000.0 + 3600.0, "mono": 10.0},
        ])
        doc = timeline.assemble([], [skewed])
        spans = {e["name"]: e for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        delta_us = spans["second"]["ts"] - spans["first"]["ts"]
        assert abs(delta_us - 1e6) < 1.0

    def test_live_and_dump_merge_unions_spans(self):
        dumped = make_dump(pid=100, records=[
            open_record(100),
            {"kind": "spans", "ring_dropped": 0, "spans": [
                span("rolled-off", 1, 1.0, span_id="s1")]},
        ])
        live = {"pid": 100, "program": "worker",
                "clock": {"wall": 1000.0, "mono": 10.0},
                "spans": [span("still-live", 9, 9.0, span_id="s9")],
                "metrics": {}}
        doc = timeline.assemble([live], [dumped])
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"rolled-off", "still-live"} <= names
        other = doc["otherData"]
        assert other["sources"] == {"100": "merged"}
        # A process still answering telemetry has not terminated.
        assert "100" not in other["terminals"]

    def test_terminal_reasons_become_instant_events(self):
        dead = make_dump(pid=100, records=[
            open_record(100),
            {"kind": "marker", "reason": "detach:fork_handler_failed",
             "terminal": True},
        ])
        doc = timeline.assemble([], [dead])
        (event,) = [e for e in doc["traceEvents"]
                    if e["name"].startswith("terminal:")]
        assert event["name"] == "terminal:detach:fork_handler_failed"
        assert doc["otherData"]["terminals"] == {
            "100": "detach:fork_handler_failed"}

    def test_corrupt_lines_surface_in_other_data(self, tmp_path):
        path = tmp_path / "bb-1-abc.jsonl"
        lines = [
            json.dumps({"v": SCHEMA_VERSION, "kind": "open", "pid": 7,
                        "wall": 1.0, "mono": 1.0, "program": "w",
                        "labels": {}}),
            '{"kind": "spans", "spa',  # truncated by SIGKILL
        ]
        path.write_text("\n".join(lines) + "\n")
        doc = timeline.assemble([], [read_dump(str(path))])
        assert doc["otherData"]["corrupt_lines"] == 1

    def test_duplicate_dumps_for_one_pid_merge(self):
        first = make_dump(pid=100, records=[
            open_record(100),
            {"kind": "spans", "ring_dropped": 0,
             "spans": [span("a", 1, 1.0, span_id="sA")]},
        ])
        second = make_dump(pid=100, records=[
            open_record(100),
            {"kind": "spans", "ring_dropped": 0,
             "spans": [span("b", 2, 2.0, span_id="sB")]},
            {"kind": "marker", "reason": "stop", "terminal": True},
        ])
        doc = timeline.assemble([], [first, second])
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert {"a", "b"} <= names
        assert doc["otherData"]["processes"] == [100]

    def test_exec_rotated_pid_keeps_both_images_log_lines(self):
        # Each image's ring starts at seq 0, so seq cannot tell two
        # images' records apart; both log lines must survive the merge.
        def line(text, mono):
            return {"name": text, "cat": "dionea", "pid": 100, "tid": 1,
                    "wall": 990.0 + mono, "mono": mono, "dur": 0.0,
                    "seq": 0, "ph": "i"}

        before = make_dump(pid=100, records=[
            open_record(100),
            {"kind": "spans", "ring_dropped": 0,
             "spans": [line("old image line", 1.0)]},
            {"kind": "marker", "reason": "exec", "terminal": True},
        ])
        after = make_dump(pid=100, records=[
            open_record(100, exec_of={"trace_id": "t", "span_id": "s"}),
            {"kind": "spans", "ring_dropped": 0,
             "spans": [line("new image line", 2.0)]},
        ])
        doc = timeline.assemble([], [before, after])
        instants = {e["name"] for e in doc["traceEvents"] if e["ph"] == "i"}
        assert {"old image line", "new image line"} <= instants
        assert validate_trace(doc) == []

    def test_assemble_from_dir_tolerates_missing_dir(self):
        doc = timeline.assemble_from_dir(None)
        assert doc["traceEvents"] == []
        assert doc["otherData"]["holes"] == []

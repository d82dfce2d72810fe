"""Unit tests: the crash black box (repro.obs.blackbox)."""

import json
import os

import pytest

from repro import obs
from repro.obs import blackbox as bb
from repro.obs.spans import SPANS, SpanRecorder


@pytest.fixture
def box(tmp_path):
    """A configured BlackBox on its own recorder, torn down after."""
    recorder = SpanRecorder(capacity=64)
    box = bb.BlackBox(recorder=recorder)
    box.configure(str(tmp_path), "unit-test", labels={"suite": "unit"})
    yield box
    box.configure(None, "unit-test")  # removes the flush hook


def read_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestDisabled:
    def test_noop_without_directory(self):
        box = bb.BlackBox(recorder=SpanRecorder(capacity=8))
        assert not box.enabled
        box.flush()
        box.force_flush("whatever", terminal=True)
        assert box.path is None

    def test_describe_shape(self, box):
        status = box.describe()
        assert status["enabled"] is True
        assert status["records"] == 0


class TestWriting:
    def test_open_record_written_on_first_flush(self, box, tmp_path):
        box._recorder.record("s", "t", 1.0, 1.0, 0.0)  # noqa: SLF001
        box.flush()
        records = read_lines(box.path)
        assert records[0]["kind"] == "open"
        assert records[0]["pid"] == os.getpid()
        assert records[0]["program"] == "unit-test"
        assert records[0]["labels"]["suite"] == "unit"
        assert "trace_id" in records[0]["trace"]
        assert all(r["v"] == bb.SCHEMA_VERSION for r in records)
        assert all("wall" in r and "mono" in r for r in records)

    def test_incremental_flush_drains_once(self, box):
        rec = box._recorder  # noqa: SLF001
        rec.record("a", "t", 1.0, 1.0, 0.0)
        box.flush()
        box.flush()  # nothing new: no second spans record
        kinds = [r["kind"] for r in read_lines(box.path)]
        assert kinds == ["open", "spans"]

    def test_force_flush_writes_marker_last(self, box):
        box.force_flush("stop", terminal=True)
        records = read_lines(box.path)
        marker = records[-1]
        assert marker["kind"] == "marker"
        assert marker["reason"] == "stop"
        assert marker["terminal"] is True

    def test_byte_budget_drops_payloads_not_markers(self, tmp_path):
        recorder = SpanRecorder(capacity=64)
        box = bb.BlackBox(recorder=recorder)
        box.configure(str(tmp_path), "budget", limit_bytes=1)
        recorder.record("fat", "t", 1.0, 1.0, 0.0,
                        {"blob": "x" * 512})
        box.force_flush("quarantine:h1")
        records = read_lines(box.path)
        kinds = [r["kind"] for r in records]
        assert "spans" not in kinds  # payload dropped: over budget
        assert kinds[-1] == "marker"  # the marker always lands
        assert box.describe()["payloads_dropped"] >= 1
        box.configure(None, "budget")

    def test_oserror_breaks_box_quietly(self, box):
        box.flush()  # open the fd
        os.close(box._fd)  # noqa: SLF001 - simulate a dying fd
        box._recorder.record("x", "t", 1.0, 1.0, 0.0)  # noqa: SLF001
        box.force_flush("stop")  # must not raise
        assert not box.enabled


def dumped_names(path):
    return [span["name"] for record in read_lines(path)
            if record["kind"] == "spans" for span in record["spans"]]


class TestOneRing:
    """The box reads the one event ring through its own cursor."""

    def test_telemetry_reset_does_not_starve_the_box(self, tmp_path):
        box = bb.BlackBox(recorder=SPANS)
        # A fresh box's cursor starts at 0 on the process-wide ring, so
        # its first flush drains (and may count as dropped) whatever
        # earlier tests left there: flush once first, with the byte
        # budget lifted so no payload is dropped for it, and judge only
        # the records written after that.
        box.configure(str(tmp_path), "starve", limit_bytes=1 << 26)
        try:
            box.flush()
            drained = len(read_lines(box.path))
            for i in range(300):
                SPANS.record(f"before-{i}", "t", 1.0, 1.0, 0.0)
            box.flush()
            obs.telemetry_snapshot(reset=True)
            for i in range(200):
                SPANS.record(f"after-{i}", "t", 1.0, 1.0, 0.0)
            box.force_flush("stop", terminal=True)
            path = box.path
            assert box.describe()["payloads_dropped"] == 0
        finally:
            box.configure(None, "starve")
        names = dumped_names(path)
        assert sum(n.startswith("after-") for n in names) == 200
        assert all(r.get("ring_dropped", 0) == 0
                   for r in read_lines(path)[drained:])

    def test_debug_line_reaches_the_incremental_flush(self, tmp_path):
        # A SIGKILLed process never force-flushes: its log lines must
        # ride the incremental flushes with the spans.
        bb.BLACKBOX.configure(str(tmp_path), "incremental")
        try:
            obs.debug_event("test", "incremental debug line")
            bb.BLACKBOX.flush()
            path = bb.BLACKBOX.path
        finally:
            bb.BLACKBOX.configure(None, "incremental")
        lines = [span for record in read_lines(path)
                 if record["kind"] == "spans" for span in record["spans"]
                 if span["name"] == "incremental debug line"]
        assert len(lines) == 1
        assert lines[0]["ph"] == "i" and lines[0]["cat"] == "test"
        kinds = {record["kind"] for record in read_lines(path)}
        assert "marker" not in kinds and "ringlog" not in kinds


    def test_restart_does_not_redump_drained_records(self, box, tmp_path):
        # Dionea.stop() then start() in one process: the new dump holds
        # only what happened since, or a full ring would eat its budget.
        box._recorder.instant("test", "first session")  # noqa: SLF001
        box.force_flush("stop", terminal=True)
        first = box.path
        box.configure(str(tmp_path), "unit-test")
        box._recorder.instant("test", "second session")  # noqa: SLF001
        box.flush()
        assert box.path != first
        assert dumped_names(first) == ["first session"]
        assert dumped_names(box.path) == ["second session"]


class TestForkRotation:
    def test_reset_after_fork_rotates_identity(self, box):
        box.flush()
        old_path = box.path
        box.reset_after_fork(parent_pid=1234)
        assert box.path is None  # lazy: no I/O inside the bracket
        box.force_flush("stop")
        assert box.path != old_path
        records = read_lines(box.path)
        assert records[0]["kind"] == "open"
        assert records[0]["labels"]["parent_pid"] == 1234

    def test_reset_after_exec_names_predecessor(self, box):
        handoff = {"trace_id": "t1", "span_id": "s1"}
        box.reset_after_exec("new-image", exec_of=handoff)
        box.flush()
        box._recorder.record("x", "t", 1.0, 1.0, 0.0)  # noqa: SLF001
        box.flush()
        records = read_lines(box.path)
        assert records[0]["program"] == "new-image"
        assert records[0]["exec_of"] == handoff


class TestReadingBack:
    def test_read_dump_round_trip(self, box):
        box._recorder.record("a", "t", 1.0, 1.0, 0.0)  # noqa: SLF001
        box.force_flush("stop", terminal=True)
        dump = bb.read_dump(box.path)
        assert dump.pid == os.getpid()
        assert dump.terminal_reason() == "stop"
        assert dump.corrupt_lines == 0

    def test_truncated_last_line_is_counted_not_fatal(self, box):
        box.force_flush("stop", terminal=True)
        with open(box.path, "ab") as fh:
            fh.write(b'{"kind": "spans", "spa')  # SIGKILL mid-write
        dump = bb.read_dump(box.path)
        assert dump.corrupt_lines == 1
        assert dump.terminal_reason() == "stop"

    def test_alien_schema_is_counted_not_parsed(self, box):
        box.force_flush("stop")
        with open(box.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"v": 999, "kind": "marker",
                                 "reason": "future"}) + "\n")
        dump = bb.read_dump(box.path)
        assert dump.alien_schema == 1
        assert all(r["v"] == bb.SCHEMA_VERSION for r in dump.records)

    def test_missing_terminal_marker_means_unclean(self, box):
        box.flush()  # open record only — as after a SIGKILL
        dump = bb.read_dump(box.path)
        assert dump.terminal_reason() is None

    def test_scan_dir_ignores_foreign_files(self, box, tmp_path):
        box.force_flush("stop")
        (tmp_path / "notes.txt").write_text("not a dump")
        (tmp_path / "bb-zzz.log").write_text("wrong extension")
        dumps = bb.scan_dir(str(tmp_path))
        assert [d.path for d in dumps] == [box.path]

    def test_scan_dir_of_missing_directory(self, tmp_path):
        assert bb.scan_dir(str(tmp_path / "never-created")) == []

"""Unit tests: Chrome trace-event export (repro.obs.export)."""

import json

from repro.obs.export import chrome_trace, validate_trace, write_chrome_trace


def make_snapshot(pid=100, program="debuggee", wall=1000.0, mono=50.0,
                  spans=None, counters=None):
    """A telemetry snapshot shaped like the `telemetry` command's reply."""
    return {
        "pid": pid,
        "program": program,
        "fork_generation": 0,
        "clock": {"wall": wall, "mono": mono},
        "metrics": {"labels": {"pid": pid}, "counters": counters or {},
                    "gauges": {}, "histograms": {}},
        "spans": spans or [],
    }


class TestChromeTrace:
    def test_empty_snapshot_yields_metadata_only(self):
        doc = chrome_trace([make_snapshot()])
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases == ["M"]
        assert doc["displayTimeUnit"] == "ms"
        assert validate_trace(doc) == []

    def test_span_becomes_complete_event(self):
        span = {"name": "cmd:step", "cat": "command", "pid": 100,
                "tid": 7, "wall": 999.0, "mono": 49.0, "dur": 0.002}
        doc = chrome_trace([make_snapshot(spans=[span])])
        (x_event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert x_event["name"] == "cmd:step"
        assert x_event["cat"] == "command"
        assert x_event["dur"] == 0.002 * 1e6
        assert x_event["pid"] == 100
        assert x_event["tid"] == 7
        assert validate_trace(doc) == []

    def test_ringlog_record_becomes_instant_event(self):
        # A debug-log line rides the one ring as an instant.
        record = {"name": "hello", "cat": "server", "pid": 100, "tid": 3,
                  "wall": 999.5, "mono": 49.5, "dur": 0.0, "seq": 1,
                  "ph": "i"}
        doc = chrome_trace([make_snapshot(spans=[record])])
        assert not [e for e in doc["traceEvents"] if e["ph"] == "X"]
        (i_event,) = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert i_event["name"] == "hello"
        assert i_event["cat"] == "server"
        assert i_event["s"] == "t"
        assert validate_trace(doc) == []

    def test_counters_become_counter_events(self):
        doc = chrome_trace([make_snapshot(counters={"proto.tx_frames": 5})])
        (c_event,) = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert c_event["name"] == "proto.tx_frames"
        assert c_event["args"]["value"] == 5
        assert validate_trace(doc) == []

    def test_cross_process_alignment_uses_clock_anchors(self):
        """Two processes, same wall instant, different monotonic bases:
        events recorded at the same true time land at the same ts."""
        span_a = {"name": "a", "cat": "t", "pid": 1, "tid": 1,
                  "wall": 999.0, "mono": 9.0, "dur": 0.001}
        span_b = {"name": "b", "cat": "t", "pid": 2, "tid": 1,
                  "wall": 999.0, "mono": 7249.0, "dur": 0.001}
        doc = chrome_trace([
            # both anchors taken at the same wall instant (1000.0);
            # process 2's monotonic clock started much earlier
            make_snapshot(pid=1, wall=1000.0, mono=10.0, spans=[span_a]),
            make_snapshot(pid=2, wall=1000.0, mono=7250.0, spans=[span_b]),
        ])
        ts = {e["name"]: e["ts"] for e in doc["traceEvents"]
              if e["ph"] == "X"}
        assert ts["a"] == ts["b"]

    def test_ts_normalised_to_small_origin(self):
        span = {"name": "s", "cat": "t", "pid": 1, "tid": 1,
                "wall": 999.0, "mono": 49.0, "dur": 0.001}
        doc = chrome_trace([make_snapshot(pid=1, spans=[span])])
        stamped = [e for e in doc["traceEvents"] if "ts" in e]
        assert min(e["ts"] for e in stamped) == 0

    def test_client_snapshot_joins_the_timeline(self):
        client = make_snapshot(pid=999, program=None)
        client.pop("program")
        doc = chrome_trace([make_snapshot()], client_snapshot=client)
        names = [e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"]
        assert any("debug client" in n for n in names)
        assert validate_trace(doc) == []


class TestWriteAndValidate:
    def test_write_round_trips_as_json(self, tmp_path):
        path = tmp_path / "trace.json"
        span = {"name": "s", "cat": "t", "pid": 1, "tid": 1,
                "wall": 999.0, "mono": 49.0, "dur": 0.001}
        document = write_chrome_trace(
            str(path), [make_snapshot(pid=1, spans=[span])])
        loaded = json.loads(path.read_text())
        assert loaded == json.loads(json.dumps(document))
        assert validate_trace(loaded) == []

    def test_validate_flags_malformed_events(self):
        bad = {"traceEvents": [
            {"ph": "Z", "name": "x", "pid": 1, "ts": 0},
            {"ph": "X", "name": "no-dur", "pid": 1, "ts": 0},
            {"ph": "i", "name": "no-pid", "ts": 0},
            {"ph": "i", "name": "neg", "pid": 1, "ts": -5},
        ]}
        problems = validate_trace(bad)
        assert len(problems) == 4

    def test_validate_rejects_non_document(self):
        assert validate_trace([]) == ["document is not an object"]
        assert validate_trace({}) == ["traceEvents missing or not a list"]


class TestFlowEvents:
    def flow_span(self, **over):
        span = {"name": "process.root", "cat": "process", "pid": 200,
                "tid": 1, "wall": 1001.0, "mono": 51.0, "dur": 0.0,
                "id": "sChild", "parent": "sBracket", "trace": "t1",
                "args": {"flow": {"kind": "fork", "parent_span": "sBracket",
                                  "parent_pid": 100, "wall": 1000.5}}}
        span.update(over)
        return span

    def test_fork_flow_emits_start_finish_pair(self):
        doc = chrome_trace(
            [make_snapshot(pid=200, spans=[self.flow_span()])])
        flows = [e for e in doc["traceEvents"] if e.get("cat") == "flow"]
        assert [e["ph"] for e in flows] == ["s", "f"]
        start, finish = flows
        assert start["pid"] == 100  # the arrow leaves the parent...
        assert finish["pid"] == 200  # ...and lands on the child's root
        assert start["id"] == finish["id"] == "sChild"
        assert start["name"] == finish["name"] == "fork-flow"
        assert finish["bp"] == "e"
        assert validate_trace(doc) == []

    def test_span_ids_surface_in_event_args(self):
        doc = chrome_trace(
            [make_snapshot(pid=200, spans=[self.flow_span()])])
        (x_event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert x_event["args"]["span_id"] == "sChild"
        assert x_event["args"]["parent_span_id"] == "sBracket"
        assert x_event["args"]["trace_id"] == "t1"

    def test_flow_without_parent_pid_is_skipped(self):
        span = self.flow_span()
        del span["args"]["flow"]["parent_pid"]
        doc = chrome_trace([make_snapshot(pid=200, spans=[span])])
        assert [e for e in doc["traceEvents"] if e.get("cat") == "flow"] \
            == []

    def test_rpc_flow_names_its_kind(self):
        span = self.flow_span()
        span["args"]["flow"]["kind"] = "rpc"
        doc = chrome_trace([make_snapshot(pid=200, spans=[span])])
        flows = [e for e in doc["traceEvents"] if e.get("cat") == "flow"]
        assert all(e["name"] == "rpc-flow" for e in flows)

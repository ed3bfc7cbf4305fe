"""Exporter tests: JSONL, Chrome trace_event, metrics text, trace-report CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.export import (
    chrome_trace,
    events_to_jsonl,
    metrics_text,
    write_trace_report,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import EventLog
from repro.perf.counters import FIELDS


@pytest.fixture()
def log():
    log = EventLog()
    done = log.begin_span("tor.circuit_build", 0.0, track="alice", hops=3)
    done.end(1.25, ok=True)
    child = log.begin_span("netsim.dial", 0.25, parent=done, track="alice")
    child.end(0.5)
    log.begin_span("core.session", 0.5, track="relay1")  # left open
    log.instant("fault.crash", 0.75, track="faults", node="b",
                weird=object())
    return log


class TestJsonl:
    def test_records_in_id_order(self, log):
        lines = [json.loads(line)
                 for line in events_to_jsonl(log).splitlines()]
        assert [r["id"] for r in lines] == [1, 2, 3, 4]
        assert [r["kind"] for r in lines] == ["span", "span", "span", "event"]

    def test_span_and_event_fields(self, log):
        lines = [json.loads(line)
                 for line in events_to_jsonl(log).splitlines()]
        root = lines[0]
        assert root["name"] == "tor.circuit_build"
        assert root["parent"] is None
        assert root["t_begin"] == 0.0 and root["t_end"] == 1.25
        assert root["attrs"]["ok"] is True
        assert lines[1]["parent"] == 1
        assert lines[2]["t_end"] is None      # open span exports as open
        event = lines[3]
        assert event["t"] == 0.75
        assert event["attrs"]["node"] == "b"

    def test_non_scalar_attrs_coerced(self, log):
        record = json.loads(events_to_jsonl(log).splitlines()[-1])
        assert isinstance(record["attrs"]["weird"], str)

    def test_empty_log(self):
        assert events_to_jsonl(EventLog()) == ""

    def test_byte_identical_on_repeat(self, log):
        assert events_to_jsonl(log) == events_to_jsonl(log)


class TestChromeTrace:
    def test_parses_and_phases(self, log):
        doc = json.loads(chrome_trace(log))
        events = doc["traceEvents"]
        phases = [e["ph"] for e in events]
        # Metadata first, then the timeline sorted by (ts, id).
        assert phases[:4] == ["M", "M", "M", "M"]
        assert sorted(phases[4:]) == ["B", "X", "X", "i"]

    def test_complete_spans_have_microsecond_durations(self, log):
        doc = json.loads(chrome_trace(log))
        build = next(e for e in doc["traceEvents"]
                     if e["name"] == "tor.circuit_build")
        assert build["ph"] == "X"
        assert build["ts"] == 0.0
        assert build["dur"] == 1.25e6
        assert build["cat"] == "tor"
        assert build["args"]["hops"] == 3

    def test_open_span_is_begin_event(self, log):
        doc = json.loads(chrome_trace(log))
        session = next(e for e in doc["traceEvents"]
                       if e["name"] == "core.session")
        assert session["ph"] == "B"
        assert "dur" not in session

    def test_tracks_become_named_threads(self, log):
        doc = json.loads(chrome_trace(log))
        threads = {e["args"]["name"]: e["tid"]
                   for e in doc["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert set(threads) == {"alice", "relay1", "faults"}
        by_name = {e["name"]: e for e in doc["traceEvents"] if e["ph"] != "M"}
        assert by_name["tor.circuit_build"]["tid"] == threads["alice"]
        assert by_name["core.session"]["tid"] == threads["relay1"]
        assert by_name["fault.crash"]["tid"] == threads["faults"]

    def test_instant_has_scope(self, log):
        doc = json.loads(chrome_trace(log))
        instant = next(e for e in doc["traceEvents"] if e["ph"] == "i")
        assert instant["s"] == "t"

    def test_empty_log_still_valid(self):
        doc = json.loads(chrome_trace(EventLog()))
        assert doc["traceEvents"][0]["name"] == "process_name"


class TestMetricsText:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.counter("cells", {"direction": "fwd"}).inc(7)
        registry.gauge("depth").set(3)
        text = metrics_text(registry)
        assert 'cells{direction="fwd"} 7\n' in text
        assert "depth 3\n" in text

    def test_histogram_renders_cumulative(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 9.0):
            hist.observe(value)
        text = metrics_text(registry)
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="2"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_count 3" in text
        assert "lat_sum 11" in text

    def test_bridge_included_by_default(self):
        registry = MetricsRegistry()
        text = metrics_text(registry)
        assert "perf_cells_crypted 0" in text

    def test_empty_registry(self):
        # Nothing registered: only the perf view's own lines render.
        lines = metrics_text(MetricsRegistry()).splitlines()
        assert len(lines) == len(FIELDS)
        assert all(line.startswith("perf_") for line in lines)


class TestWriteTraceReport:
    def test_writes_three_artifacts(self, tmp_path, log):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        paths = write_trace_report(str(tmp_path / "out"), log, registry)
        assert set(paths) == {"trace", "events", "metrics"}
        trace = json.loads((tmp_path / "out" / "trace.json").read_text())
        assert trace["traceEvents"]
        jsonl = (tmp_path / "out" / "events.jsonl").read_text()
        assert len(jsonl.splitlines()) == len(log)
        assert "c 1" in (tmp_path / "out" / "metrics.txt").read_text()


class TestTraceReportCli:
    def test_cli_produces_perfetto_acceptable_trace(self, tmp_path, capsys):
        out = tmp_path / "report"
        assert main(["trace-report", "--seed", "5", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "trace report:" in printed
        doc = json.loads((out / "trace.json").read_text())
        events = doc["traceEvents"]
        assert events, "trace must not be empty"
        # The minimal contract chrome://tracing / Perfetto require.
        for entry in events:
            assert {"name", "ph", "pid", "tid"} <= set(entry)
            if entry["ph"] != "M":
                assert "ts" in entry
            if entry["ph"] == "X":
                assert entry["dur"] >= 0
        names = {e["name"] for e in events}
        assert "tor.circuit_build" in names
        assert "core.session" in names
        metrics = (out / "metrics.txt").read_text()
        assert 'cells_crypted{direction="fwd"}' in metrics
        assert "circuit_build_s_count 1" in metrics

    def test_cli_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["trace-report", "--seed", "7", "--out", str(a)])
        main(["trace-report", "--seed", "7", "--out", str(b)])
        for name in ("trace.json", "events.jsonl", "metrics.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_cli_lists_scenario(self, capsys):
        assert main(["list"]) == 0
        assert "trace-report" in capsys.readouterr().out

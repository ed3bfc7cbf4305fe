"""Backfill coverage for the perf report."""

from __future__ import annotations

from repro.obs.metrics import REGISTRY
from repro.perf.counters import counters
from repro.perf.report import render_report


class TestRenderReport:
    def test_lists_every_counter(self):
        counters.reset()
        REGISTRY.counter("perf_hash_calls").value += 1234
        report = render_report()
        assert report.splitlines()[0] == "perf counters"
        for field in counters.snapshot():
            assert field in report
        assert "1,234" in report  # thousands-separated values

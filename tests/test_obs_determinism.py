"""Seeded determinism of the trace exports over the full chaos soak.

Two runs of the ``chaos-soak`` preset with the same seed must export
byte-identical artifacts — the contract that makes traces diffable across
machines and commits.  A different seed must produce a different trace
(the export is not constant).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.obs.export import chrome_trace, events_to_jsonl, metrics_text
from repro.obs.metrics import REGISTRY
from repro.obs.span import TRACER, EventLog
from repro.workload.presets import preset
from repro.workload.runner import GRACE_S, run_workload

SOAK = preset("chaos-soak")


def _traced_soak(seed):
    log = EventLog()
    result = run_workload(dataclasses.replace(SOAK, seed=seed),
                          trace_log=log)
    return result, log, events_to_jsonl(log), chrome_trace(log), \
        metrics_text(REGISTRY)


@pytest.fixture(scope="module")
def soak_traces():
    """One traced soak per seed (module-scoped: each run costs seconds)."""
    first = _traced_soak(SOAK.seed)
    second = _traced_soak(SOAK.seed)
    other = _traced_soak(7)   # another seed known to complete the soak
    return first, second, other


class TestSeededDeterminism:
    def test_same_seed_byte_identical_jsonl(self, soak_traces):
        first, second, _other = soak_traces
        assert first[2] == second[2]

    def test_same_seed_byte_identical_chrome_trace(self, soak_traces):
        first, second, _other = soak_traces
        assert first[3] == second[3]

    def test_same_seed_identical_metrics_text(self, soak_traces):
        first, second, _other = soak_traces
        assert first[4] == second[4]

    def test_same_seed_same_result_dict(self, soak_traces):
        first, second, _other = soak_traces
        assert first[0] == second[0]

    def test_different_seed_differs(self, soak_traces):
        first, _second, other = soak_traces
        assert first[2] != other[2]
        assert first[3] != other[3]


class TestSoakTraceContent:
    def test_soak_records_fault_spans(self, soak_traces):
        log = soak_traces[0][1]
        names = {span.name for span in log.spans}
        assert "fault.node_down" in names
        assert "fault.link_down" in names
        assert "fault.latency_spike" in names
        assert "tor.circuit_build" in names
        assert "netsim.connection" in names
        assert "core.session" in names

    def test_soak_records_respawn_events(self, soak_traces):
        log = soak_traces[0][1]
        respawns = [e for e in log.events
                    if e.name == "functions.lb_respawn"]
        result = soak_traces[0][0]
        assert len(respawns) == result["counters"]["replicas_respawned"]
        assert len(respawns) >= 1

    def test_no_wall_time_in_exports(self, soak_traces):
        # Every timestamp must be simulated seconds: the run ends at its
        # horizon, so no t/ts field may look like an epoch or perf value.
        horizon = SOAK.duration_s + GRACE_S
        log = soak_traces[0][1]
        for span in log.spans:
            assert 0.0 <= span.t_begin <= horizon
            if span.t_end is not None:
                assert span.t_end <= horizon
        for event in log.events:
            assert 0.0 <= event.time <= horizon

    def test_tracer_detached_after_soak(self, soak_traces):
        assert TRACER.log is None

    def test_chrome_trace_parses(self, soak_traces):
        doc = json.loads(soak_traces[0][3])
        assert len(doc["traceEvents"]) > 100

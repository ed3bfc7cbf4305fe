"""End-to-end determinism: identical seeds replay identical experiments.

Every published number from this repository depends on this property, so
it gets its own test: a full Bento workflow (network build, circuits,
attested upload, function execution, traffic) runs twice and must agree
on timing, traces, and results exactly.

"Identical to the parent commit" is pinned the same way: the sha256 of
the fixed-seed artifacts below were recorded at commit ``1603644``, before
the event kernel got its run queue.  A change that claims to keep
behaviour must pass :class:`TestCommittedDigests` unedited; a change that
means to move an artifact re-records its digest and says so.
"""

import functools
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.core.client import BentoClient
from repro.core.manifest import FunctionManifest
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.browser import BrowserFunction
from repro.netsim.trace import TraceRecorder
from repro.perf.counters import FIELDS
from repro.tor.testnet import TorTestNetwork
from repro.workload.presets import PRESETS, preset
from repro.workload.runner import run_workload
from repro.workload.slo import build_report


def _full_run(seed):
    net = TorTestNetwork(n_relays=9, seed=seed, bento_fraction=0.34)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    for relay in net.bento_boxes():
        BentoServer(relay, net.authority, ias=ias)
    net.create_web_server("d.example", {"/": b"<html>\n/x\n</html>",
                                        "/x": b"X" * 30_000})
    client = BentoClient(net.create_client("alice"), ias=ias)
    recorder = TraceRecorder(client.tor.node)
    out = {}

    def main(thread):
        session = yield from client.connect(thread, client.pick_box())
        yield from session.request_image(thread, "python-op-sgx")
        yield from session.load_function(thread, BrowserFunction.SOURCE,
                                         BrowserFunction.manifest())
        page, stats = yield from BrowserFunction.fetch(
            thread, session, "https://d.example/", 65536)
        out["stats"] = stats
        out["page_tail"] = page[-64:]
        out["box"] = session.box.nickname
        yield from session.shutdown(thread)
        out["t"] = net.sim.now

    net.sim.run_until_done(net.sim.spawn(main, name="alice"))
    out["trace"] = [(round(r.time, 12), r.direction, r.size)
                    for r in recorder.records]
    return out


class TestDeterminism:
    def test_identical_seed_identical_everything(self):
        first = _full_run("replay-seed")
        second = _full_run("replay-seed")
        assert first["t"] == second["t"]
        assert first["stats"] == second["stats"]
        assert first["page_tail"] == second["page_tail"]
        assert first["box"] == second["box"]
        assert first["trace"] == second["trace"]

    def test_different_seed_different_timing(self):
        first = _full_run("seed-A")
        second = _full_run("seed-B")
        assert first["t"] != second["t"] or first["trace"] != second["trace"]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(result) -> str:
    return _sha256(json.dumps(result, sort_keys=True).encode())


# Re-recorded once when every Bento frame gained its request id (``rid``):
# metrics.txt's bytes_zero_copied grew by the rid bytes, and in the five
# presets below only session records' ``done`` times moved (by at most
# 0.23 ms); outcomes, sim_time and counters are unchanged.  Re-recorded
# again when KvStore's uploaded source caught by name (19 more bytes in
# its load_function frame): in chaos-recovery, cross-plane,
# migrate-handoff and qos-flash only KvStore sessions' ``done`` times
# moved, by 6-7 us each.  The two chaos-soak pins were recorded once when
# the soak became a pair of presets; they replace the soak's own digest.
# Re-recorded once when a refused EXTEND (END on stream 0) began to fail
# its build at once instead of after the 120 s timeout
# (tests/regressions/test_extend_refused.py): in chaos-soak and
# chaos-soak-standby three cdn and both vault sessions finish sooner (vault
# 374 -> 16.5 s) and conns_torn_down rises by 3; in cross-plane one cdn
# session takes 15.0 s, not 74.7; every outcome is unchanged.  In
# metrics.txt only perf_events_processed / _scheduled fell, 163 -> 161 and
# 166 -> 164: each EXTEND's refusal waiter is withdrawn once EXTENDED
# answers, so the circuit's teardown no longer rejects two stale waiters,
# each of which woke a callback that did nothing.
# Re-recorded once when a client began to keep one channel per guard,
# closed with its last circuit, and the DDoS defense began to survive a
# refused rendezvous.  In the trace report the client's guard
# connection span now ends (3.378 s) instead of staying open, the box's
# core.session span ends at 3.504 s, not 3.582 s (the guard's close
# handler destroys the circuit at once), and the cells still in flight
# on the closed connection are dropped: cells_crypted fwd 48 -> 45,
# chunks 120 -> 116, events processed / scheduled 161 -> 157 and
# 164 -> 160.  In the presets every outcome is unchanged: chaos-soak's
# conns_torn_down falls 52 -> 40 and 7 of its 8 cdn sessions finish up
# to 0.27 s sooner; chaos-soak-standby's falls 53 -> 35 and its retries
# 15 -> 13, one cdn download finishes 77.9 s sooner and the two vault
# sessions up to 0.21 s later; in cross-plane 2 cdn and 5 guard
# sessions, and in ddos-burst 8 guard sessions, finish up to 2.9 s
# sooner (a circuit to an open guard channel skips the dial).
# Re-recorded once when the serving plane's weighted-fair pacing and the
# manifest's ``priority`` were deleted: metrics.txt loses only the line
# ``perf_qos_throttles 0`` and every preset's counters lose the
# ``qos_throttles`` key (it read 0 in all of them).  An interactive
# kvstore tenant's load_function frame no longer carries
# ``"priority": "interactive"``, so in chaos-recovery, cross-plane,
# migrate-handoff and qos-flash the KvStore sessions' ``done`` times
# (and, sharing their links, three qos-flash batch sessions') move by at
# most 50 us; every outcome, sim_time and other counter is unchanged.
# Re-recorded once when the chain's re-embed-on-failure was deleted:
# metrics.txt loses only the line ``perf_chain_reembeds 0``, every
# preset's counters lose the ``chain_reembeds`` key (it read 0 in all of
# them, at smoke and full scale), and chain-pipeline's service stats and
# SLO report lose ``reembeds``.  events.jsonl and trace.json, every
# record's outcome and time, sim_time and every other counter are
# unchanged.
TRACE_REPORT_SHA256 = {
    "events.jsonl": "f2a6c22983d014dcf08d483d7fed0a8ec24eaae030a53a2a29cedd6c68245b69",
    "trace.json": "0cd1a6ff7f1ccd091ecd281739f647d594d24b94d6499fae8cbd96ea240089b3",
    "metrics.txt": "50c0bddf070cfe441bddde02cb33e5071320cc6aa24f5be4123425e86622d14f",
}
PRESET_SHA256 = {
    "qos-flash": "5fda8879fbbc108c7f6bb86db1fad056fc0ccda6e9ca214e3f93007e564e5d45",
    "chaos-recovery": "df53f9f20bc7ae3d02e7b4c94b57e800aa28cb1c943595522f8a9481a904c5a8",
    "migrate-handoff": "e6887ea3bd03da6406d9e859e98b3d3b54e33fa2a8821ab0d985c114111a4b32",
    "ddos-burst": "bd8024f72560333353cbc9c6f05eec2d722b73ba07008fac7a4abb3c33b02527",
    "cross-plane": "cd3605810262a87c0f8df24ce230f21d98694903524e8c0dd98e7eaed2f095d6",
    "chain-pipeline": "72bb612ef0b21fe3139bfd2cc0dcc62ad1a63d708da9e8f0cfae6e6e6bc5dd2b",
    "chaos-soak": "ebef0a3f0f2de0cf9dc64cacf6c42fc5edbdaa849a4b7152ecd2e532428ce1a0",
    "chaos-soak-standby": "cd0fbf9d26989786d08cab85565e640a2427b86417c42a51c49241177020d46b",
}


class TestCommittedDigests:
    def test_trace_report_artifacts(self, tmp_path):
        # A fresh interpreter, as CI runs it: metrics.txt lists every
        # family the process ever touched, earlier tests' included.
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        subprocess.run([sys.executable, "-m", "repro", "trace-report",
                        "--seed", "2021", "--out", str(tmp_path)],
                       check=True, capture_output=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": src})
        assert {name: _sha256((tmp_path / name).read_bytes())
                for name in TRACE_REPORT_SHA256} == TRACE_REPORT_SHA256

    def test_every_stock_preset_is_pinned(self):
        assert set(PRESET_SHA256) == set(PRESETS)

    @pytest.mark.parametrize("name", sorted(PRESET_SHA256))
    def test_stock_preset(self, name):
        result = _preset_run(name)
        assert _digest({key: result[key] for key in
                        ("tenants", "sim_time", "counters")}) == PRESET_SHA256[name]


@functools.lru_cache(maxsize=None)
def _preset_run(name):
    """One run per stock preset, shared by the tests that read it."""
    return run_workload(preset(name))


class TestStockPresets:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_meets_its_slos(self, name):
        report = build_report(preset(name), _preset_run(name))
        assert report["passed"], [s for s in report["slos"]
                                  if s["status"] == "fail"]

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_plane_off_fields_read_zero(self, name):
        # A plane-off-zero field belongs to an opt-in plane: in a run that
        # left its plane off it must read 0, or it is declared wrong.
        spec = preset(name)
        on = {"qos": spec.planes.qos, "migrate": spec.planes.migrate,
              "chain": any(t.function == "chain" for t in spec.tenants)}
        counters = _preset_run(name)["counters"]
        checked = [f.name for f in FIELDS if f.kind == "plane-off-zero"
                   and f.plane in on and not on[f.plane]]
        assert {n: counters[n] for n in checked} == dict.fromkeys(checked, 0)

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

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.chaos import run_chaos_soak
from repro.core.client import BentoClient
from repro.core.manifest import FunctionManifest
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.browser import BrowserFunction
from repro.netsim.trace import TraceRecorder
from repro.tor.testnet import TorTestNetwork
from repro.workload.presets import PRESETS, preset
from repro.workload.runner import run_workload


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
# moved, by 6-7 us each.
TRACE_REPORT_SHA256 = {
    "events.jsonl": "f7d4d059d7a83b49e5a6688b60869a76d6741ed57e93e9db4cca2ff168c7b67a",
    "trace.json": "a854cf2778bfa3d6ca66bf23e186eaccb7a0e44692ada74aacc59f2fd69df9ef",
    "metrics.txt": "bfff24dc219e3e7b94649d485888c86046e6cf333744d431f7a8803c84652c15",
}
CHAOS_SOAK_SHA256 = "d21d9b2aea08a5fac5f6ea0f9aeaaf8ca102787e169b3b9427f6ea14614ef29d"
PRESET_SHA256 = {
    "qos-flash": "451b436f280eb6e03fd0616b930c29a4b941e84bd34cd29908b25f134b06dca9",
    "chaos-recovery": "e73834262ec58ac60ca2bae636fe1b3de290fa1e57a4ccedf6f9b12e7fb4f01a",
    "migrate-handoff": "effcebcdb35341ea41567d0292cc851ceb78a0ac3af9e27bca9533fe7310483e",
    "ddos-burst": "002481dd94eaffdf37d86b433787cf0a26e1c83475a75970ce00092ed8061361",
    "cross-plane": "26812d89b010aa1f11a21c7648f40af6bf0be852547fa6dda0def6cc46d428df",
    "chain-pipeline": "309dcfed8425adeceafc647c0c9687ee824f85637b70b68d8596d40e9abad8ca",
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

    def test_chaos_soak_result(self):
        assert _digest(run_chaos_soak(2021)) == CHAOS_SOAK_SHA256

    def test_every_stock_preset_is_pinned(self):
        assert set(PRESET_SHA256) == set(PRESETS)

    @pytest.mark.parametrize("name", sorted(PRESET_SHA256))
    def test_stock_preset(self, name):
        result = run_workload(preset(name))
        assert _digest({key: result[key] for key in
                        ("tenants", "sim_time", "counters")}) == PRESET_SHA256[name]

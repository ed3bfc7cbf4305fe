"""End-to-end determinism: identical seeds replay identical experiments.

Every published number from this repository depends on this property, so
it gets its own test: a full Bento workflow (network build, circuits,
attested upload, function execution, traffic) runs twice and must agree
on timing, traces, and results exactly.
"""

from repro.core.client import BentoClient
from repro.core.manifest import FunctionManifest
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.browser import BrowserFunction
from repro.netsim.trace import TraceRecorder
from repro.tor.testnet import TorTestNetwork


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

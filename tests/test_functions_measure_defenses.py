"""The Measure function and the in-band padding defense."""

import pytest

from repro.core.client import BentoClient
from repro.core.policy import MiddleboxNodePolicy
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.fingerprint.defenses import padded_tor_visit
from repro.functions.measure import MeasureFunction
from repro.netsim.trace import TraceRecorder
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


@pytest.fixture()
def meas_net():
    net = TorTestNetwork(n_relays=9, seed="measure", bento_fraction=0.25)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    net.servers = [BentoServer(r, net.authority, ias=ias,
                               policy=MiddleboxNodePolicy
                               .network_measurement_policy())
                   for r in net.bento_boxes()]
    net.create_web_server("probe.example", {"/blob": b"b" * 300_000})
    return net


class TestMeasureFunction:
    def test_accepted_by_measurement_policy(self, meas_net):
        """The restrictive preset (§5.5) admits exactly this workload."""
        assert MiddleboxNodePolicy.network_measurement_policy().permits(
            MeasureFunction.manifest())

    def test_rtt_and_failure_reporting(self, meas_net):
        client = BentoClient(meas_net.create_client(), ias=meas_net.ias)
        target = meas_net.relays[0]
        dead = meas_net.create_node("dark-host")

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(thread, MeasureFunction.SOURCE,
                                             MeasureFunction.manifest())
            report = yield from MeasureFunction.run(
                thread, session,
                targets=[(target.node.address, target.or_port),
                         (dead.address, 12345)],
                rtt_samples=3)
            yield from session.shutdown(thread)
            return report

        report = run_thread(meas_net, main)
        reachable, unreachable = report["targets"]
        assert reachable["rtt"] is not None and reachable["rtt"] > 0
        assert reachable["failures"] == 0
        assert unreachable["rtt"] is None
        assert unreachable["failures"] == 3

    def test_bandwidth_probe(self, meas_net):
        client = BentoClient(meas_net.create_client(), ias=meas_net.ias)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(thread, MeasureFunction.SOURCE,
                                             MeasureFunction.manifest())
            return (yield from session.invoke(thread, [
                [], 0, "https://probe.example/blob", 0]))

        report = run_thread(meas_net, main)
        assert report["bandwidth_bytes_per_s"] > 50_000


class TestPaddedVisit:
    def test_padding_fills_idle_gaps(self):
        net = TorTestNetwork(n_relays=9, seed="pad-visit")
        net.create_web_server("padsite.example",
                              {"/": b"<html>\n/r0\n</html>",
                               "/r0": b"r" * 40_000})

        def observe(padded):
            client = net.create_client(
                f"pad-{'on' if padded else 'off'}")
            recorder = TraceRecorder(client.node)

            def main(thread):
                if padded:
                    yield from padded_tor_visit(
                        thread, client, "padsite.example",
                        pad_rate_cells_per_s=80.0)
                else:
                    from repro.fingerprint.lab import standard_tor_visit

                    yield from standard_tor_visit(
                        thread, client, "padsite.example")

            run_thread(net, main)
            return recorder.cut()

        plain = observe(padded=False)
        padded = observe(padded=True)
        plain_up = sum(r.size for r in plain if r.direction == 1)
        padded_up = sum(r.size for r in padded if r.direction == 1)
        # The padded visit sends far more upstream cells (the DROPs).
        assert padded_up > 3 * plain_up

"""Direct (non-Tor) Bento sessions — the operator-infrastructure path."""

import pytest

from repro.core.client import BentoClient
from repro.core.manifest import FunctionManifest
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


@pytest.fixture()
def direct_net():
    net = TorTestNetwork(n_relays=8, seed="direct", bento_fraction=0.4)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    net.servers = [BentoServer(r, net.authority, ias=ias)
                   for r in net.bento_boxes()]
    return net


class TestConnectDirect:
    def test_full_protocol_over_direct_link(self, direct_net):
        client = BentoClient(direct_net.create_client(), ias=direct_net.ias)

        def main(thread):
            session = yield from client.connect_direct(
                thread, client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, "def f(x):\n    return x * 2\n    yield\n",
                FunctionManifest.create("f", "f", {"send"}))
            result = yield from session.invoke(thread, [21])
            yield from session.shutdown(thread)
            session.close()
            return result

        assert run_thread(direct_net, main) == 42

    def test_direct_is_faster_than_via_tor(self, direct_net):
        client = BentoClient(direct_net.create_client(), ias=direct_net.ias)

        def main(thread):
            box = client.pick_box()
            start = direct_net.sim.now
            session = yield from client.connect_direct(thread, box)
            yield from session.request_image(thread, "python")
            direct_time = direct_net.sim.now - start
            yield from session.shutdown(thread)

            start = direct_net.sim.now
            tor_session = yield from client.connect(thread, box)
            yield from tor_session.request_image(thread, "python")
            tor_time = direct_net.sim.now - start
            yield from tor_session.shutdown(thread)
            return direct_time, tor_time

        direct_time, tor_time = run_thread(direct_net, main)
        assert direct_time < tor_time / 2

    def test_function_can_deploy_direct(self, direct_net):
        code = """
def parent(child_source, child_manifest):
    handle = yield from api.deploy(child_source, child_manifest, direct=True)
    return (yield from api.remote_invoke(handle, []))
"""
        child = "def child():\n    return 'deployed-direct'\n    yield\n"
        client = BentoClient(direct_net.create_client(), ias=direct_net.ias)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, code, FunctionManifest.create(
                    "parent", "parent", {"deploy", "remote_invoke"}))
            child_manifest = FunctionManifest.create(
                "child", "child", {"send"}).to_wire()
            return (yield from session.invoke(thread, [child, child_manifest]))

        assert run_thread(direct_net, main) == "deployed-direct"

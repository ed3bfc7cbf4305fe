"""Hidden services: establishment, rendezvous, streams, manual mode."""

import pytest

from repro.netsim.bytestream import FramedStream
from repro.netsim.http import fetch, serve_body
from repro.netsim.simulator import Sleep
from repro.tor.hidden_service import HiddenService
from repro.tor.testnet import TorTestNetwork
from repro.util.errors import ReproError

from conftest import run_thread

CONTENT = b"hidden content " * 500


def _http_handler(net, body=CONTENT):
    def handler(stream, _host, _port):
        def serve(thread):
            framed = FramedStream(stream)
            frame = yield from framed.recv_frame(thread, timeout=120.0)
            if frame is not None:
                yield from serve_body(thread, framed, 200, body)
        net.sim.spawn(serve, name="hs-serve")
    return handler


@pytest.fixture()
def hs_net():
    net = TorTestNetwork(n_relays=9, seed="hs-tests")
    host = net.create_client("hs-host")
    service_box = {}

    def host_main(thread):
        service = HiddenService(host, _http_handler(net))
        yield from service.establish(thread, n_intro=3)
        service_box["service"] = service

    run_thread(net, host_main, name="hs-host")
    net.service = service_box["service"]
    net.host_client = host
    return net


class TestEstablishment:
    def test_intro_circuits_created(self, hs_net):
        assert len(hs_net.service.intro_circuits) == 3
        assert len({r.identity_fp for r in hs_net.service.intro_points}) == 3

    def test_descriptor_published_and_valid(self, hs_net):
        descriptor = hs_net.authority.fetch_hs_descriptor(
            str(hs_net.service.onion_address))
        assert descriptor.verify()
        assert len(descriptor.intro_points) == 3

    def test_republish_bumps_version(self, hs_net):
        before = hs_net.authority.fetch_hs_descriptor(
            str(hs_net.service.onion_address)).version
        hs_net.service.publish_descriptor()
        after = hs_net.authority.fetch_hs_descriptor(
            str(hs_net.service.onion_address)).version
        assert after == before + 1


class TestRendezvous:
    def test_full_fetch(self, hs_net):
        visitor = hs_net.create_client("visitor")

        def main(thread):
            circuit = yield from visitor.connect_to_hidden_service(
                thread, str(hs_net.service.onion_address))
            stream = yield from circuit.open_stream(thread, "", 80)
            framed = FramedStream(stream)
            response = yield from fetch(thread, framed, "/")
            framed.close()
            circuit.close()
            return response

        response = run_thread(hs_net, main)
        assert response.body == CONTENT

    def test_two_visitors_get_separate_rendezvous(self, hs_net):
        bodies = []

        def visit(thread, name):
            visitor = hs_net.create_client(name)
            circuit = yield from visitor.connect_to_hidden_service(
                thread, str(hs_net.service.onion_address))
            stream = yield from circuit.open_stream(thread, "", 80)
            framed = FramedStream(stream)
            bodies.append((yield from fetch(thread, framed, "/")).body)
            circuit.close()

        a = hs_net.sim.spawn(lambda t: visit(t, "va"), name="va")
        b = hs_net.sim.spawn(lambda t: visit(t, "vb"), name="vb")
        hs_net.sim.run()
        assert a.exception is None and b.exception is None
        assert bodies == [CONTENT, CONTENT]
        assert len(hs_net.service.rendezvous_circuits) >= 2

    def test_unknown_onion_rejected(self, hs_net):
        visitor = hs_net.create_client("lost")

        def main(thread):
            with pytest.raises(ReproError):
                yield from visitor.connect_to_hidden_service(
                    thread, "feedfeedfeedfeed.onion")

        run_thread(hs_net, main)

    def test_anonymity_service_never_learns_client_address(self, hs_net):
        """The service-side circuit has no endpoint at the visitor: the
        set of peers the host's node ever talked to excludes the
        visitor's address (unlinkability at the rendezvous)."""
        visitor = hs_net.create_client("anon-visitor")

        def main(thread):
            circuit = yield from visitor.connect_to_hidden_service(
                thread, str(hs_net.service.onion_address))
            stream = yield from circuit.open_stream(thread, "", 80)
            framed = FramedStream(stream)
            yield from fetch(thread, framed, "/")
            circuit.close()

        run_thread(hs_net, main)
        # Every rendezvous circuit of the service ends at a relay.
        relay_addrs = {r.node.address for r in hs_net.relays}
        for circuit in hs_net.service.rendezvous_circuits:
            assert circuit.conn.peer_of(hs_net.host_client.node).address \
                in relay_addrs


class TestManualIntroductions:
    def test_queue_and_complete(self, hs_net):
        net = TorTestNetwork(n_relays=9, seed="manual-hs")
        host = net.create_client("host")
        result = {}

        def host_main(thread):
            service = HiddenService(host, _http_handler(net, b"manual!"))
            service.manual_introductions = True
            yield from service.establish(thread, n_intro=2)
            result["service"] = service
            request = yield from service.wait_introduction(
                thread, timeout=300.0)
            assert "cookie" in request and "onionskin" in request
            yield from service.complete_rendezvous(thread, request)
            return True

        def visitor_main(thread):
            yield Sleep(8.0)
            visitor = net.create_client("visitor")
            circuit = yield from visitor.connect_to_hidden_service(
                thread, str(result["service"].onion_address))
            stream = yield from circuit.open_stream(thread, "", 80)
            framed = FramedStream(stream)
            body = (yield from fetch(thread, framed, "/")).body
            circuit.close()
            return body

        host_thread = net.sim.spawn(host_main, name="host")
        visitor_thread = net.sim.spawn(visitor_main, name="visitor")
        net.sim.run()
        assert host_thread.exception is None
        assert visitor_thread.result == b"manual!"

    def test_wait_requires_manual_mode(self, hs_net):
        def main(thread):
            from repro.tor.hidden_service import HiddenServiceError

            with pytest.raises(HiddenServiceError):
                yield from hs_net.service.wait_introduction(
                    thread, timeout=0.1)

        run_thread(hs_net, main)


class TestKeyCloning:
    def test_replica_with_copied_keys_can_answer(self):
        """§8.2's core trick: a *different* host with the service's key
        material completes the rendezvous, transparently to the client."""
        net = TorTestNetwork(n_relays=9, seed="clone-hs")
        primary = net.create_client("primary")
        replica_host = net.create_client("replica")
        shared = {}

        def primary_main(thread):
            service = HiddenService(primary, lambda *a: None)
            service.manual_introductions = True
            yield from service.establish(thread, n_intro=2)
            shared["service"] = service
            request = yield from service.wait_introduction(
                thread, timeout=300.0)
            shared["request"] = request

        def replica_main(thread):
            while "request" not in shared:
                yield Sleep(1.0)
            clone = HiddenService(
                replica_host, _http_handler(net, b"from-replica"),
                keypair=__import__("repro.crypto.rsa", fromlist=["RsaKeyPair"])
                .RsaKeyPair.from_parts(shared["service"].export_key_material()))
            assert clone.onion_address == shared["service"].onion_address
            yield from clone.complete_rendezvous(thread, shared["request"])

        def visitor_main(thread):
            yield Sleep(8.0)
            visitor = net.create_client("visitor")
            circuit = yield from visitor.connect_to_hidden_service(
                thread, str(shared["service"].onion_address))
            stream = yield from circuit.open_stream(thread, "", 80)
            framed = FramedStream(stream)
            body = (yield from fetch(thread, framed, "/")).body
            circuit.close()
            return body

        net.sim.spawn(primary_main, name="primary")
        net.sim.spawn(replica_main, name="replica")
        visitor_thread = net.sim.spawn(visitor_main, name="visitor")
        net.sim.run()
        net.sim.check_failures()
        assert visitor_thread.result == b"from-replica"

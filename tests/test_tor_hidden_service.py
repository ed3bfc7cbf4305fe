"""Hidden services: establishment, rendezvous, streams, manual mode."""

import pytest

from repro.crypto.aead import AeadKey
from repro.netsim.bytestream import FramedStream
from repro.netsim.http import fetch, serve_body
from repro.netsim.simulator import Sleep
from repro.tor.cell import RelayCellPayload, RelayCommand
from repro.tor.hidden_service import HiddenService
from repro.tor.relay import Relay
from repro.tor.testnet import TorTestNetwork
from repro.util.bytesutil import int_to_bytes
from repro.util.errors import ProtocolError, ReproError
from repro.util.serialization import canonical_decode, canonical_encode

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


class TestHostileBytesAtACircuitsEnd:
    """Relay payloads a peer chose, read where a circuit ends (ROADMAP 3,
    reproduction (i)): each is refused on its own, and the run goes on."""

    def test_a_begin_that_does_not_decode_is_answered_with_end(self, hs_net):
        visitor = hs_net.create_client("hostile")

        def main(thread):
            circuit = yield from visitor.connect_to_hidden_service(
                thread, str(hs_net.service.onion_address))
            heard, dispatch = [], circuit._dispatch
            circuit._dispatch = lambda parsed, from_hop: (
                heard.append((parsed.command, parsed.stream_id, parsed.data)),
                dispatch(parsed, from_hop))
            circuit.send_relay(RelayCommand.BEGIN, 9, b"\xff", to_hs=True)
            yield Sleep(5.0)
            # The same visitor, honest now, on the same circuit.
            stream = yield from circuit.open_stream(thread, "", 80)
            response = yield from fetch(thread, FramedStream(stream), "/")
            circuit.close()
            return heard, response

        heard, response = run_thread(hs_net, main)
        assert [(command, canonical_decode(data)) for command, stream_id, data
                in heard if stream_id == 9] == \
            [(RelayCommand.END, {"reason": "bad-begin"})]
        assert response.body == CONTENT
        assert not any(9 in circuit.streams
                       for circuit in hs_net.service.rendezvous_circuits)

    def test_a_connected_that_does_not_decode_ends_its_stream(self, hs_net):
        visitor = hs_net.create_client("misled")

        def main(thread):
            circuit = yield from visitor.connect_to_hidden_service(
                thread, str(hs_net.service.onion_address))
            yield Sleep(1.0)
            service_side = hs_net.service.rendezvous_circuits[-1]
            waiting = circuit._stream_cls(circuit, 7)
            circuit.streams[7] = waiting
            service_side.send_relay(RelayCommand.CONNECTED, 7, b"\xff",
                                    to_hs=True)
            yield Sleep(5.0)
            return circuit, waiting

        circuit, waiting = run_thread(hs_net, main)
        assert waiting.closed and not waiting.connected
        assert 7 not in circuit.streams

    def test_an_introduce2_that_does_not_decode_is_dropped(self, hs_net):
        circuit = hs_net.service.intro_circuits[0]
        before = len(hs_net.service.rendezvous_circuits)
        circuit._dispatch(RelayCellPayload(RelayCommand.INTRODUCE2, 0, b"\xff"),
                          from_hop=len(circuit.hops) - 1)
        hs_net.sim.run()
        assert len(hs_net.service.rendezvous_circuits) == before
        assert not circuit._control_backlog

    def test_an_introduce2_with_mistyped_fields_is_refused(self, hs_net):
        service = hs_net.service
        for outer in ([b"key", b"sealed"], {"c": "key", "sealed": b""}):
            with pytest.raises(ProtocolError):
                service.decrypt_introduce_blob(canonical_encode(outer))
        # Sealed properly to the service key, but the cookie is no bytes.
        ephemeral = 3 ** 100     # 20 bytes of key material, below n
        inner = {"cookie": "c" * 20, "rp_address": "10.0.0.1", "rp_port": 9001,
                 "onionskin": b"", "extra": {}}
        blob = canonical_encode({
            "c": int_to_bytes(service.keypair.public.encrypt_int(ephemeral)),
            "sealed": AeadKey(int_to_bytes(ephemeral)).seal(
                b"intro", canonical_encode(inner))})
        with pytest.raises(ProtocolError, match="cookie"):
            service.decrypt_introduce_blob(blob)

    @pytest.mark.parametrize("command, data", [
        (RelayCommand.INTRODUCE_ACK, canonical_encode(["ok"])),
        (RelayCommand.INTRODUCE_ACK, canonical_encode({"status": 1})),
        (RelayCommand.RENDEZVOUS2, canonical_encode({"blob": "reply"})),
        (RelayCommand.RENDEZVOUS2, canonical_encode(b"reply")),
    ])
    def test_a_mistyped_answer_fails_the_rendezvous_and_frees_it(
            self, hs_net, monkeypatch, command, data):
        reply = Relay._reply

        def hostile(relay, entry, cell):
            if cell.command == command:
                cell = RelayCellPayload(command, 0, data)
            reply(relay, entry, cell)

        monkeypatch.setattr(Relay, "_reply", hostile)
        visitor = hs_net.create_client("answered-badly")
        built, build = [], visitor.build_circuit

        def recording(*args, **kwargs):
            built.append((yield from build(*args, **kwargs)))
            return built[-1]

        monkeypatch.setattr(visitor, "build_circuit", recording)

        def main(thread):
            with pytest.raises(ProtocolError):
                yield from visitor.connect_to_hidden_service(
                    thread, str(hs_net.service.onion_address))

        run_thread(hs_net, main)
        assert len(built) == 2                  # rendezvous, introduction
        assert all(circuit.destroyed for circuit in built)


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

"""Integration: circuit construction, streams, flow control, teardown."""

import pytest

from repro.netsim.bytestream import FramedStream
from repro.netsim.http import HttpServer, fetch
from repro.netsim.simulator import Sleep
from repro.netsim.trace import TraceRecorder
from repro.tor.cell import CELL_SIZE, RelayCommand
from repro.tor.exitpolicy import ExitPolicy
from repro.tor.testnet import TorTestNetwork
from repro.util.errors import ProtocolError

from conftest import run_thread


@pytest.fixture()
def web_net():
    net = TorTestNetwork(n_relays=9, seed="circ-tests")
    net.create_web_server("origin.example",
                          {"/": b"front page", "/big": b"Z" * 300_000})
    return net


class TestCircuitConstruction:
    def test_three_hops_negotiated(self, web_net):
        client = web_net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread)
            assert len(circuit.hops) == 3
            assert len(circuit.path) == 3
            circuit.close()
            return True

        assert run_thread(web_net, main)

    def test_explicit_path(self, web_net):
        client = web_net.create_client()
        consensus = client.consensus()
        path = [consensus.routers[0], consensus.routers[4],
                consensus.routers[8]]

        def main(thread):
            circuit = yield from client.build_circuit(thread, path=path)
            assert [r.nickname for r in circuit.path] == \
                [r.nickname for r in path]
            circuit.close()

        run_thread(web_net, main)

    def test_single_hop_circuit(self, web_net):
        client = web_net.create_client()
        exit_relay = web_net.exit_relays()[0]

        def main(thread):
            circuit = yield from client.build_circuit(
                thread, path=[exit_relay.descriptor()])
            assert len(circuit.hops) == 1
            circuit.close()

        run_thread(web_net, main)

    def test_circuits_at_relays_accounted(self, web_net):
        client = web_net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread)
            guard_name = circuit.path[0].nickname
            guard = next(r for r in web_net.relays
                         if r.nickname == guard_name)
            assert guard.active_circuit_count >= 1
            circuit.close()

        run_thread(web_net, main)


class TestStreams:
    def test_http_fetch_through_circuit(self, web_net):
        client = web_net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(
                thread, exit_to=("origin.example", 443))
            stream = yield from circuit.open_stream(
                thread, "origin.example", 443)
            framed = FramedStream(stream)
            response = yield from fetch(thread, framed, "/")
            framed.close()
            circuit.close()
            return response

        response = run_thread(web_net, main)
        assert response.ok and response.body == b"front page"

    def test_large_transfer_exercises_sendme_windows(self, web_net):
        client = web_net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(
                thread, exit_to=("origin.example", 443))
            stream = yield from circuit.open_stream(
                thread, "origin.example", 443)
            framed = FramedStream(stream)
            response = yield from fetch(thread, framed, "/big")
            framed.close()
            circuit.close()
            return response

        response = run_thread(web_net, main)
        # 300 kB > the 500-cell (~250 kB) stream window: the transfer
        # only completes if SENDMEs replenish windows correctly.
        assert response.body == b"Z" * 300_000

    def test_multiple_streams_one_circuit(self, web_net):
        client = web_net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(
                thread, exit_to=("origin.example", 443))
            streams = []
            for _ in range(3):
                streams.append((yield from circuit.open_stream(
                    thread, "origin.example", 443)))
            assert len({s.stream_id for s in streams}) == 3
            bodies = []
            for stream in streams:
                framed = FramedStream(stream)
                bodies.append((yield from fetch(thread, framed, "/")).body)
            circuit.close()
            return bodies

        assert run_thread(web_net, main) == [b"front page"] * 3

    def test_exit_policy_enforced(self, web_net):
        """An exit refuses to BEGIN to a destination its policy rejects."""
        net = TorTestNetwork(n_relays=9, seed="policy-net")
        net.create_web_server("site.example", {"/": b"x"})
        # Restrict every exit to port 80 only.
        for relay in net.exit_relays():
            relay.exit_policy = ExitPolicy.parse("accept *:80")
            relay.register_with(net.authority)
        client = net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread, length=3)
            with pytest.raises(ProtocolError):
                yield from circuit.open_stream(thread, "site.example", 443)
            circuit.close()

        run_thread(net, main)

    def test_stream_to_unreachable_host(self, web_net):
        client = web_net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread, length=3)
            with pytest.raises(ProtocolError):
                yield from circuit.open_stream(thread, "10.99.99.99", 80)
            circuit.close()

        run_thread(web_net, main)


class TestTeardown:
    def test_destroy_propagates_to_relays(self, web_net):
        client = web_net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread)
            names = [r.nickname for r in circuit.path]
            circuit.close()
            yield Sleep(2.0)   # let DESTROYs travel
            return names

        names = run_thread(web_net, main)
        for relay in web_net.relays:
            if relay.nickname in names:
                assert relay.active_circuit_count == 0

    def test_send_after_destroy_raises(self, web_net):
        client = web_net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread)
            circuit.close()
            from repro.tor.circuit import CircuitDestroyed

            with pytest.raises(CircuitDestroyed):
                circuit.send_relay(RelayCommand.DATA, 1, b"late")

        run_thread(web_net, main)


class TestCoverTrafficCells:
    def test_drop_cells_reach_middle_only(self, web_net):
        """RELAY_DROP addressed to the middle hop is absorbed there: the
        guard link sees it, the exit-side link does not."""
        client = web_net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread)
            middle_name = circuit.path[1].nickname
            exit_name = circuit.path[2].nickname
            middle = next(r for r in web_net.relays
                          if r.nickname == middle_name)
            exit_relay = next(r for r in web_net.relays
                              if r.nickname == exit_name)
            exit_tap = TraceRecorder(exit_relay.node)
            middle_before = middle.node.downlink.bytes_total
            for _ in range(10):
                client.send_drop(circuit, hop_index=1)
            yield Sleep(3.0)
            middle_delta = middle.node.downlink.bytes_total - middle_before
            circuit.close()
            return middle_delta, exit_tap.total_bytes()

        middle_delta, exit_bytes = run_thread(web_net, main)
        assert middle_delta >= 10 * CELL_SIZE
        assert exit_bytes == 0

    def test_drop_to_exit_is_silent(self, web_net):
        client = web_net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread)
            for _ in range(5):
                client.send_drop(circuit)    # default: last hop
            yield Sleep(2.0)
            assert not circuit.destroyed     # exit absorbed them quietly
            circuit.close()

        run_thread(web_net, main)

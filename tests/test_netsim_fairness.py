"""Bandwidth-sharing properties of the link model.

Figure 5's claim rests on concurrent flows sharing a bottleneck fairly;
these tests pin that behavior down at the netsim layer.
"""

from repro.netsim.bytestream import DirectByteStream, FramedStream
from repro.netsim.http import HttpServer, fetch, http_get
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator, Sleep


def _bottleneck_net(n_clients, server_rate=100_000.0):
    sim = Simulator(seed=9)
    net = Network(sim, min_latency_s=0.01, max_latency_s=0.012)
    server = net.create_node("server", up_bytes_per_s=server_rate,
                             down_bytes_per_s=server_rate)
    net.register_dns("files.example", server)
    HttpServer(server, {"/f": b"z" * 200_000})
    clients = [net.create_node(f"c{i}", up_bytes_per_s=1e9,
                               down_bytes_per_s=1e9)
               for i in range(n_clients)]
    return sim, net, clients


class TestFairSharing:
    def test_two_flows_split_bottleneck(self):
        sim, net, clients = _bottleneck_net(2)
        done = {}

        def fetcher(thread, index):
            response = yield from http_get(thread, net, clients[index],
                                           "https://files.example/f")
            done[index] = response.elapsed

        for i in range(2):
            sim.spawn(lambda t, i=i: fetcher(t, i))
        sim.run()
        sim.check_failures()
        # Concurrent equal flows finish within ~25% of each other.
        a, b = done[0], done[1]
        assert abs(a - b) / max(a, b) < 0.25

    def test_n_flows_scale_completion_time(self):
        def mean_time(n):
            sim, net, clients = _bottleneck_net(n)
            done = {}

            def fetcher(thread, index):
                response = yield from http_get(thread, net, clients[index],
                                               "https://files.example/f")
                done[index] = response.elapsed

            for i in range(n):
                sim.spawn(lambda t, i=i: fetcher(t, i))
            sim.run()
            sim.check_failures()
            return sum(done.values()) / len(done)

        one, four = mean_time(1), mean_time(4)
        # Four flows contend for the same uplink: each takes materially
        # longer than an uncontended flow (between 2x and 6x).
        assert 2.0 * one < four < 6.0 * one

    def test_flow_starting_late_still_gets_share(self):
        sim, net, clients = _bottleneck_net(2)
        done = {}

        def fetcher(thread, index, delay):
            yield Sleep(delay)
            response = yield from http_get(thread, net, clients[index],
                                           "https://files.example/f")
            done[index] = response.elapsed

        sim.spawn(lambda t: fetcher(t, 0, 0.0))
        sim.spawn(lambda t: fetcher(t, 1, 0.5))
        sim.run()
        sim.check_failures()
        assert done[1] < 3.0 * done[0]    # no starvation of the late flow


class TestCircuitCrypto:
    def test_payload_unreadable_mid_path(self):
        """The onion layers keep payloads unrecognizable mid-path."""
        from repro.tor.cell import CellCommand
        from repro.tor.testnet import TorTestNetwork

        net = TorTestNetwork(n_relays=9, seed="fast-wire")
        net.create_web_server("w.example", {"/": b"MARKER" * 200})
        client = net.create_client()
        captured = []

        def main(thread):
            circuit = yield from client.build_circuit(
                thread, exit_to=("w.example", 443))
            middle = next(r for r in net.relays
                          if r.nickname == circuit.path[1].nickname)
            original = middle._send_cell

            def spy(conn, cell):
                if cell.command == CellCommand.RELAY:
                    captured.append(bytes(cell.payload))
                original(conn, cell)

            middle._send_cell = spy
            stream = yield from circuit.open_stream(thread, "w.example", 443)
            framed = FramedStream(stream)
            body = (yield from fetch(thread, framed, "/")).body
            middle._send_cell = original
            circuit.close()
            return body

        body = net.sim.run_until_done(net.sim.spawn(main))
        assert body == b"MARKER" * 200
        assert captured and not any(b"MARKER" in p for p in captured)

"""Nodes, interfaces, latency model, dialing, connections."""

import pytest

from repro.netsim.connection import (
    Connection,
    ConnectionClosed,
    LoopbackConnection,
)
from repro.netsim.network import Network, NetworkError
from repro.netsim.simulator import Simulator, Sleep


@pytest.fixture()
def net():
    sim = Simulator(seed=1)
    return Network(sim)


class TestInterface:
    def test_serialization_time(self, net):
        node = net.create_node("n", up_bytes_per_s=1000.0)
        finish = node.uplink.transmit(500)
        assert finish == pytest.approx(0.5)

    def test_fifo_backlog(self, net):
        node = net.create_node("n", up_bytes_per_s=1000.0)
        node.uplink.transmit(1000)
        finish = node.uplink.transmit(1000)
        assert finish == pytest.approx(2.0)
        assert node.uplink.backlog_seconds == pytest.approx(2.0)

    def test_taps_observe_chunks(self, net):
        node = net.create_node("n")
        seen = []
        node.uplink.add_tap(lambda t, size: seen.append(size))
        node.uplink.transmit(100)
        node.uplink.transmit(200)
        assert seen == [100, 200]

    def test_negative_size_rejected(self, net):
        node = net.create_node("n")
        with pytest.raises(ValueError):
            node.uplink.transmit(-1)


class TestNetworkTopology:
    def test_auto_addresses_unique(self, net):
        addresses = {net.create_node(f"n{i}").address for i in range(50)}
        assert len(addresses) == 50

    def test_duplicate_name_rejected(self, net):
        net.create_node("dup")
        with pytest.raises(NetworkError):
            net.create_node("dup")

    def test_lookup_by_name_and_address(self, net):
        node = net.create_node("findme")
        assert net.node("findme") is node
        assert net.node_at(node.address) is node
        with pytest.raises(NetworkError):
            net.node("missing")

    def test_dns(self, net):
        node = net.create_node("web")
        net.register_dns("example.com", node)
        assert net.resolve("example.com") == node.address
        assert net.resolve(node.address) == node.address
        with pytest.raises(NetworkError):
            net.resolve("nxdomain.example")
        with pytest.raises(NetworkError):
            net.register_dns("example.com", node)


class TestLatency:
    def test_symmetric_and_stable(self, net):
        a, b = net.create_node("a"), net.create_node("b")
        assert net.latency(a, b) == net.latency(b, a)
        assert net.latency(a, b) == net.latency(a, b)

    def test_loopback_zero(self, net):
        a = net.create_node("a")
        assert net.latency(a, a) == 0.0

    def test_within_bounds(self, net):
        nodes = [net.create_node(f"n{i}") for i in range(10)]
        for i in range(9):
            latency = net.latency(nodes[i], nodes[i + 1])
            assert net.min_latency <= latency <= net.max_latency

    def test_override(self, net):
        a, b = net.create_node("a"), net.create_node("b")
        net.set_latency("a", "b", 0.123)
        assert net.latency(a, b) == 0.123

    def test_geo_mode_scales_with_distance(self):
        sim = Simulator(0)
        net = Network(sim, geo_latency_s_per_unit=0.1)
        a = net.create_node("a", position=(0.0, 0.0))
        near = net.create_node("near", position=(0.1, 0.0))
        far = net.create_node("far", position=(0.9, 0.0))
        assert net.latency(a, far) > net.latency(a, near)


class TestDialing:
    def test_connect_and_exchange(self, net):
        sim = net.sim
        a, b = net.create_node("a"), net.create_node("b")
        received = []

        def accept(conn):
            conn.endpoint_of(b).on_message = (
                lambda c, payload, size: received.append((payload, size)))

        b.listen(5000, accept)

        def client(thread):
            conn = yield from net.connect_blocking(thread, a, b.address, 5000)
            conn.send(a, b"hello")
            yield Sleep(1.0)
            return conn

        thread = sim.spawn(client)
        sim.run_until_done(thread)
        assert received == [(b"hello", 5)]

    @pytest.mark.expects_failed_actors
    def test_connect_refused(self, net):
        sim = net.sim
        a, b = net.create_node("a"), net.create_node("b")

        def client(thread):
            yield from net.connect_blocking(thread, a, b.address, 1234)

        thread = sim.spawn(client)
        sim.run()
        assert isinstance(thread.exception, NetworkError)

    @pytest.mark.expects_failed_actors
    def test_connect_unknown_address(self, net):
        sim = net.sim
        a = net.create_node("a")

        def client(thread):
            yield from net.connect_blocking(thread, a, "1.2.3.4", 80)

        thread = sim.spawn(client)
        sim.run()
        assert isinstance(thread.exception, NetworkError)

    def test_handshake_takes_rtt(self, net):
        sim = net.sim
        a, b = net.create_node("a"), net.create_node("b")
        net.set_latency("a", "b", 0.1)
        b.listen(80, lambda conn: None)

        def client(thread):
            yield from net.connect_blocking(
                thread, a, b.address, 80, handshake_rtts=2.0)
            return sim.now

        thread = sim.spawn(client)
        assert sim.run_until_done(thread) == pytest.approx(0.4)

    def test_transfer_time_includes_bandwidth(self, net):
        sim = net.sim
        a = net.create_node("a", up_bytes_per_s=10_000.0)
        b = net.create_node("b", down_bytes_per_s=10_000.0)
        net.set_latency("a", "b", 0.05)
        arrival = []

        def accept(conn):
            conn.endpoint_of(b).on_message = (
                lambda c, payload, size: arrival.append(sim.now))

        b.listen(80, accept)

        def client(thread):
            conn = yield from net.connect_blocking(thread, a, b.address, 80)
            conn.send(a, b"x" * 10_000)

        sim.spawn(client)
        sim.run()
        # Chunks pipeline through both interfaces: handshake (0.1) +
        # uplink serialization (1.0) + latency (0.05) + final-chunk
        # downlink time (4096/10000 s).
        expected = 0.1 + 1.0 + 0.05 + 4096 / 10_000
        assert arrival[0] == pytest.approx(expected, abs=0.02)

    def test_close_notifies_peer(self, net):
        sim = net.sim
        a, b = net.create_node("a"), net.create_node("b")
        closed = []

        def accept(conn):
            conn.endpoint_of(b).on_close = lambda c: closed.append("b")

        b.listen(80, accept)

        def client(thread):
            conn = yield from net.connect_blocking(thread, a, b.address, 80)
            conn.close()
            with pytest.raises(ConnectionClosed):
                conn.send(a, b"late")

        thread = sim.spawn(client)
        sim.run_until_done(thread)
        assert closed == ["b"]


class TestLoopback:
    def test_sides_have_distinct_endpoints(self):
        sim = Simulator()
        net = Network(sim)
        node = net.create_node("solo")
        side_a, side_b = LoopbackConnection.create(sim, node)
        assert side_a.endpoint_of(node) is not side_b.endpoint_of(node)

    def test_roundtrip(self):
        sim = Simulator()
        net = Network(sim)
        node = net.create_node("solo")
        side_a, side_b = LoopbackConnection.create(sim, node)
        got = []
        side_b.endpoint_of(node).on_message = (
            lambda c, payload, size: got.append(payload))
        side_a.send(node, b"ping")
        sim.run()
        assert got == [b"ping"]

    def test_close_propagates(self):
        sim = Simulator()
        net = Network(sim)
        node = net.create_node("solo")
        side_a, side_b = LoopbackConnection.create(sim, node)
        side_a.close()
        assert side_b.closed
        with pytest.raises(ConnectionClosed):
            side_b.send(node, b"x")

"""A client keeps one channel per guard, as relays keep one per peer.

Every circuit a client builds through a guard rides one connection: the
channel's table maps circuit ids to circuits, a cell goes to the circuit
its id names, and the connection closes with the last circuit on it.
"""

import pytest

from repro.netsim.bytestream import FramedStream
from repro.netsim.faults import FaultPlane
from repro.netsim.http import fetch
from repro.netsim.simulator import Sleep
from repro.tor import ntor
from repro.tor.cell import Cell, CellCommand
from repro.tor.relay import Relay
from repro.tor.testnet import TorTestNetwork
from repro.util.bytesutil import int_to_bytes
from repro.util.errors import ProtocolError

from conftest import run_thread


@pytest.fixture()
def net():
    net = TorTestNetwork(n_relays=9, seed="guard-channel")
    net.create_web_server("origin.example", {"/": b"front page"})
    return net


def _paths(client):
    """Two paths through one guard to different exits (relays 5-8 exit)."""
    routers = {r.nickname: r for r in client.consensus().routers}
    return ([routers[name] for name in ("relay0", "relay1", "relay7")],
            [routers[name] for name in ("relay0", "relay2", "relay8")])


def _relay(net, descriptor):
    (relay,) = [r for r in net.relays if r.nickname == descriptor.nickname]
    return relay


def _fetch(thread, circuit):
    stream = yield from circuit.open_stream(thread, "origin.example", 443)
    return (yield from fetch(thread, FramedStream(stream), "/")).body


def _pair(client, thread):
    first, second = _paths(client)
    a = yield from client.build_circuit(thread, path=first)
    b = yield from client.build_circuit(thread, path=second)
    return a, b


def test_two_circuits_to_one_guard_share_one_connection(net):
    client = net.create_client()

    def main(thread):
        a, b = yield from _pair(client, thread)
        assert a.conn is b.conn and list(client.node.connections) == [a.conn]
        assert a.channel.circuits == {a.circ_id: a, b.circ_id: b}
        bodies = [(yield from _fetch(thread, a)), (yield from _fetch(thread, b))]
        a.close()
        b.close()
        return bodies

    assert run_thread(net, main) == [b"front page"] * 2


@pytest.mark.parametrize("how", ["close", "destroy"])
def test_one_circuits_end_leaves_its_sibling_working(net, how):
    client = net.create_client()

    def main(thread):
        a, b = yield from _pair(client, thread)
        if how == "close":
            a.close()
        else:       # the guard tears ``a`` down and says so with DESTROY
            guard = _relay(net, a.path[0])
            entry, _from_prev = guard._channels[a.conn].circuits[a.circ_id]
            guard._destroy_entry(entry, notify_prev=True, notify_next=True)
        yield Sleep(2.0)
        assert a.destroyed and not b.destroyed and not b.conn.closed
        assert client.circuits == [b]
        body = yield from _fetch(thread, b)
        b.close()
        return body

    assert run_thread(net, main) == b"front page"


def test_a_guard_crash_fails_every_circuit_on_it(net):
    client = net.create_client()

    def main(thread):
        a, b = yield from _pair(client, thread)
        stream = yield from b.open_stream(thread, "origin.example", 443)
        FaultPlane(net.network).crash_node(a.path[0].nickname)
        assert a.destroyed and b.destroyed and stream.closed
        assert client.circuits == [] and client._channels == {}

    run_thread(net, main)


def test_the_last_circuits_teardown_closes_the_connection(net):
    client = net.create_client()

    def main(thread):
        a, b = yield from _pair(client, thread)
        conn = a.conn
        a.close()
        yield Sleep(2.0)
        assert not conn.closed
        b.close()
        # Closed at once: the DESTROY just sent is dropped, and the guard's
        # close handler does its work, passing DESTROY on down the path.
        assert conn.closed and client._channels == {}
        yield Sleep(2.0)

    run_thread(net, main)
    assert all(relay.active_circuit_count == 0 for relay in net.relays)
    assert not [conn for relay in net.relays for conn in relay._channels
                if conn.closed]


def test_after_k_visitors_no_client_guard_connection_is_open(net):
    nodes = []

    def visitor(thread):
        client = net.create_client()
        nodes.append(client.node)
        circuit = yield from client.build_circuit(
            thread, exit_to=("origin.example", 443))
        body = yield from _fetch(thread, circuit)
        circuit.close()
        return body

    visitors = [net.sim.spawn(visitor, name=f"visitor{k}") for k in range(5)]
    assert [net.sim.run_until_done(task) for task in visitors] == \
        [b"front page"] * 5
    assert all(not node.connections for node in nodes)
    assert not [conn for relay in net.relays for conn in relay._channels
                if conn.peer_of(relay.node) in nodes]


def test_a_forged_created_leaves_no_guard_connection_open(net, monkeypatch):
    """A guard answering CREATE with a degenerate public value fails the
    build with ProtocolError; the failed circuit is closed, and with it
    the channel it was the only circuit on."""
    forged = int_to_bytes(1, ntor.PUBLIC_LEN) + bytes(ntor.AUTH_LEN)
    monkeypatch.setattr(
        Relay, "_handle_create",
        lambda self, conn, cell: self._send_cell(
            conn, Cell(cell.circ_id, CellCommand.CREATED, forged)))
    client = net.create_client()

    def main(thread):
        with pytest.raises(ProtocolError, match="out of range"):
            yield from client.build_circuit(thread)

    run_thread(net, main)
    assert client.circuits == [] and client._channels == {}
    assert not client.node.connections

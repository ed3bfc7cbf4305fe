"""A circuit's lifetime: once torn down it is unreachable, and while it
lives it holds only what it can still use.

A circuit rides its client's channel to the guard and leaves that
channel's table on teardown; the channel closes its connection with its
last circuit.  Before circuits let go, every closed circuit stayed
reachable through its guard endpoint's ``on_message``, and with it its
hops' ciphers and the ``TorClient`` that built it.
"""

import gc
import tracemalloc
import weakref

from repro.netsim.simulator import Sleep
from repro.perf.counters import counters
from repro.tor.cell import CELL_SIZE, RELAY_PAYLOAD_SIZE, Cell, CellCommand
from repro.tor.client import TorClient
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


def _net():
    return TorTestNetwork(n_relays=6, seed="circuit-lifetime")


def _guard(net, circuit):
    (guard,) = [relay for relay in net.relays
                if relay.nickname == circuit.path[0].nickname]
    return guard


def _collected(ref) -> bool:
    gc.collect()
    return ref() is None


class TestATornDownCircuitIsFreed:
    def test_after_close(self):
        net = _net()
        client = net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread)
            circuit.close()
            yield Sleep(2.0)
            return weakref.ref(circuit)

        assert _collected(run_thread(net, main))

    def test_after_a_relays_destroy(self):
        net = _net()
        client = net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(thread)
            guard = _guard(net, circuit)
            (entry,) = guard._entries()
            guard._destroy_entry(entry, notify_prev=True, notify_next=True)
            yield Sleep(2.0)
            assert circuit.destroyed
            return weakref.ref(circuit)

        assert _collected(run_thread(net, main))

    def test_a_finished_visitors_tor_client(self):
        """A visitor that makes its own client, uses a circuit and ends
        leaves neither behind, and its guard connection closes with the
        circuit."""
        net = _net()

        def visitor(thread):
            node = net.network.create_node("visitor")
            client = TorClient(net.network, node, net.authority)
            circuit = yield from client.build_circuit(thread)
            circuit.close()
            yield Sleep(2.0)
            assert circuit.conn.closed and not node.connections
            return weakref.ref(client), weakref.ref(circuit)

        refs = run_thread(net, visitor)
        assert [_collected(ref) for ref in refs] == [True, True]


def test_a_late_cell_for_a_dead_circuit_is_not_peeled():
    net = _net()
    client = net.create_client()

    def main(thread):
        path = client.consensus().routers[:3]
        circuit = yield from client.build_circuit(thread, path=path)
        # A sibling on the same guard keeps the channel, and so the
        # connection the late cell arrives on, open.
        sibling = yield from client.build_circuit(thread, path=path)
        circuit.close()
        yield Sleep(2.0)
        before = counters.cells_crypted
        guard = _guard(net, circuit)
        circuit.conn.send(guard.node, Cell(circuit.circ_id, CellCommand.RELAY,
                                           bytes(RELAY_PAYLOAD_SIZE)),
                          size=CELL_SIZE)
        yield Sleep(2.0)
        sibling.close()
        return counters.cells_crypted - before

    assert run_thread(net, main) == 0


# Python-level bytes one idle 3-hop circuit holds at the client and its
# three relays, its guard connection included (the AES contexts are
# libcrypto's, not traced).  Read off this build at 10,397 bytes; the
# same circuit held 16,963 while each hop kept its digest state in three
# dicts, relay entries had no slots and every endpoint, message queue and
# CREATED reply was kept from the start.
IDLE_CIRCUIT_BYTES = 12_000


def test_an_idle_circuit_holds_little():
    net = _net()
    client = net.create_client()

    def main(thread):
        path = client.consensus().routers[:3]
        # The first build dials the relays' links; the measured one reuses them.
        (yield from client.build_circuit(thread, path=path)).close()
        yield Sleep(2.0)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            circuit = yield from client.build_circuit(thread, path=path)
            yield Sleep(2.0)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        circuit.close()
        return held

    assert run_thread(net, main) < IDLE_CIRCUIT_BYTES

"""What a relay's per-connection circuit tables must keep true.

The routing itself is held to a reference model in
``test_tor_relay_routing.py``.  Here: a dead connection leaves the relay,
rendezvous cookies are popped one at a time and never from a circuit that
holds them now, the byte test in front of ``open_payload`` only ever skips
the call, a forwarded cell costs the five frames it is made of, and a
client peels a train's cells in ten.
"""

import gc
import sys
import weakref

import pytest

from repro.netsim.bytestream import FramedStream
from repro.netsim.http import fetch
from repro.netsim.simulator import Sleep
from repro.tor import ntor
from repro.tor.cell import (CELL_SIZE, RELAY_DATA_SIZE, Cell, CellCommand,
                            RelayCellPayload, RelayCommand)
from repro.tor.layercrypto import BACKWARD, HopCrypto
from repro.tor.testnet import TorTestNetwork
from repro.util.serialization import canonical_decode, canonical_encode

from conftest import bulk_origin, run_thread
from test_tor_relay_unit import _create, _send_relay, rig  # noqa: F401

TRAIN = 100                         # cells; inside both package windows
BODY = bytes(TRAIN * RELAY_DATA_SIZE)


def _hops(net, circuit):
    relays = {relay.nickname: relay for relay in net.relays}
    return [relays[descriptor.nickname] for descriptor in circuit.path]


def _destroy(rig, circ_id):
    """The probe tears circuit ``circ_id`` down; run until the relay has."""
    def main(thread):
        rig.conn.send(rig.probe, Cell(circ_id, CellCommand.DESTROY, b""),
                      size=CELL_SIZE)
        yield Sleep(2.0)

    rig.sim.run_until_done(rig.sim.spawn(main))


def _recv_seqs(hop):
    return hop._fwd._recv_seq, hop._bwd._recv_seq


def _conn(relay, peer):
    """The one connection between ``relay`` and the node ``peer``."""
    (conn,) = [conn for conn in relay.node.connections
               if conn.peer_of(relay.node) is peer]
    return conn


class TestDeadConnections:
    def test_a_closed_connection_leaves_the_relay(self):
        net = TorTestNetwork(n_relays=6, seed="dead-connections")
        clients = [net.create_client(), net.create_client()]

        def main(thread):
            first = yield from clients[0].build_circuit(thread)
            yield from clients[1].build_circuit(thread, path=first.path)
            assert [relay.active_circuit_count
                    for relay in _hops(net, first)] == [2, 2, 2]
            return first

        guard, middle, exit_ = _hops(net, run_thread(net, main))
        neighbours = list(middle.node.connections)
        assert {conn.peer_of(middle.node) for conn in neighbours} == \
            {guard.node, exit_.node}
        for conn in neighbours:
            conn.close()
        net.sim.run()

        # Nothing reaches a closed connection any more: not the relay that
        # accepted it, not the one that dialed it and cached it for EXTENDs.
        dead = [weakref.ref(conn) for conn in neighbours]
        del neighbours, conn
        gc.collect()
        assert [ref() for ref in dead] == [None, None]
        assert middle._channels == {} and middle._or_conns == {}
        assert list(middle._entries()) == [] and middle.active_circuit_count == 0
        for relay in net.relays:
            assert not any(conn.closed for conn in relay._channels)
            assert not any(channel.conn.closed
                           for channel in relay._or_conns.values())
        assert [guard.active_circuit_count, exit_.active_circuit_count] == [0, 0]

    def test_a_dial_closed_on_accept_is_a_failed_extend(self, rig):
        """The dialed listener closes the connection in its accept handler,
        which runs before the relay's dial callback does: no ``on_close``
        will ever reach the relay.  It makes no channel for that connection,
        the client hears END extend-failed, and the next EXTEND to the same
        address dials again rather than sending CREATE into a dead cache."""
        slammer, accepted = rig.create_node("slammer"), []
        slammer.listen(9001, lambda conn: (accepted.append(conn), conn.close()))
        extend = canonical_encode({"address": slammer.address, "port": 9001,
                                   "onionskin": bytes(ntor.ONIONSKIN_LEN)})
        for dials in (1, 2):
            _send_relay(rig, RelayCommand.EXTEND, 0, extend)
            end = rig.crypto.open_payload(
                rig.crypto.crypt_backward(rig.received.pop().payload), BACKWARD)
            assert (end.command, canonical_decode(end.data)) == \
                (RelayCommand.END, {"reason": "extend-failed"})
            assert rig.received == [] and len(accepted) == dials
            assert all(conn.closed for conn in accepted)
            assert list(rig.relay._channels) == [rig.conn]
            assert rig.relay._or_conns == {}


class TestRendezvousCookies:
    COOKIE = canonical_encode({"cookie": b"C" * 20})

    def test_destroy_leaves_a_cookie_a_later_circuit_registered(self, rig):
        """Circuit 7 registers a cookie, circuit 8 registers it again, 7
        dies: the cookie is 8's, and a RENDEZVOUS1 still finds it."""
        def more_circuits(thread):
            eight = yield from _create(rig, thread, rig.conn, 8)
            nine = yield from _create(rig, thread, rig.conn, 9)
            return eight, nine

        crypto8, crypto9 = rig.sim.run_until_done(rig.sim.spawn(more_circuits))
        _send_relay(rig, RelayCommand.ESTABLISH_RENDEZVOUS, 0, self.COOKIE)
        _send_relay(rig, RelayCommand.ESTABLISH_RENDEZVOUS, 0, self.COOKIE,
                    circ_id=8, crypto=crypto8)
        for crypto in (rig.crypto, crypto8):    # keep both ciphers in step
            established = crypto.open_payload(
                crypto.crypt_backward(rig.received.pop(0).payload), BACKWARD)
            assert established.command == RelayCommand.RENDEZVOUS_ESTABLISHED

        _destroy(rig, 7)
        assert rig.relay.active_circuit_count == 2
        assert list(rig.relay._rend_waiting) == [b"C" * 20]

        _send_relay(rig, RelayCommand.RENDEZVOUS1, 0,
                    canonical_encode({"cookie": b"C" * 20, "blob": b"hs"}),
                    circ_id=9, crypto=crypto9)
        (spliced,) = rig.received
        assert spliced.circ_id == 8 and spliced.command == CellCommand.RELAY
        assert crypto8.open_payload(crypto8.crypt_backward(spliced.payload),
                                    BACKWARD).command == RelayCommand.RENDEZVOUS2
        assert rig.relay._rend_waiting == {}

    def test_a_circuit_waits_on_one_cookie_at_a_time(self, rig):
        """Each cookie a circuit registers replaces its last one, so what a
        circuit can leave in the table does not grow with what it sends."""
        for cookie in (b"1" * 20, b"2" * 20, b"3" * 20):
            _send_relay(rig, RelayCommand.ESTABLISH_RENDEZVOUS, 0,
                        canonical_encode({"cookie": cookie}))
        assert list(rig.relay._rend_waiting) == [b"3" * 20]

        _destroy(rig, 7)
        assert rig.relay._rend_waiting == {}


class TestRecognisedBytesOnlySkip:
    def test_zero_bytes_with_a_wrong_digest_are_still_forwarded(
            self, monkeypatch):
        """A cell that peels to ``00 00`` at the middle hop but fails its
        digest there is not the middle hop's: it goes through parse and
        digest, moves no counter, and travels on to the exit."""
        net = TorTestNetwork(n_relays=6, seed="recognised-bytes")
        net.create_web_server("site.example", {"/": b"served"})
        client = net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(
                thread, exit_to=("site.example", 443))
            guard, middle, exit_ = _hops(net, circuit)
            (entry,) = middle._entries()
            forwarded = []
            send = middle._send_cell
            middle._send_cell = lambda conn, cell: (
                forwarded.append((conn.peer_of(middle.node), cell.command)),
                send(conn, cell))
            # A HopCrypto has slots: spy on the class, for this hop only.
            opened, open_payload = [], HopCrypto.open_payload

            def spy(hop, payload, direction):
                if hop is entry.crypto:
                    opened.append(payload[:2])
                return open_payload(hop, payload, direction)

            monkeypatch.setattr(HopCrypto, "open_payload", spy)
            before = _recv_seqs(entry.crypto)

            payload = RelayCellPayload(RelayCommand.DROP, 0, b"").pack(
                digest=b"\xde\xad\xbe\xef")
            assert payload[:2] == b"\x00\x00"
            for hop in (circuit.hops[1], circuit.hops[0]):
                payload = hop.crypt_forward(payload)
            circuit._send_cell(Cell(circuit.circ_id, CellCommand.RELAY, payload))
            yield Sleep(3.0)

            assert opened == [b"\x00\x00"]              # it was looked at,
            assert _recv_seqs(entry.crypto) == before   # found wanting,
            assert forwarded == [(exit_.node, CellCommand.RELAY)]   # passed on
            # ... to the exit, which cannot place it and answers DESTROY.
            assert circuit.destroyed
            assert [relay.active_circuit_count
                    for relay in (guard, middle)] == [0, 0]
            middle._send_cell = send

            fresh = yield from client.build_circuit(thread, path=circuit.path)
            stream = yield from fresh.open_stream(thread, "site.example", 443)
            body = (yield from fetch(thread, FramedStream(stream), "/")).body
            fresh.close()
            return body

        assert run_thread(net, main) == b"served"


class _FrameCounter:
    """``sys.setprofile`` hook: Python frames under ``repro/tor/`` spent on
    each cell a relay or client is handed, per connection the cell arrived
    on.

    A cell's handling starts at the ``on_message`` handler the receiver put
    on its end of that connection and ends when that frame returns; sends
    are events, so nothing another node does is inside it.
    """

    def __init__(self, arriving):
        self.entry = {}         # code of a handler -> name of its conn argument
        self.cells = {}         # (handler's self, conn) -> cells handled
        self.frames = {}        # the same key -> frames under repro/tor/
        # (receiver, conn) -> the key, taken here: a closed circuit has
        # let go of its handler by the time count() is asked.
        self.keys = {}
        self.depth, self.key = 0, None
        for receiver, conn in arriving:
            handler = conn.endpoint_of(receiver.node).on_message
            code = handler.__func__.__code__
            self.entry[code] = code.co_varnames[1]
            # A connection has two ends: the handler's owner says which.
            key = self.keys[receiver, conn] = id(handler.__self__), conn
            self.cells[key] = self.frames[key] = 0

    def count(self, receiver, conn):
        """(cells handled, frames spent) by ``receiver`` on cells from ``conn``."""
        key = self.keys[receiver, conn]
        return self.cells[key], self.frames[key]

    def __call__(self, frame, event, _arg):
        if event == "call":
            if self.depth == 0:
                argument = self.entry.get(frame.f_code)
                if argument is None:
                    return
                key = (id(frame.f_locals["self"]), frame.f_locals[argument])
                if key not in self.cells:
                    return
                self.key = key
                self.cells[key] += 1
            self.depth += 1
            if "/repro/tor/" in frame.f_code.co_filename:
                self.frames[self.key] += 1
        elif event == "return" and self.depth:
            self.depth -= 1


class TestFramesPerForwardedCell:
    """The gain of per-connection tables is a property of the structure: five
    frames take a cell through a relay that only passes it on (the handler,
    the direction's forwarder, the hop's cipher entry, the read-ahead, the
    send), plus one cipher batch per train.  Through the relay-wide table it
    was nine forward and seven backward."""

    def _count(self, direction):
        net = TorTestNetwork(n_relays=6, seed="frames-per-cell")
        sunk = bulk_origin(net, BODY)
        client = net.create_client()

        def main(thread):
            circuit = yield from client.build_circuit(
                thread, exit_to=("origin.example", 80))
            guard, middle, exit_ = _hops(net, circuit)
            stream = yield from circuit.open_stream(thread, "origin.example", 80)
            # The connection the train reaches each receiver on.
            arriving = {
                "forward": [(guard, _conn(guard, client.node)),
                            (middle, _conn(middle, guard.node))],
                "backward": [(guard, _conn(guard, middle.node)),
                             (middle, _conn(middle, exit_.node))],
                "client": [(client, _conn(client, guard.node))],
            }[direction]
            counter = _FrameCounter(arriving)
            sys.setprofile(counter)
            try:
                if direction == "forward":
                    stream.send(BODY)
                    yield Sleep(5.0)
                else:
                    stream.send(b"GET")
                    received = 0
                    while received < len(BODY):
                        received += len((yield from stream.recv(thread, timeout=30.0)))
            finally:
                sys.setprofile(None)
            circuit.close()
            return [counter.count(receiver, conn) for receiver, conn in arriving]

        counts = run_thread(net, main)
        if direction == "forward":
            assert sunk[0] == len(BODY)
        return counts

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_a_train_costs_five_frames_a_cell(self, direction):
        for cells, frames in self._count(direction):
            assert cells == TRAIN
            assert frames <= 5 * TRAIN + 1


def test_a_client_peels_a_train_in_ten_frames_a_cell():
    """A 3-hop client handed a 100-cell train: only its first cell goes hop
    by hop, every other one straight to the exit's output and one digest
    check.  Counted with delivery to the stream and the three SENDMEs the
    train triggers: 956 frames (hop by hop for every cell: 2,045)."""
    ((cells, frames),) = TestFramesPerForwardedCell()._count("client")
    assert cells == TRAIN
    assert frames <= 10 * TRAIN

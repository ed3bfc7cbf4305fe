"""A routing oracle for the relay.

A relay keeps one circuit table per OR connection (``_Channel`` in
:mod:`repro.tor.relay`) and promises what one relay-wide table keyed
``(connection, circ_id)`` gave: a cell finds the circuit its *own*
connection carries under that id, a closing connection takes its circuits
with it in the order they were registered on it, and teardown frees both
of a circuit's ids.  The reference below is that relay-wide table and
nothing else.  Random programs of CREATE / CREATED / RELAY / DESTROY /
stray traffic / close / abort run against one real relay, over connections
whose circuit ids collide on purpose, and the two must agree on everything
the relay does about each step: which cells leave on which connection under
which id, which entry consumed a cell, which entries died and in what order.
"""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tor.relay as relay_mod
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator
from repro.tor import ntor
from repro.tor.cell import (CELL_SIZE, RELAY_PAYLOAD_SIZE, Cell, CellCommand,
                            RelayCellPayload, RelayCommand)
from repro.tor.descriptor import OR_PORT
from repro.tor.layercrypto import FORWARD, HopCrypto
from repro.tor.relay import Relay, _Channel
from repro.util.rng import DeterministicRandom
from repro.util.serialization import canonical_encode

#: The relay numbers the circuits it extends 65537, 65538, ...: probes pick
#: from the same few ids, so every id is live on several connections at once.
IDS = (1, 65537, 65538, 65539)
NEXT = "C"      # the connection the relay dials; "A" and "B" dial the relay


class _Entry:
    def __init__(self, serial, prev):
        self.serial, self.prev, self.next, self.destroyed = serial, prev, None, False


class ReferenceRouting:
    """One table keyed ``(connection, circ_id)``, the four commands, close.

    Every method returns what the relay does about the step, in order:
    ``("send", connection, circ_id, command)`` for a cell it sends,
    ``("consumed", entry)`` for a relay cell it recognises, ``("destroyed",
    entry)``.  An entry goes by the serial number of the CREATE that made it.
    """

    def __init__(self):
        self.routes = {}        # (conn, circ_id) -> (entry, "prev" | "next")
        self.pending = {}       # (conn, circ_id) -> entry, for a CREATE sent
        self.creates = self.extends = 0

    def create(self, key, good):
        if not good:                    # a ProtocolError: answered, no entry
            return [("send", *key, "DESTROY")]
        self.routes[key] = (_Entry(self.creates, key), "prev")
        self.creates += 1
        return [("send", *key, "CREATED")]

    def created(self, key):
        entry = self.pending.pop(key, None)
        if entry is None or entry.destroyed:
            return []
        entry.next = key
        self.routes[key] = (entry, "next")
        return [("send", *entry.prev, "RELAY")]         # EXTENDED

    def destroy(self, key):
        entry, side = self.routes.get(key, (None, None))
        return [] if entry is None else self._destroy(
            entry, notify_prev=side == "next", notify_next=side == "prev")

    def relay(self, key, kind, dialed):
        entry, side = self.routes.get(key, (None, None))
        if entry is None:
            return []                                   # stale
        if side == "next":
            return [("send", *entry.prev, "RELAY")]
        if kind == "drop":
            return [("consumed", entry.serial)]
        if kind == "unserved":
            return [("consumed", entry.serial), ("send", *key, "DESTROY")]
        if kind == "extend":
            self.extends += 1
            create = (dialed, self.extends | 1 << 16)
            self.pending[create] = entry
            return [("consumed", entry.serial), ("send", *create, "CREATE")]
        if entry.next is not None:                      # not this hop's
            return [("send", *entry.next, "RELAY")]
        return [("send", *key, "DESTROY")]              # end of the circuit

    def close(self, conn):
        dead = [entry for key, (entry, _side) in self.routes.items()
                if key[0] == conn]
        return [event for entry in dead
                for event in self._destroy(entry, True, True)]

    def _destroy(self, entry, notify_prev, notify_next):
        if entry.destroyed:
            return []
        entry.destroyed = True
        events = [("destroyed", entry.serial)]
        if notify_prev:
            events.append(("send", *entry.prev, "DESTROY"))
        if notify_next and entry.next is not None:
            events.append(("send", *entry.next, "DESTROY"))
        self.routes.pop(entry.prev, None)
        if entry.next is not None:
            self.routes.pop(entry.next, None)
        return events

    def live(self):
        return {entry.serial for entry, side in self.routes.values()
                if side == "prev"}


class _NumberedEntry(relay_mod.CircuitEntry):
    """A circuit entry that knows which CREATE of the run made it."""

    serials = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.serial = next(_NumberedEntry.serials)


class Rig:
    """One relay, the probes around it, and a log of what the relay does."""

    def __init__(self):
        self.sim = Simulator(seed="relay-routing")
        self.net = Network(self.sim)
        self.relay = relay = Relay(self.net, self.net.create_node("relay"), "relay")
        self.probes = {name: self.net.create_node(f"probe{name}")
                       for name in ("A", "B", NEXT)}
        self.probes[NEXT].listen(OR_PORT, lambda conn: self._opened(NEXT, conn))
        self.generation = dict.fromkeys(self.probes, 0)
        self.current = {}       # "A" | "B" | "C" -> its newest connection
        self.names = {}         # connection -> (name, generation)
        self.handshakes = {}    # (conn name, circ_id) -> NtorClientState
        self.crypto = {}        # (conn name, circ_id) -> HopCrypto
        self.log = []
        _NumberedEntry.serials = itertools.count()

        def sending(conn, cell, send=relay._send_cell):
            if not conn.closed:
                self.log.append(("send", self.names[conn], cell.circ_id,
                                 cell.command.name))
            send(conn, cell)

        def sending_destroy(conn, circ_id, send=relay._send_destroy):
            if not conn.closed:
                self.log.append(("send", self.names[conn], circ_id, "DESTROY"))
            send(conn, circ_id)

        def recognizing(entry, parsed, handle=relay._handle_recognized):
            self.log.append(("consumed", entry.serial))
            handle(entry, parsed)

        def destroying(entry, notify_prev, notify_next,
                       destroy=relay._destroy_entry):
            if not entry.destroyed:
                self.log.append(("destroyed", entry.serial))
            destroy(entry, notify_prev, notify_next)

        relay._send_cell, relay._send_destroy = sending, sending_destroy
        relay._handle_recognized, relay._destroy_entry = recognizing, destroying

    def _opened(self, name, conn):
        self.generation[name] += 1
        self.current[name] = conn
        self.names[conn] = (name, self.generation[name])
        conn.endpoint_of(self.probes[name]).on_message = self._received

    def _received(self, conn, cell, _size):
        key = (self.names[conn], cell.circ_id)
        if cell.command == CellCommand.CREATED and key in self.handshakes:
            self.crypto[key] = HopCrypto(self.handshakes.pop(key).finish(
                cell.payload[:ntor.REPLY_LEN]))

    def dial(self, name):
        future = self.net.connect(self.probes[name], self.relay.node.address,
                                  self.relay.or_port)
        self.sim.run()
        conn = future.result()
        self._opened(name, conn)
        return conn

    def live(self, name):
        conn = self.current.get(name)
        return conn if conn is not None and not conn.closed else None

    def payload(self, key, command, kind):
        """The payload of one cell; ``key`` says whose keys seal a RELAY."""
        if command == "CREATE" and kind == "good":
            state = self.handshakes[key] = ntor.NtorClientState(
                DeterministicRandom(f"{key}{self.sim.now}"),
                self.relay.fingerprint)
            return state.onionskin
        crypto = self.crypto.get(key)
        if command != "RELAY" or crypto is None:
            return b""      # as a CREATE: a zero public value, out of range
        if kind == "opaque":
            body = b"\xff" * RELAY_PAYLOAD_SIZE
        elif kind == "zeros":       # recognised bytes zero, digest wrong
            body = RelayCellPayload(RelayCommand.DROP, 0, b"").pack(
                digest=b"\xde\xad\xbe\xef")
        else:
            relay_command, data = {
                "drop": (RelayCommand.DROP, b""),
                "unserved": (RelayCommand.CONNECTED, b""),
                "extend": (RelayCommand.EXTEND, canonical_encode({
                    "address": self.probes[NEXT].address, "port": OR_PORT,
                    "onionskin": b"x" * ntor.ONIONSKIN_LEN})),
            }[kind]
            body = crypto.seal_payload(
                RelayCellPayload(relay_command, 0, data), FORWARD)
        return crypto.crypt_forward(body)


def _pick(reference, where, command, n):
    """Step ``n``'s circuit id on connection ``where``: mostly one that
    means something there (a circuit it carries, a CREATE it awaits an
    answer to; the newest for ``n < 0``), now and then any of ``IDS``.  A
    CREATE takes any."""
    table = reference.pending if command == "CREATED" else reference.routes
    mine = [] if command == "CREATE" else \
        [circ_id for conn, circ_id in table if conn == where]
    pool = mine[-1:] if n < 0 and mine else mine * 3 + list(IDS)
    return pool[n % len(pool)]


def run_and_check(program):
    """Run ``program`` on a relay and on the reference; compare step by step."""
    with mock.patch.object(relay_mod, "CircuitEntry", _NumberedEntry):
        rig, reference = Rig(), ReferenceRouting()
        for verb, name, *rest in program:
            conn = rig.live(name)
            if conn is None and name != NEXT:
                conn = rig.dial(name)
            if conn is None:
                continue            # only the relay dials this one
            where = rig.names[conn]
            if verb in ("close", "abort"):
                expected = reference.close(where)
                getattr(conn, verb)()
            elif verb == "stray":
                expected = []
                conn.send(rig.probes[name], b"not a cell")
            else:
                command, n, kind = rest
                key = (where, _pick(reference, where, command, n))
                if command == "CREATE":
                    expected = reference.create(key, kind == "good")
                elif command == "RELAY":
                    dialed = rig.names.get(rig.live(NEXT)) \
                        or (NEXT, rig.generation[NEXT] + 1)
                    expected = reference.relay(
                        key, kind if key in rig.crypto else "opaque", dialed)
                else:
                    expected = getattr(reference, command.lower())(key)
                conn.send(rig.probes[name],
                          Cell(key[1], CellCommand[command],
                               rig.payload(key, command, kind)),
                          size=CELL_SIZE)
            rig.sim.run()
            closed = {label for each, label in rig.names.items() if each.closed}
            expected = [event for event in expected
                        if event[0] != "send" or event[1] not in closed]
            assert rig.log == expected, f"at {(verb, name, *rest)}"
            rig.log.clear()
        assert rig.relay.active_circuit_count == len(reference.live())
        assert {entry.serial for entry in rig.relay._entries()} == reference.live()
        assert set(rig.relay._channels) == \
            {conn for conn in rig.names if not conn.closed}
        assert all(not channel.conn.closed
                   for channel in rig.relay._or_conns.values())


_n = st.integers(0, 99)
_CELLS = {
    "CREATE": st.tuples(st.just("CREATE"), _n,
                        st.sampled_from(["good"] * 5 + ["bad"])),
    "CREATED": st.tuples(st.just("CREATED"), _n, st.none()),
    "DESTROY": st.tuples(st.just("DESTROY"), _n, st.none()),
    "RELAY": st.tuples(st.just("RELAY"), _n, st.sampled_from(
        ["extend"] * 3 + ["opaque"] * 3 + ["zeros", "drop", "unserved"])),
}
_cell = st.sampled_from(["CREATE"] * 3 + ["CREATED"] * 3 + ["DESTROY"]
                        + ["RELAY"] * 6).flatmap(_CELLS.get)
_name = st.sampled_from(["A", "B", NEXT])
_STEPS = {
    "cell": st.tuples(st.just("cell"), _name).flatmap(
        lambda head: _cell.map(lambda cell: head + cell)),
    "other": st.tuples(st.sampled_from(["stray", "close", "abort"]), _name),
}
_step = st.sampled_from(["cell"] * 6 + ["other"]).flatmap(_STEPS.get)
#: A circuit through the relay in three steps; every fourth draw is one, so
#: that a close has circuits to take with it and a cell somewhere to go.
_build = st.tuples(st.sampled_from(["A", "B"]), _n).map(lambda drawn: [
    ("cell", drawn[0], "CREATE", drawn[1], "good"),
    ("cell", drawn[0], "RELAY", -1, "extend"),
    ("cell", NEXT, "CREATED", -1, None)])
_one = _step.map(lambda step: [step])
_program = st.lists(st.one_of(_one, _one, _one, _build), min_size=8,
                    max_size=40).map(lambda drawn: sum(drawn, []))


class TestRoutingOracle:
    @settings(deadline=None)    # max_examples: the profile in conftest.py
    @given(program=_program)
    def test_channel_tables_route_as_the_relay_wide_table_did(self, program):
        run_and_check(program)


# The oracle has to be able to fail.  Each mutation below is one way per-
# connection tables could be wrong, with a short program that exposes it.

def _one_table_for_every_connection(monkeypatch):
    init = _Channel.__init__

    def mutant(self, relay, conn, dialed=None):
        init(self, relay, conn, dialed)
        # mutation: one table per relay, keyed by circ_id alone
        self.circuits = relay.__dict__.setdefault("_one_table", {})

    monkeypatch.setattr(_Channel, "__init__", mutant)


def _close_destroys_in_reverse(monkeypatch):
    def mutant(self, _conn):
        del self.relay._channels[self.conn]
        for entry, _from_prev in reversed(list(self.circuits.values())):
            self.relay._destroy_entry(entry, notify_prev=True, notify_next=True)

    monkeypatch.setattr(_Channel, "on_close", mutant)


def _destroy_keeps_the_next_sides_id(monkeypatch):
    destroy = Relay._destroy_entry

    def mutant(self, entry, notify_prev, notify_next):
        channel, circ_id = entry.chan_next, entry.circ_id_next
        route = channel.circuits.get(circ_id) if channel is not None else None
        destroy(self, entry, notify_prev, notify_next)
        if route is not None:
            channel.circuits[circ_id] = route   # mutation: never popped

    monkeypatch.setattr(Relay, "_destroy_entry", mutant)


_TWO_HOPS = [("cell", "A", "CREATE", 0, "good"),
             ("cell", "A", "RELAY", -1, "extend"),
             ("cell", NEXT, "CREATED", -1, None)]
_MUTANTS = {
    "a table keyed by circ_id across connections": (
        _one_table_for_every_connection,
        # B never made circuit 1; A did.
        [("cell", "A", "CREATE", 0, "good"), ("cell", "B", "RELAY", 0, "opaque")]),
    "close destroys in reverse order": (
        _close_destroys_in_reverse,
        [("cell", "A", "CREATE", 0, "good"), ("cell", "A", "CREATE", 1, "good"),
         ("close", "A")]),
    "DESTROY leaves the other side's id behind": (
        _destroy_keeps_the_next_sides_id,
        # The next hop speaks on a circuit its neighbour tore down.
        _TWO_HOPS + [("cell", "A", "DESTROY", -1, None),
                     ("cell", NEXT, "RELAY", 1, "opaque")]),
}


class TestCheckerHasTeeth:
    @pytest.mark.parametrize("name", list(_MUTANTS))
    def test_mutation_is_caught(self, name, monkeypatch):
        mutate, program = _MUTANTS[name]
        run_and_check(program)
        mutate(monkeypatch)
        with pytest.raises(AssertionError):
            run_and_check(program)

"""Properties of the link model, over random programs on three nodes.

There is one link model (``Interface.transmit`` per chunk, paced by
``connection.pace_chunks``) and no second implementation to compare it
with, so it is held to what it promises instead: random programs of
send / close / abort / dial / spike / cut run to idle, and afterwards

* every interface's taps are one FIFO serializer's: completion times
  monotone, no chunk starts before the previous one finished or before
  it was handed over, ``bytes_total`` is the sum of the tapped sizes;
* sharing is fair: a chunk waits for an uplink at most one chunk per
  *other* message in flight there, which is what pacing at the busy
  horizon buys;
* no message is delivered earlier than physics allows — uplink time for
  all of it, the latency in force when its last chunk left, downlink
  time for that chunk — so a fault applies to a transfer in flight;
* nothing is delivered on a closed connection, a message on a connection
  that stays open is delivered exactly once, and ``run()`` returns;
* per direction, messages are delivered in the order their last chunks
  left the uplink, unless the connection's latency fell in between.

The last clause is weaker than "ordered", on purpose: a message sent
behind a multi-chunk one overtakes it, and so does one sent just after a
spike clears (ROADMAP item 7 has both reproductions).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.netsim.connection as connection_mod
from repro.netsim.connection import (DEFAULT_CHUNK, Connection,
                                     ConnectionClosed)
from repro.netsim.faults import FaultPlane
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator

EPS = 1e-9
#: name -> (uplink, downlink) bytes/s; unequal, so either side can be the
#: bottleneck of a pair.
RATES = {"a": (100_000.0, 60_000.0), "b": (80_000.0, 250_000.0),
         "c": (250_000.0, 100_000.0)}
PAIRS = [("a", "b"), ("a", "c"), ("b", "c")]


class World:
    """Three nodes, a fault plane, and a record of everything observable."""

    def __init__(self):
        self.sim = Simulator(seed="link-model")
        self.net = Network(self.sim)
        self.taps = {}          # interface -> [(handed over, finish, size, in flight)]
        self.in_flight = {}     # node name -> messages not yet off its uplink
        for name, (up, down) in RATES.items():
            node = self.net.create_node(name, up_bytes_per_s=up,
                                        down_bytes_per_s=down)
            self.in_flight[name] = 0
            for iface in (node.uplink, node.downlink):
                self.taps[iface] = []
                iface.add_tap(lambda finish, size, iface=iface, name=name:
                              self.taps[iface].append(
                                  (self.sim.now, finish, size,
                                   self.in_flight[name])))
        self.plane = FaultPlane(self.net)
        self.conns = []
        self.latency = {}       # conn -> [(time, one-way latency)] as it changed
        self.messages = []      # one dict per accepted send; index is the payload
        self.serialized = {}    # (conn, sender name) -> ids in on_sent order
        self.delivered = {}     # (conn, sender name) -> ids in delivery order
        for pair in PAIRS:
            self.dial(pair)

    # -- the program's verbs -----------------------------------------------

    def dial(self, pair):
        if not self.plane.link_up(*pair):
            return
        x, y = (self.net.node(name) for name in pair)
        conn = Connection(self.sim, x, y, self.net.latency(x, y))
        self.conns.append(conn)
        self.latency[conn] = [(self.sim.now, conn.latency)]
        for receiver, sender in ((x, y), (y, x)):
            key = (conn, sender.name)
            self.serialized[key], self.delivered[key] = [], []
            conn.endpoint_of(receiver).on_message = (
                lambda conn, ident, size, key=key:
                    self._on_message(conn, ident, size, key))

    def send(self, index, from_initiator, size):
        conn = self.conns[index % len(self.conns)]
        sender = conn.initiator if from_initiator else conn.responder
        ident = len(self.messages)
        self.in_flight[sender.name] += 1
        try:
            conn.send(sender, ident, size=size,
                      on_sent=lambda: self._on_sent(conn, sender.name, ident))
        except ConnectionClosed:
            assert conn.closed
            self.in_flight[sender.name] -= 1
            return
        assert not conn.closed
        self.messages.append({
            "conn": conn, "sender": sender, "size": size,
            "receiver": conn.peer_of(sender), "sent": self.sim.now,
            "off_uplink": None, "delivered": None})

    def close(self, index):
        self.conns[index % len(self.conns)].close()

    def abort(self, index):
        self.conns[index % len(self.conns)].abort()

    def spike(self, pair, extra_s, duration_s):
        self.plane.spike_latency(*pair, extra_s, duration_s)
        self._sample_latencies()
        if duration_s is not None:
            # Scheduled right behind the plane's own clear: same instant,
            # next sequence number.
            self.sim.schedule(duration_s, self._sample_latencies)

    def cut(self, pair, down_for_s):
        self.plane.cut_link(*pair, down_for_s)

    # -- observation -------------------------------------------------------

    def _sample_latencies(self):
        for conn, samples in self.latency.items():
            if conn.latency != samples[-1][1]:
                samples.append((self.sim.now, conn.latency))

    def _on_sent(self, conn, sender_name, ident):
        self.in_flight[sender_name] -= 1
        self.messages[ident]["off_uplink"] = self.sim.now
        self.serialized[conn, sender_name].append(ident)

    def _on_message(self, conn, ident, size, key):
        message = self.messages[ident]
        assert not conn.closed, f"message {ident} delivered after close"
        assert message["delivered"] is None, f"message {ident} delivered twice"
        assert (conn, size) == (message["conn"], message["size"])
        message["delivered"] = self.sim.now
        self.delivered[key].append(ident)

    def latencies_between(self, conn, start, end):
        """Every latency ``conn`` had during ``[start, end]``, in order
        (ends taken generously: a change at either instant counts)."""
        samples = self.latency[conn]
        before = [value for time, value in samples if time < start - EPS]
        during = [value for time, value in samples
                  if start - EPS <= time <= end + EPS]
        return before[-1:] + during


_size = st.one_of(st.integers(1, 200_000),
                  st.sampled_from([1, 514, DEFAULT_CHUNK, DEFAULT_CHUNK + 1,
                                   2 * DEFAULT_CHUNK, 65_536, 200_000]))
_STEPS = {
    "send": st.tuples(st.just("send"), st.integers(0, 99), st.booleans(),
                      _size),
    "close": st.tuples(st.just("close"), st.integers(0, 99)),
    "abort": st.tuples(st.just("abort"), st.integers(0, 99)),
    "dial": st.tuples(st.just("dial"), st.sampled_from(PAIRS)),
    "spike": st.tuples(st.just("spike"), st.sampled_from(PAIRS),
                       st.sampled_from([0.05, 0.5]),
                       st.sampled_from([None, 0.05, 1.0])),
    "cut": st.tuples(st.just("cut"), st.sampled_from(PAIRS),
                     st.sampled_from([None, 0.3])),
}
# Mostly traffic: the faults need something in flight to act on.
_step = st.sampled_from(["send"] * 10 + ["spike"] * 2 + ["dial"] * 2
                        + ["close", "abort", "cut"]).flatmap(_STEPS.get)
#: (seconds to run first, step); most steps land while earlier ones are
#: still on the wire.
_program = st.lists(
    st.tuples(st.sampled_from([0.0, 0.0, 0.0, 0.001, 0.02, 0.1, 0.5]), _step),
    min_size=8, max_size=40)


def run_and_check(program):
    """Run ``program`` to idle; assert every property in the module docstring."""
    world = World()
    sim = world.sim
    for gap, (verb, *args) in program:
        if gap:
            sim.run(until=sim.now + gap)
        getattr(world, verb)(*args)
    sim.run(max_events=1_000_000)
    assert sim.next_event_time() == float("inf")
    _check_interfaces(world)
    _check_messages(world)
    _check_order(world)


def _check_interfaces(world):
    uplinks = {world.net.node(name).uplink for name in RATES}
    for iface, taps in world.taps.items():
        assert sum(size for _at, _finish, size, _n in taps) == iface.bytes_total
        previous_finish = 0.0
        for handed_over, finish, size, in_flight in taps:
            start = finish - size / iface.rate
            assert finish >= previous_finish
            assert start >= max(previous_finish, handed_over) - EPS, \
                f"{iface.name}: chunks overlap"
            if iface in uplinks:
                others = (in_flight - 1) * DEFAULT_CHUNK / iface.rate
                assert start - handed_over <= others + EPS, (
                    f"{iface.name}: a chunk queued {start - handed_over:g}s "
                    f"behind {in_flight - 1} other message(s)")
            previous_finish = finish


def _check_messages(world):
    for ident, message in enumerate(world.messages):
        conn, size = message["conn"], message["size"]
        assert message["off_uplink"] is not None    # on_sent always fires
        if message["delivered"] is None:
            assert conn.closed, f"message {ident} lost on an open connection"
            continue
        last = size - DEFAULT_CHUNK * ((size - 1) // DEFAULT_CHUNK)
        up, down = message["sender"].uplink.rate, message["receiver"].downlink.rate
        last_chunk_starts = message["sent"] + (size - last) / up
        latency = min(world.latencies_between(
            conn, last_chunk_starts, message["delivered"]))
        earliest = message["sent"] + size / up + latency + last / down
        assert message["delivered"] >= earliest - EPS, (
            f"message {ident} ({size} B) delivered {message['delivered']:.6f}, "
            f"before {earliest:.6f}")


def _check_order(world):
    for (conn, sender_name), delivered in world.delivered.items():
        rank = {ident: position for position, ident
                in enumerate(world.serialized[conn, sender_name])}
        chunk_s = DEFAULT_CHUNK / RATES[sender_name][0]
        for first, second in zip(delivered, delivered[1:]):
            if rank[first] < rank[second]:
                continue
            # ``second`` left the uplink first and still arrived second:
            # only a latency that fell between the two departures does that.
            seen = world.latencies_between(
                conn, world.messages[second]["off_uplink"] - chunk_s,
                world.messages[first]["off_uplink"])
            assert any(b < a for a, b in zip(seen, seen[1:])), (
                f"{sender_name}: message {first} overtook {second} "
                f"(latencies {seen})")


class TestLinkModelProperties:
    @settings(deadline=None)    # max_examples: the profile in conftest.py
    @given(program=_program)
    def test_random_programs_keep_every_promise(self, program):
        run_and_check(program)


# The checker has to be able to fail.  Each mutation below is one way the
# model could be wrong that the properties exist to catch, with a
# two-step program that exposes it.

def _latency_read_once(self, uplink, receiver, payload, nbytes, on_sent):
    latency = self.latency      # mutation: once per message, not per chunk

    def put(chunk, final):
        if final:
            uplink.transmit(chunk, self._chunk_arrived, latency,
                            (receiver, payload, nbytes, chunk))
        else:
            uplink.transmit(chunk, receiver.downlink.transmit, latency,
                            (chunk,))

    connection_mod.pace_chunks(self.sim, uplink, self.chunk_size, nbytes,
                               put, on_sent)


def _paced_at_now(sim, uplink, chunk_size, remaining, put, on_sent):
    if remaining > chunk_size:
        put(chunk_size, False)
        sim.post_at(sim.now, _paced_at_now,    # mutation: not the busy horizon
                    (sim, uplink, chunk_size, remaining - chunk_size, put,
                     on_sent))
    else:
        put(remaining, True)
        if on_sent is not None:
            sim.post_at(uplink._busy_until, on_sent)


def _deliver_unchecked(self, receiver, payload, size):
    self._endpoints[receiver.name]._deliver(self, payload, size)    # mutation


MUTATIONS = {
    "latency read once per message": (
        (Connection, "_send_chunked", _latency_read_once),
        [(0.0, ("send", 0, True, 200_000)),
         (0.1, ("spike", ("a", "b"), 0.5, None))],
        "delivered .* before"),
    "next chunk paced at now": (
        (connection_mod, "pace_chunks", _paced_at_now),
        [(0.0, ("send", 0, True, 2 * DEFAULT_CHUNK))],
        "queued .* behind 0 other"),
    "_deliver ignores closed": (
        (Connection, "_deliver", _deliver_unchecked),
        [(0.0, ("send", 0, True, 514)), (0.001, ("close", 0))],
        "delivered after close"),
}


class TestCheckerHasTeeth:
    @pytest.mark.parametrize("name", sorted(MUTATIONS))
    def test_mutation_is_caught(self, name, monkeypatch):
        patch, program, complaint = MUTATIONS[name]
        run_and_check(program)      # passes on the real model
        monkeypatch.setattr(*patch)
        with pytest.raises(AssertionError, match=complaint):
            run_and_check(program)

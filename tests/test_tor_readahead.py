"""Reading ahead over a train must be invisible.

A hop that is handed cell ``i`` of a burst its sender batch-encrypted runs
the rest of the burst through its cipher at once
(:mod:`repro.tor.layercrypto`).  Whatever arrives next — the following cell,
a lone cell, another burst, the same burst somewhere else — every payload
must come out as it would from a cipher called once per cell, and a run over
a real circuit must not move a byte or a timestamp.
"""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.tor.layercrypto as layercrypto
from repro.crypto.stream import ReferenceCipher, StreamCipher
from repro.netsim.simulator import Sleep
from repro.perf.counters import counters
from repro.tor.cell import (RELAY_PAYLOAD_SIZE, Cell, RelayCellPayload,
                            RelayCommand)
from repro.tor.layercrypto import BACKWARD, BackwardPeel, HopCrypto, _Direction
from repro.tor.ntor import CircuitKeys
from repro.tor.testnet import TorTestNetwork
from repro.util.bytesutil import xor_bytes
from repro.util.serialization import canonical_encode

from conftest import bulk_origin, run_thread


def _keys(tag: bytes) -> CircuitKeys:
    digest = lambda s: hashlib.sha256(tag + s).digest()  # noqa: E731
    return CircuitKeys(kf=digest(b"kf"), kb=digest(b"kb"),
                       df=digest(b"df"), db=digest(b"db"))


def _cells(n: int, tag: int) -> list[bytes]:
    return [(hashlib.sha256(bytes([tag % 256, i])).digest()
             * 16)[:RELAY_PAYLOAD_SIZE] for i in range(n)]


class _Pipeline:
    """Two hops in a row, each beside a cipher that is called once per cell.

    The second hop reads ahead over the first one's output list, as the next
    relay on a circuit would.
    """

    def __init__(self, forward: bool, cipher=StreamCipher) -> None:
        self.forward = forward
        nonce = b"layer-f" if forward else b"layer-b"
        self.hops, self.oracles = [], []
        for tag in (b"first", b"second"):
            keys = _keys(tag)
            self.hops.append(HopCrypto(keys))
            self.oracles.append(
                cipher(keys.kf if forward else keys.kb, nonce=nonce))

    def _expect(self, payload: bytes) -> list[bytes]:
        stages = []
        for oracle in self.oracles:
            payload = oracle.process(payload)
            stages.append(payload)
        return stages

    def single(self, payload: bytes) -> None:
        expected = self._expect(payload)
        for hop, want in zip(self.hops, expected):
            payload = (hop.crypt_forward if self.forward
                       else hop.crypt_backward)(payload)
            assert payload == want

    def many(self, payloads: list[bytes]) -> None:
        expected = [self._expect(payload) for payload in payloads]
        for stage, hop in enumerate(self.hops):
            payloads = (hop.crypt_forward_many if self.forward
                        else hop.crypt_backward_many)(payloads)
            assert payloads == [stages[stage] for stages in expected]

    def deliver(self, train: list[bytes], index: int) -> None:
        """Cell ``index`` of ``train`` arrives at the first hop."""
        expected = self._expect(train[index])
        payload = train[index]
        for hop, want in zip(self.hops, expected):
            payload, train = (
                hop.crypt_forward_ahead if self.forward
                else hop.crypt_backward_ahead)(payload, train, index)
            assert payload == want
            assert train[index] is payload


def _run(pipeline: _Pipeline, ops) -> None:
    for tag, op in enumerate(ops):
        kind = op[0]
        if kind == "single":
            pipeline.single(bytes([tag % 256]) * op[1])
        elif kind == "many":
            pipeline.many([bytes([(tag + i) % 256]) * size
                           for i, size in enumerate(op[1])])
        else:
            _kind, length, runs = op
            train = _cells(length, tag)
            for start, count, interruption in runs:
                for index in range(start, min(start + count, length)):
                    pipeline.deliver(train, index)
                if interruption:
                    pipeline.single(b"\xa5" * interruption)
    # Whatever was left outstanding, the streams are where they should be.
    pipeline.single(bytes(64))


_SIZE = st.sampled_from([1, 17, 509, 1200]) | st.integers(1, 1200)


def _ops(max_train: int, max_ops: int):
    run = st.tuples(st.integers(0, max_train - 1), st.integers(1, max_train),
                    st.just(0) | _SIZE)
    train = st.tuples(st.just("train"), st.integers(2, max_train),
                      st.lists(run, min_size=1, max_size=3))
    single = st.tuples(st.just("single"), _SIZE)
    many = st.tuples(st.just("many"), st.lists(_SIZE, min_size=1, max_size=4))
    return st.lists(train | train | single | many, min_size=1,
                    max_size=max_ops)


class TestReadAheadEqualsPerCell:
    @pytest.mark.parametrize("forward", [True, False], ids=["fwd", "bwd"])
    @settings(deadline=None)
    @given(ops=_ops(max_train=40, max_ops=8))
    def test_native(self, forward, ops):
        _run(_Pipeline(forward), ops)

    @settings(deadline=None)
    @given(ops=_ops(max_train=4, max_ops=3))
    def test_reference_backend(self, ops):
        with mock.patch.object(layercrypto, "StreamCipher", ReferenceCipher):
            pipeline = _Pipeline(True, cipher=ReferenceCipher)
        _run(pipeline, ops)

    def test_uninterrupted_train_is_one_cipher_call(self):
        hop, train = HopCrypto(_keys(b"count")), _cells(40, 1)
        counters.reset()
        for index in range(40):
            hop.crypt_forward_ahead(train[index], train, index)
        assert counters.hash_calls == 1
        assert counters.keystream_bytes == 40 * RELAY_PAYLOAD_SIZE
        assert counters.cells_crypted == 40

    def test_abandoned_train_costs_one_more_call_and_no_keystream(self):
        hop, train = HopCrypto(_keys(b"count")), _cells(40, 2)
        counters.reset()
        for index in range(15):
            hop.crypt_forward_ahead(train[index], train, index)
        hop.crypt_forward(bytes(RELAY_PAYLOAD_SIZE))   # out of what was read
        assert counters.hash_calls == 1
        for index in range(15, 40):   # 24 cells of it left, one to make
            hop.crypt_forward_ahead(train[index], train, index)
        assert counters.hash_calls == 2
        assert counters.keystream_bytes == 41 * RELAY_PAYLOAD_SIZE
        assert counters.cells_crypted == 41

    def test_a_finished_train_is_let_go(self):
        hop, train = HopCrypto(_keys(b"count")), _cells(3, 3)
        for index in range(3):
            hop.crypt_backward_ahead(train[index], train, index)
        direction = hop._bwd
        assert direction._source is None and direction._output is None


# The property above is only worth having if it notices the three ways the
# abandon rule can be got wrong.  Each scenario is checked to pass on the
# real code and to fail on the mutant it is for.

def _abandon_without_pushback(self):
    self._source = self._output = None


def _abandon_appending(self):
    rest = slice(self._next, None)
    self._unread = self._unread + xor_bytes(b"".join(self._source[rest]),
                                            b"".join(self._output[rest]))
    self._source = self._output = None


def _process_ahead_trusting_index(self, payload, train, index):
    if train is self._source:
        self._next = index
    return _PROCESS_AHEAD(self, payload, train, index)


_PROCESS_AHEAD = _Direction.process_ahead

_MUTANTS = {
    "push-back removed": (
        "_abandon", _abandon_without_pushback,
        [("train", 10, [(0, 4, 509)])]),
    "push-back appended, not prepended": (
        "_abandon", _abandon_appending,
        # 35 cells handed back, 3 of them read again, 2 of those handed
        # back: they belong in front of the other 32.
        [("train", 40, [(0, 5, 0)]), ("train", 3, [(0, 1, 0)]),
         ("single", 1200)]),
    "index == next not checked": (
        "process_ahead", _process_ahead_trusting_index,
        [("train", 10, [(0, 3, 0), (5, 2, 0)])]),
}


@pytest.mark.parametrize("name", list(_MUTANTS))
def test_property_notices_each_broken_abandon_rule(name, monkeypatch):
    attribute, mutant, ops = _MUTANTS[name]
    _run(_Pipeline(True), ops)
    monkeypatch.setattr(_Direction, attribute, mutant)
    with pytest.raises(AssertionError):
        _run(_Pipeline(True), ops)


# -- the client peels a train once -----------------------------------------
#
# A schedule is what a 3-hop client receives, in order: ("lone", origin) or
# ("train", origins, delivered, lones), where the first ``delivered`` cells
# of the train arrive and each ``(after, origin)`` of ``lones`` arrives
# right after train cell ``after``.  An origin is the hop that sealed the
# cell, or ("zero", hop) for a cell no hop recognises that starts ``00 00``
# at ``hop``'s output.

_KEYS = [_keys(b"guard"), _keys(b"middle"), _keys(b"exit")]


def _keystream(hop: int, position: int) -> bytes:
    """Two bytes of ``hop``'s backward keystream, ``position`` bytes in."""
    cipher = StreamCipher(_KEYS[hop].kb, nonce=b"layer-b")
    return cipher.keystream(position + 2)[position:]


def _deliveries(schedule) -> list[tuple[bytes, list | None, int]]:
    """``(payload, train, index)`` for each cell the client receives, made
    by its relays in that order; cells of a train that never arrive are
    noise nothing crypted."""
    relays = [HopCrypto(keys) for keys in _KEYS]
    used = [0, 0, 0]                    # keystream bytes each relay spent
    arrivals = []

    def make(origin, tag):
        noise = _cells(1, tag)[0]
        if isinstance(origin, int):
            top, payload = origin, relays[origin].seal_payload(
                RelayCellPayload(RelayCommand.DATA, 1, noise[:tag % 499]),
                BACKWARD)
        else:
            # Relay 2 on down crypt it; client hop ``hop`` undoes relays
            # 2 ... hop + 1, so its output starts with their keystream.
            top, prefix = 2, bytes(2)
            for hop in range(origin[1] + 1, 3):
                prefix = xor_bytes(prefix, _keystream(hop, used[hop]))
            payload = prefix + noise[2:]
        for hop in range(top, -1, -1):
            payload = relays[hop].crypt_backward(payload)
            used[hop] += RELAY_PAYLOAD_SIZE
        return payload

    for item in schedule:
        if item[0] == "lone":
            arrivals.append((make(item[1], len(arrivals)), None, 0))
            continue
        _kind, origins, delivered, lones = item
        train = _cells(len(origins), 200 + len(arrivals))   # the noise
        for index in range(min(delivered, len(origins))):
            train[index] = make(origins[index], len(arrivals))
            arrivals.append((train[index], train, index))
            arrivals += [(make(origin, len(arrivals)), None, 0)
                         for after, origin in lones if after == index]
    return arrivals


def _per_cell(hops, payload):
    """What the client did before it peeled trains: every cell hop by hop,
    one cipher call per hop."""
    for at, hop in enumerate(hops):
        payload = hop.crypt_backward(payload)
        parsed = hop.open_payload(payload, BACKWARD)
        if parsed is not None:
            return at, parsed, payload
    return len(hops) - 1, None, payload


def _peel_equals_per_cell(schedule) -> None:
    arrivals = _deliveries(schedule)
    runs = []
    for peeled in (True, False):
        hops = [HopCrypto(keys) for keys in _KEYS]
        peel = BackwardPeel(hops)
        counters.reset()
        dispatched = [peel.open(payload, train, index) if peeled
                      else _per_cell(hops, payload)
                      for payload, train, index in arrivals]
        runs.append((dispatched, counters.cells_crypted,
                     [(hop._fwd._recv_seq, hop._bwd._recv_seq)
                      for hop in hops],
                     [hop.crypt_backward(bytes(RELAY_PAYLOAD_SIZE))
                      for hop in hops]))
    assert runs[0] == runs[1]


_ORIGIN = st.sampled_from([2, 2, 2, 2, 1, 0, ("zero", 0), ("zero", 1)])
_SCHEDULE = st.lists(
    st.tuples(st.just("lone"), _ORIGIN)
    | st.tuples(st.just("train"), st.lists(_ORIGIN, min_size=2, max_size=12),
                st.integers(1, 12),
                st.lists(st.tuples(st.integers(0, 11), _ORIGIN), max_size=2)),
    min_size=1, max_size=6)

_PEEL_CASES = {
    "recognised at an outer hop mid-train": [
        ("train", [2, 2, 1, 2, 0, 2], 6, [])],
    "a lone cell inside a train": [
        ("train", [2] * 6, 6, [(2, 2)]), ("lone", 1)],
    "00 00 at an outer hop by coincidence": [
        ("train", [2, ("zero", 0), 2, ("zero", 1), 2], 5, [])],
    "a train cut short": [
        ("train", [2] * 8, 3, []), ("train", [2] * 4, 4, [])],
}


class TestClientPeelEqualsPerCell:
    @settings(deadline=None)
    @given(schedule=_SCHEDULE)
    def test_property(self, schedule):
        _peel_equals_per_cell(schedule)

    @pytest.mark.parametrize("name", list(_PEEL_CASES))
    def test_case(self, name):
        _peel_equals_per_cell(_PEEL_CASES[name])

    def test_coincidences_are_made(self):
        """The ("zero", hop) cells do start 00 00 at that hop's output."""
        schedule = _PEEL_CASES["00 00 at an outer hop by coincidence"]
        hops = [HopCrypto(keys) for keys in _KEYS]
        starts = []
        for payload, _train, _index in _deliveries(schedule):
            outputs = []
            for hop in hops:
                payload = hop.crypt_backward(payload)
                outputs.append(payload[:2] == b"\x00\x00")
                if hop.open_payload(payload, BACKWARD) is not None:
                    break
            starts.append(outputs)
        assert starts[1][0] and starts[3][1]

    def test_a_whole_train_goes_hop_by_hop_once_and_is_let_go(self):
        hops = [HopCrypto(keys) for keys in _KEYS]
        peel = BackwardPeel(hops)
        arrivals = _deliveries([("train", [2] * 40, 40, [])])
        counters.reset()
        assert all(peel.open(*arrival)[1] is not None for arrival in arrivals)
        assert counters.hash_calls == 3
        assert counters.cells_crypted == 3 * 40
        assert peel._train is None and peel._outputs is None
        assert all(hop._bwd._source is None for hop in hops)


def _hold_no_scan(self, train, index, outputs):
    _HOLD(self, train, index, outputs)
    self._stops = set()


def _hold_inner_cursor_only(self, train, index, outputs):
    _HOLD(self, train, index, outputs)
    self._directions, self._outputs = self._directions[-1:], outputs[-1:]


_HOLD = BackwardPeel._hold

_PEEL_MUTANTS = {
    "00 00 scan skipped": (
        _hold_no_scan, "recognised at an outer hop mid-train"),
    "outer hops' cursors never advanced": (
        _hold_inner_cursor_only, "a lone cell inside a train"),
}


@pytest.mark.parametrize("name", list(_PEEL_MUTANTS))
def test_peel_property_notices_each_mutant(name, monkeypatch):
    mutant, case = _PEEL_MUTANTS[name]
    _peel_equals_per_cell(_PEEL_CASES[case])
    monkeypatch.setattr(BackwardPeel, "_hold", mutant)
    with pytest.raises(AssertionError):
        _peel_equals_per_cell(_PEEL_CASES[case])


# -- over a real circuit ---------------------------------------------------

BODY = 256 * 2_750   # 1414 cells: past the stream window and the circuit's


def _network(seed: str, **kwargs):
    net = TorTestNetwork(n_relays=6, seed=seed, **kwargs)
    sunk = bulk_origin(net, bytes(range(256)) * (BODY // 256))
    return net, net.create_client(), sunk


def _download_with_a_talkative_middle_hop(monkeypatch, trains: bool):
    if not trains:
        monkeypatch.setattr(Cell, "train", property(
            lambda self: None, lambda self, value: None))
    abandons = [0]
    abandon = _Direction._abandon

    def counting_abandon(self):
        abandons[0] += 1
        abandon(self)

    monkeypatch.setattr(_Direction, "_abandon", counting_abandon)
    # Relays slower than the client: a burst takes a while to pass each of
    # them, so a reply from the middle lands inside it, not behind it.
    net, client, _sunk = _network("talkative-middle",
                                  relay_bandwidth=1_000_000.0)
    deliveries = []

    def main(thread):
        circuit = yield from client.build_circuit(
            thread, exit_to=("origin.example", 80))
        dispatch = circuit._dispatch

        def recording_dispatch(parsed, from_hop):
            deliveries.append((net.sim.now, from_hop, parsed.command,
                               bytes(parsed.data)))
            dispatch(parsed, from_hop)

        circuit._dispatch = recording_dispatch
        stream = yield from circuit.open_stream(thread, "origin.example", 80)
        counters.reset()
        stream.send(b"GET")
        received, asked = bytearray(), 0
        while len(received) < BODY:
            received += yield from stream.recv(thread, timeout=60.0)
            if len(received) >= (asked + 1) * 40_000:
                # A BEGIN the middle hop recognises and refuses: its END
                # comes back between the exit's DATA cells.
                asked += 1
                circuit.send_relay(
                    RelayCommand.BEGIN, 900 + asked,
                    canonical_encode({"host": "nowhere.invalid", "port": 80}),
                    hop_index=1)
        calls = counters.hash_calls
        circuit.close()
        return bytes(received), calls

    received, calls = run_thread(net, main)
    monkeypatch.undo()
    return received, deliveries, net.sim.now, calls, abandons[0]


def test_middle_hop_replies_interleave_with_an_exit_train(monkeypatch):
    received, deliveries, ended, calls, abandons = \
        _download_with_a_talkative_middle_hop(monkeypatch, trains=True)
    assert received == bytes(range(256)) * (BODY // 256)
    from_middle = [d for d in deliveries if d[1] == 1]
    assert len(from_middle) >= 8
    assert all(d[2] == RelayCommand.END for d in from_middle)
    assert abandons >= len(from_middle)   # at the guard and at the client

    reference = _download_with_a_talkative_middle_hop(monkeypatch, trains=False)
    assert reference[4] == 0              # no train, nothing to abandon
    assert (received, deliveries, ended) == reference[:3]
    assert calls * 5 < reference[3]


@pytest.mark.parametrize("how", ["destroy", "abort"])
@pytest.mark.parametrize("direction", ["get", "put"])
def test_circuit_dies_mid_train(how, direction):
    net, client, _sunk = _network("dies-mid-train")
    relays = {relay.nickname: relay for relay in net.relays}

    def main(thread):
        circuit = yield from client.build_circuit(
            thread, exit_to=("origin.example", 80))
        path = [relays[descriptor.nickname] for descriptor in circuit.path]
        stream = yield from circuit.open_stream(thread, "origin.example", 80)
        stream.send(b"GET" if direction == "get" else bytes(BODY))
        entry, *_ = path[1]._entries()
        middle = (entry.crypto._bwd if direction == "get"
                  else entry.crypto._fwd)
        while middle._source is None or middle._next < 100:
            yield Sleep(0.002)       # until a burst is part-way through
        if how == "destroy":
            circuit.close()
        else:
            circuit.conn.abort()
        yield Sleep(5.0)
        return circuit, path

    circuit, path = run_thread(net, main)
    net.sim.run()                # whatever was in flight lands on nothing
    assert circuit.destroyed and not circuit.streams
    assert [relay.active_circuit_count for relay in path] == [0, 0, 0]

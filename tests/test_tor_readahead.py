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
from repro.tor.cell import RELAY_PAYLOAD_SIZE, Cell, RelayCommand
from repro.tor.layercrypto import HopCrypto, _Direction
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
    @settings(max_examples=150, deadline=None)
    @given(ops=_ops(max_train=40, max_ops=8))
    def test_native(self, forward, ops):
        _run(_Pipeline(forward), ops)

    @settings(max_examples=10, deadline=None)
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

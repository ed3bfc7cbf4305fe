"""A relay cell's data is its sender's to choose.

Six relay commands carry a canonically encoded request.  Whatever a
client puts there, the cost must be the client's own: the relay answers
with DESTROY, ``Simulator.run`` returns, and the next honest client builds
a circuit through the same relays (ROADMAP north star 3: the promise is
to the relay operator).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.simulator import Sleep
from repro.tor.cell import RELAY_DATA_SIZE, RelayCommand
from repro.tor.testnet import TorTestNetwork
from repro.util.serialization import (
    SerializationError,
    canonical_decode,
    canonical_encode,
)

from conftest import run_thread

# What each decoding command requires of its request.
FIELDS = {
    RelayCommand.EXTEND: {"address": str, "port": int, "onionskin": bytes},
    RelayCommand.BEGIN: {"host": str, "port": int},
    RelayCommand.ESTABLISH_INTRO: {"auth": str},
    RelayCommand.INTRODUCE1: {"service": str, "blob": bytes},
    RelayCommand.ESTABLISH_RENDEZVOUS: {"cookie": bytes},
    RelayCommand.RENDEZVOUS1: {"cookie": bytes, "blob": bytes},
}
# Each escaped Simulator.run from inside a relay before requests were
# decoded through one checked helper; none is a valid request of any command.
MALFORMED = {
    "unknown-tag": b"\xff\xfe garbage",
    "empty": b"",
    "not-a-dict": canonical_encode([1, 2, 3]),
    "field-missing": canonical_encode({"host": "x"}),
    "field-mistyped": canonical_encode(
        {"address": "10.0.0.1", "port": "http", "onionskin": b"x"}),
    "string-not-utf8": b"S\x00\x00\x00\x02\xff\xfe",
}


def well_typed(command, value):
    return isinstance(value, dict) and all(
        type(value.get(name)) is kind for name, kind in FIELDS[command].items())


def send_hostile(net, command, data):
    """One client sends ``data`` under ``command`` on a fresh circuit; an
    honest one then builds through the same relays.  Returns whether the
    sender's circuit was destroyed."""
    hostile, honest = net.create_client(), net.create_client()

    def main(thread):
        circuit = yield from hostile.build_circuit(thread)
        circuit.send_relay(command, 7, data)
        yield Sleep(3.0)
        after = yield from honest.build_circuit(thread, path=circuit.path)
        assert not after.destroyed
        return circuit.destroyed

    return run_thread(net, main)


class TestMalformedRequests:
    @pytest.mark.parametrize("command", FIELDS, ids=lambda c: c.name)
    @pytest.mark.parametrize("data", MALFORMED.values(), ids=MALFORMED)
    def test_costs_the_sender_its_circuit_and_nothing_else(self, command, data):
        net = TorTestNetwork(n_relays=6, seed="hostile-cells")
        assert send_hostile(net, command, data)


_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=20),
                    st.floats(allow_nan=False), st.binary(max_size=40))
_values = st.recursive(
    _leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=10)


@st.composite
def _requests(draw):
    """(command, data): arbitrary bytes, arbitrary canonical values, and
    dicts with the command's own field names over arbitrary leaves -- the
    last reach past the decoder when the types come out right."""
    command = draw(st.sampled_from(list(FIELDS)))
    shaped = st.fixed_dictionaries(
        {}, optional={name: _leaves for name in FIELDS[command]})
    data = draw(st.one_of(st.binary(), st.one_of(_values, shaped).map(canonical_encode)))
    return command, data[:RELAY_DATA_SIZE]      # all a cell carries


class TestArbitraryRequests:
    @settings(deadline=None)    # max_examples: the profile in conftest.py
    @given(_requests())
    def test_any_data_is_contained(self, case):
        command, data = case
        net = TorTestNetwork(n_relays=6, seed="hostile-cells")
        destroyed = send_hostile(net, command, data)
        try:
            valid = well_typed(command, canonical_decode(data))
        except SerializationError:
            valid = False
        assert destroyed or valid

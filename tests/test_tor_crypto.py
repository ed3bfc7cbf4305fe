"""ntor handshake and layered relay crypto."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.tor import ntor
from repro.tor.cell import (RELAY_DATA_SIZE, RELAY_PAYLOAD_SIZE,
                            RelayCellPayload, RelayCommand)
from repro.tor.layercrypto import BACKWARD, FORWARD, HopCrypto
from repro.util.errors import ProtocolError
from repro.util.rng import DeterministicRandom


def _handshake(identity="fp-abc", seed="hs"):
    rng = DeterministicRandom(seed)
    client = ntor.NtorClientState(rng.fork("client"), identity)
    server_keys, reply = ntor.server_respond(rng.fork("server"), identity,
                                             client.onionskin)
    client_keys = client.finish(reply)
    return client_keys, server_keys


class TestNtor:
    def test_both_sides_agree(self):
        client_keys, server_keys = _handshake()
        assert client_keys == server_keys

    def test_identity_binding(self):
        """A MITM answering for a different identity is rejected."""
        rng = DeterministicRandom("mitm")
        client = ntor.NtorClientState(rng.fork("client"), "fp-honest")
        _keys, reply = ntor.server_respond(rng.fork("server"), "fp-evil",
                                           client.onionskin)
        with pytest.raises(ProtocolError):
            client.finish(reply)

    def test_tampered_reply_rejected(self):
        rng = DeterministicRandom("tamper")
        client = ntor.NtorClientState(rng.fork("client"), "fp")
        _keys, reply = ntor.server_respond(rng.fork("server"), "fp",
                                           client.onionskin)
        mangled = reply[:-1] + bytes([reply[-1] ^ 1])
        with pytest.raises(ProtocolError):
            client.finish(mangled)

    @settings(max_examples=25, deadline=None)
    @given(st.text(max_size=12), st.text(min_size=1, max_size=12),
           st.binary(min_size=32, max_size=32))
    def test_any_session_agrees_and_rejects_forged_auth(self, seed, identity,
                                                        forged):
        rng = DeterministicRandom("ntor-prop:" + seed)
        client = ntor.NtorClientState(rng.fork("client"), identity)
        server_keys, reply = ntor.server_respond(rng.fork("server"), identity,
                                                 client.onionskin)
        assert client.finish(reply) == server_keys
        server_pub, auth = reply[:ntor.PUBLIC_LEN], reply[ntor.PUBLIC_LEN:]
        if forged != auth:
            with pytest.raises(ProtocolError):
                client.finish(server_pub + forged)

    def test_short_messages_rejected(self):
        rng = DeterministicRandom("short")
        with pytest.raises(ProtocolError):
            ntor.server_respond(rng, "fp", b"tiny")
        client = ntor.NtorClientState(rng, "fp")
        with pytest.raises(ProtocolError):
            client.finish(b"tiny")

    def test_sessions_have_distinct_keys(self):
        first, _ = _handshake(seed="one")
        second, _ = _handshake(seed="two")
        assert first.kf != second.kf


class TestHopCrypto:
    def test_layer_roundtrip(self):
        client_keys, server_keys = _handshake()
        client_hop = HopCrypto(client_keys)
        relay_hop = HopCrypto(server_keys)
        cell = RelayCellPayload(command=RelayCommand.DATA, stream_id=3,
                                data=b"payload")
        sealed = client_hop.seal_payload(cell, FORWARD)
        wire = client_hop.crypt_forward(sealed)
        assert wire != sealed                      # actually encrypted
        opened = relay_hop.open_payload(relay_hop.crypt_forward(wire), FORWARD)
        assert opened is not None and opened.data == b"payload"

    def test_backward_direction_independent(self):
        client_keys, server_keys = _handshake()
        client_hop = HopCrypto(client_keys)
        relay_hop = HopCrypto(server_keys)
        cell = RelayCellPayload(command=RelayCommand.CONNECTED, stream_id=1,
                                data=b"ok")
        wire = relay_hop.crypt_backward(relay_hop.seal_payload(cell, BACKWARD))
        opened = client_hop.open_payload(client_hop.crypt_backward(wire),
                                         BACKWARD)
        assert opened is not None and opened.command == RelayCommand.CONNECTED

    def test_digest_sequence_enforced(self):
        """Replaying the same sealed payload fails the rolling digest."""
        client_keys, server_keys = _handshake()
        client_hop = HopCrypto(client_keys)
        relay_hop = HopCrypto(server_keys)
        cell = RelayCellPayload(command=RelayCommand.DATA, stream_id=1,
                                data=b"x")
        sealed = client_hop.seal_payload(cell, FORWARD)
        assert relay_hop.open_payload(sealed, FORWARD) is not None
        assert relay_hop.open_payload(sealed, FORWARD) is None

    def test_multi_hop_onion(self):
        """Three layers: only the target hop recognizes the cell."""
        hops_keys = [_handshake(seed=f"hop{i}") for i in range(3)]
        client_hops = [HopCrypto(ck) for ck, _sk in hops_keys]
        relay_hops = [HopCrypto(sk) for _ck, sk in hops_keys]

        cell = RelayCellPayload(command=RelayCommand.BEGIN, stream_id=9,
                                data=b"begin")
        payload = client_hops[2].seal_payload(cell, FORWARD)
        for hop in reversed(client_hops):
            payload = hop.crypt_forward(payload)

        # guard strips a layer: not recognized
        payload = relay_hops[0].crypt_forward(payload)
        assert relay_hops[0].open_payload(payload, FORWARD) is None
        # middle strips a layer: not recognized
        payload = relay_hops[1].crypt_forward(payload)
        assert relay_hops[1].open_payload(payload, FORWARD) is None
        # exit recognizes
        payload = relay_hops[2].crypt_forward(payload)
        opened = relay_hops[2].open_payload(payload, FORWARD)
        assert opened is not None and opened.stream_id == 9

    def test_garbage_not_recognized(self):
        client_keys, _ = _handshake()
        hop = HopCrypto(client_keys)
        assert hop.open_payload(b"\x00" * 509, FORWARD) is None

    def test_streaming_state_stays_synced(self):
        client_keys, server_keys = _handshake()
        client_hop = HopCrypto(client_keys)
        relay_hop = HopCrypto(server_keys)
        for i in range(20):
            cell = RelayCellPayload(command=RelayCommand.DATA, stream_id=1,
                                    data=f"msg{i}".encode())
            wire = client_hop.crypt_forward(
                client_hop.seal_payload(cell, FORWARD))
            opened = relay_hop.open_payload(relay_hop.crypt_forward(wire),
                                            FORWARD)
            assert opened is not None and opened.data == f"msg{i}".encode()


# -- open_payload against the body it replaced ------------------------------

def _reference_open(hop, payload, direction):
    """``open_payload`` before it checked the digest first: the recognised
    bytes, then a full parse, then the digest of a zeroed copy."""
    if not (len(payload) == RELAY_PAYLOAD_SIZE
            and payload[0] == 0 and payload[1] == 0):
        return None
    try:
        parsed = RelayCellPayload.unpack(payload)
    except ProtocolError:
        return None
    zeroed = bytearray(payload)
    zeroed[4:8] = b"\x00\x00\x00\x00"
    state = hop._fwd if direction == FORWARD else hop._bwd
    seq = state._recv_seq
    digest = hashlib.sha256(state._digest_key)
    digest.update(seq.to_bytes(8, "big"))
    digest.update(zeroed)
    if digest.digest()[:4] != parsed.digest:
        return None
    state._recv_seq = seq + 1
    return parsed


def _recv_seqs(hop):
    return hop._fwd._recv_seq, hop._bwd._recv_seq


def _digest_of(key: bytes, seq: int, body: bytes) -> bytes:
    zeroed = bytearray(body)
    zeroed[4:8] = bytes(4)
    return hashlib.sha256(key + seq.to_bytes(8, "big") + zeroed).digest()[:4]


_MUTATIONS = ["none", "length", "recognized", "length field", "command",
              "digest", "seq"]


class TestOpenPayloadReference:
    @settings(deadline=None)
    @given(direction=st.sampled_from([FORWARD, BACKWARD]),
           data=st.binary(max_size=RELAY_DATA_SIZE),
           steps=st.lists(st.tuples(st.sampled_from(_MUTATIONS),
                                    st.integers(0, 65535), st.booleans()),
                          min_size=1, max_size=12))
    def test_same_answer_and_same_sequence(self, direction, data, steps):
        """Each step seals a cell for the receivers' next sequence number,
        breaks one thing about it, and re-digests the broken bytes or
        keeps the digest of the sound ones."""
        client_keys, _ = _handshake()
        key = client_keys.df if direction == FORWARD else client_keys.db
        opened, reference = HopCrypto(client_keys), HopCrypto(client_keys)
        for mutation, value, redigest in steps:
            sound = RelayCellPayload(RelayCommand.DATA, value, data).pack()
            body = bytearray(sound)
            if mutation == "recognized":
                body[value % 2] = 1 + (value >> 1) % 255
            elif mutation == "length field":
                body[8:10] = max(value, RELAY_DATA_SIZE + 1).to_bytes(2, "big")
            elif mutation == "command":
                body[10] = value % 256
            seq = (reference._fwd if direction == FORWARD
                   else reference._bwd)._recv_seq
            if mutation == "seq":
                seq += 1 + value % 3
            body[4:8] = _digest_of(key, seq, body if redigest else sound)
            if mutation == "digest":
                body[4 + value % 4] ^= 1 + (value >> 2) % 255
            elif mutation == "length":
                body = (body[:value % RELAY_PAYLOAD_SIZE] if value % 2
                        else body + bytes(1 + value % 8))
            payload = bytes(body)
            assert (opened.open_payload(payload, direction)
                    == _reference_open(reference, payload, direction))
            assert _recv_seqs(opened) == _recv_seqs(reference)

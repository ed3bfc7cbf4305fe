"""ntor handshake and layered relay crypto."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tor import ntor
from repro.tor.cell import RelayCellPayload, RelayCommand
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


@pytest.mark.parametrize("fast", [False, True], ids=["real", "fast"])
class TestHopCrypto:
    def test_layer_roundtrip(self, fast):
        client_keys, server_keys = _handshake()
        client_hop = HopCrypto(client_keys, fast=fast)
        relay_hop = HopCrypto(server_keys, fast=fast)
        cell = RelayCellPayload(command=RelayCommand.DATA, stream_id=3,
                                data=b"payload")
        sealed = client_hop.seal_payload(cell, FORWARD)
        wire = client_hop.crypt_forward(sealed)
        assert wire != sealed                      # actually encrypted
        opened = relay_hop.open_payload(relay_hop.crypt_forward(wire), FORWARD)
        assert opened is not None and opened.data == b"payload"

    def test_backward_direction_independent(self, fast):
        client_keys, server_keys = _handshake()
        client_hop = HopCrypto(client_keys, fast=fast)
        relay_hop = HopCrypto(server_keys, fast=fast)
        cell = RelayCellPayload(command=RelayCommand.CONNECTED, stream_id=1,
                                data=b"ok")
        wire = relay_hop.crypt_backward(relay_hop.seal_payload(cell, BACKWARD))
        opened = client_hop.open_payload(client_hop.crypt_backward(wire),
                                         BACKWARD)
        assert opened is not None and opened.command == RelayCommand.CONNECTED

    def test_digest_sequence_enforced(self, fast):
        """Replaying the same sealed payload fails the rolling digest."""
        client_keys, server_keys = _handshake()
        client_hop = HopCrypto(client_keys, fast=fast)
        relay_hop = HopCrypto(server_keys, fast=fast)
        cell = RelayCellPayload(command=RelayCommand.DATA, stream_id=1,
                                data=b"x")
        sealed = client_hop.seal_payload(cell, FORWARD)
        assert relay_hop.open_payload(sealed, FORWARD) is not None
        assert relay_hop.open_payload(sealed, FORWARD) is None

    def test_multi_hop_onion(self, fast):
        """Three layers: only the target hop recognizes the cell."""
        hops_keys = [_handshake(seed=f"hop{i}") for i in range(3)]
        client_hops = [HopCrypto(ck, fast=fast) for ck, _sk in hops_keys]
        relay_hops = [HopCrypto(sk, fast=fast) for _ck, sk in hops_keys]

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

    def test_garbage_not_recognized(self, fast):
        client_keys, _ = _handshake()
        hop = HopCrypto(client_keys, fast=fast)
        assert hop.open_payload(b"\x00" * 509, FORWARD) is None

    def test_streaming_state_stays_synced(self, fast):
        client_keys, server_keys = _handshake()
        client_hop = HopCrypto(client_keys, fast=fast)
        relay_hop = HopCrypto(server_keys, fast=fast)
        for i in range(20):
            cell = RelayCellPayload(command=RelayCommand.DATA, stream_id=1,
                                    data=f"msg{i}".encode())
            wire = client_hop.crypt_forward(
                client_hop.seal_payload(cell, FORWARD))
            opened = relay_hop.open_payload(relay_hop.crypt_forward(wire),
                                            FORWARD)
            assert opened is not None and opened.data == f"msg{i}".encode()

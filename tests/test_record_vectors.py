"""Golden vectors for the records that cross a trust boundary.

Each record's canonical wire bytes and signed body are pinned by SHA-256
at a fixed seed, as are the JSON text PolicyQuery ships for each policy
preset and one consensus body.  A record's declaration may change shape;
its bytes, and so every signature and frame size, may not.
"""

import hashlib
import json

import pytest

from repro.core.policy import MiddleboxNodePolicy
from repro.crypto.rsa import RsaKeyPair
from repro.enclave.attestation import IntelAttestationService, Quote
from repro.tor.descriptor import (HiddenServiceDescriptor, RelayDescriptor,
                                  onion_address_for)
from repro.tor.testnet import TorTestNetwork
from repro.util.rng import DeterministicRandom
from repro.util.serialization import canonical_encode


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _signed_records() -> dict:
    rng = DeterministicRandom("record-vectors")
    platform_key = RsaKeyPair.generate(rng.fork("platform"))
    quote = Quote("platform-1", "ab" * 32, 2, bytes(range(64)))
    quote.signature = platform_key.sign(quote.signed_body())
    ias = IntelAttestationService(rng.fork("ias"))
    ias.register_platform("platform-1", platform_key.public, 2)
    relay_key = RsaKeyPair.generate(rng.fork("relay"))
    relay = RelayDescriptor("relay1", "10.0.0.1", 9001,
                            relay_key.public.fingerprint(), 1.25e6,
                            "accept *:443\nreject *:*", ("Exit", "Guard"),
                            9100)
    relay.sign(relay_key)
    service_key = RsaKeyPair.generate(rng.fork("service"))
    service = HiddenServiceDescriptor(onion_address_for(service_key.public),
                                      ["aa" * 20, "bb" * 20], version=3)
    service.sign(service_key)
    return {"quote": quote, "report": ias.verify_quote(quote, now=12.5),
            "relay": relay, "service": service}


#: name -> (sha256 of the canonical wire bytes, of the signed body).
SIGNED = {
    "quote": (
        "4f5ddaad976dfc25109d81be9a6fd5d956fac59f589c5c1e6ee95cd01a87bfea",
        "c947b0bdf78609bb1107b72d79dc9e026406d926e035c2075cad22d276d5d2d8"),
    "report": (
        "32c4e9ffb14d535957568d4bcc8460969e1c3dfe73186acb442f8c7085b01655",
        "24d26b33061eacbe9fdb00825f78befdef8286a1684ba10f475b04db7d380b7d"),
    "relay": (
        "be7dfe7abe9c0567ee680807343e5fb58b64369aff609abfc7ad4406b733656c",
        "ee5f7ea0eda1ddd6c8df233cda1f82ec17307a1f68a20482bd69d54169d1f38b"),
    # A hidden-service descriptor is published as an object, never sent.
    "service": (
        None,
        "8fc032eae61fd4b9729ae493d300db484aade0d8e58d8b9564f1ee0dbb7441c6"),
}

#: preset -> (sha256 of the canonical wire bytes, of PolicyQuery's JSON).
POLICIES = {
    "open_policy": (
        "2f9babfe587bbd4249c33ba029f6ffe98b44a40198e5c27dd47c77f1c0e3fafa",
        "5de0ec02c57a6c9ef1d7bac98907d67d1edd568445772e99f2de7dd00740c718"),
    "no_disk_policy": (
        "2aac2fe129baba355883a99f4a18d2b4e8dcd478fb7ec6a578ad8a1150436c94",
        "ed9d995003f37528af55b3a4acadf842ea47e46e416e9938437caa5cda4976ca"),
    "enclave_storage_policy": (
        "23b7f90153881189356018040678ccfedaccb0cef6226dc79811ae47ed9bbf38",
        "4132df62065d39d0f1621c676e768166f07d42d611ef2861a6705310ff4593f6"),
    "network_measurement_policy": (
        "18858b3af0f146efbd418996c7a20f6d679e1ce86ff950d1fd530f51979b6ffb",
        "042af001a9b10b65c1b5d177de9450d10e1747548866c78739a343cb5ffb026f"),
}

CONSENSUS_BODY = \
    "b24df51de654ad3f09f80ec07747fa1868c5b9620ce31775c6c59eea3440191d"


@pytest.fixture(scope="module")
def records():
    return _signed_records()


@pytest.mark.parametrize("name", sorted(SIGNED))
def test_signed_record_bytes_are_pinned(records, name):
    record = records[name]
    wire, body = SIGNED[name]
    if wire is not None:
        assert _sha(canonical_encode(record.to_wire())) == wire
    assert _sha(record.signed_body()) == body


@pytest.mark.parametrize("preset", sorted(POLICIES))
def test_policy_bytes_are_pinned(preset):
    policy = getattr(MiddleboxNodePolicy, preset)()
    wire, text = POLICIES[preset]
    assert _sha(canonical_encode(policy.to_wire())) == wire
    assert _sha(json.dumps(policy.to_wire()).encode()) == text


def test_consensus_body_is_pinned():
    net = TorTestNetwork(n_relays=6, seed="record-vectors")
    assert _sha(net.authority.consensus()._signed_body()) == CONSENSUS_BODY

"""Relay and hidden-service descriptors.

Descriptors are canonically encoded and signed: relays sign their own
descriptors with their identity keys, hidden services with their service
keys.  The directory authority verifies signatures before accepting either
kind (see :mod:`repro.tor.directory`).
"""

from __future__ import annotations

import hashlib

from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.util.serialization import canonical_encode
from repro.util.spec import Record, field_table

FLAG_GUARD = "Guard"
FLAG_EXIT = "Exit"
FLAG_HSDIR = "HSDir"
FLAG_BENTO = "BentoBox"    # this relay runs a Bento server (paper §5)

OR_PORT = 9001
BENTO_PORT = 9100


class RelayDescriptor(Record):
    """One relay's self-published entry in the consensus."""

    WIRE = field_table(
        nickname=str, address=str, or_port=int, identity_fp=str,
        bandwidth=float,                # advertised bytes/second
        exit_policy=str,                # rendered ExitPolicy text
        flags=(tuple, ()),              # of str
        bento_port=(object, None),      # set where a Bento server runs
        n=(int, 0), e=(int, 0),         # the identity key
        signature=(bytes, b""))

    def sign(self, keypair: RsaKeyPair) -> None:
        """Fill in the public key fields and signature."""
        self.n = keypair.public.n
        self.e = keypair.public.e
        self.signature = keypair.sign(self.signed_body())

    def verify(self) -> bool:
        """Check the signature and that the fingerprint matches the key."""
        key = self.public_key
        if key.fingerprint() != self.identity_fp:
            return False
        return key.verify(self.signed_body(), self.signature)

    @property
    def public_key(self) -> RsaPublicKey:
        """The verification key peers should pin."""
        return RsaPublicKey(n=self.n, e=self.e)

    def has_flag(self, flag: str) -> bool:
        """Does this descriptor carry the given flag?"""
        return flag in self.flags


def onion_address_for(key: RsaPublicKey) -> str:
    """Derive the pseudonymous ``.onion`` identifier from a service key."""
    material = canonical_encode({"n": key.n, "e": key.e})
    return hashlib.sha256(material).hexdigest()[:16] + ".onion"


class HiddenServiceDescriptor(Record):
    """Maps a ``.onion`` identifier to its introduction points (§2.1)."""

    WIRE = field_table(
        onion=str,
        intro_points=list,              # relay fingerprints
        n=(int, 0), e=(int, 0),         # the service key
        version=(int, 0), signature=(bytes, b""))

    def sign(self, keypair: RsaKeyPair) -> None:
        """Fill in the key fields and signature."""
        self.n = keypair.public.n
        self.e = keypair.public.e
        self.signature = keypair.sign(self.signed_body())

    def verify(self) -> bool:
        """Signature valid and onion address actually derived from the key."""
        key = self.service_key
        if onion_address_for(key) != self.onion:
            return False
        return key.verify(self.signed_body(), self.signature)

    @property
    def service_key(self) -> RsaPublicKey:
        """The hidden service's public key."""
        return RsaPublicKey(n=self.n, e=self.e)

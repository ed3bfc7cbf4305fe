"""The circuit-extension handshake (ntor-shaped).

One round trip establishes forward/backward keys between a client and one
relay, authenticated by the relay's identity fingerprint.  Real Tor uses
Curve25519; this reproduction uses finite-field DH (see
:mod:`repro.crypto.dh`) with the same message flow:

    client -> relay:  CREATE  { client_pub }
    relay  -> client: CREATED { server_pub, auth }

Both sides derive ``(Kf, Kb, Df, Db)`` — forward/backward cipher keys and
digest seeds — via HKDF over the shared secret bound to the relay identity
and both public values.  ``auth`` proves the responder knew the private key
for ``server_pub`` *and* agrees on the relay identity, so a
man-in-the-middle without the relay's identity fingerprint is rejected.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass

from repro.crypto.dh import DiffieHellman
from repro.crypto.kdf import hkdf
from repro.util.errors import ProtocolError
from repro.util.rng import DeterministicRandom

PUBLIC_LEN = 128    # 1024-bit group element
AUTH_LEN = 32
ONIONSKIN_LEN = PUBLIC_LEN
REPLY_LEN = PUBLIC_LEN + AUTH_LEN

_PROTOID = b"repro-ntor-v1"


@dataclass(frozen=True)
class CircuitKeys:
    """Per-hop key material shared by a client and one relay."""

    kf: bytes      # forward cipher key (client -> relay direction)
    kb: bytes      # backward cipher key (relay -> client direction)
    df: bytes      # forward digest seed
    db: bytes      # backward digest seed


def _derive(shared: bytes, identity_fp: str, client_pub: bytes,
            server_pub: bytes) -> tuple[CircuitKeys, bytes]:
    transcript = identity_fp.encode() + client_pub + server_pub
    okm = hkdf(shared, salt=_PROTOID, info=transcript, length=32 * 5)
    keys = CircuitKeys(kf=okm[0:32], kb=okm[32:64], df=okm[64:96], db=okm[96:128])
    verify = okm[128:160]
    auth = hmac.digest(verify, _PROTOID + transcript, "sha256")
    return keys, auth


def _shared_secret(dh: DiffieHellman, peer_public: bytes) -> bytes:
    """The DH secret; a degenerate peer value (0, 1, p-1, >= p) arrives
    from the wire, so it is a protocol failure, not a programming error."""
    try:
        return dh.shared_secret(peer_public)
    except ValueError as exc:
        raise ProtocolError(f"ntor: {exc}") from exc


class NtorClientState:
    """Client half: create the onionskin, then verify the reply."""

    def __init__(self, rng: DeterministicRandom, identity_fp: str) -> None:
        self._dh = DiffieHellman(rng)
        self._identity_fp = identity_fp

    @property
    def onionskin(self) -> bytes:
        """The CREATE payload."""
        return self._dh.public_bytes

    def finish(self, reply: bytes) -> CircuitKeys:
        """Process the CREATED payload; raises on a forged reply."""
        if len(reply) < REPLY_LEN:
            raise ProtocolError("ntor reply too short")
        server_pub, auth = reply[:PUBLIC_LEN], reply[PUBLIC_LEN:REPLY_LEN]
        shared = _shared_secret(self._dh, server_pub)
        keys, expected_auth = _derive(
            shared, self._identity_fp, self._dh.public_bytes, server_pub
        )
        if not hmac.compare_digest(auth, expected_auth):
            raise ProtocolError("ntor authentication failed")
        return keys


def server_respond(rng: DeterministicRandom, identity_fp: str,
                   onionskin: bytes) -> tuple[CircuitKeys, bytes]:
    """Relay half: consume an onionskin, returning keys and the reply."""
    if len(onionskin) < ONIONSKIN_LEN:
        raise ProtocolError("ntor onionskin too short")
    client_pub = onionskin[:ONIONSKIN_LEN]
    dh = DiffieHellman(rng)
    shared = _shared_secret(dh, client_pub)
    keys, auth = _derive(shared, identity_fp, client_pub, dh.public_bytes)
    return keys, dh.public_bytes + auth

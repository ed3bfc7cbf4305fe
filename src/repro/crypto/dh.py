"""Finite-field Diffie-Hellman (RFC 3526 group 14).

Stands in for the Curve25519 exchange in Tor's ntor handshake.  Exponents
are drawn from a :class:`~repro.util.rng.DeterministicRandom` so circuit
construction is reproducible run to run.
"""

from __future__ import annotations

from repro.crypto.modexp import modexp
from repro.util.bytesutil import int_from_bytes, int_to_bytes
from repro.util.rng import DeterministicRandom

# RFC 3526, 2048-bit MODP group (group 14); generator 2.
DH_GROUP_MODP_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
# RFC 2409, 1024-bit MODP group (group 2); generator 2.  The default for
# the simulation: half the wire size of group 14, so handshake payloads fit
# in single Tor cells the way Curve25519 onionskins do.  A sizing knob, not
# a security recommendation (DESIGN.md §2).
DH_GROUP_MODP_1024 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)
_GENERATOR = 2
_EXPONENT_BITS = 256  # short exponents are standard practice for these groups


class DiffieHellman:
    """One party's ephemeral DH state."""

    def __init__(self, rng: DeterministicRandom, modulus: int = DH_GROUP_MODP_1024) -> None:
        self._modulus = modulus
        # Force the top bit so the exponent always has full length.
        self._private = rng.getrandbits(_EXPONENT_BITS) | (1 << (_EXPONENT_BITS - 1))
        self.public = modexp(_GENERATOR, self._private, modulus)

    @property
    def public_bytes(self) -> bytes:
        """The public value encoded big-endian at full group width."""
        return int_to_bytes(self.public, (self._modulus.bit_length() + 7) // 8)

    def shared_secret(self, peer_public: int | bytes) -> bytes:
        """Compute the shared secret with a peer's public value."""
        if isinstance(peer_public, (bytes, bytearray)):
            peer_public = int_from_bytes(bytes(peer_public))
        if not 2 <= peer_public <= self._modulus - 2:
            raise ValueError("peer public value out of range")
        secret = modexp(peer_public, self._private, self._modulus)
        return int_to_bytes(secret, (self._modulus.bit_length() + 7) // 8)

"""HKDF (RFC 5869) over HMAC-SHA256.

Used to derive per-hop forward/backward cipher and digest keys from the
DH shared secret during circuit construction, and FS-Protect file keys
from an enclave's ephemeral root key.
"""

from __future__ import annotations

import hmac

_HASH_LEN = 32


def hkdf_extract(salt: bytes, ikm: bytes) -> bytes:
    """Extract a pseudorandom key from input keying material."""
    if not salt:
        salt = b"\x00" * _HASH_LEN
    return hmac.digest(salt, ikm, "sha256")


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """Expand a pseudorandom key into ``length`` output bytes."""
    if length <= 0:
        raise ValueError("hkdf_expand length must be positive")
    if length > 255 * _HASH_LEN:
        raise ValueError("hkdf_expand length too large")
    output = b""
    block = b""
    counter = 1
    while len(output) < length:
        block = hmac.digest(prk, block + info + bytes([counter]), "sha256")
        output += block
        counter += 1
    return output[:length]


def hkdf(ikm: bytes, salt: bytes = b"", info: bytes = b"", length: int = 32) -> bytes:
    """One-shot extract-then-expand."""
    return hkdf_expand(hkdf_extract(salt, ikm), info, length)

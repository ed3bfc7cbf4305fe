"""Authenticated encryption (encrypt-then-MAC) over the stream cipher.

Used wherever the paper needs confidentiality *and* integrity: the TLS-like
channel between a Bento client and the function loader inside the enclave,
FS Protect file contents, and sealed enclave state.
"""

from __future__ import annotations

import hashlib
import hmac

from repro.crypto.kdf import hkdf
from repro.crypto.stream import stream_xor

_MAC_LEN = 32
_NONCE_LEN = 16


class AeadError(ValueError):
    """Raised when decryption fails authentication."""


class AeadKey:
    """An encrypt-then-MAC AEAD key with explicit nonces.

    The caller supplies a unique nonce per message (the wire layers use a
    message counter; FS Protect uses the file path and version).
    """

    def __init__(self, key_material: bytes) -> None:
        if len(key_material) < 16:
            raise ValueError("AEAD key material must be at least 16 bytes")
        self._enc_key = hkdf(key_material, info=b"aead-enc", length=32)
        self._mac_key = hkdf(key_material, info=b"aead-mac", length=32)

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || tag."""
        if len(nonce) > 255:
            raise ValueError("nonce too long")
        ciphertext = stream_xor(self._enc_key, nonce, plaintext)
        tag = self._tag(nonce, ciphertext, aad)
        return ciphertext + tag

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`AeadError` on any tampering."""
        if len(nonce) > 255:
            raise AeadError("nonce too long")
        if len(sealed) < _MAC_LEN:
            raise AeadError("sealed message too short")
        ciphertext, tag = sealed[:-_MAC_LEN], sealed[-_MAC_LEN:]
        expected = self._tag(nonce, ciphertext, aad)
        if not hmac.compare_digest(tag, expected):
            raise AeadError("authentication failed")
        return stream_xor(self._enc_key, nonce, ciphertext)

    def _tag(self, nonce: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        mac = hmac.new(self._mac_key, digestmod=hashlib.sha256)
        mac.update(len(nonce).to_bytes(1, "big"))
        mac.update(nonce)
        mac.update(len(aad).to_bytes(8, "big"))
        mac.update(aad)
        mac.update(ciphertext)
        return mac.digest()

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

MAC_LEN = 32
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

    def seal(self, nonce: bytes, plaintext: bytes, aad: bytes = b"",
             head: bytes = b"", tail: bytes = b"") -> bytes:
        """Encrypt and authenticate; returns ciphertext || tag, written
        between ``head`` and ``tail`` in one allocation."""
        if len(nonce) > 255:
            raise ValueError("nonce too long")
        return stream_xor(self._enc_key, nonce, plaintext,
                          mac=self._mac(nonce, aad), head=head, tail=tail)

    def open(self, nonce: bytes, sealed: bytes, aad: bytes = b"",
             start: int = 0, stop: int | None = None) -> bytes:
        """Verify and decrypt ``sealed[start:stop]``; AeadError if tampered."""
        span = self.verify(nonce, sealed, aad, start, stop)
        return stream_xor(self._enc_key, nonce, sealed, span.start, span.stop)

    def verify(self, nonce: bytes, sealed: bytes, aad: bytes = b"",
               start: int = 0, stop: int | None = None) -> range:
        """What :meth:`open` checks, decrypting nothing: the ciphertext's span."""
        if len(nonce) > 255:
            raise AeadError("nonce too long")
        start, stop, _ = slice(start, stop).indices(len(sealed))
        end = stop - MAC_LEN
        if end < start:
            raise AeadError("sealed message too short")
        mac = self._mac(nonce, aad)
        with memoryview(sealed) as view:
            mac.update(view[start:end])
            if not hmac.compare_digest(view[end:stop], mac.digest()):
                raise AeadError("authentication failed")
        return range(start, end)

    def _mac(self, nonce: bytes, aad: bytes):  # fed all but the ciphertext
        mac = hmac.new(self._mac_key, digestmod=hashlib.sha256)
        mac.update(len(nonce).to_bytes(1, "big"))
        mac.update(nonce)
        mac.update(len(aad).to_bytes(8, "big"))
        mac.update(aad)
        return mac

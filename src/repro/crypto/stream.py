"""An XOF counter-mode stream cipher.

Stands in for AES-CTR in the circuit onion layers and FS Protect.  The
keystream is a sequence of 4 KiB batches, batch *k* being ``SHAKE128(prefix
|| k)`` squeezed to 4096 bytes, with ``prefix = SHA256("stream:" || key ||
":" || nonce)`` and *k* an 8-byte big-endian counter.  Like AES-CTR it is a
stateful XOR stream: encrypt and decrypt are the same operation and a
(key, nonce) pair must never be reused for independent messages.

Why an XOF: Tor pays AES-CTR at hardware speed, and a stand-in that costs
one ``hashlib`` round trip per 32-byte block hides every other layer of the
bulk path behind it.  One C call per batch stays stdlib-only at a cost
closer to the real thing.  Batches land in one buffer read through an offset
cursor, so the keystream does not depend on how reads are split.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.obs.metrics import REGISTRY as _metrics

_HASH_CALLS = _metrics.counter("perf_hash_calls")
_KEYSTREAM_BYTES = _metrics.counter("perf_keystream_bytes")

# Keystream bytes per XOF call: eight relay cells, and small enough that
# a cipher used for one short message wastes little.
_BATCH = 4096


class StreamCipher:
    """Stateful XOR stream cipher.

    Two endpoints construct a :class:`StreamCipher` with the same key and
    nonce and stay synchronised by processing the same byte sequence, just
    like the per-hop AES-CTR state in a real Tor circuit.
    """

    __slots__ = ("_prefix", "_counter", "_buf", "_pos")

    def __init__(self, key: bytes, nonce: bytes = b"") -> None:
        if len(key) < 16:
            raise ValueError("stream cipher key must be at least 16 bytes")
        self._prefix = hashlib.sha256(b"stream:" + key + b":" + nonce).digest()
        self._counter = 0
        self._buf = b""
        self._pos = 0

    def _extend(self, need: int) -> None:
        """Grow the buffer so at least ``need`` unread bytes are available."""
        unread = self._buf[self._pos:]
        batches = -(-(need - len(unread)) // _BATCH)
        counter = self._counter
        self._counter = counter + batches
        self._buf = unread + b"".join([
            hashlib.shake_128(self._prefix + k.to_bytes(8, "big")).digest(_BATCH)
            for k in range(counter, counter + batches)
        ])
        self._pos = 0
        _HASH_CALLS.value += batches
        _KEYSTREAM_BYTES.value += batches * _BATCH

    def _take(self, n: int) -> int:
        """Claim the next ``n`` keystream bytes; returns their buffer offset."""
        pos = self._pos
        if len(self._buf) - pos < n:
            self._extend(n)
            pos = 0
        self._pos = pos + n
        return pos

    def keystream(self, n: int) -> bytes:
        """Return the next ``n`` keystream bytes, advancing the state."""
        if n < 0:  # would rewind the cursor and re-emit used keystream
            raise ValueError("keystream length must be non-negative")
        pos = self._take(n)
        return self._buf[pos:pos + n]

    def process(self, data: bytes) -> bytes:
        """Encrypt or decrypt ``data`` (XOR with the next keystream bytes)."""
        n = len(data)
        if not n:
            return b""
        pos = self._take(n)
        return np.bitwise_xor(
            np.frombuffer(data, np.uint8),
            np.frombuffer(self._buf, np.uint8, count=n, offset=pos)).tobytes()

    def process_many(self, messages: list[bytes]) -> list[bytes]:
        """Process consecutive messages with one keystream pull and one XOR.

        Equivalent to ``[self.process(m) for m in messages]`` — the
        keystream is consumed in the same order — but the whole batch costs
        a single vector XOR, which is what makes multi-cell relay
        forwarding cheap.
        """
        if len(messages) < 2:
            return [self.process(m) for m in messages]
        out = self.process(b"".join(messages))
        result = []
        offset = 0
        for message in messages:
            end = offset + len(message)
            result.append(out[offset:end])
            offset = end
        return result


def stream_xor(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """One-shot encryption/decryption with a fresh cipher state."""
    return StreamCipher(key, nonce).process(data)

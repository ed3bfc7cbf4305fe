"""AES-128-CTR, the cipher Tor's relay cells and FS Protect files are under.

``StreamCipher(key, nonce)`` derives ``key || iv = SHA256("stream:" || key
|| ":" || nonce)``, split 16/16, and counts a full 128-bit big-endian counter
up from ``iv``.  Like any XOR stream, encrypt and decrypt are the same
operation, the output does not depend on how calls are split, and a (key,
nonce) pair must never be reused.

Two backends compute the same bytes, chosen once, at import, from what the
platform exports.  On libcrypto's EVP interface a cipher owns one
``EVP_CIPHER_CTX`` and ``process`` is one ``EVP_EncryptUpdate``: keystream and
XOR in one C call at AES-NI speed, made from this file so that a profile
books it here.  That call is prepared (:func:`~repro.crypto.libcrypto.bind`):
the context pointer is wrapped once per cipher, so ctypes converts nothing
per cell.  Elsewhere a pure-Python block function does it at about a
millisecond per cell; it is also the oracle the tests hold the binding to.
"""

from __future__ import annotations

import ctypes
import hashlib

from repro.crypto.libcrypto import bind
from repro.obs.metrics import REGISTRY as _metrics
from repro.util.bytesutil import new_bytes, xor_bytes

_HASH_CALLS = _metrics.counter("perf_hash_calls")
_KEYSTREAM_BYTES = _metrics.counter("perf_keystream_bytes")


class _Cipher:
    """Stateful XOR stream cipher.

    Two endpoints construct a :class:`StreamCipher` with the same key and
    nonce and stay synchronised by processing the same byte sequence, just
    like the per-hop AES-CTR state in a real Tor circuit.
    """

    __slots__ = ()

    def __init__(self, key: bytes, nonce: bytes = b"") -> None:
        if len(key) < 16:
            raise ValueError("stream cipher key must be at least 16 bytes")
        seed = hashlib.sha256(b"stream:" + key + b":" + nonce).digest()
        self._start(seed[:16], seed[16:])

    def keystream(self, n: int) -> bytes:
        """Return the next ``n`` keystream bytes, advancing the state."""
        return self.process(bytes(n))  # bytes() refuses a negative length

    def process_many(self, messages: list[bytes]) -> list[bytes]:
        """``[self.process(m) for m in messages]`` at the cost of one call
        into the cipher, which is what makes multi-cell relay forwarding
        cheap; the keystream is consumed in the same order."""
        out = self.process(b"".join(messages))
        result, offset = [], 0
        for message in messages:
            end = offset + len(message)
            result.append(out[offset:end])
            offset = end
        return result

    def _span(self, data: bytes, start: int, stop: int, mac,
              head: bytes = b"", tail: bytes = b"") -> bytes:
        """``head``, ``process(data[start:stop])``, ``mac``'s digest of
        that, then ``tail``, as one bytes object."""
        out = self.process(data[start:stop])
        if mac is not None:
            mac.update(out)
            out += mac.digest()
        return b"".join((head, out, tail)) if head or tail else out


_PTR, _BUF, _INT = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
_evp = bind({
    "EVP_aes_128_ctr": (_PTR,), "EVP_CIPHER_CTX_new": (_PTR,),
    "EVP_CIPHER_CTX_free": (None, _PTR),
    "EVP_EncryptInit_ex": (_INT, _PTR, _PTR, _PTR, _BUF, _BUF),
    "EVP_EncryptUpdate": (_INT,),  # (ctx, out, &outl, in, inl), prepared
})
NATIVE = _evp is not None
_OUTL = ctypes.c_int()  # per process, not per thread, like modexp's scratch
_OUTL_REF = ctypes.byref(_OUTL)
_MAX_CALL = 1 << 30  # EVP_EncryptUpdate takes its length as a C int


class _EvpCipher(_Cipher):
    """One ``EVP_CIPHER_CTX``, freed when the cipher is dropped."""

    __slots__ = ("_ctx",)

    def _start(self, key: bytes, iv: bytes) -> None:
        ctx = _evp.EVP_CIPHER_CTX_new()
        if not ctx:
            raise MemoryError("libcrypto could not allocate a cipher context")
        if _evp.EVP_EncryptInit_ex(ctx, _evp.EVP_aes_128_ctr(), None, key, iv) != 1:
            _evp.EVP_CIPHER_CTX_free(ctx)
            raise ArithmeticError("EVP_EncryptInit_ex failed")
        self._ctx = ctypes.c_void_p(ctx)

    def __del__(self) -> None:
        ctx = getattr(self, "_ctx", None)  # never set when __init__ raised
        if ctx is not None:
            _evp.EVP_CIPHER_CTX_free(ctx.value)

    def __reduce__(self):  # a copy would free the same context again
        raise TypeError("a StreamCipher owns its context: it cannot be copied")

    def process(self, data: bytes) -> bytes:
        """Encrypt or decrypt ``data`` (XOR with the next keystream bytes)."""
        if type(data) is not bytes:
            data = bytes(data)  # c_char_p takes nothing else
        n = len(data)
        if not n:
            return b""
        if n > _MAX_CALL:
            return b"".join([self.process(data[i:i + _MAX_CALL])
                             for i in range(0, n, _MAX_CALL)])
        out = new_bytes(None, n)
        if (_evp.EVP_EncryptUpdate(self._ctx, out, _OUTL_REF, data, n) != 1
                or _OUTL.value != n):
            raise ArithmeticError("EVP_EncryptUpdate failed")
        _HASH_CALLS.value += 1
        _KEYSTREAM_BYTES.value += n
        return out

    def _span(self, data: bytes, start: int, stop: int, mac,
              head: bytes = b"", tail: bytes = b"") -> bytes:
        n = stop - start
        if not 0 < n <= _MAX_CALL:
            return super()._span(data, start, stop, mac, head, tail)
        at, end = len(head), len(head) + n
        out = new_bytes(None, end + len(tail)
                         + (mac.digest_size if mac is not None else 0))
        # A bytes object is passed as its buffer, which never moves, and
        # nothing else holds ``out`` until it is returned.
        base = ctypes.cast(out, _PTR).value
        src = _PTR(ctypes.cast(data, _PTR).value + start) if start else data
        if (_evp.EVP_EncryptUpdate(self._ctx, _PTR(base + at), _OUTL_REF,
                                   src, n) != 1 or _OUTL.value != n):
            raise ArithmeticError("EVP_EncryptUpdate failed")
        _HASH_CALLS.value += 1
        _KEYSTREAM_BYTES.value += n
        ctypes.memmove(base, head, at)
        if mac is not None:
            with memoryview(out) as view:
                mac.update(view[at:end])
            ctypes.memmove(base + end, mac.digest(), mac.digest_size)
            end += mac.digest_size
        ctypes.memmove(base + end, tail, len(tail))
        return out


_SBOX = bytes.fromhex(  # FIPS-197 Figure 7
    "637c777bf26b6fc53001672bfed7ab76ca82c97dfa5947f0add4a2af9ca472c0"
    "b7fd9326363ff7cc34a5e5f171d8311504c723c31896059a071280e2eb27b275"
    "09832c1a1b6e5aa0523bd6b329e32f8453d100ed20fcb15b6acbbe394a4c58cf"
    "d0efaafb434d338545f9027f503c9fa851a3408f929d38f5bcb6da2110fff3d2"
    "cd0c13ec5f974417c4a77e3d645d197360814fdc222a908846eeb814de5e0bdb"
    "e0323a0a4906245cc2d3ac629195e479e7c8376d8dd54ea96c56f4ea657aae08"
    "ba78252e1ca6b4c6e8dd741f4bbd8b8a703eb5664803f60e613557b986c11d9e"
    "e1f8981169d98e949b1e87e9ce5528df8ca1890dbfe6426841992d0fb054bb16")
_XTIME = [(b << 1) & 0xFF ^ (0x1B if b & 0x80 else 0) for b in range(256)]


def _expand_key(key: bytes) -> list[list[int]]:
    """The eleven AES-128 round keys (FIPS-197 §5.2)."""
    words = [list(key[i:i + 4]) for i in range(0, 16, 4)]
    rcon = 1
    for i in range(4, 44):
        word = words[i - 1]
        if i % 4 == 0:
            word = [_SBOX[word[1]] ^ rcon, _SBOX[word[2]],
                    _SBOX[word[3]], _SBOX[word[0]]]
            rcon = _XTIME[rcon]
        words.append([a ^ b for a, b in zip(words[i - 4], word)])
    return [sum(words[i:i + 4], []) for i in range(0, 44, 4)]


def _encrypt_block(round_keys: list[list[int]], block: bytes) -> bytes:
    """The AES-128 forward cipher (FIPS-197 §5.1).  The state is a flat list
    in input order: byte ``i`` is row ``i % 4`` of column ``i // 4``."""
    state = [b ^ k for b, k in zip(block, round_keys[0])]
    for rnd in range(1, 11):
        # SubBytes and ShiftRows: row r takes its bytes from r columns on.
        state = [_SBOX[state[(i + 4 * (i % 4)) % 16]] for i in range(16)]
        if rnd < 10:  # MixColumns
            mixed = []
            for c in range(0, 16, 4):
                a0, a1, a2, a3 = state[c:c + 4]
                t = a0 ^ a1 ^ a2 ^ a3
                mixed += [a0 ^ t ^ _XTIME[a0 ^ a1], a1 ^ t ^ _XTIME[a1 ^ a2],
                          a2 ^ t ^ _XTIME[a2 ^ a3], a3 ^ t ^ _XTIME[a3 ^ a0]]
            state = mixed
        state = [b ^ k for b, k in zip(state, round_keys[rnd])]
    return bytes(state)


class ReferenceCipher(_Cipher):
    """Counter mode from the definition: one block function call per 16
    bytes, the unused tail of the last block kept for the next read."""

    __slots__ = ("_round_keys", "_counter", "_unused")

    def _start(self, key: bytes, iv: bytes) -> None:
        self._round_keys = _expand_key(key)
        self._counter = int.from_bytes(iv, "big")
        self._unused = b""

    def process(self, data: bytes) -> bytes:
        """Encrypt or decrypt ``data`` (XOR with the next keystream bytes)."""
        data = bytes(data)
        n = len(data)
        if not n:
            return b""
        pad = bytearray(self._unused)
        while len(pad) < n:
            pad += _encrypt_block(self._round_keys,
                                  self._counter.to_bytes(16, "big"))
            self._counter = (self._counter + 1) % (1 << 128)
        self._unused = bytes(pad[n:])
        _HASH_CALLS.value += 1
        _KEYSTREAM_BYTES.value += n
        return xor_bytes(data, pad[:n])


StreamCipher = _EvpCipher if NATIVE else ReferenceCipher


def stream_xor(key: bytes, nonce: bytes, data: bytes, start: int = 0,
               stop: int | None = None, mac=None, head: bytes = b"",
               tail: bytes = b"") -> bytes:
    """One-shot en/decryption of ``data[start:stop]``, read in place.  A hash
    ``mac``, if given, is fed the output, and its digest follows it; the
    result is written between ``head`` and ``tail``, in one allocation."""
    if type(data) is not bytes:
        data = bytes(data)
    start, stop, _ = slice(start, stop).indices(len(data))
    return StreamCipher(key, nonce)._span(data, start, max(start, stop), mac,
                                          head, tail)

"""Modular exponentiation on the libcrypto the interpreter already loaded.

CPython's ``pow(b, e, m)`` spends ~1 ms on a 1024-bit modulus; OpenSSL's
``BN_mod_exp`` does it in ~0.1 ms (:mod:`repro.crypto.libcrypto` says how it
is reached).  Where it is not exported the builtin computes the same
integers; the choice is made once, at import, from what the platform exports.
Neither backend is constant-time (DESIGN.md §2), and the scratch numbers are
per process, not per thread: actors are tasks on one OS thread
(``tests/test_netsim_task_kernel.py`` keeps ``threading`` out).

Two entry points.  :func:`modexp` is the one-off: a fresh modulus per call
(prime candidates, factor recovery), nothing kept.  A :class:`Modulus` is a
fixed odd modulus loaded once, its BIGNUM and Montgomery context built at
construction: a DH group, an RSA prime.  ``BN_mod_exp`` rebuilds both on
every call, which is about a tenth of a 1024-bit exponentiation.
"""

from __future__ import annotations

import ctypes

from repro.crypto.libcrypto import bind

_PTR, _INT = ctypes.c_void_p, ctypes.c_int
#: Every entry point this module calls.  The per-exponentiation ones are
#: prepared calls (return type only): their pointers are the ``c_void_p``
#: scratch below and each :class:`Modulus`'s own.
SIGNATURES = {
    "BN_new": (_PTR,), "BN_CTX_new": (_PTR,), "BN_free": (None, _PTR),
    "BN_MONT_CTX_new": (_PTR,), "BN_MONT_CTX_free": (None, _PTR),
    "BN_MONT_CTX_set": (_INT, _PTR, _PTR, _PTR),
    "BN_bin2bn": (_PTR,), "BN_bn2binpad": (_INT,), "BN_mod_exp": (_INT,),
    "BN_mod_exp_mont": (_INT,), "BN_mod_exp_mont_word": (_INT,),
}
#: ``BN_mod_exp_mont_word`` takes the base as a ``BN_ULONG``: an ``unsigned
#: long`` wherever libcrypto is built LP64.
_WORD = 1 << 8 * ctypes.sizeof(ctypes.c_ulong)


def _bind():
    """``(lib, r, b, e, m, ctx)``: the declared library plus this process's
    scratch numbers, or ``None`` when libcrypto is out of reach."""
    lib = bind(SIGNATURES)
    if lib is None:
        return None
    scratch = [lib.BN_new() for _ in range(4)] + [lib.BN_CTX_new()]
    if None in scratch:
        raise MemoryError("libcrypto could not allocate BIGNUM scratch")
    return (lib, *map(ctypes.c_void_p, scratch))


_bn = _bind()
NATIVE = _bn is not None


def modexp(base: int, exponent: int, modulus: int) -> int:
    """``pow(base, exponent, modulus)``, same value and same errors."""
    if _bn is None or exponent < 0 or modulus <= 0:
        return pow(base, exponent, modulus)
    lib, r, b, e, m, ctx = _bn
    size = (modulus.bit_length() + 7) >> 3
    exp = exponent.to_bytes((exponent.bit_length() + 7) >> 3, "big")
    out = ctypes.create_string_buffer(size)
    if not (lib.BN_bin2bn((base % modulus).to_bytes(size, "big"), size, b)
            and lib.BN_bin2bn(exp, len(exp), e)
            and lib.BN_bin2bn(modulus.to_bytes(size, "big"), size, m)):
        raise MemoryError("libcrypto could not grow a BIGNUM")
    if (lib.BN_mod_exp(r, b, e, m, ctx) != 1
            or lib.BN_bn2binpad(r, out, size) != size):
        raise ArithmeticError("BN_mod_exp failed")
    return int.from_bytes(out.raw, "big")


class Modulus:
    """A fixed modulus, loaded into libcrypto once and freed with this
    object; :meth:`power` is ``pow(base, exponent, value)``.

    Only an odd modulus above 2 has a Montgomery form, so any other (or a
    process without libcrypto) is computed like :func:`modexp`.  A copy is
    a fresh load: two objects never share the C numbers they free.
    """

    __slots__ = ("value", "_size", "_lib", "_m", "_mont")

    def __init__(self, value: int) -> None:
        self.value = value
        self._size = size = (value.bit_length() + 7) >> 3
        self._lib = self._m = self._mont = None
        if _bn is None or value < 3 or not value & 1:
            return
        lib, ctx = _bn[0], _bn[5]
        # Owned from here on: __del__ frees both, and freeing NULL is a no-op.
        self._lib = lib
        self._m = m = ctypes.c_void_p(lib.BN_new())
        self._mont = mont = ctypes.c_void_p(lib.BN_MONT_CTX_new())
        if not (m and mont
                and lib.BN_bin2bn(value.to_bytes(size, "big"), size, m)
                and lib.BN_MONT_CTX_set(mont, m, ctx) == 1):
            raise MemoryError("libcrypto could not load a modulus")

    def __del__(self) -> None:
        lib = getattr(self, "_lib", None)  # unset when value was no int
        if lib is not None:
            lib.BN_MONT_CTX_free(self._mont)
            lib.BN_free(self._m)

    def __reduce__(self):
        return Modulus, (self.value,)

    def power(self, base: int, exponent: int) -> int:
        """``pow(base, exponent, self.value)``, same value and same errors.

        ``BN_mod_exp_mont_word`` when the reduced base fits a word, as
        ``BN_mod_exp`` would choose, else ``BN_mod_exp_mont``; the entry
        points and scratch are the process's, read at each call.
        """
        bn = _bn
        if bn is None or self._mont is None or exponent < 0:
            return modexp(base, exponent, self.value)
        lib, r, b, e, _, ctx = bn
        size = self._size
        base %= self.value
        exp = exponent.to_bytes((exponent.bit_length() + 7) >> 3, "big")
        if not lib.BN_bin2bn(exp, len(exp), e):
            raise MemoryError("libcrypto could not grow a BIGNUM")
        if 0 < base < _WORD:
            ok = lib.BN_mod_exp_mont_word(r, ctypes.c_ulong(base), e,
                                          self._m, ctx, self._mont)
        elif lib.BN_bin2bn(base.to_bytes(size, "big"), size, b):
            ok = lib.BN_mod_exp_mont(r, b, e, self._m, ctx, self._mont)
        else:
            raise MemoryError("libcrypto could not grow a BIGNUM")
        out = ctypes.create_string_buffer(size)
        if ok != 1 or lib.BN_bn2binpad(r, out, size) != size:
            raise ArithmeticError("BN_mod_exp_mont failed")
        return int.from_bytes(out.raw, "big")

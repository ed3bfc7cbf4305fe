"""Modular exponentiation on the libcrypto the interpreter already loaded.

CPython's ``pow(b, e, m)`` spends ~1 ms on a 1024-bit modulus; OpenSSL's
``BN_mod_exp`` does it in ~0.1 ms (:mod:`repro.crypto.libcrypto` says how it
is reached).  Where it is not exported the builtin computes the same
integers; the choice is made once, at import, from what the platform exports.
Neither backend is constant-time (DESIGN.md §2), and the scratch numbers are
per process, not per thread: actors are tasks on one OS thread
(``tests/test_netsim_task_kernel.py`` keeps ``threading`` out).
"""

from __future__ import annotations

import ctypes

from repro.crypto.libcrypto import bind


def _bind():
    """``(lib, r, b, e, m, ctx)``: declared ``BN_*`` entry points plus this
    process's scratch numbers, or ``None`` when libcrypto is out of reach."""
    ptr, buf, num = ctypes.c_void_p, ctypes.c_char_p, ctypes.c_int
    lib = bind({
        "BN_new": (ptr,), "BN_CTX_new": (ptr,),
        "BN_bin2bn": (ptr, buf, num, ptr),
        "BN_mod_exp": (num, ptr, ptr, ptr, ptr, ptr),
        "BN_bn2binpad": (num, ptr, buf, num),
    })
    if lib is None:
        return None
    scratch = [lib.BN_new() for _ in range(4)] + [lib.BN_CTX_new()]
    if None in scratch:
        raise MemoryError("libcrypto could not allocate BIGNUM scratch")
    return (lib, *scratch)


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

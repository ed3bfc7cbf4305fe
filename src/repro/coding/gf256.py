"""GF(2^8) arithmetic with the AES polynomial (0x11B).

Scalar helpers on exp/log tables, and a whole buffer multiplied by one
coefficient in a single ``bytes.translate`` pass.
"""

from __future__ import annotations

_POLY = 0x11B

# Build exp/log tables once at import (generator 0x03).
EXP = [0] * 512
LOG = [0] * 256
_value = 1
for _i in range(255):
    EXP[_i] = _value
    LOG[_value] = _i
    # multiply by the generator 0x03: v*3 = v*2 ^ v
    doubled = _value << 1
    if doubled & 0x100:
        doubled ^= _POLY
    _value = doubled ^ _value
EXP[255:] = EXP[:257]


def gf_add(a: int, b: int) -> int:
    """Addition (and subtraction) in GF(256) is XOR."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    """Multiplication via log/antilog tables."""
    if a == 0 or b == 0:
        return 0
    return EXP[LOG[a] + LOG[b]]


def gf_pow(a: int, n: int) -> int:
    """Exponentiation ``a**n``."""
    if n == 0:
        return 1
    if a == 0:
        return 0
    return EXP[(LOG[a] * n) % 255]


def gf_inv(a: int) -> int:
    """Multiplicative inverse; raises on zero."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return EXP[255 - LOG[a]]


def gf_div(a: int, b: int) -> int:
    """Division ``a / b``."""
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    return gf_mul(a, gf_inv(b))


_ROWS: dict[int, bytes] = {}    # multiplication-table rows, on first use


def gf_mul_vector(coefficient: int, data: bytes) -> bytes:
    """Multiply every byte of ``data`` by ``coefficient`` (one C pass)."""
    if coefficient not in _ROWS:
        _ROWS[coefficient] = bytes(gf_mul(coefficient, v) for v in range(256))
    return data.translate(_ROWS[coefficient])

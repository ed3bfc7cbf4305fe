"""Byte-string helpers used throughout the crypto and wire layers."""

from __future__ import annotations

import ctypes

# The C API's way to make a bytes object for C code to fill in: with a NULL
# source a non-empty one is always a fresh object, and nothing else holds it
# until its maker hands it out.  A private prototype: ``ctypes.pythonapi`` is
# shared.
new_bytes = ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_char_p,
                              ctypes.c_ssize_t)(
    ("PyBytes_FromStringAndSize", ctypes.pythonapi))


def fill_view(data: bytes) -> memoryview:
    """A writable view of ``data``, which :func:`new_bytes` made and which
    nothing else may see until it is filled: a bytes object is immutable."""
    return memoryview((ctypes.c_char * len(data)).from_address(
        ctypes.cast(data, ctypes.c_void_p).value)).cast("B")


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """Return the byte-wise XOR of two equal-length byte strings."""
    if len(a) != len(b):
        raise ValueError(f"xor_bytes length mismatch: {len(a)} != {len(b)}")
    # int XOR is ~50x faster than a per-byte loop for cell-sized buffers.
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def int_to_bytes(value: int, length: int | None = None) -> bytes:
    """Encode a non-negative integer big-endian.

    When ``length`` is omitted the minimal number of bytes is used
    (at least one, so ``0`` encodes as ``b"\\x00"``).
    """
    if value < 0:
        raise ValueError("int_to_bytes requires a non-negative integer")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def int_from_bytes(data: bytes) -> int:
    """Decode a big-endian unsigned integer."""
    return int.from_bytes(data, "big")

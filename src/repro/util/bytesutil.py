"""Byte-string helpers used throughout the crypto and wire layers."""

from __future__ import annotations

import ctypes
from typing import Iterator

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


def chunk_bytes(data: bytes, size: int) -> Iterator[bytes]:
    """Yield consecutive chunks of ``data``, each at most ``size`` bytes.

    The final chunk may be shorter.  ``size`` must be positive.
    """
    if size <= 0:
        raise ValueError("chunk size must be positive")
    for offset in range(0, len(data), size):
        yield data[offset:offset + size]


def pad_to_multiple(data: bytes, multiple: int, filler: bytes = b"\x00") -> bytes:
    """Pad ``data`` with ``filler`` bytes up to the next multiple of ``multiple``.

    Data whose length is already an exact multiple is returned unchanged.
    ``filler`` must be a single byte.
    """
    if multiple <= 0:
        raise ValueError("pad multiple must be positive")
    if len(filler) != 1:
        raise ValueError("filler must be a single byte")
    remainder = len(data) % multiple
    if remainder == 0:
        return data
    return data + filler * (multiple - remainder)

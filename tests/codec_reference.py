"""The canonical codec as it was written first, kept as the oracle the
dispatch-by-type codec in :mod:`repro.util.serialization` is held to
(``tests/test_codec_oracle.py``): equal bytes for every value, and an
equal value or the same :class:`SerializationError` message for any input.
Do not optimise this file.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.util.serialization import MAX_DEPTH, SerializationError

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_DICT = b"M"


def _encode_into(value: Any, out: bytearray) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        encoded = str(value).encode("ascii")
        out += _TAG_INT + struct.pack(">I", len(encoded)) + encoded
    elif isinstance(value, float):
        if value != value:  # NaN never equals itself; signing it is a trap
            raise SerializationError("cannot canonically encode NaN")
        out += _TAG_FLOAT + struct.pack(">d", value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out += _TAG_STR + struct.pack(">I", len(encoded)) + encoded
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out += _TAG_BYTES + struct.pack(">I", len(raw)) + raw
    elif isinstance(value, (list, tuple)):
        out += _TAG_LIST + struct.pack(">I", len(value))
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        keys = list(value.keys())
        for key in keys:
            if not isinstance(key, str):
                raise SerializationError(f"dict keys must be str, got {type(key).__name__}")
        out += _TAG_DICT + struct.pack(">I", len(keys))
        for key in sorted(keys):
            _encode_into(key, out)
            _encode_into(value[key], out)
    else:
        raise SerializationError(f"unsupported type: {type(value).__name__}")


def _read(data: bytes, offset: int, count: int) -> bytes:
    end = offset + count
    if end > len(data):
        raise SerializationError("truncated input")
    return data[offset:end]


def _decode_from(data: bytes, offset: int, depth: int) -> tuple[Any, int]:
    tag = _read(data, offset, 1)
    offset += 1
    if tag == _TAG_NONE:
        return None, offset
    if tag == _TAG_TRUE:
        return True, offset
    if tag == _TAG_FALSE:
        return False, offset
    if tag == _TAG_INT:
        (length,) = struct.unpack(">I", _read(data, offset, 4))
        offset += 4
        raw = _read(data, offset, length)
        try:
            return int(raw.decode("ascii")), offset + length
        except ValueError as exc:
            raise SerializationError("malformed integer") from exc
    if tag == _TAG_FLOAT:
        (value,) = struct.unpack(">d", _read(data, offset, 8))
        return value, offset + 8
    if tag == _TAG_STR:
        (length,) = struct.unpack(">I", _read(data, offset, 4))
        offset += 4
        raw = _read(data, offset, length)
        try:
            return raw.decode("utf-8"), offset + length
        except UnicodeDecodeError as exc:
            raise SerializationError("malformed string") from exc
    if tag == _TAG_BYTES:
        (length,) = struct.unpack(">I", _read(data, offset, 4))
        offset += 4
        return bytes(_read(data, offset, length)), offset + length
    if depth == MAX_DEPTH and tag in (_TAG_LIST, _TAG_DICT):
        raise SerializationError(f"nested deeper than {MAX_DEPTH}")
    if tag == _TAG_LIST:
        (count,) = struct.unpack(">I", _read(data, offset, 4))
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode_from(data, offset, depth + 1)
            items.append(item)
        return items, offset
    if tag == _TAG_DICT:
        (count,) = struct.unpack(">I", _read(data, offset, 4))
        offset += 4
        result: dict[str, Any] = {}
        for _ in range(count):
            key, offset = _decode_from(data, offset, depth + 1)
            if not isinstance(key, str):
                raise SerializationError("dict key must decode to str")
            value, offset = _decode_from(data, offset, depth + 1)
            result[key] = value
        return result, offset
    raise SerializationError(f"unknown tag: {tag!r}")


def reference_encode(value: Any) -> bytes:
    """:func:`~repro.util.serialization.canonical_encode`, first form."""
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def reference_decode(data: bytes) -> Any:
    """:func:`~repro.util.serialization.canonical_decode`, first form."""
    value, offset = _decode_from(data, 0, 0)
    if offset != len(data):
        raise SerializationError(f"{len(data) - offset} trailing bytes after value")
    return value

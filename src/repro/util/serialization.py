"""Canonical binary encoding for structured values.

Wire messages, manifests and attestation reports need a *canonical* byte
representation so they can be hashed, signed, and compared.  JSON is not
canonical (dict ordering, float formatting) and pickle is unsafe, so this
module implements a small, self-describing, deterministic tag-length-value
encoding for the JSON-ish data model: ``None``, ``bool``, ``int``, ``float``,
``str``, ``bytes``, ``list`` and ``dict`` (string keys, encoded sorted).
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any

_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_DICT = b"M"


class SerializationError(ValueError):
    """Raised when a value cannot be encoded, or bytes cannot be decoded."""


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` into canonical bytes.

    Equal values always encode to equal bytes, so the output is safe to
    hash or sign.  Raises :class:`SerializationError` for unsupported types
    (including non-string dict keys and NaN floats, which break equality).
    """
    out = bytearray()
    _encode_into(value, out)
    return bytes(out)


def canonical_digest(value: Any) -> str:
    """SHA-256 hex digest of the canonical encoding: the identity of a
    plain-data value (a spec, an overlay, an event program)."""
    return hashlib.sha256(canonical_encode(value)).hexdigest()


def canonical_decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`canonical_encode`."""
    value, offset = _decode_from(data, 0)
    if offset != len(data):
        raise SerializationError(f"{len(data) - offset} trailing bytes after value")
    return value


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


def _decode_from(data: bytes, offset: int) -> tuple[Any, int]:
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
    if tag == _TAG_LIST:
        (count,) = struct.unpack(">I", _read(data, offset, 4))
        offset += 4
        items = []
        for _ in range(count):
            item, offset = _decode_from(data, offset)
            items.append(item)
        return items, offset
    if tag == _TAG_DICT:
        (count,) = struct.unpack(">I", _read(data, offset, 4))
        offset += 4
        result: dict[str, Any] = {}
        for _ in range(count):
            key, offset = _decode_from(data, offset)
            if not isinstance(key, str):
                raise SerializationError("dict key must decode to str")
            value, offset = _decode_from(data, offset)
            result[key] = value
        return result, offset
    raise SerializationError(f"unknown tag: {tag!r}")

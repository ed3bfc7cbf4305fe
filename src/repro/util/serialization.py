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
_N, _T, _F, _I, _D, _S, _B, _L, _M = b"NTFIDSBLM"
_LEAVES = frozenset(b"SBI")  # a four-byte length, then that many bytes
_TRUNCATED = "truncated input"
_DOUBLE = struct.Struct(">d")

#: Deepest nesting :func:`canonical_decode` accepts: past any value built
#: here, short of the interpreter's stack.
MAX_DEPTH = 64

#: A ``bytes`` leaf this long is kept by reference, not copied in place.
BY_REFERENCE = 64 * 1024


class SerializationError(ValueError):
    """Raised when a value cannot be encoded, or bytes cannot be decoded."""

#: What encoding raises: ValueError (a surrogate, a huge int too), a cycle.
UNENCODABLE = (ValueError, RecursionError)


class _Encoding(bytearray):
    """An encoding written in place but for ``leaves``: (offset, leaf)."""

    __slots__ = ("leaves",)


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` into canonical bytes.

    Equal values always encode to equal bytes, so the output is safe to
    hash or sign.  Raises :class:`SerializationError` for unsupported types
    (including non-string dict keys and NaN floats, which break equality).
    """
    return b"".join(canonical_pieces(value))


def canonical_pieces(value: Any) -> list:
    """:func:`canonical_encode` as bytes-like pieces to join: the encoding
    written in place, but each ``bytes`` leaf of :data:`BY_REFERENCE` bytes
    or more is a piece of its own, copied once, by the join."""
    out = _Encoding()
    out.leaves = []
    _encode_into(value, out)
    pieces, start = [], 0
    for offset, leaf in out.leaves:
        pieces += (out[start:offset], leaf)
        start = offset
    return [*pieces, out[start:] if start else out]


def canonical_digest(value: Any) -> str:
    """SHA-256 hex digest of the canonical encoding: the identity of a
    plain-data value (a spec, an overlay, an event program)."""
    return hashlib.sha256(canonical_encode(value)).hexdigest()


def canonical_decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`canonical_encode`; anything else,
    nesting deeper than :data:`MAX_DEPTH` too, is a SerializationError."""
    if type(data) is not bytes:
        data = bytes(data)
    try:
        value, offset = _decode_from(data, 0, 0)
    except UnicodeDecodeError as exc:  # a str leaf; an int reports its own
        raise SerializationError("malformed string") from exc
    if offset != len(data):
        raise SerializationError(f"{len(data) - offset} trailing bytes after value")
    return value


# Both directions dispatch on the exact type (or tag) first, in the order
# the tree's messages use them: str, dict, bytes, int, list.  Dict and list
# loops write or read str / bytes / int leaves in place, without a call per
# leaf.  Everything else (None, bools, floats, tuples, bytearray and
# memoryview, and any subclass: an IntEnum, a str-valued Enum key, a bool
# in a list) goes through _encode_other, the isinstance chain the codec
# was first written as, so it encodes exactly as it always has
# (tests/codec_reference.py keeps that first form as the oracle).

def _encode_into(value: Any, out: bytearray) -> None:
    cls = type(value)
    if cls is str:
        raw = value.encode()
        out += _TAG_STR + len(raw).to_bytes(4, "big") + raw
    elif cls is dict:
        for key in value:
            if type(key) is not str:
                _encode_other(value, out)  # refuses the key, or is a subclass
                return
        out += _TAG_DICT + len(value).to_bytes(4, "big")
        for key in sorted(value):
            raw = key.encode()
            out += _TAG_STR + len(raw).to_bytes(4, "big") + raw
            item = value[key]
            cls = type(item)
            if cls is str:
                raw = item.encode()
                out += _TAG_STR + len(raw).to_bytes(4, "big") + raw
            elif cls is int:
                raw = b"%d" % item
                out += _TAG_INT + len(raw).to_bytes(4, "big") + raw
            elif cls is bytes and len(item) < BY_REFERENCE:
                out += _TAG_BYTES + len(item).to_bytes(4, "big") + item
            else:
                _encode_into(item, out)
    elif cls is bytes:
        out += _TAG_BYTES + len(value).to_bytes(4, "big")
        if len(value) < BY_REFERENCE:
            out += value
        else:
            out.leaves.append((len(out), value))
    elif cls is int:
        raw = b"%d" % value
        out += _TAG_INT + len(raw).to_bytes(4, "big") + raw
    elif cls is list:
        out += _TAG_LIST + len(value).to_bytes(4, "big")
        for item in value:
            cls = type(item)
            if cls is str:
                raw = item.encode()
                out += _TAG_STR + len(raw).to_bytes(4, "big") + raw
            elif cls is int:
                raw = b"%d" % item
                out += _TAG_INT + len(raw).to_bytes(4, "big") + raw
            else:
                _encode_into(item, out)
    else:
        _encode_other(value, out)


def _encode_other(value: Any, out: bytearray) -> None:
    if value is None:
        out += _TAG_NONE
    elif value is True:
        out += _TAG_TRUE
    elif value is False:
        out += _TAG_FALSE
    elif isinstance(value, int):
        encoded = str(value).encode("ascii")
        out += _TAG_INT + len(encoded).to_bytes(4, "big") + encoded
    elif isinstance(value, float):
        if value != value:  # NaN never equals itself; signing it is a trap
            raise SerializationError("cannot canonically encode NaN")
        out += _TAG_FLOAT + _DOUBLE.pack(value)
    elif isinstance(value, str):
        encoded = value.encode("utf-8")  # never str(value): an Enum's name
        out += _TAG_STR + len(encoded).to_bytes(4, "big") + encoded
    elif isinstance(value, (bytes, bytearray, memoryview)):
        raw = bytes(value)
        out += _TAG_BYTES + len(raw).to_bytes(4, "big") + raw
    elif isinstance(value, (list, tuple)):
        out += _TAG_LIST + len(value).to_bytes(4, "big")
        for item in value:
            _encode_into(item, out)
    elif isinstance(value, dict):
        keys = list(value.keys())
        for key in keys:
            if not isinstance(key, str):
                raise SerializationError(f"dict keys must be str, got {type(key).__name__}")
        out += _TAG_DICT + len(keys).to_bytes(4, "big")
        for key in sorted(keys):
            _encode_into(key, out)
            _encode_into(value[key], out)
    else:
        raise SerializationError(f"unsupported type: {type(value).__name__}")


def _decode_from(data: bytes, offset: int, depth: int) -> tuple[Any, int]:
    """The value at ``offset`` and the offset after it.  Every length is
    checked against ``len(data)`` before it is used."""
    size = len(data)
    if offset >= size:
        raise SerializationError(_TRUNCATED)
    tag = data[offset]
    start = offset + 5
    if tag in _LEAVES:
        if start > size:
            raise SerializationError(_TRUNCATED)
        end = start + int.from_bytes(data[offset + 1:start], "big")
        if end > size:
            raise SerializationError(_TRUNCATED)
        return _leaf(tag, data[start:end]), end
    if tag == _M or tag == _L:
        if depth == MAX_DEPTH:
            raise SerializationError(f"nested deeper than {MAX_DEPTH}")
        if start > size:
            raise SerializationError(_TRUNCATED)
        count = int.from_bytes(data[offset + 1:start], "big")
        return (_decode_dict if tag == _M else _decode_list)(
            data, start, depth + 1, count)
    offset += 1
    if tag == _N:
        return None, offset
    if tag == _T:
        return True, offset
    if tag == _F:
        return False, offset
    if tag == _D:
        if offset + 8 > size:
            raise SerializationError(_TRUNCATED)
        return _DOUBLE.unpack_from(data, offset)[0], offset + 8
    raise SerializationError(f"unknown tag: {data[offset - 1:offset]!r}")


def _leaf(tag: int, raw: bytes) -> Any:
    """A length-prefixed leaf's value.  A str that is not UTF-8 raises
    UnicodeDecodeError, which canonical_decode reports."""
    if tag == _S:
        return raw.decode()
    if tag == _B:
        return raw
    try:
        return int(raw.decode("ascii"))  # not int(raw): str strips more space
    except ValueError as exc:
        raise SerializationError("malformed integer") from exc


def _decode_dict(data: bytes, offset: int, depth: int,
                 count: int) -> tuple[dict, int]:
    size = len(data)
    result: dict[str, Any] = {}
    for _ in range(count):
        start = offset + 5
        if start <= size and data[offset] == _S:
            offset = start + int.from_bytes(data[offset + 1:start], "big")
            if offset > size:
                raise SerializationError(_TRUNCATED)
            key = data[start:offset].decode()
        else:
            key, offset = _decode_from(data, offset, depth)
            if not isinstance(key, str):
                raise SerializationError("dict key must decode to str")
        start = offset + 5
        if start <= size and (tag := data[offset]) in _LEAVES:
            offset = start + int.from_bytes(data[offset + 1:start], "big")
            if offset > size:
                raise SerializationError(_TRUNCATED)
            raw = data[start:offset]
            result[key] = raw.decode() if tag == _S else _leaf(tag, raw)
        else:
            result[key], offset = _decode_from(data, offset, depth)
    return result, offset


def _decode_list(data: bytes, offset: int, depth: int,
                 count: int) -> tuple[list, int]:
    size = len(data)
    items = []
    for _ in range(count):
        start = offset + 5
        if start <= size and (tag := data[offset]) in _LEAVES:
            offset = start + int.from_bytes(data[offset + 1:start], "big")
            if offset > size:
                raise SerializationError(_TRUNCATED)
            raw = data[start:offset]
            items.append(raw.decode() if tag == _S else _leaf(tag, raw))
        else:
            item, offset = _decode_from(data, offset, depth)
            items.append(item)
    return items, offset

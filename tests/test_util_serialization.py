"""Canonical encoding: determinism, round trips, and rejection."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.util.serialization import (
    SerializationError,
    canonical_decode,
    canonical_encode,
)


def _values(max_leaves=20):
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**30), max_value=10**30),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=30),
        st.binary(max_size=40),
    )
    return st.recursive(
        scalars,
        lambda children: st.one_of(
            st.lists(children, max_size=5),
            st.dictionaries(st.text(max_size=8), children, max_size=5),
        ),
        max_leaves=max_leaves,
    )


class TestRoundTrip:
    @given(_values())
    def test_roundtrip(self, value):
        decoded = canonical_decode(canonical_encode(value))
        assert decoded == value

    def test_bytes_stay_bytes(self):
        assert canonical_decode(canonical_encode(b"\x00\xff")) == b"\x00\xff"

    def test_tuple_decodes_as_list(self):
        assert canonical_decode(canonical_encode((1, 2))) == [1, 2]

    def test_big_integer(self):
        value = 2**512 + 12345
        assert canonical_decode(canonical_encode(value)) == value


class TestCanonicality:
    def test_dict_order_irrelevant(self):
        a = canonical_encode({"x": 1, "y": 2})
        b = canonical_encode({"y": 2, "x": 1})
        assert a == b

    def test_distinct_values_distinct_bytes(self):
        assert canonical_encode({"a": 1}) != canonical_encode({"a": 2})

    def test_nested_determinism(self):
        value = {"outer": [{"b": 1, "a": 2}, None, b"xyz"]}
        assert canonical_encode(value) == canonical_encode(
            {"outer": [{"a": 2, "b": 1}, None, b"xyz"]})


class TestRejection:
    def test_nan_rejected(self):
        with pytest.raises(SerializationError):
            canonical_encode(math.nan)

    def test_non_string_keys_rejected(self):
        with pytest.raises(SerializationError):
            canonical_encode({1: "a"})

    def test_unsupported_type_rejected(self):
        with pytest.raises(SerializationError):
            canonical_encode(object())

    def test_truncated_input_rejected(self):
        blob = canonical_encode([1, 2, 3])
        with pytest.raises(SerializationError):
            canonical_decode(blob[:-2])

    def test_trailing_garbage_rejected(self):
        blob = canonical_encode("hi")
        with pytest.raises(SerializationError):
            canonical_decode(blob + b"x")

    def test_unknown_tag_rejected(self):
        with pytest.raises(SerializationError):
            canonical_decode(b"Z")

    def test_string_that_is_not_utf8_rejected(self):
        # UnicodeDecodeError is a ValueError but not the documented error:
        # a caller catching SerializationError must see this one too.
        for blob in (b"S\x00\x00\x00\x02\xff\xfe",
                     canonical_encode({"k": "v"}).replace(b"v", b"\xff")):
            with pytest.raises(SerializationError):
                canonical_decode(blob)

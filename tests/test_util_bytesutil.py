"""Unit tests for byte helpers."""

import pytest
from hypothesis import given, strategies as st

from repro.util.bytesutil import int_from_bytes, int_to_bytes, xor_bytes


class TestXorBytes:
    def test_xor_roundtrip(self):
        a, b = b"hello world!", b"KEYKEYKEYKEY"
        assert xor_bytes(xor_bytes(a, b), b) == a

    def test_xor_with_zeros_is_identity(self):
        data = bytes(range(256))
        assert xor_bytes(data, bytes(256)) == data

    def test_xor_empty(self):
        assert xor_bytes(b"", b"") == b""

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            xor_bytes(b"abc", b"ab")

    @given(st.binary(min_size=0, max_size=600))
    def test_self_xor_is_zero(self, data):
        assert xor_bytes(data, data) == bytes(len(data))


class TestIntCoding:
    def test_zero_encodes_to_one_byte(self):
        assert int_to_bytes(0) == b"\x00"

    def test_explicit_length(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            int_to_bytes(-1)

    @given(st.integers(min_value=0, max_value=2**256))
    def test_roundtrip(self, value):
        assert int_from_bytes(int_to_bytes(value)) == value

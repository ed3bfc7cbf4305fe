"""GF(256) arithmetic and the k-of-N erasure code."""

import functools
import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coding import erasure, gf256
from repro.coding.erasure import (
    CodingError,
    Shard,
    decode_shards,
    encode_shards,
)
from repro.coding.gf256 import (
    gf_add,
    gf_div,
    gf_inv,
    gf_mul,
    gf_mul_vector,
    gf_pow,
)
from repro.core.loader import build_function_namespace
from repro.functions.shard import SHARD_SOURCE
from repro.util.rng import DeterministicRandom


# -- a scalar reference, written from the definition ---------------------------
#
# No exp/log tables and nothing shared with repro.coding: a product is
# shift-and-reduce in GF(2)[x] mod 0x11B, the encoder is one multiplication
# per byte, the decoder Gauss-Jordan on [matrix | data].

@functools.lru_cache(maxsize=None)
def _ref_mul(a, b):
    product = 0
    while b:
        if b & 1:
            product ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return product


def _ref_pow(a, n):
    result = 1
    for _ in range(n):
        result = _ref_mul(result, a)
    return result


def _ref_inv(a):
    return next(b for b in range(1, 256) if _ref_mul(a, b) == 1)


def _ref_matrix(n, k):
    """Identity on top, then parity row i = powers 0..k-1 of (i - k + 2)."""
    return ([[int(i == j) for j in range(k)] for i in range(k)]
            + [[_ref_pow(i - k + 2, j) for j in range(k)] for i in range(k, n)])


def _ref_encode(data, n, k):
    if k == 1:
        return [data] * n
    stripe_len = max(1, -(-len(data) // k))
    padded = data + bytes(k * stripe_len - len(data))
    stripes = [padded[i * stripe_len:(i + 1) * stripe_len] for i in range(k)]
    pieces = []
    for row in _ref_matrix(n, k):
        piece = bytearray(stripe_len)
        for coefficient, stripe in zip(row, stripes):
            for pos, byte in enumerate(stripe):
                piece[pos] ^= _ref_mul(coefficient, byte)
        pieces.append(bytes(piece))
    return pieces


def _ref_decode(pieces, indices, n, k, length):
    """The file, or None when the k chosen rows are linearly dependent."""
    if k == 1:
        return pieces[indices[0]][:length]
    matrix = _ref_matrix(n, k)
    work = [matrix[i] + list(pieces[i]) for i in indices]
    for col in range(k):
        pivot = next((r for r in range(col, k) if work[r][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inverse = _ref_inv(work[col][col])
        work[col] = [_ref_mul(inverse, v) for v in work[col]]
        for r in range(k):
            factor = work[r][col]
            if r != col and factor:
                work[r] = [v ^ _ref_mul(factor, p)
                           for v, p in zip(work[r], work[col])]
    return b"".join(bytes(row[k:]) for row in work)[:length]


#: (n, k) with 1 <= k <= n <= 12, and an order over all twelve rows: its
#: first k entries below n are "any k-subset, in any order".
_code = st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(1, n)))
_order = st.permutations(range(12))
#: 0-4 KiB.  ``st.binary`` alone stays under ~30 bytes (empty, shorter than
#: k, not a multiple of k); the seeded arm reaches the long stripes.
_data = st.one_of(
    st.binary(max_size=40),
    st.builds(lambda length, seed: random.Random(seed).randbytes(length),
              st.integers(0, 4096), st.integers(0, 2**16)))


class TestGf256:
    def test_mul_identity(self):
        for a in range(256):
            assert gf_mul(a, 1) == a
            assert gf_mul(a, 0) == 0

    def test_mul_commutative_associative(self):
        triples = [(3, 7, 11), (100, 200, 255), (2, 2, 2)]
        for a, b, c in triples:
            assert gf_mul(a, b) == gf_mul(b, a)
            assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))

    def test_distributive(self):
        for a, b, c in [(5, 9, 77), (255, 128, 1), (13, 13, 13)]:
            assert gf_mul(a, gf_add(b, c)) == gf_add(gf_mul(a, b),
                                                     gf_mul(a, c))

    def test_inverse(self):
        for a in range(1, 256):
            assert gf_mul(a, gf_inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            gf_inv(0)

    def test_div(self):
        for a, b in [(10, 3), (255, 254), (1, 255)]:
            assert gf_mul(gf_div(a, b), b) == a
        with pytest.raises(ZeroDivisionError):
            gf_div(1, 0)

    def test_pow(self):
        assert gf_pow(2, 0) == 1
        assert gf_pow(0, 5) == 0
        assert gf_pow(3, 2) == gf_mul(3, 3)

    @given(st.integers(0, 255), st.integers(0, 255))
    def test_mul_closed(self, a, b):
        assert 0 <= gf_mul(a, b) <= 255

    def test_mul_equals_the_reference_on_every_pair(self):
        for a in range(256):
            for b in range(256):
                assert gf_mul(a, b) == _ref_mul(a, b), (a, b)

    def test_inv_div_pow_follow_the_reference(self):
        for a in range(1, 256):
            assert gf_inv(a) == _ref_inv(a)
        for a in range(256):
            for b in (1, 2, 3, 0x53, 0xCA, 255):
                assert gf_div(a, b) == _ref_mul(a, _ref_inv(b)), (a, b)
            for n in (0, 1, 2, 7, 254, 255, 256, 300):
                assert gf_pow(a, n) == _ref_pow(a, n), (a, n)

    def test_mul_vector_is_the_bytewise_map(self):
        every_value = bytes(range(256)) + bytes(range(255, -1, -1))
        for c in range(256):
            assert gf_mul_vector(c, every_value) == bytes(
                _ref_mul(c, value) for value in every_value), c
        assert gf_mul_vector(7, b"") == b""


class TestErasureCoding:
    def test_any_k_subset_reconstructs(self):
        data = bytes(range(256)) * 10 + b"trailer"
        shards = encode_shards(data, n=6, k=3)
        from itertools import combinations

        for subset in combinations(shards, 3):
            assert decode_shards(list(subset), 3, len(data)) == data

    def test_systematic_prefix(self):
        """The first k shards are the raw stripes (cheap decoding when no
        shard was lost)."""
        data = b"A" * 100 + b"B" * 100
        shards = encode_shards(data, n=4, k=2)
        assert shards[0].data + shards[1].data == data

    def test_replication_when_k_is_1(self):
        data = b"replicate me"
        shards = encode_shards(data, n=4, k=1)
        assert all(s.data == data for s in shards)
        assert decode_shards([shards[3]], 1, len(data)) == data

    def test_k_equals_n(self):
        data = b"x" * 97
        shards = encode_shards(data, n=5, k=5)
        assert decode_shards(shards, 5, len(data)) == data

    def test_insufficient_shards_rejected(self):
        shards = encode_shards(b"data", n=5, k=3)
        with pytest.raises(CodingError):
            decode_shards(shards[:2], 3, 4)

    def test_duplicate_shards_do_not_count(self):
        shards = encode_shards(b"data" * 10, n=5, k=3)
        with pytest.raises(CodingError):
            decode_shards([shards[0], shards[0], shards[0]], 3, 40)

    def test_bad_parameters(self):
        with pytest.raises(CodingError):
            encode_shards(b"x", n=2, k=3)
        with pytest.raises(CodingError):
            encode_shards(b"x", n=0, k=0)

    def test_empty_data(self):
        shards = encode_shards(b"", n=3, k=2)
        assert decode_shards(shards[:2], 2, 0) == b""

    def test_inconsistent_lengths_rejected(self):
        shards = encode_shards(b"0123456789AB", n=4, k=2)   # stripes of 6
        broken = [shards[0], Shard(index=2, data=b"five!")]
        with pytest.raises(CodingError):
            decode_shards(broken, 2, 12)

    # What a box chose (an index, the file's length) is not trusted.

    SHARDS = encode_shards(b"hello world" * 10, 6, 3)

    @pytest.mark.parametrize("index", [300, 257, 2**40, 256, -1, "3", None,
                                       3.0], ids=repr)
    def test_index_encode_cannot_emit_is_refused(self, index):
        shards = [self.SHARDS[0], Shard(index, self.SHARDS[3].data),
                  self.SHARDS[4]]
        with pytest.raises(CodingError, match="no shard index"):
            decode_shards(shards, 3, 110)

    def test_last_index_encode_can_emit_is_accepted(self):
        data = b"hello world" * 10
        shards = encode_shards(data, 3 + 253, 3)
        assert shards[-1].index == 255
        assert decode_shards([shards[255], shards[1], shards[254]], 3,
                             len(data)) == data
        with pytest.raises(CodingError):
            encode_shards(data, 3 + 254, 3)

    @pytest.mark.parametrize("length", [10**6, 112, 108, -5, -1])
    def test_length_the_stripes_do_not_hold_is_refused(self, length):
        """111 would be the padding byte handed back as data, 108 a file of
        three 36-byte stripes: neither is what three 37-byte stripes hold."""
        assert decode_shards(self.SHARDS[:3], 3, 110) == b"hello world" * 10
        assert len(decode_shards(self.SHARDS[:3], 3, 109)) == 109
        with pytest.raises(CodingError):
            decode_shards(self.SHARDS[:3], 3, length)

    def test_negative_length_is_refused_when_one_byte_stripes_match(self):
        shards = encode_shards(b"ab", 4, 3)      # stripes of 1, like length 0
        with pytest.raises(CodingError):
            decode_shards(shards[:3], 3, -2)

    @pytest.mark.parametrize("length", [13, 10**6, -5])
    def test_replica_length_is_checked(self, length):
        shards = encode_shards(b"replicate me", 3, 1)
        with pytest.raises(CodingError):
            decode_shards(shards[:1], 1, length)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_refused(self, k):
        with pytest.raises(CodingError):
            decode_shards(self.SHARDS[:3], k, 110)

    @pytest.mark.parametrize("wrap", [memoryview, bytearray])
    @pytest.mark.parametrize("k", [1, 3])
    def test_any_bytes_like_encodes(self, wrap, k):
        data = b"hello world" * 10
        shards = encode_shards(wrap(data), 6, k)
        assert shards == encode_shards(data, 6, k)
        assert all(type(s.data) is bytes for s in shards)

    @given(st.binary(min_size=0, max_size=400),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=4),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40)
    def test_roundtrip_property(self, data, k, extra, drop_seed):
        n = k + extra
        shards = encode_shards(data, n=n, k=k)
        # Drop a pseudo-random subset, keeping k shards.
        import random

        keep = random.Random(drop_seed).sample(shards, k)
        assert decode_shards(keep, k, len(data)) == data

    def test_function_source_encoder_matches_host_decoder(self):
        """The pure-Python encoder embedded in SHARD_SOURCE produces
        shards the host decoder reconstructs."""
        import repro.functions.shard as shard_module

        namespace = {}
        # Extract the embedded encoder by executing the source module-body
        # (no api needed for the encoding helpers).
        exec(shard_module.SHARD_SOURCE, namespace)
        data = bytes(range(251)) * 3
        pieces = namespace["_encode"](data, 5, 3)
        shards = [Shard(index=4, data=pieces[4]),
                  Shard(index=2, data=pieces[2]),
                  Shard(index=3, data=pieces[3])]
        assert decode_shards(shards, 3, len(data)) == data


def check_against_reference(data, n, k, order):
    """Encode ``data`` and decode the k-subset ``order`` picks, both against
    the scalar reference."""
    shards = encode_shards(data, n, k)
    assert [s.index for s in shards] == list(range(n))
    pieces = [s.data for s in shards]
    assert pieces == _ref_encode(data, n, k)
    indices = [i for i in order if i < n][:k]
    expected = _ref_decode(pieces, indices, n, k, len(data))
    if expected is None:
        # Identity + Vandermonde rows are not MDS for every (n, k): from
        # (9, 4) on, some k rows are dependent, and the decoder says so.
        with pytest.raises(CodingError, match="singular"):
            decode_shards([shards[i] for i in indices], k, len(data))
    else:
        assert expected == data
        assert decode_shards([shards[i] for i in indices], k, len(data)) == data


@pytest.fixture(scope="module")
def uploaded_encode():
    """``_encode`` as a Bento box runs it: SHARD_SOURCE's module body
    executed in the sandbox namespace."""
    namespace = build_function_namespace(api=None)
    exec(SHARD_SOURCE, namespace)
    return namespace["_encode"]


class TestAgainstReference:
    @settings(deadline=None)    # max_examples: the profile in conftest.py
    @given(_data, _code, _order)
    def test_encoder_and_decoder_agree_with_the_reference(self, data, code,
                                                          order):
        check_against_reference(data, *code, order)

    def test_dependent_rows_are_refused_not_mis_decoded(self):
        """Rows 1, 4, 5, 8 of the 4-of-9 code are linearly dependent (the
        smallest case; "any k of N" holds only while n - k <= 3 or k <= 3):
        the reference finds no pivot and the decoder raises."""
        data = bytes(range(1, 41))
        assert _ref_decode(_ref_encode(data, 9, 4), [1, 4, 5, 8], 9, 4, 40) is None
        check_against_reference(data, 9, 4, [1, 4, 5, 8])

    def test_every_subset_where_the_code_is_mds(self):
        """n - k <= 3 or k <= 3 (up to n = 12): no k rows are dependent."""
        from itertools import combinations

        data = bytes(range(1, 41))
        for n, k in [(6, 3), (12, 3), (7, 4), (12, 9), (12, 2)]:
            pieces = _ref_encode(data, n, k)
            for indices in combinations(range(n), k):
                assert _ref_decode(pieces, indices, n, k, 40) == data

    @settings(deadline=None, max_examples=100)
    @given(_data, _code)
    def test_uploaded_encoder_is_the_host_encoder(self, uploaded_encode, data,
                                                  code):
        """functions/shard.py's claim: "identical in layout"."""
        n, k = code
        assert uploaded_encode(data, n, k) == [
            s.data for s in encode_shards(data, n, k)]


# The oracle has to be able to fail.  Each mutation below is one way a
# table-driven coder could be wrong; each must break the fixed example.

def _tables_for_another_polynomial(monkeypatch):
    exp, log, value = [0] * 512, [0] * 256, 1
    for i in range(255):
        exp[i], log[value] = value, i
        doubled = value << 1
        if doubled & 0x100:
            doubled ^= 0x11D        # mutation: not the AES polynomial
        value ^= doubled
    exp[255:] = exp[:257]
    monkeypatch.setattr(gf256, "EXP", exp)
    monkeypatch.setattr(gf256, "LOG", log)


def _vandermonde_base_off_by_one(monkeypatch):
    rows = erasure._row_coefficients

    def mutant(index, k):       # mutation: a = i - k + 1, so row k is all ones
        return rows(index, k) if index < k else [
            gf_pow(index - k + 1, j) for j in range(k)]

    monkeypatch.setattr(erasure, "_row_coefficients", mutant)


def _parity_skips_the_coefficient_one_stripe(monkeypatch):
    combine = erasure._combine

    def mutant(coefficients, stripes):
        return combine([0 if c == 1 else c for c in coefficients], stripes)

    monkeypatch.setattr(erasure, "_combine", mutant)


class TestOracleHasTeeth:
    EXAMPLE = (bytes(range(1, 41)), 6, 3, [4, 0, 5])

    @pytest.mark.parametrize("mutate", [
        _tables_for_another_polynomial,
        _vandermonde_base_off_by_one,
        _parity_skips_the_coefficient_one_stripe])
    def test_mutation_is_caught(self, mutate, monkeypatch):
        check_against_reference(*self.EXAMPLE)
        monkeypatch.setattr(gf256, "_ROWS", {})     # no rows of the real tables
        mutate(monkeypatch)
        with pytest.raises(AssertionError):
            check_against_reference(*self.EXAMPLE)

    def test_wrong_polynomial_fails_the_exhaustive_product_check(
            self, monkeypatch):
        _tables_for_another_polynomial(monkeypatch)
        with pytest.raises(AssertionError):
            TestGf256().test_mul_equals_the_reference_on_every_pair()


# sha256 over the concatenated shards of one seeded input, computed with the
# numpy coder of a39fabe and committed before it was replaced.
_PINS = {
    (6, 3): "2bc14539cd904f04780a7cc0a116ac3e19e4c6ffb226e03fbd149560bbef880d",
    (5, 2): "cdae77127c1a66f9569b7cc0dd0d9897be553e0b10edf5dc0fbc0d9d6ea78c64",
    (10, 7): "dc98dc441a9cc0136a2e41afe084d064dd6efe71ff17e11aca1dc1348981c17c",
    (4, 4): "856cea62a1e73b786c873e6ea18ee1ba2e8c47a88f56e51018c5d2266acff744",
    (3, 1): "010752f74d43cc18a4247980a959c65e1792fcefe9302faab4a3e4c387bc78d8",
}


@pytest.mark.parametrize("n, k", list(_PINS))
def test_shard_bytes_are_pinned(n, k):
    data = DeterministicRandom("coding-pin").randbytes(2**20 + 7)
    shards = encode_shards(data, n, k)
    digest = hashlib.sha256(b"".join(s.data for s in shards)).hexdigest()
    assert digest == _PINS[(n, k)]
    assert decode_shards(shards[-k:], k, len(data)) == data

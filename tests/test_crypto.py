"""Unit tests for the crypto substrate: KDF, stream, AEAD, DH, RSA."""

import functools
import hashlib
import hmac
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.aead import AeadError, AeadKey
from repro.crypto.dh import (
    DH_GROUP_MODP_1024,
    DH_GROUP_MODP_2048,
    DiffieHellman,
)
from repro.crypto.kdf import hkdf, hkdf_expand, hkdf_extract
from repro.crypto.rsa import RsaError, RsaKeyPair, _digest_to_int
from repro.crypto.stream import StreamCipher, stream_xor
from repro.perf.counters import counters
from repro.util.bytesutil import int_to_bytes, xor_bytes
from repro.util.rng import DeterministicRandom


@pytest.fixture(scope="module")
def keypair():
    return RsaKeyPair.generate(DeterministicRandom("rsa-test"))


@functools.lru_cache(maxsize=None)
def _generated_keypair(seed: int, bits: int) -> RsaKeyPair:
    return RsaKeyPair.generate(DeterministicRandom(f"rsa-prop-{seed}"), bits)


class TestHkdf:
    def test_deterministic(self):
        assert hkdf(b"ikm", info=b"i") == hkdf(b"ikm", info=b"i")

    def test_info_separates(self):
        assert hkdf(b"ikm", info=b"a") != hkdf(b"ikm", info=b"b")

    def test_salt_separates(self):
        assert hkdf(b"ikm", salt=b"a") != hkdf(b"ikm", salt=b"b")

    def test_length(self):
        assert len(hkdf(b"x", length=100)) == 100

    def test_rfc5869_shape(self):
        prk = hkdf_extract(b"salt", b"ikm")
        assert len(prk) == 32
        okm = hkdf_expand(prk, b"info", 64)
        assert len(okm) == 64
        # expansion is prefix-consistent
        assert hkdf_expand(prk, b"info", 32) == okm[:32]

    # RFC 5869 appendix A, test cases 1-3 (SHA-256).
    @pytest.mark.parametrize("ikm, salt, info, length, prk, okm", [
        (b"\x0b" * 22, bytes(range(0x00, 0x0d)), bytes(range(0xf0, 0xfa)), 42,
         "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5",
         "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
         "34007208d5b887185865"),
        (bytes(range(0x00, 0x50)), bytes(range(0x60, 0xb0)),
         bytes(range(0xb0, 0x100)), 82,
         "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244",
         "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
         "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
         "cc30c58179ec3e87c14c01d5c1f3434f1d87"),
        (b"\x0b" * 22, b"", b"", 42,
         "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04",
         "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
         "9d201395faa4b61a96c8"),
    ], ids=["case1", "case2-long", "case3-empty-salt-info"])
    def test_rfc5869_known_answers(self, ikm, salt, info, length, prk, okm):
        assert hkdf_extract(salt, ikm).hex() == prk
        assert hkdf_expand(bytes.fromhex(prk), info, length).hex() == okm
        assert hkdf(ikm, salt=salt, info=info, length=length).hex() == okm

    def test_bad_length(self):
        with pytest.raises(ValueError):
            hkdf_expand(b"k" * 32, b"", 0)
        with pytest.raises(ValueError):
            hkdf_expand(b"k" * 32, b"", 255 * 32 + 1)


class TestStreamCipher:
    def test_roundtrip_stateful(self):
        enc = StreamCipher(b"k" * 16, b"n")
        dec = StreamCipher(b"k" * 16, b"n")
        for chunk in (b"one", b"two two", b"", b"three" * 100):
            assert dec.process(enc.process(chunk)) == chunk

    def test_keys_differ(self):
        assert (stream_xor(b"a" * 16, b"n", b"data")
                != stream_xor(b"b" * 16, b"n", b"data"))

    def test_nonces_differ(self):
        assert (stream_xor(b"k" * 16, b"n1", b"data")
                != stream_xor(b"k" * 16, b"n2", b"data"))

    def test_short_key_rejected(self):
        with pytest.raises(ValueError):
            StreamCipher(b"short")

    @given(st.binary(max_size=2000))
    def test_one_shot_roundtrip(self, data):
        key = b"K" * 32
        assert stream_xor(key, b"n", stream_xor(key, b"n", data)) == data

    def test_negative_length_rejected(self):
        cipher = StreamCipher(b"k" * 16, b"n")
        used = cipher.keystream(40)
        with pytest.raises(ValueError):
            cipher.keystream(-40)
        assert cipher.keystream(40) != used   # the cursor did not rewind

    # Read sizes from nothing to hundreds of blocks, so splits land before,
    # on and after 16-byte block boundaries.
    @given(st.lists(st.integers(0, 9000), max_size=8))
    def test_any_split_of_reads_equals_one_read(self, sizes):
        split = StreamCipher(b"split-key-16byte", b"n")
        whole = StreamCipher(b"split-key-16byte", b"n")
        parts = b"".join(split.keystream(n) for n in sizes)
        assert parts == whole.keystream(sum(sizes))
        assert split.keystream(33) == whole.keystream(33)

    @given(st.lists(st.binary(max_size=3000), max_size=8))
    def test_process_many_equals_mapped_process(self, messages):
        batched = StreamCipher(b"many-key-16bytes", b"n")
        mapped = StreamCipher(b"many-key-16bytes", b"n")
        assert batched.process_many(messages) == [
            mapped.process(m) for m in messages]
        assert batched.keystream(33) == mapped.keystream(33)

    @given(st.lists(st.one_of(
        st.integers(0, 6000),
        st.binary(max_size=3000),
        st.lists(st.binary(max_size=1500), max_size=4)), max_size=10))
    def test_same_key_ciphers_stay_in_sync_under_interleaving(self, ops):
        """Whatever mix of calls consumed them, equal byte counts mean
        equal positions: one side replays each op as a bare keystream
        read, the other runs the op itself."""
        doer = StreamCipher(b"sync-key-16bytes", b"n")
        shadow = StreamCipher(b"sync-key-16bytes", b"n")
        for op in ops:
            if isinstance(op, int):
                assert doer.keystream(op) == shadow.keystream(op)
            elif isinstance(op, bytes):
                assert doer.process(op) == xor_bytes(
                    op, shadow.keystream(len(op)))
            else:
                assert doer.process_many(op) == [
                    xor_bytes(m, shadow.keystream(len(m))) for m in op]
        assert doer.keystream(5000) == shadow.keystream(5000)

    @given(st.binary(min_size=16, max_size=48), st.binary(max_size=16),
           st.binary(min_size=16, max_size=48), st.binary(max_size=16))
    def test_other_key_or_nonce_gives_other_first_batch(self, key, nonce,
                                                        other_key, other_nonce):
        first = StreamCipher(key, nonce).keystream(4096)
        assert first == StreamCipher(key, nonce).keystream(4096)
        if other_key != key:
            assert first != StreamCipher(other_key, nonce).keystream(4096)
        if other_nonce != nonce:
            assert first != StreamCipher(key, other_nonce).keystream(4096)


class TestAead:
    def test_roundtrip(self):
        key = AeadKey(b"m" * 32)
        sealed = key.seal(b"nonce", b"payload", aad=b"hdr")
        assert key.open(b"nonce", sealed, aad=b"hdr") == b"payload"

    def test_overlong_nonce_refused_both_ways(self):
        key = AeadKey(b"m" * 32)
        assert key.open(b"n" * 255, key.seal(b"n" * 255, b"payload")) == b"payload"
        with pytest.raises(ValueError):
            key.seal(b"n" * 256, b"payload")
        with pytest.raises(AeadError):
            key.open(b"n" * 256, b"s" * 64)

    def test_tamper_detected(self):
        key = AeadKey(b"m" * 32)
        sealed = bytearray(key.seal(b"n", b"payload"))
        sealed[0] ^= 1
        with pytest.raises(AeadError):
            key.open(b"n", bytes(sealed))

    def test_wrong_nonce_rejected(self):
        key = AeadKey(b"m" * 32)
        with pytest.raises(AeadError):
            key.open(b"n2", key.seal(b"n1", b"payload"))

    def test_wrong_aad_rejected(self):
        key = AeadKey(b"m" * 32)
        with pytest.raises(AeadError):
            key.open(b"n", key.seal(b"n", b"p", aad=b"a"), aad=b"b")

    def test_wrong_key_rejected(self):
        sealed = AeadKey(b"m" * 32).seal(b"n", b"p")
        with pytest.raises(AeadError):
            AeadKey(b"x" * 32).open(b"n", sealed)

    def test_truncated_rejected(self):
        key = AeadKey(b"m" * 32)
        with pytest.raises(AeadError):
            key.open(b"n", b"short")

    @given(st.binary(max_size=1000), st.binary(min_size=1, max_size=16))
    @settings(max_examples=25)
    def test_roundtrip_property(self, plaintext, nonce):
        key = AeadKey(b"prop" * 8)
        assert key.open(nonce, key.seal(nonce, plaintext)) == plaintext

    @given(st.binary(max_size=1000), st.binary(max_size=16),
           st.binary(max_size=40))
    @settings(max_examples=25)
    def test_sealed_is_ciphertext_then_tag(self, plaintext, nonce, aad):
        """Encrypt-then-MAC as first written: ``ciphertext + tag``."""
        key = AeadKey(b"prop" * 8)
        ciphertext = stream_xor(key._enc_key, nonce, plaintext)
        tag = hmac.new(key._mac_key, bytes([len(nonce)]) + nonce
                       + len(aad).to_bytes(8, "big") + aad + ciphertext,
                       hashlib.sha256).digest()
        assert key.seal(nonce, plaintext, aad) == ciphertext + tag

    @given(st.binary(max_size=1000), st.binary(max_size=40),
           st.binary(max_size=40))
    @settings(max_examples=25)
    def test_a_span_opens_where_it_lies(self, plaintext, head, tail):
        key = AeadKey(b"prop" * 8)
        around = head + key.seal(b"n", plaintext, b"a") + tail
        span = {"start": len(head), "stop": len(around) - len(tail)}
        assert key.open(b"n", around, b"a", **span) == plaintext
        counters.reset()
        assert len(key.verify(b"n", around, b"a", **span)) == len(plaintext)
        assert counters.hash_calls == 0

    def test_verify_refuses_what_open_refuses(self):
        key = AeadKey(b"m" * 32)
        sealed = key.seal(b"n", b"payload")
        for bad in (sealed[:-1] + bytes([sealed[-1] ^ 1]),
                    bytes([sealed[0] ^ 1]) + sealed[1:], sealed[:31]):
            with pytest.raises(AeadError):
                key.verify(b"n", bad)
        with pytest.raises(AeadError):
            key.verify(b"n", b"xx" + sealed, start=1)


class TestDiffieHellman:
    def test_agreement(self):
        rng = DeterministicRandom("dh")
        a, b = DiffieHellman(rng), DiffieHellman(rng)
        assert a.shared_secret(b.public) == b.shared_secret(a.public)

    def test_agreement_2048(self):
        rng = DeterministicRandom("dh2048")
        a = DiffieHellman(rng, modulus=DH_GROUP_MODP_2048)
        b = DiffieHellman(rng, modulus=DH_GROUP_MODP_2048)
        assert a.shared_secret(b.public) == b.shared_secret(a.public)

    def test_public_bytes_roundtrip(self):
        rng = DeterministicRandom("dh2")
        a, b = DiffieHellman(rng), DiffieHellman(rng)
        assert a.shared_secret(b.public_bytes) == b.shared_secret(a.public_bytes)

    def test_distinct_parties_distinct_secrets(self):
        rng = DeterministicRandom("dh3")
        a, b, c = (DiffieHellman(rng) for _ in range(3))
        assert a.shared_secret(b.public) != a.shared_secret(c.public)

    def test_public_value_is_generator_power(self):
        a = DiffieHellman(DeterministicRandom("dh-pub"))
        assert a.public == pow(2, a._private, DH_GROUP_MODP_1024)

    def test_degenerate_public_rejected(self):
        rng = DeterministicRandom("dh4")
        a = DiffieHellman(rng)
        for bad in (0, 1):
            with pytest.raises(ValueError):
                a.shared_secret(bad)


class TestRsa:
    def test_sign_verify(self, keypair):
        signature = keypair.sign(b"message")
        assert keypair.public.verify(b"message", signature)

    def test_verify_rejects_other_message(self, keypair):
        signature = keypair.sign(b"message")
        assert not keypair.public.verify(b"other", signature)

    def test_verify_rejects_mangled_signature(self, keypair):
        signature = bytearray(keypair.sign(b"message"))
        signature[3] ^= 0x40
        assert not keypair.public.verify(b"message", bytes(signature))

    @pytest.mark.parametrize("not_bytes", [None, "text", 12345, [300]])
    def test_verify_rejects_non_bytes_signature(self, keypair, not_bytes):
        assert not keypair.public.verify(b"message", not_bytes)

    def test_verify_rejects_wrong_key(self, keypair):
        other = RsaKeyPair.generate(DeterministicRandom("other"))
        assert not other.public.verify(b"m", keypair.sign(b"m"))

    def test_encrypt_decrypt_int(self, keypair):
        message = 123456789
        assert keypair.decrypt_int(keypair.public.encrypt_int(message)) == message

    def test_encrypt_range_checked(self, keypair):
        with pytest.raises(RsaError):
            keypair.public.encrypt_int(keypair.public.n)

    def test_blind_signature_roundtrip(self, keypair):
        rng = DeterministicRandom("blind")
        blinded, unblinder = keypair.public.blind(b"token", rng)
        signature = keypair.public.unblind(keypair.blind_sign(blinded), unblinder)
        assert keypair.public.verify(b"token", signature)

    def test_blind_signature_unlinkable_bytes(self, keypair):
        # The signer sees `blinded`, which reveals nothing recognizable
        # about the token: two blindings of the same token differ.
        rng = DeterministicRandom("blind2")
        b1, _ = keypair.public.blind(b"token", rng)
        b2, _ = keypair.public.blind(b"token", rng)
        assert b1 != b2

    def test_export_import_parts(self, keypair):
        parts = keypair.export_parts()
        # The wire shape the LoadBalancer ships to replicas: no factors.
        assert sorted(parts) == ["d", "e", "n"]
        clone = RsaKeyPair.from_parts(parts)
        assert clone.sign(b"x") == keypair.sign(b"x")
        assert clone.decrypt_int(12345) == keypair.decrypt_int(12345)

    @pytest.mark.parametrize("delta", [1, -1, 2, 1 << 77])
    def test_from_parts_rejects_mismatched_d(self, keypair, delta):
        parts = keypair.export_parts()
        with pytest.raises(RsaError):
            RsaKeyPair.from_parts({**parts, "d": parts["d"] + delta})

    @pytest.mark.parametrize("field, value", [
        ("d", 0), ("d", 1), ("d", -7), ("n", 0), ("n", 35), ("e", 0)])
    def test_from_parts_rejects_garbage(self, keypair, field, value):
        with pytest.raises(RsaError):
            RsaKeyPair.from_parts({**keypair.export_parts(), field: value})

    def test_from_parts_accepts_equivalent_d(self, keypair):
        """``d`` plus a multiple of lambda(n) is the same private key."""
        parts = keypair.export_parts()
        order = math.lcm(keypair._p - 1, keypair._q - 1)
        clone = RsaKeyPair.from_parts({**parts, "d": parts["d"] + order})
        assert clone.sign(b"x") == keypair.sign(b"x")

    # The CRT private operation against the plain exponentiation it
    # replaced, over generated keys of both sizes the repo mints.
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 7), st.sampled_from([256, 512]), st.binary(max_size=64),
           st.integers(min_value=0))
    def test_private_ops_equal_plain_pow(self, key_seed, bits, message, raw):
        keypair = _generated_keypair(key_seed, bits)
        n, d = keypair.public.n, keypair._d
        assert keypair.sign(message) == int_to_bytes(
            pow(_digest_to_int(message, n), d, n), (n.bit_length() + 7) // 8)
        m = raw % n
        assert keypair.decrypt_int(m) == keypair.blind_sign(m) == pow(m, d, n)
        assert keypair.decrypt_int(keypair.public.encrypt_int(m)) == m

    def test_private_op_on_multiples_of_a_factor(self, keypair):
        n, d = keypair.public.n, keypair._d
        for c in (0, 1, n - 1, keypair._p, keypair._q, 3 * keypair._p,
                  n - keypair._q):
            assert keypair.decrypt_int(c) == pow(c, d, n)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 7), st.binary(min_size=1, max_size=32),
           st.integers(0, 2 ** 32))
    def test_blind_sign_unblind_equals_sign(self, key_seed, token, blind_seed):
        keypair = _generated_keypair(key_seed, 256)
        blinded, unblinder = keypair.public.blind(
            token, DeterministicRandom(f"blind-{blind_seed}"))
        signature = keypair.public.unblind(keypair.blind_sign(blinded),
                                           unblinder)
        assert signature == keypair.sign(token)

    def test_fingerprint_stable_and_distinct(self, keypair):
        other = RsaKeyPair.generate(DeterministicRandom("fp-other"))
        assert keypair.public.fingerprint() == keypair.public.fingerprint()
        assert keypair.public.fingerprint() != other.public.fingerprint()

    def test_tiny_keys_rejected(self):
        with pytest.raises(RsaError):
            RsaKeyPair.generate(DeterministicRandom("tiny"), bits=64)

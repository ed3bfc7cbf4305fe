"""``repro.crypto.stream``: the standards' known answers, the pure-Python
reference as a differential oracle for the libcrypto binding, and the
lifetime and failure hygiene of the foreign calls."""

import copy
import gc
import hashlib
import os
import pathlib
import pickle
import subprocess
import sys
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto import libcrypto
from repro.crypto import stream as stream_module
from repro.crypto.aead import AeadKey
from repro.crypto.stream import (ReferenceCipher, StreamCipher, _EvpCipher,
                                 _encrypt_block, _expand_key)
from repro.perf.counters import counters

needs_native = pytest.mark.skipif(
    not stream_module.NATIVE, reason="this libcrypto does not export EVP")
BACKENDS = pytest.mark.parametrize("backend", [
    pytest.param(_EvpCipher, id="native", marks=needs_native),
    pytest.param(ReferenceCipher, id="reference")])


def raw(backend, key: bytes, iv: bytes):
    """AES-128-CTR under exactly ``key`` / ``iv``: the standards' vectors do
    not go through this repo's key derivation."""
    cipher = backend.__new__(backend)
    cipher._start(key, iv)
    return cipher


class TestKnownAnswers:
    def test_fips_197_appendix_c1_block(self):
        keys = _expand_key(bytes(range(16)))
        block = bytes.fromhex("00112233445566778899aabbccddeeff")
        assert _encrypt_block(keys, block).hex() == (
            "69c4e0d86a7b0430d8cdb78070b4c55a")

    def test_fips_197_appendix_a1_key_schedule(self):
        keys = _expand_key(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        assert len(keys) == 11
        assert bytes(keys[1]).hex() == "a0fafe1788542cb123a339392a6c7605"
        assert bytes(keys[10]).hex() == "d014f9a8c9ee2589e13f0cc8b6630ca6"

    # NIST SP 800-38A F.5.1, CTR-AES128.Encrypt, four blocks.
    KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    IV = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
    PLAIN = bytes.fromhex(
        "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
        "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710")
    CIPHER = bytes.fromhex(
        "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff"
        "5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee")

    @BACKENDS
    def test_sp_800_38a_f51(self, backend):
        assert raw(backend, self.KEY, self.IV).process(self.PLAIN) == self.CIPHER
        # Decryption is the same operation, and so is any split of it.
        cipher = raw(backend, self.KEY, self.IV)
        assert b"".join(cipher.process(self.CIPHER[i:i + 7])
                        for i in range(0, 64, 7)) == self.PLAIN

    @BACKENDS
    def test_derivation_is_sha256_split_16_16(self, backend):
        seed = hashlib.sha256(b"stream:" + b"K" * 20 + b":" + b"nonce").digest()
        assert backend(b"K" * 20, b"nonce").keystream(100) == raw(
            backend, seed[:16], seed[16:]).keystream(100)


@needs_native
class TestNativeEqualsReference:
    # Reads of 0..70 bytes straddle 16-byte blocks in every phase; the long
    # ones make libcrypto take its multi-block path from an odd offset.
    @settings(max_examples=150, deadline=None)
    @given(st.binary(min_size=16, max_size=16),
           st.binary(min_size=16, max_size=16),
           st.lists(st.one_of(st.integers(0, 70), st.integers(0, 2000)),
                    max_size=10))
    @example(b"k" * 16, b"\xff" * 16, [1, 15, 16, 17, 200])  # counter wraps
    @example(b"k" * 16, b"\xff" * 15 + b"\xfe", [16, 16, 16])
    @example(b"k" * 16, b"\x00" * 7 + b"\xff" * 9, [40])  # carry past 64 bits
    def test_same_keystream_for_any_key_iv_and_reads(self, key, iv, sizes):
        native, reference = raw(_EvpCipher, key, iv), raw(ReferenceCipher, key, iv)
        for n in sizes:
            assert native.keystream(n) == reference.keystream(n)
        assert native.keystream(33) == reference.keystream(33)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=16, max_size=40), st.binary(max_size=20),
           st.lists(st.one_of(
               st.binary(max_size=600),
               st.lists(st.binary(max_size=600), max_size=4)), max_size=6))
    def test_same_ciphertext_through_the_public_interface(self, key, nonce, ops):
        native, reference = StreamCipher(key, nonce), ReferenceCipher(key, nonce)
        for op in ops:
            if isinstance(op, bytes):
                assert native.process(op) == reference.process(op)
            else:
                assert native.process_many(op) == reference.process_many(op)

    def test_counter_wraps_to_zero(self):
        after_wrap = raw(ReferenceCipher, b"w" * 16, bytes(16)).keystream(32)
        for backend in (_EvpCipher, ReferenceCipher):
            cipher = raw(backend, b"w" * 16, b"\xff" * 16)
            cipher.keystream(16)
            assert cipher.keystream(32) == after_wrap


@BACKENDS
class TestInputsAndCounters:
    def test_bytearray_and_memoryview_inputs(self, backend):
        data = bytes(range(256)) * 3
        expected = backend(b"k" * 16, b"n").process(data)
        assert backend(b"k" * 16, b"n").process(bytearray(data)) == expected
        assert backend(b"k" * 16, b"n").process(memoryview(data)) == expected
        wide = memoryview(data).cast("I")  # len() counts items, not bytes
        assert backend(b"k" * 16, b"n").process(wide) == expected
        parts = [bytearray(data[:100]), memoryview(data)[100:509], data[509:]]
        assert b"".join(
            backend(b"k" * 16, b"n").process_many(parts)) == expected
        assert type(backend(b"k" * 16, b"n").process(bytearray(data))) is bytes

    def test_empty_inputs(self, backend):
        cipher = backend(b"k" * 16, b"n")
        counters.reset()
        assert cipher.process(b"") == b"" == cipher.keystream(0)
        assert cipher.process_many([]) == []
        assert cipher.process_many([b"", b""]) == [b"", b""]
        assert (counters.hash_calls, counters.keystream_bytes) == (0, 0)
        assert cipher.keystream(16) == backend(b"k" * 16, b"n").keystream(16)

    def test_counters_are_exact(self, backend):
        """``keystream_bytes`` is the bytes processed; ``hash_calls`` is the
        calls into the primitive that made them, one per ``process``."""
        cipher = backend(b"count-key-16byte", b"count-nonce")
        counters.reset()
        cipher.keystream(1000)
        cipher.process(b"x" * 509)
        assert (counters.hash_calls, counters.keystream_bytes) == (2, 1509)
        cipher.process_many([b"y" * 509] * 5)
        assert (counters.hash_calls, counters.keystream_bytes) == (3, 4054)


@needs_native
class TestOutputObjects:
    def test_one_byte_reads_leave_the_interned_bytes_alone(self):
        """CPython shares one object per one-byte value; the output buffer
        must never be one of them."""
        cipher = StreamCipher(b"k" * 16, b"n")
        outputs = [cipher.process(b"\x00") for _ in range(2000)]
        assert len(set(outputs)) > 200
        assert all(bytes([i])[0] == i for i in range(256))

    def test_outputs_are_independent_objects(self):
        cipher = StreamCipher(b"k" * 16, b"n")
        first = cipher.process(b"a" * 509)
        kept = bytes(bytearray(first))
        cipher.process(b"b" * 509)
        assert first == kept

    def test_long_input_is_fed_in_bounded_calls(self, monkeypatch):
        data = bytes(range(251)) * 9
        expected = StreamCipher(b"k" * 16, b"n").process(data)
        monkeypatch.setattr(stream_module, "_MAX_CALL", 100)
        counters.reset()
        assert StreamCipher(b"k" * 16, b"n").process(data) == expected
        assert counters.hash_calls == -(-len(data) // 100)
        assert counters.keystream_bytes == len(data)


def _returns(value):
    return lambda *args: value


@needs_native
class TestContextLifetime:
    @pytest.fixture()
    def ledger(self, monkeypatch):
        """The real libcrypto behind a namespace that records the contexts
        made through it and each time one of those is freed, and lets a test
        swap an entry point."""
        lib = stream_module._evp
        made, freed = [], []

        def new():
            made.append(lib.EVP_CIPHER_CTX_new())
            return made[-1]

        def free(ctx):
            if ctx in made:  # an older cipher may be collected meanwhile
                freed.append(ctx)
            lib.EVP_CIPHER_CTX_free(ctx)

        fake = types.SimpleNamespace(
            EVP_aes_128_ctr=lib.EVP_aes_128_ctr, EVP_CIPHER_CTX_new=new,
            EVP_CIPHER_CTX_free=free, EVP_EncryptInit_ex=lib.EVP_EncryptInit_ex,
            EVP_EncryptUpdate=lib.EVP_EncryptUpdate, made=made, freed=freed)
        monkeypatch.setattr(stream_module, "_evp", fake)
        return fake

    @pytest.fixture()
    def unraisable(self, monkeypatch):
        seen = []
        monkeypatch.setattr(sys, "unraisablehook", seen.append)
        return seen

    def test_dropped_cipher_frees_its_context_once(self, ledger, unraisable):
        cipher = StreamCipher(b"k" * 16, b"n")
        cipher.process(b"data")
        assert (len(ledger.made), ledger.freed) == (1, [])
        del cipher
        gc.collect()
        assert ledger.freed == ledger.made
        assert unraisable == []

    def test_a_cipher_cannot_be_copied(self, ledger):
        """Two objects holding one context would free it twice."""
        cipher = StreamCipher(b"k" * 16, b"n")
        for duplicate in (copy.copy, copy.deepcopy, pickle.dumps):
            with pytest.raises(TypeError):
                duplicate(cipher)
        del cipher
        gc.collect()
        assert ledger.freed == ledger.made

    def test_rejected_key_leaves_nothing_to_free(self, ledger, unraisable):
        with pytest.raises(ValueError):
            StreamCipher(b"short")
        gc.collect()
        assert (ledger.made, ledger.freed) == ([], [])
        assert unraisable == []

    def test_failed_init_frees_the_context_once(self, ledger, unraisable):
        ledger.EVP_EncryptInit_ex = _returns(0)
        with pytest.raises(ArithmeticError):
            StreamCipher(b"k" * 16, b"n")
        gc.collect()
        assert len(ledger.made) == 1 and ledger.freed == ledger.made
        assert unraisable == []

    def test_failed_allocation_raises(self, ledger, unraisable):
        ledger.EVP_CIPHER_CTX_new = _returns(None)
        with pytest.raises(MemoryError):
            StreamCipher(b"k" * 16, b"n")
        gc.collect()
        assert ledger.freed == [] and unraisable == []

    def test_failed_or_short_update_raises(self, ledger):
        cipher = StreamCipher(b"k" * 16, b"n")
        ledger.EVP_EncryptUpdate = _returns(0)
        with pytest.raises(ArithmeticError):
            cipher.process(b"data")
        ledger.EVP_EncryptUpdate = _returns(1)  # "succeeds", writes nothing
        stream_module._OUTL.value = 0
        with pytest.raises(ArithmeticError):
            cipher.process(b"data")

    def test_errors_are_not_swallowed_by_callers(self, ledger):
        ledger.EVP_EncryptUpdate = _returns(0)
        with pytest.raises(ArithmeticError):
            AeadKey(b"m" * 32).seal(b"nonce", b"payload")

    def test_missing_symbols_select_the_reference(self):
        assert libcrypto.bind({"EVP_aes_128_ctr": (None,)}) is not None
        assert libcrypto.bind({"EVP_aes_128_ctr": (None,),
                               "EVP_no_such_cipher": (None,)}) is None

    def _run(self, script: str) -> subprocess.CompletedProcess:
        src = str(pathlib.Path(stream_module.__file__).resolve().parents[2])
        return subprocess.run([sys.executable, "-c", script], check=True,
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": src})

    def test_one_shot_ciphers_do_not_grow_the_process(self):
        """The attested channel makes one cipher per message.  A fresh
        interpreter, so that the high-water mark read is this loop's."""
        out = self._run(
            "import resource\n"
            "from repro.crypto.stream import stream_xor\n"
            "def churn(n):\n"
            "    for _ in range(n):\n"
            "        stream_xor(b'k' * 32, b'nonce', b'message')\n"
            "churn(20_000)  # allocator reaches steady size\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "churn(200_000)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
        unit = 1 if sys.platform == "darwin" else 1024  # bytes there, KiB here
        # One leaked EVP_CIPHER_CTX is > 150 bytes: 2e5 of them, > 28 MiB.
        assert int(out.stdout) * unit < 1 << 20

    def test_ciphers_alive_at_exit_finalize_quietly(self):
        out = self._run(
            "from repro.crypto.stream import StreamCipher\n"
            "from repro.tor.layercrypto import HopCrypto\n"
            "import repro.crypto.stream as module\n"
            "held = StreamCipher(b'k' * 16, b'n')\n"
            "cycle = [StreamCipher(b'k' * 16, b'n')]\n"
            "cycle.append(cycle)\n"
            "module.parked = StreamCipher(b'k' * 16, b'n')\n"
            "HopCrypto.parked = StreamCipher(b'k' * 16, b'n')\n")
        assert out.stderr == ""

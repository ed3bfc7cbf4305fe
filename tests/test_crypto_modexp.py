"""``repro.crypto.modexp``: parity with builtin ``pow`` on both backends,
and the hygiene of the foreign calls behind the native one."""

import hashlib
import os
import pathlib
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st
from test_determinism import _full_run

from repro.crypto import modexp as modexp_module
from repro.crypto.dh import DH_GROUP_MODP_1024, DH_GROUP_MODP_2048, DiffieHellman
from repro.crypto.modexp import modexp
from repro.crypto.rsa import RsaKeyPair
from repro.util.rng import DeterministicRandom

GROUPS = pytest.mark.parametrize(
    "modulus", [pytest.param(DH_GROUP_MODP_1024, id="modp1024"),
                pytest.param(DH_GROUP_MODP_2048, id="modp2048")])
NO_NATIVE = "this libcrypto does not export BN_mod_exp"
needs_native = pytest.mark.skipif(not modexp_module.NATIVE, reason=NO_NATIVE)


@pytest.fixture(params=["native", "builtin"], scope="class")
def backend(request):
    """Run the class once per backend by swapping the module's handle."""
    if request.param == "native" and not modexp_module.NATIVE:
        pytest.skip(NO_NATIVE)
    saved = modexp_module._bn
    if request.param == "builtin":
        modexp_module._bn = None
    yield request.param
    modexp_module._bn = saved


def _pk_transcript() -> str:
    """Digest of every kind of public-key output, from fixed seeds."""
    h = hashlib.sha256()
    rng = DeterministicRandom("modexp-transcript")
    for group in (DH_GROUP_MODP_1024, DH_GROUP_MODP_2048):
        a, b = DiffieHellman(rng, group), DiffieHellman(rng, group)
        secret = a.shared_secret(b.public)
        assert secret == b.shared_secret(a.public_bytes)
        h.update(a.public_bytes + b.public_bytes + secret)
    for bits in (256, 512):
        key = RsaKeyPair.generate(rng, bits)
        parts = key.export_parts()
        clone = RsaKeyPair.from_parts(parts)
        signature = key.sign(b"consensus")
        assert clone.sign(b"consensus") == signature
        assert key.public.verify(b"consensus", signature)
        blinded, unblinder = key.public.blind(b"token", rng)
        token = key.public.unblind(key.blind_sign(blinded), unblinder)
        assert key.public.verify(b"token", token)
        h.update(repr(sorted(parts.items())).encode() + signature + token)
        h.update(str(key.decrypt_int(key.public.encrypt_int(0xBE2270))).encode())
    return h.hexdigest()


@pytest.mark.usefixtures("backend")
class TestParity:
    """``modexp(b, e, m) == pow(b, e, m)``, whichever backend is active."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 1 << 1100).flatmap(
               lambda m: st.tuples(st.integers(0, 4 * m + 7), st.just(m))),
           st.one_of(st.sampled_from([0, 1]), st.integers(0, (1 << 2048) - 1)))
    def test_equals_pow(self, base_modulus, exponent):
        base, modulus = base_modulus
        assert modexp(base, exponent, modulus) == pow(base, exponent, modulus)

    @pytest.mark.parametrize("modulus", [1, 2, 3, 4, 1 << 64, (1 << 64) + 1])
    def test_small_and_even_moduli(self, modulus):
        for base in (0, 1, 2, modulus - 1, modulus, modulus + 1, 3 * modulus + 2):
            for exponent in (0, 1, 2, 65537, (1 << 70) + 1):
                assert modexp(base, exponent, modulus) == pow(base, exponent, modulus)

    def test_negative_base_reduced_like_pow(self):
        assert modexp(-5, 3, 7) == pow(-5, 3, 7)
        assert modexp(-(1 << 80), 65537, 1 << 61) == pow(-(1 << 80), 65537, 1 << 61)

    # Exponents built from 7-bit digits over a zero-heavy alphabet: long
    # runs of zero bits and of one bits are where a windowed exponentiation
    # goes wrong, and they were what the deleted fixed-base table was
    # tested on.
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([0, 0, 0, 1, 63, 127]),
                    min_size=37, max_size=37),
           st.sampled_from([DH_GROUP_MODP_1024, DH_GROUP_MODP_2048]))
    def test_generator_power_equals_pow(self, digits, modulus):
        exponent = sum(d << 7 * i for i, d in enumerate(digits)) & (1 << 256) - 1
        assert modexp(2, exponent, modulus) == pow(2, exponent, modulus)

    @GROUPS
    def test_generator_power_edges(self, modulus):
        edges = [0, 1, 15, 16, 1 << 255, (1 << 256) - 1,
                 1 << 2047, (1 << 2048) - 1]
        for low in (7, 14, 119, 252):
            edges += [(1 << low) - 1, 1 << low, (127 << low) & (1 << 256) - 1]
        for exponent in edges:
            assert modexp(2, exponent, modulus) == pow(2, exponent, modulus)
            assert modexp(modulus - 2, exponent, modulus) == pow(
                modulus - 2, exponent, modulus)

    @pytest.mark.parametrize("args", [(2, -1, 4), (2, 5, 0), (0, -3, 7)])
    def test_raises_what_pow_raises(self, args):
        with pytest.raises(ValueError) as expected:
            pow(*args)
        with pytest.raises(ValueError) as raised:
            modexp(*args)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("args", [(3, -1, 7), (3, -5, 1 << 64 | 1),
                                      (2, 5, -7), (-2, 5, -7)])
    def test_outside_the_native_domain_is_pow(self, args):
        assert modexp(*args) == pow(*args)

    def test_public_key_outputs_are_the_frozen_ones(self):
        """DH values, seeded RSA keys, signatures, decryptions and blind
        signatures, as recorded before ``modexp`` existed."""
        assert _pk_transcript() == (
            "7f027fd7e24adda461d76101fe6d8358592014a97e7ae73ad659cff538ffed5d")

    def test_attested_session_is_the_frozen_one(self):
        """Circuits, attestation, upload and a fetch end to end: simulated
        time, packet trace and results as recorded before ``modexp``."""
        out = _full_run("replay-seed")
        assert hashlib.sha256(repr(sorted(out.items())).encode()).hexdigest() == (
            "f8cb7fba83446dd9f0d7fe7fc194697cf9386842bf065f6c56fa1a84ad8ceb66")


def _returns(value):
    """A stand-in for a ctypes function pointer (takes attributes too)."""
    return lambda *args: value


@needs_native
class TestForeignCodeHygiene:
    def _with(self, monkeypatch, **fakes):
        lib, *scratch = modexp_module._bn
        names = ("BN_bin2bn", "BN_mod_exp", "BN_bn2binpad")
        patched = types.SimpleNamespace(
            **{name: fakes.get(name, getattr(lib, name)) for name in names})
        monkeypatch.setattr(modexp_module, "_bn", (patched, *scratch))

    def test_failed_exponentiation_raises(self, monkeypatch):
        self._with(monkeypatch, BN_mod_exp=_returns(0))
        with pytest.raises(ArithmeticError):
            modexp(3, 5, 7)

    def test_short_result_raises(self, monkeypatch):
        self._with(monkeypatch, BN_bn2binpad=_returns(-1))
        with pytest.raises(ArithmeticError):
            modexp(3, 5, 7)

    def test_failed_conversion_raises(self, monkeypatch):
        self._with(monkeypatch, BN_bin2bn=_returns(None))
        with pytest.raises(MemoryError):
            modexp(3, 5, 7)

    def test_null_scratch_allocation_raises(self, monkeypatch):
        class Lib:
            BN_new = _returns(None)
            BN_CTX_new = BN_bin2bn = BN_mod_exp = BN_bn2binpad = _returns(1)

        monkeypatch.setattr(modexp_module.ctypes, "CDLL", lambda path: Lib)
        with pytest.raises(MemoryError):
            modexp_module._bind()

    def test_missing_symbols_select_the_builtin(self, monkeypatch):
        class Lib:  # a libcrypto-free _hashlib: no BN_* to resolve
            pass

        monkeypatch.setattr(modexp_module.ctypes, "CDLL", lambda path: Lib)
        assert modexp_module._bind() is None

        def unloadable(path):
            raise OSError(path)

        monkeypatch.setattr(modexp_module.ctypes, "CDLL", unloadable)
        assert modexp_module._bind() is None

    def test_errors_are_not_swallowed_by_callers(self, monkeypatch):
        self._with(monkeypatch, BN_mod_exp=_returns(0))
        with pytest.raises(ArithmeticError):
            DiffieHellman(DeterministicRandom("dh-fail"))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_computes_the_parents_values(self):
        cases = [(3, (1 << 256) - 1, DH_GROUP_MODP_1024),
                 (DH_GROUP_MODP_1024 - 2, 1 << 255, DH_GROUP_MODP_2048)]
        expected = [pow(*case) for case in cases]
        assert [modexp(*case) for case in cases] == expected  # scratch in use
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report and leave without running pytest's exit
            ok = [modexp(*case) for case in cases] == expected
            os.write(write_end, b"1" if ok else b"0")
            os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            verdict = pipe.read()
        assert os.waitpid(pid, 0)[1] == 0
        assert verdict == b"1"
        assert [modexp(*case) for case in cases] == expected

    def test_fresh_moduli_do_not_grow_the_process(self):
        """One candidate modulus per call, as RSA keygen does: nothing may
        be kept per modulus.  A fresh interpreter, so that the high-water
        mark read is this loop's and not an earlier test's."""
        script = (
            "import resource\n"
            "from repro.crypto.modexp import modexp\n"
            "def churn(start, stop):\n"
            "    for i in range(start, stop):\n"
            "        modexp(3, 65537, (1 << 255) + 2 * i + 1)\n"
            "churn(0, 20_000)  # allocator and scratch reach steady size\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "churn(20_000, 120_000)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n")
        src = str(pathlib.Path(modexp_module.__file__).resolve().parents[2])
        out = subprocess.run([sys.executable, "-c", script], check=True,
                             capture_output=True, text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": src})
        unit = 1 if sys.platform == "darwin" else 1024  # bytes there, KiB here
        # One BIGNUM leaked per modulus would be >= 56 bytes x 1e5 = 5.3 MiB.
        assert int(out.stdout) * unit < 1 << 20

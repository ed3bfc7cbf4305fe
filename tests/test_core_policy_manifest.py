"""Middlebox node policies, manifests, tokens, and wire messages."""

import pytest

from repro.core.apispec import ALL_API_CALLS, API_SYSCALLS, syscalls_for
from repro.core.manifest import FunctionManifest
from repro.core.messages import (
    Error,
    Invoke,
    decode_message,
    encode_message,
)
from repro.core.policy import MiddleboxNodePolicy
from repro.core.tokens import (
    BlindTokenIssuer,
    BlindTokenWallet,
    TokenIssuer,
)
from repro.util.errors import ProtocolError
from repro.util.rng import DeterministicRandom

MB = 1024 * 1024


class TestApiSpec:
    def test_every_call_has_syscalls(self):
        for call in ALL_API_CALLS:
            assert API_SYSCALLS[call]

    def test_syscalls_for_union(self):
        needed = syscalls_for({"send", "http_get"})
        assert "write" in needed and "socket" in needed

    def test_unknown_call_rejected(self):
        with pytest.raises(ValueError):
            syscalls_for({"format_disk"})


class TestManifest:
    def test_syscalls_derived(self):
        manifest = FunctionManifest.create("f", "f", {"send", "recv"})
        assert manifest.syscalls == frozenset({"read", "write"})

    def test_explicit_syscalls_respected(self):
        manifest = FunctionManifest.create("f", "f", {"send"},
                                           syscalls={"write", "read"})
        assert manifest.syscalls == frozenset({"write", "read"})

    def test_unknown_api_call_rejected(self):
        with pytest.raises(ValueError):
            FunctionManifest.create("f", "f", {"rm_rf"})

    def test_wire_roundtrip(self):
        manifest = FunctionManifest.create(
            "browser", "browser", {"http_get", "send"},
            image="python-op-sgx", memory_bytes=5 * MB, disk_bytes=MB)
        clone = FunctionManifest.from_wire(manifest.to_wire())
        assert clone == manifest

    def test_wants_enclave(self):
        assert FunctionManifest.create("f", "f", {"send"},
                                       image="python-op-sgx").wants_enclave
        assert not FunctionManifest.create("f", "f", {"send"}).wants_enclave

    def test_validation(self):
        with pytest.raises(ValueError):
            FunctionManifest.create("", "f", {"send"})
        with pytest.raises(ValueError):
            FunctionManifest.create("f", "f", {"send"}, memory_bytes=-1)


class TestPolicy:
    def test_open_policy_permits_reasonable_manifest(self):
        policy = MiddleboxNodePolicy.open_policy()
        manifest = FunctionManifest.create("f", "f", {"send", "http_get"})
        assert policy.permits(manifest)

    def test_api_call_excess_rejected(self):
        policy = MiddleboxNodePolicy.network_measurement_policy()
        manifest = FunctionManifest.create("f", "f", {"storage.put"},
                                           disk_bytes=0)
        reason = policy.rejection_reason(manifest)
        assert reason and "storage.put" in reason

    def test_no_disk_policy(self):
        policy = MiddleboxNodePolicy.no_disk_policy()
        ok = FunctionManifest.create("f", "f", {"send", "http_get"})
        assert policy.permits(ok)
        disky = FunctionManifest.create("f", "f", {"send"}, disk_bytes=1)
        assert not policy.permits(disky)

    def test_enclave_only_calls(self):
        policy = MiddleboxNodePolicy.enclave_storage_policy()
        plain = FunctionManifest.create("f", "f", {"storage.put"},
                                        image="python", disk_bytes=MB)
        sgx = FunctionManifest.create("f", "f", {"storage.put"},
                                      image="python-op-sgx", disk_bytes=MB)
        assert not policy.permits(plain)
        assert policy.permits(sgx)

    def test_resource_ceilings(self):
        policy = MiddleboxNodePolicy(max_function_memory=MB)
        manifest = FunctionManifest.create("f", "f", {"send"},
                                           memory_bytes=2 * MB)
        reason = policy.rejection_reason(manifest)
        assert reason and "memory" in reason

    def test_image_offering(self):
        policy = MiddleboxNodePolicy(images=("python",))
        manifest = FunctionManifest.create("f", "f", {"send"},
                                           image="python-op-sgx")
        assert not policy.permits(manifest)

    def test_syscall_excess_rejected(self):
        policy = MiddleboxNodePolicy(
            syscalls=frozenset({"read", "write"}))
        manifest = FunctionManifest.create("f", "f", {"http_get"})
        reason = policy.rejection_reason(manifest)
        assert reason and "syscalls" in reason

    def test_wire_roundtrip(self):
        policy = MiddleboxNodePolicy.enclave_storage_policy()
        clone = MiddleboxNodePolicy.from_wire(policy.to_wire())
        assert clone == policy

    def test_unknown_entries_rejected(self):
        with pytest.raises(ValueError):
            MiddleboxNodePolicy(api_calls=frozenset({"bogus"}))
        with pytest.raises(ValueError):
            MiddleboxNodePolicy(syscalls=frozenset({"bogus"}))


class TestTokens:
    def test_issuer_tokens_unique(self):
        issuer = TokenIssuer("seed")
        pairs = [issuer.issue() for _ in range(100)]
        invocations = {p.invocation for p in pairs}
        shutdowns = {p.shutdown for p in pairs}
        assert len(invocations) == 100 and len(shutdowns) == 100
        assert not (invocations & shutdowns)

    def test_blind_token_flow(self):
        rng = DeterministicRandom("bt")
        issuer = BlindTokenIssuer(rng.fork("issuer"))
        wallet = BlindTokenWallet(rng.fork("wallet"), issuer.public_key)
        value, blinded, unblinder = wallet.prepare()
        token = wallet.finish(value, issuer.sign_blinded(blinded), unblinder)
        assert issuer.redeem(token.value, token.signature)

    def test_double_spend_rejected(self):
        rng = DeterministicRandom("bt2")
        issuer = BlindTokenIssuer(rng.fork("issuer"))
        wallet = BlindTokenWallet(rng.fork("wallet"), issuer.public_key)
        value, blinded, unblinder = wallet.prepare()
        token = wallet.finish(value, issuer.sign_blinded(blinded), unblinder)
        assert issuer.redeem(token.value, token.signature)
        assert not issuer.redeem(token.value, token.signature)

    def test_forged_token_rejected(self):
        rng = DeterministicRandom("bt3")
        issuer = BlindTokenIssuer(rng.fork("issuer"))
        assert not issuer.redeem(b"made-up-token", b"\x01" * 64)

    def test_unlinkability_issuer_never_sees_value(self):
        """The value the issuer signs (blinded) differs from the value it
        later redeems, and the blinding is randomized."""
        rng = DeterministicRandom("bt4")
        issuer = BlindTokenIssuer(rng.fork("issuer"))
        wallet = BlindTokenWallet(rng.fork("wallet"), issuer.public_key)
        value, blinded, unblinder = wallet.prepare()
        assert blinded != int.from_bytes(value, "big")
        token = wallet.finish(value, issuer.sign_blinded(blinded), unblinder)
        assert issuer.redeem(token.value, token.signature)


class TestMessages:
    def test_roundtrip(self):
        frame = encode_message(Invoke, rid=7, token="t", args=[1, "x"])
        assert decode_message(frame) == Invoke(rid=7, token="t",
                                               args=[1, "x"])

    def test_unknown_type_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            encode_message("launch_missiles")

    def test_unknown_type_rejected_on_decode(self):
        from repro.util.serialization import canonical_encode

        with pytest.raises(ProtocolError):
            decode_message(canonical_encode({"type": "nope"}))

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(b"\xff\xfe")

    def test_missing_type_rejected(self):
        from repro.util.serialization import canonical_encode

        with pytest.raises(ProtocolError):
            decode_message(canonical_encode({"no_type": 1}))

    def test_error_helper(self):
        message = decode_message(encode_message(Error, reason="bad-token",
                                                detail="why"))
        assert isinstance(message, Error)
        assert message.reason == "bad-token"
        assert message.retry_after == 0.0       # an optional field's default

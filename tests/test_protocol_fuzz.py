"""Fuzz-style robustness: malformed wire inputs must fail cleanly.

Every decoder in the stack (canonical values, frames, Bento messages,
relay cells, exit policies) gets arbitrary bytes thrown at it; the
property is "a typed error or a clean rejection — never a crash or a
hang".  These leave ``max_examples`` to the hypothesis profile, so the
nightly run gives them its larger budget.  The records a peer sends
inside a frame are covered by ``test_message_schema.py``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.messages import decode_message
from repro.core.policy import MiddleboxNodePolicy
from repro.netsim.bytestream import Framer
from repro.tor.cell import RelayCellPayload
from repro.util.errors import ProtocolError, ReproError
from repro.util.serialization import SerializationError, canonical_decode


class TestDecoderRobustness:
    @given(st.binary(max_size=300))
    def test_canonical_decode_never_crashes(self, blob):
        try:
            canonical_decode(blob)
        except SerializationError:
            pass

    def test_canonical_decode_bounds_its_nesting(self):
        deep = b"L\x00\x00\x00\x01" * 5000 + b"N"     # 25 KB of lists
        with pytest.raises(SerializationError, match="nested deeper"):
            canonical_decode(deep)
        with pytest.raises(ProtocolError):
            decode_message(deep)

    @given(st.binary(max_size=300))
    def test_message_decode_never_crashes(self, blob):
        try:
            decode_message(blob)
        except ProtocolError:
            pass

    @given(st.binary(min_size=509, max_size=509))
    def test_relay_payload_unpack_never_crashes(self, blob):
        try:
            RelayCellPayload.unpack(blob)
        except ProtocolError:
            pass

    @given(st.binary(max_size=100))
    def test_framer_survives_garbage_chunks(self, blob):
        framer = Framer()
        try:
            framer.feed(blob)
        except ValueError:
            pass  # oversize frame declaration

    @given(st.binary(max_size=400))
    def test_exit_policy_parse_never_crashes(self, blob):
        from repro.tor.exitpolicy import ExitPolicy, ExitPolicyError

        try:
            ExitPolicy.parse(blob.decode("latin-1"))
        except (ExitPolicyError, ReproError):
            pass


class TestPolicyRoundtrips:
    @given(
        st.sets(st.sampled_from(sorted(
            __import__("repro.core.apispec", fromlist=["ALL_API_CALLS"])
            .ALL_API_CALLS)), max_size=10),
        st.integers(min_value=0, max_value=1 << 30),
        st.integers(min_value=0, max_value=1 << 30),
        st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=30)
    def test_policy_wire_roundtrip(self, api_calls, mem, disk, containers):
        policy = MiddleboxNodePolicy(
            api_calls=frozenset(api_calls),
            max_function_memory=mem,
            max_function_disk=disk,
            max_containers=containers,
        )
        assert MiddleboxNodePolicy.from_wire(policy.to_wire()) == policy

    @given(st.sets(st.sampled_from(sorted(
        __import__("repro.core.apispec", fromlist=["ALL_API_CALLS"])
        .ALL_API_CALLS)), min_size=1, max_size=8))
    @settings(max_examples=30)
    def test_manifest_within_policy_always_permitted(self, api_calls):
        from repro.core.manifest import FunctionManifest

        policy = MiddleboxNodePolicy.open_policy()
        manifest = FunctionManifest.create("f", "f", api_calls)
        assert policy.permits(manifest)

    @given(st.sets(st.sampled_from(sorted(
        __import__("repro.core.apispec", fromlist=["ALL_API_CALLS"])
        .ALL_API_CALLS)), min_size=1, max_size=8))
    @settings(max_examples=30)
    def test_manifest_outside_policy_always_rejected(self, api_calls):
        """A policy allowing nothing rejects every non-empty manifest."""
        from repro.core.manifest import FunctionManifest

        policy = MiddleboxNodePolicy(
            api_calls=frozenset(),
            syscalls=frozenset())
        manifest = FunctionManifest.create("f", "f", api_calls)
        assert not policy.permits(manifest)

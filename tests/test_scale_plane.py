"""The scale plane: scheduler timer slots, zero-copy receive buffers, and
control-plane cache invalidation."""

from __future__ import annotations

import pytest

from repro.crypto.rsa import RsaKeyPair
from repro.enclave.attestation import (
    AttestationError,
    IntelAttestationService,
    Quote,
)
from repro.netsim.bytestream import _RecvQueue
from repro.netsim.simulator import (
    Future,
    Simulator,
    SimTimeoutError,
    Wait,
)
from repro.obs.metrics import REGISTRY
from repro.perf.counters import counters
from repro.tor import TorTestNetwork
from repro.tor.descriptor import HiddenServiceDescriptor, onion_address_for
from repro.util.rng import DeterministicRandom


def cache_metric(kind: str, layer: str) -> float:
    """Read ``cache_hits``/``cache_misses`` for one layer from the registry."""
    for name, value in REGISTRY.snapshot().items():
        if name.startswith(kind + "{") and f'layer="{layer}"' in name:
            return value
    return 0


class TestTimerSlots:
    """`Wait` timeouts reuse one heap slot per actor."""

    def test_heap_does_not_accumulate_timeout_tombstones(self):
        # Regression: each resolved wait used to leave its cancelled
        # timeout event sitting in the heap until its (far-future)
        # deadline, so N waits grew the heap to ~N tombstones.
        sim = Simulator(seed=1)
        peak = [0]

        def worker(thread):
            for _ in range(300):
                fut = Future(sim)
                sim.schedule(0.001, fut.resolve, None)
                yield Wait(fut, timeout=30.0)
                peak[0] = max(peak[0], sim.queued)

        sim.spawn(worker)
        sim.run()
        assert peak[0] <= 4
        assert counters.timers_cancelled >= 300
        assert REGISTRY.snapshot().get("timers_cancelled", 0) == \
            counters.timers_cancelled

    def test_timeout_still_fires_at_deadline(self):
        sim = Simulator(seed=2)
        fired = []

        def worker(thread):
            with pytest.raises(SimTimeoutError):
                yield Wait(Future(sim), timeout=5.0)
            fired.append(sim.now)

        sim.spawn(worker)
        sim.run()
        assert fired == [5.0]

    def test_resurrected_slot_cascades_to_new_deadline(self):
        # The second wait re-arms the slot at a *later* deadline than the
        # tombstone it resurrects; the early pop must cascade, not fire.
        sim = Simulator(seed=3)
        waited = []

        def worker(thread):
            fut = Future(sim)
            sim.schedule(0.5, fut.resolve, None)
            yield Wait(fut, timeout=1.0)     # tombstone parked at t=1.0
            t0 = sim.now
            with pytest.raises(SimTimeoutError):
                yield Wait(Future(sim), timeout=30.0)
            waited.append(sim.now - t0)

        sim.spawn(worker)
        sim.run()
        assert waited == [30.0]

    def test_interleaved_threads_each_keep_one_slot(self):
        sim = Simulator(seed=4)
        peak = [0]

        def worker(thread):
            for _ in range(100):
                fut = Future(sim)
                sim.schedule(0.003, fut.resolve, None)
                yield Wait(fut, timeout=60.0)
                peak[0] = max(peak[0], sim.queued)

        for _ in range(4):
            sim.spawn(worker)
        sim.run()
        # 4 worker events + 4 timer slots + a few in-flight resolves.
        assert peak[0] <= 12
        assert counters.heap_compactions == 0


class TestRecvQueuePartialBuffer:
    """Large reads accumulate into one bytearray and survive EOF/timeouts."""

    def test_partial_buffer_returned_at_eof(self):
        sim = Simulator(seed=10)
        queue = _RecvQueue(sim)
        out = []

        def reader(thread):
            out.append(bytes((yield from queue.pop(
                thread, None, min_bytes=10))))
            out.append(bytes((yield from queue.pop(
                thread, None, min_bytes=10))))

        sim.spawn(reader)
        sim.schedule(1.0, queue.push, b"abc")
        sim.schedule(2.0, queue.push, b"de")
        sim.schedule(3.0, queue.push_eof)
        sim.run()
        # EOF with only 5 of 10 bytes buffered: the partial buffer is
        # delivered, then the EOF sentinel.
        assert out == [b"abcde", b""]

    def test_timeout_parks_partial_bytes_for_next_read(self):
        sim = Simulator(seed=11)
        queue = _RecvQueue(sim)
        out = []

        def reader(thread):
            with pytest.raises(SimTimeoutError):
                yield from queue.pop(thread, 1.0, min_bytes=10)
            out.append(bytes((yield from queue.pop(
                thread, None, min_bytes=10))))

        sim.spawn(reader)
        sim.schedule(0.5, queue.push, b"abc")
        sim.schedule(2.0, queue.push, b"defghij")
        sim.run()
        assert out == [b"abcdefghij"]

    def test_single_chunk_fast_path_is_zero_copy(self):
        sim = Simulator(seed=12)
        queue = _RecvQueue(sim)
        blob = b"x" * 64
        out = []

        def reader(thread):
            out.append((yield from queue.pop(thread, None, min_bytes=16)))

        queue.push(blob)
        sim.spawn(reader)
        sim.run()
        assert out[0] is blob        # by reference, not re-joined
        assert counters.bytes_zero_copied >= len(blob)

    def test_min_bytes_one_preserves_chunk_boundaries(self):
        sim = Simulator(seed=13)
        queue = _RecvQueue(sim)
        out = []

        def reader(thread):
            out.append((yield from queue.pop(thread, None)))
            out.append((yield from queue.pop(thread, None)))

        queue.push(b"first")
        queue.push(b"second")
        sim.spawn(reader)
        sim.run()
        assert out == [b"first", b"second"]


class TestConsensusAndDescriptorCaches:
    """Epoch-keyed control-plane caches invalidate on directory churn."""

    def test_consensus_verified_once_per_epoch(self):
        net = TorTestNetwork(n_relays=6, seed="scale-consensus")
        client = net.create_client("alice")
        first = client.consensus()
        again = client.consensus()
        assert again is first
        assert cache_metric("cache_hits", "consensus") == 1
        assert cache_metric("cache_misses", "consensus") == 1

    def test_relay_churn_forces_reverification(self):
        net = TorTestNetwork(n_relays=6, seed="scale-churn")
        client = net.create_client("alice")
        first = client.consensus()
        gone = net.relays[0].fingerprint
        net.authority.unregister_relay(gone)
        fresh = client.consensus()
        # A new epoch mints a new consensus object; the client re-verifies
        # and never serves the pre-churn router list.
        assert fresh is not first
        assert fresh.epoch > first.epoch
        assert all(r.identity_fp != gone for r in fresh.routers)
        assert cache_metric("cache_misses", "consensus") == 2

    def test_find_and_exits_for_are_indexed_per_consensus(self):
        net = TorTestNetwork(n_relays=6, seed="scale-index")
        consensus = net.authority.consensus()
        fp = consensus.routers[0].identity_fp
        assert consensus.find(fp) is consensus.routers[0]
        assert consensus.find(fp) is consensus.routers[0]
        assert cache_metric("cache_hits", "descriptor") == 1
        exits_one = consensus.exits_for("198.51.100.7", 80)
        exits_two = consensus.exits_for("198.51.100.7", 80)
        assert exits_one == exits_two
        exits_one.append(None)          # callers get copies
        assert consensus.exits_for("198.51.100.7", 80) == exits_two

    def test_republished_hs_descriptor_reverifies(self):
        net = TorTestNetwork(n_relays=6, seed="scale-hs")
        client = net.create_client("alice")
        keypair = RsaKeyPair.generate(DeterministicRandom("scale-hs-key"))
        onion = onion_address_for(keypair.public)
        descriptor = HiddenServiceDescriptor(
            onion_address=onion, intro_points=["fp1"], version=1)
        descriptor.sign(keypair)
        net.authority.publish_hs_descriptor(descriptor)
        # Prime + hit the client's verified-descriptor cache directly.
        fetched = net.authority.fetch_hs_descriptor(onion)
        assert client._hs_desc_cache.get(onion) is not fetched
        client._hs_desc_cache[onion] = fetched
        # A service restart republishes under the same key with a higher
        # version: a *different object*, so identity-keyed caching cannot
        # serve the stale intro points.
        replacement = HiddenServiceDescriptor(
            onion_address=onion, intro_points=["fp2"], version=2)
        replacement.sign(keypair)
        net.authority.publish_hs_descriptor(replacement)
        refetched = net.authority.fetch_hs_descriptor(onion)
        assert client._hs_desc_cache.get(onion) is not refetched


class TestAttestationCache:
    """No quote verdict is cached: every quote pays the platform-signature
    check against the platform record as it stands."""

    def _quote(self, keypair, platform="p1", tcb=2, report_data=b"chan"):
        quote = Quote(platform_id=platform, measurement="m" * 64,
                      tcb_level=tcb, report_data=report_data)
        quote.signature = keypair.sign(quote.signed_body())
        return quote

    def test_identical_quote_gets_fresh_reports(self):
        ias = IntelAttestationService(DeterministicRandom("scale-ias"))
        keypair = RsaKeyPair.generate(DeterministicRandom("platform-key"))
        ias.register_platform("p1", keypair.public, tcb_level=2)
        quote = self._quote(keypair)
        first = ias.verify_quote(quote, now=1.0)
        second = ias.verify_quote(quote, now=2.0)
        # Reports are re-signed fresh each time, never replayed.
        assert first.timestamp != second.timestamp
        assert first.verify(ias.public_key) and second.verify(ias.public_key)

    def test_tampered_quote_never_hits(self):
        ias = IntelAttestationService(DeterministicRandom("scale-ias2"))
        keypair = RsaKeyPair.generate(DeterministicRandom("platform-key2"))
        ias.register_platform("p1", keypair.public, tcb_level=2)
        ias.verify_quote(self._quote(keypair), now=1.0)
        forged = self._quote(keypair)
        forged.signature = b"\x00" * len(forged.signature)
        with pytest.raises(AttestationError):
            ias.verify_quote(forged, now=2.0)

    def test_platform_lifecycle_evicts_cached_verdict(self):
        ias = IntelAttestationService(DeterministicRandom("scale-ias3"))
        keypair = RsaKeyPair.generate(DeterministicRandom("platform-key3"))
        ias.register_platform("p1", keypair.public, tcb_level=2)
        ias.verify_quote(self._quote(keypair), now=1.0)
        ias.patch_platform("p1", new_tcb_level=3)
        # A quote that verified before the patch must not verify after it.
        with pytest.raises(AttestationError):
            ias.verify_quote(self._quote(keypair, tcb=2), now=2.0)
        patched = self._quote(keypair, tcb=3)
        report = ias.verify_quote(patched, now=3.0)
        assert report.verify(ias.public_key)
        ias.revoke_platform("p1")
        with pytest.raises(AttestationError):
            ias.verify_quote(patched, now=4.0)

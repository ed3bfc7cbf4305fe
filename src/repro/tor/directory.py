"""The directory authority: signed consensus plus hidden-service directory.

The live Tor network distributes these through directory caches and an
HSDir ring; here a single in-process authority plays both roles (clients
still verify every signature).  This collapses a distribution mechanism the
paper does not measure while keeping all trust checks real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.obs.metrics import REGISTRY as _metrics
from repro.tor.descriptor import (
    FLAG_EXIT,
    HiddenServiceDescriptor,
    RelayDescriptor,
)
from repro.util.errors import ProtocolError, ReproError
from repro.util.rng import DeterministicRandom
from repro.util.serialization import canonical_encode

# Cached registry handles (the registry resets in place, so these survive).
_HIT_DESCRIPTOR = _metrics.counter("cache_hits", {"layer": "descriptor"})
_MISS_DESCRIPTOR = _metrics.counter("cache_misses", {"layer": "descriptor"})


class DirectoryError(ReproError):
    """Raised for rejected registrations or missing entries."""


@dataclass
class Consensus:
    """A signed snapshot of the relay population.

    A consensus is immutable once signed, so derived views — the signed
    body, signature verdicts, the fingerprint index, parsed exit policies
    — are computed once and memoized on the instance.  ``epoch`` is the
    authority's membership generation: any register/unregister produces
    a new consensus object with a higher epoch, so holders can key their
    own caches on it and never serve pre-churn state.
    """

    routers: list[RelayDescriptor]
    valid_after: float
    signature: bytes = b""
    authority_key: Optional[RsaPublicKey] = None
    epoch: int = 0
    # Per-instance memos; excluded from equality/repr.
    _body_cache: Optional[bytes] = field(
        default=None, repr=False, compare=False)
    _verify_cache: Optional[tuple] = field(
        default=None, repr=False, compare=False)
    _fp_index: Optional[dict] = field(default=None, repr=False, compare=False)
    _exit_policies: Optional[list] = field(
        default=None, repr=False, compare=False)
    _exit_cache: Optional[dict] = field(default=None, repr=False, compare=False)

    def _signed_body(self) -> bytes:
        if self._body_cache is None:
            self._body_cache = canonical_encode({
                "valid_after": self.valid_after,
                "routers": [r.to_wire() for r in self.routers],
            })
        return self._body_cache

    def verify(self, authority_key: RsaPublicKey) -> bool:
        """Check the authority's signature over the router list.

        Memoized per verifying key: the body serialization and modular
        exponentiation run once, every later call is a comparison.
        """
        cached = self._verify_cache
        if cached is not None and cached[0] == authority_key:
            return cached[1]
        ok = authority_key.verify(self._signed_body(), self.signature)
        self._verify_cache = (authority_key, ok)
        return ok

    def relays_with_flag(self, flag: str) -> list[RelayDescriptor]:
        """All routers carrying a flag."""
        return [r for r in self.routers if r.has_flag(flag)]

    def exits_for(self, address: str, port: int) -> list[RelayDescriptor]:
        """Relays whose exit policy admits ``address:port``."""
        from repro.tor.exitpolicy import ExitPolicy

        cache = self._exit_cache
        if cache is None:
            cache = self._exit_cache = {}
        cached = cache.get((address, port))
        if cached is not None:
            _HIT_DESCRIPTOR.value += 1
            return list(cached)
        _MISS_DESCRIPTOR.value += 1
        if self._exit_policies is None:
            self._exit_policies = [
                (router, ExitPolicy.parse(router.exit_policy))
                for router in self.routers if router.has_flag(FLAG_EXIT)
            ]
        matching = [router for router, policy in self._exit_policies
                    if policy.allows(address, port)]
        cache[(address, port)] = matching
        return list(matching)

    def find(self, identity_fp: str) -> RelayDescriptor:
        """Look a router up by fingerprint (indexed after the first call)."""
        index = self._fp_index
        if index is None:
            index = self._fp_index = {
                router.identity_fp: router for router in self.routers}
            _MISS_DESCRIPTOR.value += 1
        else:
            _HIT_DESCRIPTOR.value += 1
        try:
            return index[identity_fp]
        except KeyError:
            raise DirectoryError(
                f"no relay with fingerprint {identity_fp}") from None


class DirectoryAuthority:
    """Accepts descriptors, votes (alone), and serves the HSDir store."""

    def __init__(self, rng: DeterministicRandom) -> None:
        self._keypair = RsaKeyPair.generate(rng.fork("dirauth-key"))
        self._relays: dict[str, RelayDescriptor] = {}
        self._hs_descriptors: dict[str, HiddenServiceDescriptor] = {}
        self._consensus_cache: Optional[Consensus] = None
        # Membership generation: bumped on every register/unregister and
        # stamped into each consensus so downstream caches can key on it.
        self._epoch = 0
        # Serving-plane load reports, keyed by box fingerprint.  Kept as a
        # side-table — NOT in the signed descriptors — so advertising load
        # never changes consensus bytes, bumps the epoch, or invalidates
        # signature caches.  Load is advisory placement input, not trust.
        self._load_reports: dict[str, dict] = {}

    @property
    def public_key(self) -> RsaPublicKey:
        """The verification key peers should pin."""
        return self._keypair.public

    # -- relay registration -------------------------------------------------

    def register_relay(self, descriptor: RelayDescriptor) -> None:
        """Accept a relay descriptor after verifying its self-signature."""
        if not descriptor.verify():
            raise DirectoryError(
                f"descriptor signature invalid for {descriptor.nickname}"
            )
        self._relays[descriptor.identity_fp] = descriptor
        self._consensus_cache = None
        self._epoch += 1

    def unregister_relay(self, identity_fp: str) -> None:
        """Drop a relay from future consensuses."""
        self._relays.pop(identity_fp, None)
        self._consensus_cache = None
        self._epoch += 1

    def consensus(self, now: float = 0.0) -> Consensus:
        """The current signed consensus (cached until membership changes)."""
        if self._consensus_cache is None:
            routers = sorted(self._relays.values(), key=lambda r: r.nickname)
            consensus = Consensus(
                routers=routers, valid_after=now, epoch=self._epoch)
            consensus.signature = self._keypair.sign(consensus._signed_body())
            consensus.authority_key = self._keypair.public
            self._consensus_cache = consensus
        return self._consensus_cache

    # -- serving-plane load advertisement -----------------------------------

    def advertise_load(self, identity_fp: str, report: dict) -> None:
        """Record a box's load report (slots free, queue depth, shedding).

        Boxes running the serving plane publish these periodically;
        clients consult them through :meth:`load_report` to place work on
        the box with the most advertised slack.  Unknown fingerprints are
        accepted — registration order is not guaranteed during churn, and
        a stale report for a dead box just makes that box look busy.
        """
        self._load_reports[identity_fp] = dict(report)

    def load_report(self, identity_fp: str) -> Optional[dict]:
        """The latest load report for a box, or None if never advertised."""
        report = self._load_reports.get(identity_fp)
        return dict(report) if report is not None else None

    def load_table(self) -> dict[str, dict]:
        """All current load reports (fingerprint -> report copy)."""
        return {fp: dict(report)
                for fp, report in self._load_reports.items()}

    def withdraw_load(self, identity_fp: str) -> None:
        """Drop a box's load report (box shut down or crashed)."""
        self._load_reports.pop(identity_fp, None)

    # -- hidden service directory ----------------------------------------------

    def publish_hs_descriptor(self, descriptor: HiddenServiceDescriptor) -> None:
        """Accept an HS descriptor: signature valid, address matches key,
        and any replacement must be signed by the same key (first-come,
        first-served ownership, like onion addresses themselves)."""
        if not descriptor.verify():
            raise DirectoryError("hidden-service descriptor signature invalid")
        existing = self._hs_descriptors.get(descriptor.onion)
        if existing is not None:
            if existing.service_key != descriptor.service_key:
                raise DirectoryError("onion address already claimed by another key")
            if descriptor.version <= existing.version:
                raise ProtocolError("stale hidden-service descriptor version")
        self._hs_descriptors[descriptor.onion] = descriptor

    def fetch_hs_descriptor(self, onion_address: str) -> HiddenServiceDescriptor:
        """The stored descriptor for an onion address."""
        try:
            return self._hs_descriptors[onion_address]
        except KeyError:
            raise DirectoryError(f"no descriptor for {onion_address}") from None

    def remove_hs_descriptor(self, onion_address: str) -> None:
        """Withdraw a hidden-service descriptor."""
        self._hs_descriptors.pop(onion_address, None)

"""Descriptors, the directory authority, and path selection."""

import pytest

from repro.crypto.rsa import RsaKeyPair
from repro.tor.descriptor import (
    FLAG_EXIT,
    FLAG_GUARD,
    HiddenServiceDescriptor,
    onion_address_for,
)
from repro.tor.directory import DirectoryAuthority, DirectoryError
from repro.tor.path import PathSelectionError, PathSelector
from repro.tor.testnet import TorTestNetwork
from repro.util.rng import DeterministicRandom


@pytest.fixture(scope="module")
def net():
    return TorTestNetwork(n_relays=12, seed="dir-tests")


class TestRelayDescriptors:
    def test_signed_descriptors_verify(self, net):
        for relay in net.relays:
            assert relay.descriptor().verify()

    def test_tampered_descriptor_rejected(self, net):
        descriptor = net.relays[0].descriptor()
        descriptor.bandwidth += 1
        assert not descriptor.verify()
        with pytest.raises(DirectoryError):
            net.authority.register_relay(descriptor)

    def test_flags_assigned(self, net):
        consensus = net.authority.consensus()
        assert consensus.relays_with_flag(FLAG_GUARD)
        assert consensus.relays_with_flag(FLAG_EXIT)


class TestConsensus:
    def test_signature_verifies(self, net):
        consensus = net.authority.consensus()
        assert consensus.verify(net.authority.public_key)

    def test_forged_consensus_rejected(self, net):
        consensus = net.authority.consensus()
        other = DirectoryAuthority(DeterministicRandom("other-auth"))
        assert not consensus.verify(other.public_key)

    def test_exits_for_respects_policy(self, net):
        consensus = net.authority.consensus()
        exits = consensus.exits_for("1.2.3.4", 443)
        assert exits
        assert all(e.has_flag(FLAG_EXIT) for e in exits)

    def test_find_by_fingerprint(self, net):
        consensus = net.authority.consensus()
        target = consensus.routers[3]
        assert consensus.find(target.identity_fp) is target
        with pytest.raises(DirectoryError):
            consensus.find("nope")

    def test_unregister_removes(self):
        net = TorTestNetwork(n_relays=4, seed="unreg")
        fp = net.relays[0].fingerprint
        net.authority.unregister_relay(fp)
        consensus = net.authority.consensus()
        assert all(r.identity_fp != fp for r in consensus.routers)


class TestHsDescriptors:
    def _descriptor(self, seed="hs-desc", intro=("fp1", "fp2"), version=1):
        keypair = RsaKeyPair.generate(DeterministicRandom(seed))
        descriptor = HiddenServiceDescriptor(
            onion=onion_address_for(keypair.public),
            intro_points=list(intro), version=version)
        descriptor.sign(keypair)
        return descriptor, keypair

    def test_publish_and_fetch(self, net):
        descriptor, _ = self._descriptor()
        net.authority.publish_hs_descriptor(descriptor)
        fetched = net.authority.fetch_hs_descriptor(descriptor.onion)
        assert fetched.intro_points == ["fp1", "fp2"]
        net.authority.remove_hs_descriptor(descriptor.onion)

    def test_wrong_onion_address_rejected(self, net):
        descriptor, keypair = self._descriptor(seed="wrong-onion")
        descriptor.onion = "0" * 16 + ".onion"
        descriptor.sign(keypair)
        assert not descriptor.verify()
        with pytest.raises(DirectoryError):
            net.authority.publish_hs_descriptor(descriptor)

    def test_squatting_rejected(self, net):
        descriptor, _ = self._descriptor(seed="owner")
        net.authority.publish_hs_descriptor(descriptor)
        # A different key trying to replace the same onion address fails
        # even with a valid self-signature (it cannot have one for this
        # address anyway) — simulate the strongest attacker: reuse the
        # address with a fresh key.
        impostor, impostor_key = self._descriptor(seed="impostor")
        impostor.onion = descriptor.onion
        impostor.sign(impostor_key)
        with pytest.raises(DirectoryError):
            net.authority.publish_hs_descriptor(impostor)
        net.authority.remove_hs_descriptor(descriptor.onion)

    def test_version_must_increase(self, net):
        descriptor, keypair = self._descriptor(seed="versioned", version=2)
        net.authority.publish_hs_descriptor(descriptor)
        stale = HiddenServiceDescriptor(
            onion=descriptor.onion,
            intro_points=["fpX"], version=1)
        stale.sign(keypair)
        from repro.util.errors import ProtocolError

        with pytest.raises(ProtocolError):
            net.authority.publish_hs_descriptor(stale)
        net.authority.remove_hs_descriptor(descriptor.onion)


class TestPathSelection:
    def _selector(self, net, seed="paths"):
        return PathSelector(net.authority.consensus(),
                            DeterministicRandom(seed))

    def test_path_has_distinct_relays(self, net):
        selector = self._selector(net)
        for _ in range(20):
            path = selector.build_path(length=3)
            fps = [r.identity_fp for r in path]
            assert len(set(fps)) == 3

    def test_first_hop_is_guard(self, net):
        selector = self._selector(net)
        for _ in range(10):
            assert selector.build_path(length=3)[0].has_flag(FLAG_GUARD)

    def test_exit_matches_target(self, net):
        selector = self._selector(net)
        path = selector.build_path(length=3, exit_to=("4.4.4.4", 443))
        from repro.tor.exitpolicy import ExitPolicy

        policy = ExitPolicy.parse(path[-1].exit_policy)
        assert policy.allows("4.4.4.4", 443)

    def test_final_hop_pinning(self, net):
        selector = self._selector(net)
        target = net.relays[2].descriptor()
        path = selector.build_path(length=3, final_hop=target)
        assert path[-1].identity_fp == target.identity_fp

    def test_bandwidth_weighting(self):
        net = TorTestNetwork(n_relays=6, seed="bw")
        # Give one exit overwhelming bandwidth.
        big = net.relays[-1]
        big.node.uplink.rate = big.node.downlink.rate = 1e9
        big.register_with(net.authority)
        selector = PathSelector(net.authority.consensus(),
                                DeterministicRandom("bw-sel"))
        picks = [selector.pick_exit(None, None).nickname for _ in range(200)]
        assert picks.count(big.nickname) > 150

    def test_exclude_respected(self, net):
        selector = self._selector(net)
        excluded = {r.identity_fp for r in net.authority.consensus().routers[:-2]}
        pick = selector.pick_middle(exclude=excluded)
        assert pick.identity_fp not in excluded

    def test_impossible_constraints_raise(self, net):
        selector = self._selector(net)
        everything = {r.identity_fp for r in net.authority.consensus().routers}
        with pytest.raises(PathSelectionError):
            selector.pick_middle(exclude=everything)

    def test_no_bento_boxes_raises(self, net):
        selector = self._selector(net)
        with pytest.raises(PathSelectionError):
            selector.pick_bento_box()

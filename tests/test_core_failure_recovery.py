"""Bento-layer failure recovery: session reconnect/reattach, retry with
backoff, orphan reaping, box-crash fate-sharing, and hidden-service
descriptor ownership."""

from __future__ import annotations

import pytest

from repro.core import BentoClient, BentoServer, FunctionManifest
from repro.core.errors import BentoError
from repro.crypto.rsa import RsaKeyPair
from repro.enclave.attestation import IntelAttestationService
from repro.netsim.faults import FaultPlane
from repro.netsim.simulator import Sleep
from repro.perf.counters import counters as _perf
from repro.tor.hidden_service import HiddenService
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread

ECHO = ("def echo(x):\n"
        "    return x\n"
        "    yield  # unreachable: makes the entry a generator function\n")


@pytest.fixture()
def net():
    net = TorTestNetwork(n_relays=9, seed="core-faults", bento_fraction=0.34)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    net.servers = [BentoServer(relay, net.authority, ias=ias,
                               orphan_grace_s=30.0)
                   for relay in net.bento_boxes()]
    net.plane = FaultPlane(net.network)
    _perf.reset()
    return net


def server_for(net, box):
    return next(s for s in net.servers
                if s.relay.fingerprint == box.identity_fp)


def echo_session(net, thread, name="client"):
    client = BentoClient(net.create_client(name), ias=net.ias)
    box = client.pick_box()
    session = yield from client.connect(thread, box)
    yield from session.request_image(thread, "python")
    yield from session.load_function(thread, ECHO, FunctionManifest.create(
        "echo", "echo", set(), image="python"))
    return client, box, session


class TestSessionReconnect:
    def test_reconnect_reattaches_same_instance(self, net):
        def main(thread):
            client, box, session = yield from echo_session(net, thread)
            server = server_for(net, box)
            assert (yield from session.invoke(thread, [1])) == 1
            instance = server._by_invocation[session.invocation_token]
            # The guard connection dies under the session.
            session.circuit.conn.abort()
            yield from session.reconnect(thread)
            assert (yield from session.invoke(thread, [2])) == 2
            # Same instance on the box: §5.3 fate-shares with the box,
            # not with the client's connection.
            assert server._by_invocation[session.invocation_token] is instance
            assert _perf.session_reconnects == 1
            session.close()

        run_thread(net, main)

    def test_retrying_with_session_recovers_an_invoke(self, net):
        def main(thread):
            client, box, session = yield from echo_session(net, thread)
            session.circuit.conn.abort()

            def op():
                return (yield from session.invoke(thread, [7], timeout=30.0))

            result = yield from client.retrying(
                thread, op, attempts=3, backoff_s=0.5, session=session)
            assert result == 7
            session.close()

        run_thread(net, main)


class TestRetrying:
    def test_backoff_retries_then_succeeds(self, net):
        client = BentoClient(net.create_client("r"), ias=net.ias)
        calls = {"n": 0}

        def op():
            yield Sleep(0.0)
            calls["n"] += 1
            if calls["n"] < 3:
                raise BentoError("flaky")
            return "ok"

        def main(thread):
            t0 = net.sim.now
            assert (yield from client.retrying(
                thread, op, attempts=5, backoff_s=0.25)) == "ok"
            assert calls["n"] == 3
            assert net.sim.now > t0  # backoff actually slept
            assert _perf.retries == 2

        run_thread(net, main)

    def test_exhaustion_chains_last_error(self, net):
        client = BentoClient(net.create_client("r"), ias=net.ias)

        def op():
            raise BentoError("always")

        def main(thread):
            with pytest.raises(BentoError, match="after 2 attempts"):
                yield from client.retrying(
                    thread, op, attempts=2, backoff_s=0.1)

        run_thread(net, main)

    def test_non_retryable_errors_propagate_immediately(self, net):
        client = BentoClient(net.create_client("r"), ias=net.ias)
        calls = {"n": 0}

        def op():
            calls["n"] += 1
            raise ValueError("logic bug, not a fault")

        def main(thread):
            with pytest.raises(ValueError):
                yield from client.retrying(
                    thread, op, attempts=5, backoff_s=0.1)
            assert calls["n"] == 1

        run_thread(net, main)


class TestOrphanReaping:
    def test_orphans_reaped_after_grace(self, net):
        def main(thread):
            client, box, session = yield from echo_session(net, thread)
            server = server_for(net, box)
            assert (yield from session.invoke(thread, [1])) == 1
            assert server.active_function_count == 1
            session.close()
            yield Sleep(60.0)  # grace is 30s; the sweep runs after it
            assert server.active_function_count == 0
            assert _perf.orphans_reaped == 1

        run_thread(net, main)

    def test_live_session_is_not_reaped(self, net):
        def main(thread):
            client, box, session = yield from echo_session(net, thread)
            server = server_for(net, box)
            assert (yield from session.invoke(thread, [1])) == 1
            yield Sleep(60.0)
            assert server.active_function_count == 1
            server.reap_orphans()  # even an explicit sweep spares it
            assert server.active_function_count == 1
            session.close()

        run_thread(net, main)


class TestBoxCrash:
    def test_crash_kills_hosted_instances_without_network_cleanup(self, net):
        released = []

        class SpyFirewall:
            def release_all(self):
                released.append(True)

        def main(thread):
            client, box, session = yield from echo_session(net, thread)
            server = server_for(net, box)
            assert (yield from session.invoke(thread, [1])) == 1
            instance = server._by_invocation[session.invocation_token]
            instance.firewall = SpyFirewall()
            net.plane.crash_node(server.node.name)
            assert server.active_function_count == 0
            assert instance.terminated
            # A dead box gets no dying gasp: the stem firewall (which
            # tears down hidden services, circuits, ...) must NOT run.
            assert released == []

        run_thread(net, main)

    def test_graceful_kill_releases_firewall(self, net):
        released = []

        class SpyFirewall:
            def release_all(self):
                released.append(True)

        def main(thread):
            client, box, session = yield from echo_session(net, thread)
            server = server_for(net, box)
            instance = server._by_invocation[session.invocation_token]
            instance.firewall = SpyFirewall()
            instance.kill("test shutdown")
            assert released == [True]

        run_thread(net, main)


class TestDescriptorOwnership:
    def test_unpublished_replica_keeps_owner_descriptor(self, net):
        """A replica sharing the owner's key material must not withdraw
        the owner's directory entry when it shuts down."""

        def handler(stream, host, port):
            pass

        def main(thread):
            owner = net.create_client("hs-owner")
            service = HiddenService(owner, handler)
            yield from service.establish(thread, n_intro=1)
            onion = str(service.onion_address)
            assert net.authority.fetch_hs_descriptor(onion) is not None

            replica_client = net.create_client("hs-replica")
            replica = HiddenService(
                replica_client, handler,
                keypair=RsaKeyPair.from_parts(service.export_key_material()))
            assert str(replica.onion_address) == onion
            replica.shut_down()  # never published: descriptor stays up
            assert net.authority.fetch_hs_descriptor(onion) is not None

            service.shut_down()  # the publisher withdraws it
            with pytest.raises(Exception):
                net.authority.fetch_hs_descriptor(onion)

        run_thread(net, main)

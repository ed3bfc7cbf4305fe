"""Migration plane: sealed checkpoint/restore, drain-then-migrate, warm
standbys, shed-by-migration — plus the two robustness fixes that ride
along (the orphan reaper re-arming, graceful kills flushing pending
outputs)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BentoClient, BentoServer, FunctionManifest
from repro.enclave.attestation import IntelAttestationService
from repro.enclave.fsprotect import FSProtectError
from repro.enclave.sealing import SealingError
from repro.enclave.sgx import EnclaveHost
from repro.functions.kvstore import MB, KvStoreFunction
from repro.migrate import (
    CHECKPOINT_PATH,
    Checkpoint,
    MigrationConfig,
    WarmStandby,
    checkpoint_instance,
    checkpointable_functions,
    load_local_checkpoint,
    restore_instance,
    seal_checkpoint,
    store_local_checkpoint,
    unseal_checkpoint,
)
from repro.netsim.faults import FaultPlane
from repro.netsim.simulator import Sleep
from repro.perf.counters import counters as _perf
from repro.tor.testnet import TorTestNetwork
from repro.util.serialization import canonical_decode, canonical_encode

from conftest import run_thread

ECHO = ("def echo(x):\n"
        "    return x\n"
        "    yield  # unreachable: makes the entry a generator function\n")

# Receives, dawdles, then echoes: the dawdle gives the test a window to
# kill the client transport so the send lands on a dead peer.
SLOWECHO = ("def slowecho():\n"
            "    while True:\n"
            "        m = yield from api.recv()\n"
            "        yield from api.sleep(3.0)\n"
            "        yield from api.send(m)\n")


@pytest.fixture()
def net():
    net = TorTestNetwork(n_relays=9, seed="migrate-core", bento_fraction=0.34)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    net.servers = [BentoServer(relay, net.authority, ias=ias,
                               orphan_grace_s=30.0)
                   for relay in net.bento_boxes()]
    net.plane = FaultPlane(net.network)
    _perf.reset()
    return net


@pytest.fixture()
def migrate_net():
    net = TorTestNetwork(n_relays=9, seed="migrate-plane", bento_fraction=0.34)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    net.servers = [BentoServer(relay, net.authority, ias=ias,
                               migrate=MigrationConfig(quiesce_poll_s=0.05))
                   for relay in net.bento_boxes()]
    net.plane = FaultPlane(net.network)
    _perf.reset()
    return net


def server_for(net, box):
    return next(s for s in net.servers
                if s.relay.fingerprint == box.identity_fp)


def echo_session_on(net, thread, box, name):
    client = BentoClient(net.create_client(name), ias=net.ias)
    session = yield from client.connect(thread, box)
    yield from session.request_image(thread, "python")
    yield from session.load_function(thread, ECHO, FunctionManifest.create(
        "echo", "echo", set(), image="python"))
    assert (yield from session.invoke(thread, [1])) == 1
    return session


def kvstore_session(net, thread, name="owner"):
    """A running KvStore on a deterministic box, dialed directly."""
    client = BentoClient(net.create_client(name), ias=net.ias)
    box = client.pick_box()
    session = yield from client.connect_direct(thread, box)
    yield from session.request_image(thread, "python")
    yield from session.load_function(thread, KvStoreFunction.SOURCE,
                                     KvStoreFunction.manifest())
    KvStoreFunction.start(session)
    return client, box, session


class TestReaperRearm:
    def test_reaper_rearms_for_later_orphans(self, net):
        """A sweep that reaps must re-arm while instances remain: a second
        session orphaned *after* the first sweep was armed (its arming was
        deduplicated) still gets reaped one grace period later."""

        def main(thread):
            picker = BentoClient(net.create_client("picker"), ias=net.ias)
            box = picker.pick_box()
            server = server_for(net, box)
            session_a = yield from echo_session_on(net, thread, box, "a")
            session_b = yield from echo_session_on(net, thread, box, "b")
            assert server.active_function_count == 2

            session_a.close()            # arms the one pending sweep
            t0 = net.sim.now
            yield Sleep(20.0)
            # B freshly active
            assert (yield from session_b.invoke(thread, [2])) == 2
            session_b.close()            # deduplicated: no second arming

            yield Sleep(25.0)           # ~t0+45: first sweep has run
            assert server.active_function_count == 1
            assert _perf.orphans_reaped == 1
            assert server._reaper_armed  # re-armed for the survivor

            yield Sleep(30.0)           # ~t0+75: second sweep has run
            assert server.active_function_count == 0
            assert _perf.orphans_reaped == 2
            # Nothing left to watch: the final sweep did not re-arm.
            assert not server._reaper_armed

        run_thread(net, main)


class TestDrainFlush:
    def test_graceful_kill_flushes_pending_outputs(self, net):
        """An output that missed a dead transport is replayed on the
        newest live connection when the instance is torn down gracefully,
        instead of being dropped on the floor."""

        def main(thread):
            client = BentoClient(net.create_client("c"), ias=net.ias)
            box = client.pick_box()
            session = yield from client.connect(thread, box)
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, SLOWECHO, FunctionManifest.create(
                    "slowecho", "slowecho", {"recv", "sleep", "send"},
                    image="python"))
            server = server_for(net, box)

            session.invoke_nowait([])
            session.send_message(b"precious")
            yield Sleep(2.0)                  # message reaches the box
            session.circuit.conn.abort()       # transport dies mid-dawdle
            yield Sleep(5.0)                  # echo at ~t+3 finds it dead
            instance = server._by_invocation[session.invocation_token]
            assert len(instance.api._undelivered) == 1

            yield from session.reconnect(thread)
            instance.kill("drain-teardown", graceful=True)
            assert instance.api._undelivered == []
            assert (yield from session.next_output(
                thread, timeout=10.0)) == b"precious"
            session.close()

        run_thread(net, main)


# -- sealed checkpoint/restore ---------------------------------------------

@pytest.fixture(scope="module")
def conclave_box():
    """One idle, conclaved KvStore instance reused across the checkpoint
    property tests (standing up the enclave is the expensive part; every
    test fully resets the function state it cares about)."""
    net = TorTestNetwork(n_relays=6, seed="migrate-prop", bento_fraction=0.34)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    servers = [BentoServer(relay, net.authority, ias=ias)
               for relay in net.bento_boxes()]
    holder = {"net": net, "ias": ias, "servers": servers}

    def main(thread):
        client = BentoClient(net.create_client("owner"), ias=ias)
        box = client.pick_box()
        session = yield from client.connect_direct(thread, box)
        yield from session.request_image(thread, "python-op-sgx")
        yield from session.load_function(
            thread, KvStoreFunction.SOURCE,
            KvStoreFunction.manifest(image="python-op-sgx",
                                     memory_bytes=4 * MB))
        server = next(s for s in servers
                      if s.relay.fingerprint == box.identity_fp)
        holder["instance"] = server._by_invocation[session.invocation_token]
        holder["session"] = session

    run_thread(net, main)
    assert holder["instance"].conclave is not None
    return SimpleNamespace(**holder)


_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-1000, 1000),
    st.text(max_size=8), st.lists(st.integers(-9, 9), max_size=3))
_STORES = st.dictionaries(st.text(min_size=1, max_size=6), _VALUES,
                          max_size=5)
_INBOX = st.lists(st.binary(max_size=16), max_size=3)


class TestSealedCheckpoints:
    @settings(max_examples=25, deadline=None)
    @given(store=_STORES, inbox=_INBOX)
    def test_checkpoint_seal_unseal_restore_identity(self, conclave_box,
                                                     store, inbox):
        """checkpoint -> seal -> unseal -> restore is the identity on the
        function's state and queued inbox, for arbitrary stores."""
        instance = conclave_box.instance
        runtime = instance.runtime
        runtime.restore_state({"store": dict(store)})
        instance.api._inbox[:] = [(payload, None) for payload in inbox]

        cp = checkpoint_instance(instance, seq=7)
        sealed = seal_checkpoint(instance.conclave, cp)
        cp2 = unseal_checkpoint(instance.conclave.enclave.sealing_key(),
                                sealed, cp.measurement)
        assert cp2 == cp

        runtime.restore_state({"store": {"clobbered": 1}})
        instance.api._inbox[:] = []
        restore_instance(instance, cp2, peer=None)
        assert runtime.checkpoint_state() == {"store": store}
        assert [payload for payload, _peer in instance.api._inbox] \
            == list(inbox)

    def test_unseal_rejects_wrong_measurement(self, conclave_box):
        instance = conclave_box.instance
        instance.runtime.restore_state({"store": {"k": 1}})
        instance.api._inbox[:] = []
        cp = checkpoint_instance(instance)
        sealed = seal_checkpoint(instance.conclave, cp)
        host = instance.conclave.enclave.host
        with pytest.raises(SealingError):
            unseal_checkpoint(host.sealing_key_for("some-other-enclave"),
                              sealed, cp.measurement)

    def test_unseal_rejects_wrong_platform(self, conclave_box):
        """A sealed checkpoint copied to another box is useless: sealing
        keys are platform-bound, not just measurement-bound."""
        instance = conclave_box.instance
        instance.runtime.restore_state({"store": {"k": 1}})
        instance.api._inbox[:] = []
        cp = checkpoint_instance(instance)
        sealed = seal_checkpoint(instance.conclave, cp)
        other = EnclaveHost(conclave_box.net.sim, conclave_box.ias,
                            rng=conclave_box.net.sim.rng.fork("other-host"))
        with pytest.raises(SealingError):
            unseal_checkpoint(other.sealing_key_for(cp.measurement),
                              sealed, cp.measurement)

    def test_stale_checkpoint_swap_is_detected(self, conclave_box):
        """The operator swapping back an older sealed checkpoint trips FS
        Protect's rollback detection instead of silently loading."""
        instance = conclave_box.instance
        fs = instance.conclave.fs
        instance.runtime.restore_state({"store": {"v": 1}})
        instance.api._inbox[:] = []
        store_local_checkpoint(instance, checkpoint_instance(instance, seq=1))
        stale = fs.operator_view(CHECKPOINT_PATH)

        instance.runtime.restore_state({"store": {"v": 2}})
        store_local_checkpoint(instance, checkpoint_instance(instance, seq=2))
        fs._backing.write_file(CHECKPOINT_PATH, stale)  # operator rollback
        with pytest.raises(FSProtectError):
            load_local_checkpoint(instance)
        # A fresh checkpoint recovers the slot.
        store_local_checkpoint(instance, checkpoint_instance(instance, seq=3))
        assert load_local_checkpoint(instance).seq == 3

    def test_every_inventory_function_roundtrips(self, conclave_box):
        """Every in-tree checkpointable function survives checkpoint ->
        wire encode/decode -> restore with its state intact."""
        net = conclave_box.net
        inventory = checkpointable_functions()
        assert inventory  # the migration demo ships at least kvstore

        def main(thread):
            client = BentoClient(net.create_client("inventory"),
                                 ias=conclave_box.ias)
            for name in sorted(inventory):
                source, manifest = inventory[name]
                box = client.pick_box()
                session = yield from client.connect_direct(thread, box)
                yield from session.request_image(thread, manifest.image)
                yield from session.load_function(thread, source, manifest)
                server = next(s for s in conclave_box.servers
                              if s.relay.fingerprint == box.identity_fp)
                instance = server._by_invocation[session.invocation_token]
                assert instance.checkpointable, name
                state0 = instance.runtime.checkpoint_state()
                cp = checkpoint_instance(instance)
                wire = Checkpoint.from_wire(
                    canonical_decode(canonical_encode(cp.to_wire())))
                assert wire == cp, name
                restore_instance(instance, wire, peer=None)
                assert instance.runtime.checkpoint_state() == state0, name
                session.close()

        run_thread(net, main)


# -- drain-then-migrate ----------------------------------------------------

class TestDrainThenMigrate:
    def test_drain_moves_instance_and_client_follows(self, migrate_net):
        """A drained KvStore lands on another box with its counter intact;
        the client's next op retargets through the ``moved`` answer and
        succeeds — a bounded pause, never an error."""
        net = migrate_net

        def main(thread):
            client, box, session = yield from kvstore_session(net, thread)
            server = server_for(net, box)
            assert (yield from KvStoreFunction.incr(thread, session, "k")) == 1
            assert (yield from KvStoreFunction.incr(thread, session, "k")) == 2
            instance = server._by_invocation[session.invocation_token]

            dest_fp = yield from server.migrate.drain(thread, instance)
            assert dest_fp is not None and dest_fp != box.identity_fp
            assert instance.terminated
            assert server._moved[session.invocation_token] == dest_fp

            def op():
                return (yield from KvStoreFunction.incr(
                    thread, session, "k", timeout=30.0))

            assert (yield from client.retrying(
                thread, op, attempts=4, backoff_s=0.5, session=session)) == 3
            assert session.box.identity_fp == dest_fp
            dest_server = next(s for s in net.servers
                               if s.relay.fingerprint == dest_fp)
            assert session.invocation_token in dest_server._by_invocation
            assert _perf.migrations_started == 1
            assert _perf.migrations_completed == 1
            assert _perf.migrations_failed == 0
            session.close()

        run_thread(net, main)


class TestWarmStandby:
    def test_promotion_preserves_state_after_primary_crash(self, migrate_net):
        net = migrate_net

        def main(thread):
            client, box, session = yield from kvstore_session(net, thread)
            primary_server = server_for(net, box)
            assert (yield from KvStoreFunction.incr(thread, session, "k")) == 1
            assert (yield from KvStoreFunction.incr(thread, session, "k")) == 2

            standby = WarmStandby(client, KvStoreFunction.SOURCE,
                                  KvStoreFunction.manifest(),
                                  max_state_lag_s=5.0)
            standby_fp = yield from standby.provision(
                thread, exclude=(box.identity_fp,))
            assert standby_fp != box.identity_fp
            assert (yield from standby.sync(thread, session)) == 1
            assert standby.state_lag_s(net.sim.now) <= 5.0
            assert _perf.checkpoints_taken >= 1

            net.plane.crash_node(primary_server.node.name)
            promoted = yield from standby.promote(
                thread, adopt_invocation=session.invocation_token,
                adopt_shutdown=session.shutdown_token)
            # The shipped counter survived the crash — no cold rebuild.
            assert (yield from KvStoreFunction.incr(
                thread, promoted, "k")) == 3
            assert _perf.standby_promotions == 1
            promoted.close()

        run_thread(net, main)

    def test_promote_before_sync_is_refused(self, migrate_net):
        net = migrate_net

        def main(thread):
            client, box, session = yield from kvstore_session(net, thread)
            standby = WarmStandby(client, KvStoreFunction.SOURCE,
                                  KvStoreFunction.manifest())
            yield from standby.provision(thread, exclude=(box.identity_fp,))
            with pytest.raises(Exception, match="never synced"):
                yield from standby.promote(thread)
            session.close()

        run_thread(net, main)


class TestShedByMigration:
    def test_shed_drains_a_bulk_tenant_once(self, migrate_net):
        net = migrate_net

        def main(thread):
            client, box, session = yield from kvstore_session(net, thread)
            server = server_for(net, box)
            assert (yield from KvStoreFunction.incr(thread, session, "k")) == 1

            assert server.migrate.maybe_shed() is True
            # A second rising edge while the drain is in flight (and then
            # inside the rate-limit window) must not start another.
            assert server.migrate.maybe_shed() is False
            yield Sleep(60.0)  # the spawned drain actor completes
            assert _perf.migrations_completed == 1
            assert session.invocation_token not in server._by_invocation
            assert server._moved[session.invocation_token]
            session.close()

        run_thread(net, main)

    def test_shed_needs_a_checkpointable_victim(self, migrate_net):
        net = migrate_net

        def main(thread):
            client = BentoClient(net.create_client("c"), ias=net.ias)
            box = client.pick_box()
            session = yield from client.connect_direct(thread, box)
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, ECHO,
                FunctionManifest.create("echo", "echo", set(), image="python"))
            server = server_for(net, box)
            # echo exports no checkpoint protocol: nothing to migrate.
            assert server.migrate.maybe_shed() is False
            assert _perf.migrations_started == 0
            session.close()

        run_thread(net, main)

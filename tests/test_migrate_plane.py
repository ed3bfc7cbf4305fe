"""Migration plane: sealed checkpoint/restore, drain-then-migrate, a
standby's staged restore, shed-by-migration — plus the two robustness
fixes that ride along (the orphan reaper re-arming, graceful kills
flushing pending outputs)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BentoClient, BentoError, BentoServer, FunctionManifest
from repro.enclave.attestation import IntelAttestationService
from repro.enclave.fsprotect import FSProtectError
from repro.enclave.sealing import SealingError
from repro.enclave.sgx import EnclaveHost
from repro.functions.kvstore import MB, KvStoreFunction
from repro.migrate import (
    CHECKPOINT_PATH,
    Checkpoint,
    MigrationConfig,
    MigrationError,
    checkpoint_instance,
    checkpointable_functions,
    load_local_checkpoint,
    restore_instance,
    seal_checkpoint,
    store_local_checkpoint,
    unseal_checkpoint,
)
from repro.migrate.plane import MigrationPlane
from repro.netsim.faults import FaultPlane
from repro.netsim.simulator import Simulator, Sleep
from repro.perf.counters import counters as _perf
from repro.tor.testnet import TorTestNetwork
from repro.util.rng import DeterministicRandom
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
        restore_instance(instance, cp2, route=None)
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
                restore_instance(instance, wire, route=None)
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
        """A standby staged with the primary's checkpoint (``start=False``)
        starts from it under the primary's tokens once the primary's box
        has crashed: the server half of a standby promotion."""
        net = migrate_net

        def main(thread):
            client, box, session = yield from kvstore_session(net, thread)
            primary_server = server_for(net, box)
            assert (yield from KvStoreFunction.incr(thread, session, "k")) == 1
            assert (yield from KvStoreFunction.incr(thread, session, "k")) == 2

            standby_box = client.pick_box_by_slack(exclude=(box.identity_fp,))
            assert standby_box.identity_fp != box.identity_fp
            standby = yield from client.connect_direct(thread, standby_box)
            manifest = KvStoreFunction.manifest()
            yield from standby.request_image(thread, manifest.image)
            yield from standby.load_function(thread, KvStoreFunction.SOURCE,
                                             manifest)
            cp_wire = yield from session.checkpoint_function(thread, seq=1)
            yield from standby.restore_function(thread, cp_wire, start=False)
            assert _perf.checkpoints_taken >= 1

            net.plane.crash_node(primary_server.node.name)
            yield from standby.restore_function(
                thread, None, start=True,
                adopt_invocation=session.invocation_token,
                adopt_shutdown=session.shutdown_token)
            assert standby.invocation_token == session.invocation_token
            # The shipped counter survived the crash — no cold rebuild.
            assert (yield from KvStoreFunction.incr(
                thread, standby, "k")) == 3
            standby.close()

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


# A checkpointable function whose own checkpoint() and restore() raise.
RAISING = ("def main():\n"
           "    while True:\n"
           "        yield from api.recv()\n"
           "def checkpoint():\n"
           "    return {}['missing']\n"
           "def restore(state):\n"
           "    raise KeyError(state)\n")


class TestNamedCatches:
    """Each catch names what it expects; anything else is raised."""

    def test_a_tenant_checkpoint_that_raises_answers_its_owner(
            self, migrate_net):
        """Tenant code crosses the loader's boundary: its ``KeyError`` is
        an ``Error`` frame on the owner's request, not a dead session actor
        (the owner heard nothing until its own 20 s timeout)."""
        net = migrate_net
        manifest = FunctionManifest.create("raising", "main", {"recv"},
                                           image="python")

        def main(thread):
            client = BentoClient(net.create_client("owner"), ias=net.ias)
            session = yield from client.connect_direct(thread,
                                                       client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(thread, RAISING, manifest)
            began = net.sim.now
            with pytest.raises(BentoError, match="checkpoint: KeyError"):
                yield from session.checkpoint_function(thread, timeout=20.0)
            staged = Checkpoint(
                name="raising", entry="main", image="python",
                manifest=manifest.to_wire(), code=RAISING, state=7, args=[],
                files={}, inbox=[], seq=1, taken_at=0.0, measurement="")
            with pytest.raises(BentoError, match="restore: KeyError"):
                yield from session.restore_function(
                    thread, staged.to_wire(), timeout=20.0)
            yield from session.query_policy(thread, timeout=20.0)  # still served
            return net.sim.now - began

        assert run_thread(net, main) < 5.0

    def test_a_drain_whose_tenant_checkpoint_raises_fails_the_drain(
            self, migrate_net):
        """The drain counts the failed move and the instance keeps running;
        a ``KeyError`` out of the tenant's ``checkpoint()`` killed the
        drain's actor with the move neither completed nor failed."""
        net = migrate_net

        def main(thread):
            client = BentoClient(net.create_client("owner"), ias=net.ias)
            box = client.pick_box()
            session = yield from client.connect_direct(thread, box)
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, RAISING, FunctionManifest.create(
                    "raising", "main", {"recv"}, image="python"))
            session.invoke_nowait([])
            yield Sleep(1.0)
            server = server_for(net, box)
            (instance,) = server._by_invocation.values()
            moved = yield from server.migrate.drain(thread, instance)
            return moved, instance

        moved, instance = run_thread(net, main)
        assert moved is None and not instance.draining
        assert _perf.migrations_failed == 1

    def test_unencodable_state_fails_the_checkpoint(self):
        looped: list = []
        looped.append(looped)
        for state in ("\ud800", looped, {1: "int key"}, 10 ** 5000):
            instance = SimpleNamespace(
                checkpointable=True,
                runtime=SimpleNamespace(checkpoint_state=lambda: state))
            with pytest.raises(MigrationError):
                checkpoint_instance(instance)

    @pytest.mark.expects_failed_actors
    def test_an_error_in_a_requested_drain_fails_its_actor(self):
        sim = Simulator()
        server = SimpleNamespace(sim=sim, rng=DeterministicRandom("drain"),
                                 relay=SimpleNamespace(nickname="box"))
        plane = MigrationPlane(server)

        def broken(_task, _instance, _dest_fp):
            raise RuntimeError("bug in the drain")
            yield  # unreachable: makes this a generator function

        plane.drain = broken
        plane.request_drain(SimpleNamespace(instance_id="i1"))
        sim.run()
        (failed,) = sim._failed
        assert isinstance(failed.exception, RuntimeError)

    @pytest.mark.expects_failed_actors
    def test_a_drain_that_raises_thaws_its_instance(self):
        sim = Simulator()
        server = SimpleNamespace(sim=sim, rng=DeterministicRandom("drain"),
                                 relay=SimpleNamespace(nickname="box"))
        plane = MigrationPlane(server)

        def checkpoint_state():
            raise KeyError("the tenant's own checkpoint() failed")

        instance = SimpleNamespace(
            instance_id="i1", terminated=False, draining=False,
            checkpointable=True,
            runtime=SimpleNamespace(running=False,
                                    checkpoint_state=checkpoint_state))
        plane.request_drain(instance)
        sim.run()
        (failed,) = sim._failed
        assert isinstance(failed.exception, KeyError)
        assert plane._draining == 0 and instance.draining is False

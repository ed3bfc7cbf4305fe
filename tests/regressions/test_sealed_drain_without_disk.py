"""A conclave function that asks for no disk can be drained.

The drain once sealed a copy of each checkpoint into the function's own
store "at rest", and nothing ever read that copy back.  Since the store
charges every byte it holds against the manifest's disk ask, the write
failed every drain of a ``python-op-sgx`` instance with ``disk_bytes=0``:

    checkpoint failed: cgroup 'container:c1': disk charge of 1696 exceeds
    limit 0 (used 0)

A checkpoint leaves the box only sealed under the attested channel to the
destination conclave, so the function's store is not touched at all.
"""

from repro.core import BentoClient, BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.kvstore import KvStoreFunction
from repro.obs.span import TRACER
from repro.perf.counters import counters as _perf
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


def test_a_conclave_without_a_disk_ask_drains():
    net = TorTestNetwork(n_relays=9, seed="migrate-plane", bento_fraction=0.34)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    servers = [BentoServer(relay, net.authority, ias=ias, migrate=True)
               for relay in net.bento_boxes()]
    _perf.reset()
    manifest = KvStoreFunction.manifest(image="python-op-sgx")
    assert manifest.disk_bytes == 0

    def main(thread):
        client = BentoClient(net.create_client("owner"), ias=ias)
        box = client.pick_box()
        session = yield from client.connect_direct(thread, box)
        yield from session.request_image(thread, "python-op-sgx",
                                         verify="ias")
        yield from session.load_function(thread, KvStoreFunction.SOURCE,
                                         manifest)
        KvStoreFunction.start(session)
        assert (yield from KvStoreFunction.incr(thread, session, "k")) == 1
        server = next(s for s in servers
                      if s.relay.fingerprint == box.identity_fp)
        instance = server._by_invocation[session.invocation_token]
        assert instance.conclave is not None

        dest_fp = yield from server.migrate.drain(thread, instance)
        drains = [s for s in log.spans if s.name == "migrate.drain"]
        assert dest_fp is not None, drains[-1].attrs.get("error")
        assert dest_fp != box.identity_fp

        def op():
            return (yield from KvStoreFunction.incr(
                thread, session, "k", timeout=30.0))

        value = yield from client.retrying(
            thread, op, attempts=4, backoff_s=0.5, session=session)
        session.close()
        return value, dest_fp, session.box.identity_fp

    log = TRACER.attach()
    try:
        value, dest_fp, landed_fp = run_thread(net, main)
    finally:
        TRACER.detach()
    assert _perf.migrations_completed == 1
    assert _perf.migrations_failed == 0
    assert value == 2
    assert landed_fp == dest_fp

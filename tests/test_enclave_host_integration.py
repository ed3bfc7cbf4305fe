"""Server-side enclave integration: EPC shared across Bento functions,
paging, and teardown accounting."""

import pytest

from repro.core.client import BentoClient
from repro.core.manifest import FunctionManifest
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.enclave.conclave import CONCLAVE_OVERHEAD_BYTES
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread

MB = 1024 * 1024

NOOP = "def main():\n    return 'ok'\n    yield\n"


@pytest.fixture()
def sgx_net():
    net = TorTestNetwork(n_relays=6, seed="sgx-int", bento_fraction=0.2)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    net.server = BentoServer(net.bento_boxes()[0], net.authority, ias=ias)
    return net


def _sgx_session(thread, net, memory=4 * MB):
    client = BentoClient(net.create_client(), ias=net.ias)
    session = yield from client.connect(thread, client.pick_box())
    yield from session.request_image(thread, "python-op-sgx")
    yield from session.load_function(thread, NOOP, FunctionManifest.create(
        "noop", "main", {"send"}, image="python-op-sgx",
        memory_bytes=memory))
    return session


class TestEpcSharing:
    def test_each_conclave_charges_epc(self, sgx_net):
        host = sgx_net.server.enclave_host

        def main(thread):
            before = host.epc_committed
            session = yield from _sgx_session(thread, sgx_net)
            charged = host.epc_committed - before
            # image base (16MB) + conclave overhead + manifest memory.
            assert charged >= 16 * MB + CONCLAVE_OVERHEAD_BYTES + 4 * MB
            yield from session.shutdown(thread)
            assert host.epc_committed == before   # fully reclaimed

        run_thread(sgx_net, main)

    def test_epc_shared_by_all_functions_on_host(self, sgx_net):
        host = sgx_net.server.enclave_host

        def main(thread):
            sessions = []
            for _ in range(3):
                sessions.append((yield from _sgx_session(thread, sgx_net)))
            assert len(host.enclaves) == 3
            assert host.oversubscribed is (host.epc_committed > host.epc_usable)
            for session in sessions:
                yield from session.shutdown(thread)
            assert host.epc_committed == 0

        run_thread(sgx_net, main)

    def test_plain_containers_use_no_epc(self, sgx_net):
        host = sgx_net.server.enclave_host

        def main(thread):
            client = BentoClient(sgx_net.create_client(), ias=sgx_net.ias)
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            assert host.epc_committed == 0
            yield from session.shutdown(thread)

        run_thread(sgx_net, main)


class TestStorageEncryptionAtRest:
    def test_sgx_function_files_are_ciphertext_on_host(self, sgx_net):
        """§6.2: the operator only ever sees FS-Protect ciphertext."""
        code = ("def main():\n"
                "    yield from api.storage.put('/note.txt', b'INCRIMINATING')\n"
                "    return (yield from api.storage.get('/note.txt')).decode()\n")

        def main(thread):
            client = BentoClient(sgx_net.create_client(), ias=sgx_net.ias)
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python-op-sgx")
            yield from session.load_function(
                thread, code, FunctionManifest.create(
                    "writer", "main", {"storage.put", "storage.get"},
                    image="python-op-sgx", disk_bytes=MB))
            assert (yield from session.invoke(thread, [])) == "INCRIMINATING"
            # Operator-side view: raw bytes on the host filesystem.
            host_fs = sgx_net.server.host_fs
            blobs = [host_fs.read_file(p) for p in host_fs.walk_files("/")]
            assert blobs
            assert not any(b"INCRIMINATING" in blob for blob in blobs)
            yield from session.shutdown(thread)

        run_thread(sgx_net, main)

    def test_plain_image_files_are_plaintext_on_host(self, sgx_net):
        """Contrast: without the enclave image, the operator can read
        function files — exactly why §6.2 recommends the SGX image for
        storage-bearing policies."""
        code = ("def main():\n"
                "    yield from api.storage.put('/note.txt', b'READABLE')\n")

        def main(thread):
            client = BentoClient(sgx_net.create_client(), ias=sgx_net.ias)
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, code, FunctionManifest.create(
                    "writer", "main", {"storage.put"}, image="python",
                    disk_bytes=MB))
            yield from session.invoke(thread, [])
            host_fs = sgx_net.server.host_fs
            blobs = [host_fs.read_file(p) for p in host_fs.walk_files("/")]
            assert any(b"READABLE" in blob for blob in blobs)
            yield from session.shutdown(thread)

        run_thread(sgx_net, main)

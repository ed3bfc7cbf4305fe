"""Disk is charged where it is stored: a container's chroot charges every
byte it holds to the container's cgroup, against the manifest's disk ask.

The charge covers what the host actually holds, so an FS Protect
envelope is charged whole (an empty file included); an enclave overwrite
or delete sizes nothing, so it never verifies the old file.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.client import BentoClient
from repro.core.errors import BentoError
from repro.core.manifest import FunctionManifest
from repro.core.server import BentoServer
from repro.crypto.aead import AeadKey
from repro.enclave.attestation import IntelAttestationService
from repro.sandbox.cgroups import CGroup, ResourceExceeded
from repro.sandbox.container import Container
from repro.sandbox.iptables import IptablesRuleset
from repro.sandbox.memfs import FsError, MemFS
from repro.sandbox.seccomp import SeccompPolicy
from repro.tor.exitpolicy import ExitPolicy
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread

MB = 1024 * 1024
LIMIT = 64

_PATHS = st.sampled_from(["/a", "/b", "/d/c"])
_OPS = st.lists(st.one_of(
    st.tuples(st.just("write"), _PATHS, st.integers(0, LIMIT + 8)),
    st.tuples(st.just("delete"), _PATHS),
    st.tuples(st.just("purge"))), max_size=25)


class TestChargedView:
    @given(ops=_OPS)
    def test_the_cgroup_is_charged_what_the_view_holds(self, ops):
        parent = CGroup("bento", disk=10 * LIMIT)
        container = Container(
            "c1", MemFS(), parent, SeccompPolicy.allow_all(),
            IptablesRuleset.from_exit_policy(ExitPolicy.accept_all(), "h"),
            memory_limit=100, disk_limit=LIMIT)
        fs = container.fs
        for op in ops:
            if op[0] == "write":
                _, path, size = op
                old = fs.read_file(path) if fs.exists(path) else None
                used = container.disk_used
                growth = size - len(old or b"")
                try:
                    fs.write_file(path, b"x" * size)
                except ResourceExceeded:
                    assert growth > 0 and used + growth > LIMIT
                    assert container.disk_used == used
                    assert (fs.read_file(path) if fs.exists(path)
                            else None) == old
                else:
                    assert used + growth <= LIMIT
            elif op[0] == "delete":
                if fs.exists(op[1]):
                    fs.delete(op[1])
                else:
                    with pytest.raises(FsError):
                        fs.delete(op[1])
            else:
                fs.purge()
            assert container.disk_used == fs.bytes_used
            assert parent.usage["disk"] == fs.bytes_used
        container.kill()
        assert parent.usage["disk"] == 0


# -- a function's storage, end to end ---------------------------------------

@pytest.fixture(scope="module")
def box():
    net = TorTestNetwork(n_relays=6, seed="disk-charge", bento_fraction=0.2)
    net.ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.server = BentoServer(net.bento_boxes()[0], net.authority, ias=net.ias)
    return net


def _load(thread, net, code, manifest):
    client = BentoClient(net.create_client(), ias=net.ias)
    session = yield from client.connect(thread, client.pick_box())
    yield from session.request_image(thread, manifest.image)
    yield from session.load_function(thread, code, manifest)
    return session, net.server._by_invocation[session.invocation_token]


def _storer(name, image, disk_bytes):
    return FunctionManifest.create(
        name, "main", {"storage.put", "storage.delete"}, image=image,
        disk_bytes=disk_bytes)


EMPTY_FILES = ("def main(n):\n"
               "    for i in range(n):\n"
               "        yield from api.storage.put('/e' + str(i), b'')\n"
               "    return n\n")


class TestManifestDiskAsk:
    def test_a_function_without_a_disk_ask_stores_nothing(self, box):
        code = ("def main():\n"
                "    yield from api.storage.put('/blob', b'x' * %d)\n"
                "    return 'stored'\n" % MB)

        def main(thread):
            session, _ = yield from _load(
                thread, box, code, _storer("blob", "python", 0))
            with pytest.raises(BentoError, match="function-crashed"):
                yield from session.invoke(thread, [])

        run_thread(box, main)

    def test_the_disk_ask_is_the_limit(self, box):
        def main(thread):
            session, instance = yield from _load(
                thread, box, EMPTY_FILES, _storer("e", "python", 4096))
            assert instance.container.cgroup.limits["disk"] == 4096
            # Empty plain files hold no bytes: nothing to charge.
            assert (yield from session.invoke(thread, [3])) == 3
            assert instance.container.disk_used == 0
            yield from session.shutdown(thread)

        run_thread(box, main)


class TestSealedFilesAreCharged:
    def test_empty_sealed_files_need_a_disk_ask(self, box):
        """Each FS Protect envelope holds bytes on the host, an empty
        file's too."""
        def main(thread):
            session, _ = yield from _load(
                thread, box, EMPTY_FILES, _storer("e", "python-op-sgx", 0))
            with pytest.raises(BentoError, match="function-crashed"):
                yield from session.invoke(thread, [2000])

        run_thread(box, main)

    def test_empty_sealed_files_are_charged_their_envelopes(self, box):
        def main(thread):
            session, instance = yield from _load(
                thread, box, EMPTY_FILES,
                _storer("e", "python-op-sgx", MB))
            assert (yield from session.invoke(thread, [2000])) == 2000
            container = instance.container
            envelope = len(instance.conclave.fs.operator_view("/e0"))
            assert envelope > 0
            assert container.disk_used == container.fs.bytes_used \
                == 2000 * envelope
            yield from session.shutdown(thread)

        run_thread(box, main)

    def test_an_enclave_overwrite_and_delete_verify_nothing(self, box,
                                                            monkeypatch):
        code = ("def main():\n"
                "    yield from api.storage.put('/f', b'x' * 100)\n"
                "    yield from api.storage.put('/f', b'y' * 10)\n"
                "    yield from api.storage.delete('/f')\n"
                "    return 'done'\n")
        verified = []
        real_verify = AeadKey.verify

        def spy(self, *args, **kwargs):
            verified.append(self)
            return real_verify(self, *args, **kwargs)

        def main(thread):
            session, instance = yield from _load(
                thread, box, code, _storer("od", "python-op-sgx", MB))
            monkeypatch.setattr(AeadKey, "verify", spy)
            assert (yield from session.invoke(thread, [])) == "done"
            monkeypatch.undo()
            assert instance.conclave.fs._aead not in verified
            assert instance.container.disk_used == 0
            yield from session.shutdown(thread)

        run_thread(box, main)

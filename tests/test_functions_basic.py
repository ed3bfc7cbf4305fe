"""The paper's functions: Browser, Cover, Dropbox, PolicyQuery."""

import json

import pytest

from repro.core.client import BentoClient
from repro.core.policy import MiddleboxNodePolicy
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.browser import BrowserFunction
from repro.functions.cover import CoverFunction
from repro.functions.dropbox import DropboxFunction
from repro.functions.policyquery import PolicyQueryFunction
from repro.netsim.trace import INCOMING, OUTGOING, TraceRecorder
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


@pytest.fixture()
def fn_net():
    net = TorTestNetwork(n_relays=9, seed="fn-tests", bento_fraction=0.34)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    net.servers = [BentoServer(r, net.authority, ias=ias)
                   for r in net.bento_boxes()]
    net.create_web_server("page.example", {
        "/": b"<html>\n/img\n/script\n</html>",
        "/img": b"I" * 60_000,
        "/script": b"S" * 9_000,
    })
    return net


def _session(thread, net, source, manifest):
    client = BentoClient(net.create_client(), ias=net.ias)
    session = yield from client.connect(thread, client.pick_box())
    yield from session.request_image(thread, manifest.image)
    yield from session.load_function(thread, source, manifest)
    return session


class TestBrowser:
    def test_full_page_fetched(self, fn_net):
        def main(thread):
            session = yield from _session(
                thread, fn_net, BrowserFunction.SOURCE,
                BrowserFunction.manifest(image="python"))
            page, stats = yield from BrowserFunction.fetch(
                thread, session, "https://page.example/", padding=0)
            yield from session.shutdown(thread)
            return page, stats

        page, stats = run_thread(fn_net, main)
        assert b"I" * 60_000 in page and b"S" * 9_000 in page
        assert stats["resources"] == 3

    def test_padding_to_multiple(self, fn_net):
        def main(thread):
            session = yield from _session(
                thread, fn_net, BrowserFunction.SOURCE,
                BrowserFunction.manifest(image="python"))
            _page, stats = yield from BrowserFunction.fetch(
                thread, session, "https://page.example/", padding=100_000)
            yield from session.shutdown(thread)
            return stats

        stats = run_thread(fn_net, main)
        assert stats["sent_bytes"] % 100_000 == 0
        assert stats["sent_bytes"] >= stats["page_bytes"] * 0.9  # ~incompressible

    def test_unpack_strips_padding(self, fn_net):
        def main(thread):
            session = yield from _session(
                thread, fn_net, BrowserFunction.SOURCE,
                BrowserFunction.manifest(image="python"))
            page, _stats = yield from BrowserFunction.fetch(
                thread, session, "https://page.example/", padding=200_000)
            yield from session.shutdown(thread)
            return page

        page = run_thread(fn_net, main)
        assert page.endswith(b"S" * 9_000)

    def test_works_inside_conclave(self, fn_net):
        def main(thread):
            session = yield from _session(
                thread, fn_net, BrowserFunction.SOURCE,
                BrowserFunction.manifest(image="python-op-sgx"))
            page, _ = yield from BrowserFunction.fetch(
                thread, session, "https://page.example/", padding=0)
            yield from session.shutdown(thread)
            return page

        assert b"I" * 60_000 in run_thread(fn_net, main)


class TestCover:
    def test_bidirectional_cover_rate(self, fn_net):
        client_node_holder = {}

        def main(thread):
            client = BentoClient(fn_net.create_client("cover-user"),
                                 ias=fn_net.ias)
            client_node_holder["node"] = client.tor.node
            recorder = TraceRecorder(client.tor.node)
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(thread, CoverFunction.SOURCE,
                                             CoverFunction.manifest())
            recorder.mark()
            stats = yield from CoverFunction.run_bidirectional(
                thread, session, rate_bytes_per_s=20_000.0, duration_s=10.0,
                chunk_size=2_000)
            records = recorder.cut()
            yield from session.shutdown(thread)
            return stats, records

        stats, records = run_thread(fn_net, main)
        down = sum(r.size for r in records if r.direction == INCOMING)
        up = sum(r.size for r in records if r.direction == OUTGOING)
        # ~10s at 20 kB/s in each direction (plus cell overhead).
        assert stats["sent_bytes"] >= 180_000
        assert down >= 180_000 and up >= 180_000

    def test_drop_variant_pads_circuit(self, fn_net):
        def main(thread):
            session = yield from _session(
                thread, fn_net, CoverFunction.DROP_SOURCE,
                CoverFunction.drop_manifest())
            return (yield from session.invoke(
                thread, [20.0, 5.0], timeout=300.0))

        stats = run_thread(fn_net, main)
        assert stats["sent_cells"] >= 90


class TestDropbox:
    def test_put_get_list_delete(self, fn_net):
        def main(thread):
            session = yield from _session(
                thread, fn_net, DropboxFunction.SOURCE,
                DropboxFunction.manifest(image="python"))
            DropboxFunction.start(session, expiry_s=600.0)
            assert (yield from DropboxFunction.put(
                thread, session, "a.bin", b"AAA"))
            assert (yield from DropboxFunction.put(
                thread, session, "b.bin", b"BBBB"))
            names = yield from DropboxFunction.list_names(thread, session)
            assert sorted(names) == ["a.bin", "b.bin"]
            assert (yield from DropboxFunction.get(
                thread, session, "a.bin")) == b"AAA"
            assert (yield from DropboxFunction.delete(
                thread, session, "a.bin"))
            assert (yield from DropboxFunction.get(
                thread, session, "a.bin")) == b""
            stats = yield from DropboxFunction.close(thread, session)
            yield from session.shutdown(thread)
            return stats

        stats = run_thread(fn_net, main)
        assert stats["gets_served"] == 2

    @pytest.mark.parametrize("image", ["python", "python-op-sgx"])
    def test_long_name_stored_and_read_back(self, fn_net, image):
        """A name FS Protect's path-derived nonce used to choke on: the
        enclaved image must store what the plain one does."""
        name = "n" * 230

        def main(thread):
            session = yield from _session(
                thread, fn_net, DropboxFunction.SOURCE,
                DropboxFunction.manifest(image=image))
            DropboxFunction.start(session, expiry_s=600.0)
            assert (yield from DropboxFunction.put(
                thread, session, name, b"long-named"))
            names = yield from DropboxFunction.list_names(thread, session)
            data = yield from DropboxFunction.get(thread, session, name)
            yield from DropboxFunction.close(thread, session)
            yield from session.shutdown(thread)
            return names, data

        assert run_thread(fn_net, main) == ([name], b"long-named")

    def test_oversize_put_refused(self, fn_net):
        def main(thread):
            session = yield from _session(
                thread, fn_net, DropboxFunction.SOURCE,
                DropboxFunction.manifest(image="python"))
            DropboxFunction.start(session, max_bytes=10, expiry_s=600.0)
            ok = yield from DropboxFunction.put(
                thread, session, "big", b"x" * 100)
            yield from DropboxFunction.close(thread, session)
            return ok

        assert run_thread(fn_net, main) is False

    def test_get_budget_terminates_function(self, fn_net):
        def main(thread):
            session = yield from _session(
                thread, fn_net, DropboxFunction.SOURCE,
                DropboxFunction.manifest(image="python"))
            DropboxFunction.start(session, max_gets=2, expiry_s=600.0)
            yield from DropboxFunction.put(thread, session, "f", b"data")
            assert (yield from DropboxFunction.get(
                thread, session, "f")) == b"data"
            assert (yield from DropboxFunction.get(
                thread, session, "f")) == b"data"
            # The budget is spent: the loop exits and DONE arrives.
            from repro.core import messages

            result = (yield from session.await_message(
                thread, messages.DONE, 120.0))["result"]
            return result

        assert run_thread(fn_net, main)["gets_served"] == 2

    def test_files_deleted_on_close(self, fn_net):
        def main(thread):
            session = yield from _session(
                thread, fn_net, DropboxFunction.SOURCE,
                DropboxFunction.manifest(image="python"))
            DropboxFunction.start(session, expiry_s=600.0)
            yield from DropboxFunction.put(thread, session, "f", b"data")
            yield from DropboxFunction.close(thread, session)
            server = next(s for s in fn_net.servers
                          if s.relay.fingerprint == session.box.identity_fp)
            # The only container is the dropbox's; its chroot is empty.
            instance = next(iter(server._by_invocation.values()))
            return instance.container.fs.walk_files("/")

        assert run_thread(fn_net, main) == []


class TestPolicyQuery:
    def test_query_roundtrip(self, fn_net):
        operator_policy = MiddleboxNodePolicy.network_measurement_policy()

        def main(thread):
            session = yield from _session(
                thread, fn_net, PolicyQueryFunction.SOURCE,
                PolicyQueryFunction.manifest())
            PolicyQueryFunction.start(session, operator_policy)
            fetched = yield from PolicyQueryFunction.query(thread, session)
            yield from session.shutdown(thread)
            return fetched

        assert run_thread(fn_net, main) == operator_policy

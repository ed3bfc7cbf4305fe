"""Cross-function integration: Figure 2's Browser+Dropbox composition and
the Bento-as-hidden-service access path."""

import json

import pytest

from repro.core.client import BentoClient
from repro.core.manifest import FunctionManifest
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.dropbox import DropboxFunction
from repro.netsim.simulator import Sleep
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread

BROWSE_TO_DROPBOX = r'''
import json, zlib

def browse_to_dropbox(url, padding, dropbox_source, dropbox_manifest):
    first = yield from api.http_get(url)
    blobs = [first.body]
    scheme, rest = url.split("://", 1)
    base = scheme + "://" + rest.split("/", 1)[0]
    for line in first.body.decode("latin-1", "replace").splitlines():
        if line.strip().startswith("/"):
            blobs.append((yield from api.http_get(base + line.strip())).body)
    final = zlib.compress(b"".join(blobs), 1)
    if padding > 0 and len(final) % padding:
        final += yield from api.random_bytes(padding - len(final) % padding)
    handle = yield from api.deploy(dropbox_source, dropbox_manifest)
    yield from api.remote_invoke_nowait(handle, [len(final) + 1024, 10, 600.0])
    yield from api.remote_send(
        handle, json.dumps({"op": "put", "name": "page"}).encode())
    yield from api.remote_send(handle, final)
    yield from api.remote_recv(handle, timeout=120.0)
    info = yield from api.remote_info(handle)
    return {"box_fp": info["box_fp"], "invocation": info["invocation"],
            "size": len(final)}
'''


@pytest.fixture()
def comp_net():
    net = TorTestNetwork(n_relays=10, seed="compose", bento_fraction=0.4)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    net.servers = [BentoServer(r, net.authority, ias=ias)
                   for r in net.bento_boxes()]
    net.create_web_server("target.example", {
        "/": b"<html>\n/asset\n</html>", "/asset": b"Q" * 20_000})
    return net


class TestComposition:
    def test_figure2_browser_plus_dropbox(self, comp_net):
        """Alice installs Browser+Dropbox, goes offline during the fetch,
        and later retrieves the page from the Dropbox directly."""
        alice = BentoClient(comp_net.create_client("alice"), ias=comp_net.ias)

        manifest = FunctionManifest.create(
            "browse2drop", "browse_to_dropbox",
            api_calls={"http_get", "random", "deploy", "remote_invoke",
                       "remote_send", "remote_recv"})

        def main(thread):
            session = yield from alice.connect(thread, alice.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, BROWSE_TO_DROPBOX, manifest)
            metadata = yield from session.invoke(thread, [
                "https://target.example/", 65536,
                DropboxFunction.SOURCE,
                DropboxFunction.manifest(image="python").to_wire()])
            browser_box = session.box.identity_fp
            session.close()

            # Alice is offline while the work happened; later she fetches.
            yield Sleep(60.0)
            dropbox_box = alice.tor.consensus().find(metadata["box_fp"])
            fetch_session = yield from alice.connect(thread, dropbox_box)
            yield from fetch_session.attach(thread, metadata["invocation"])
            blob = yield from DropboxFunction.get(
                thread, fetch_session, "page")
            fetch_session.close()

            import zlib

            page = zlib.decompressobj().decompress(blob)
            return metadata, browser_box, page, len(blob)

        metadata, browser_box, page, blob_len = run_thread(comp_net, main)
        assert b"Q" * 20_000 in page
        assert blob_len == metadata["size"] == 65536
        # The composition genuinely used a *different* box for storage.
        assert metadata["box_fp"] != browser_box

    def test_deploy_denied_without_permission(self, comp_net):
        alice = BentoClient(comp_net.create_client(), ias=comp_net.ias)
        manifest = FunctionManifest.create(
            "sneaky", "f", api_calls={"http_get"})
        code = ("def f():\n"
                "    yield from api.deploy('x = 1', {})\n")

        def main(thread):
            session = yield from alice.connect(thread, alice.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(thread, code, manifest)
            from repro.core.errors import BentoError

            with pytest.raises(BentoError, match="not in manifest"):
                yield from session.invoke(thread, [])

        run_thread(comp_net, main)


class TestBentoOverHiddenService:
    def test_server_reachable_via_onion(self, comp_net):
        """§5: 'Bento may run as a hidden service' — the whole protocol
        works over a rendezvous circuit."""
        server = comp_net.servers[0]
        onion_holder = {}

        def serve(thread):
            onion_holder["onion"] = yield from server.serve_via_hidden_service(
                thread)

        run_thread(comp_net, serve, name="hs-setup")

        client = BentoClient(comp_net.create_client(), ias=comp_net.ias)

        def main(thread):
            session = yield from client.connect_via_onion(
                thread, onion_holder["onion"])
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, "def hello():\n    return 'over-onion'\n    yield\n",
                FunctionManifest.create("hello", "hello", {"send"}))
            result = yield from session.invoke(thread, [])
            yield from session.shutdown(thread)
            session.close()
            return result

        assert run_thread(comp_net, main) == "over-onion"

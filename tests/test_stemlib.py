"""The Stem firewall (§5.3): ``api.stem``, driven from uploaded functions."""

import pytest

from repro.core.errors import BentoError
from repro.core.manifest import FunctionManifest
from repro.tor.directory import DirectoryError

from conftest import run_thread
from test_core_api_security import _loaded_session, _single_box_net

# One function, one operation per invocation: its circuits and services
# outlive an invocation, so a test can step through a lifecycle.
STEM_OPS = r'''
def stem_op(op, arg=None):
    if op == "new":
        return (yield from api.stem.new_circuit())
    if op == "new_exit":
        return (yield from api.stem.new_circuit(exit_to=("web.example", 443)))
    if op == "close":
        return (yield from api.stem.close_circuit(arg))
    if op == "status":
        return (yield from api.stem.get_info("circuit-status"))
    if op == "info":
        return (yield from api.stem.get_info(arg))
    if op == "relays":
        return len((yield from api.stem.get_network_statuses()))
    if op == "pad":
        return (yield from api.stem.send_padding(arg, hop_index=1))
    if op == "attach_and_fetch":
        stream = yield from api.stem.attach_stream(arg, "web.example", 443)
        attached = not stream.closed
        stream.close()
        result = yield from api.stem.fetch(arg, "https://web.example/")
        return [attached, result["status"], result["body"]]
    if op == "fetch_both":
        direct = yield from api.stem.fetch(arg, "https://web.example/")
        handle = yield from api.stem.fetch_begin(arg, "https://web.example/",
                                                 offset=0, length=3)
        ranged = yield from api.stem.fetch_join(handle)
        return [direct["status"], direct["body"], ranged["body"]]
    if op == "serve":
        def handler(stream, host, port):
            yield from stream.send(b"hi")
        service = yield from api.stem.create_hidden_service(handler,
                                                            n_intro=1)
        return str(service.onion_address)
    raise ValueError(op)
'''

ALL_STEM = {"stem.new_circuit", "stem.close_circuit", "stem.get_info",
            "stem.get_network_statuses", "stem.send_padding",
            "stem.attach_stream", "stem.fetch", "stem.create_hidden_service"}


def _net(seed):
    net = _single_box_net(seed)
    net.create_web_server("web.example", {"/": b"via stem"})
    return net


def _stem_session(thread, net, api_calls=ALL_STEM):
    manifest = FunctionManifest.create("stem_op", "stem_op", api_calls)
    return (yield from _loaded_session(thread, net, STEM_OPS, manifest))


def _instance(net, session):
    return net.server._by_invocation[session.invocation_token]


class TestController:
    def test_circuit_lifecycle(self):
        net = _net("stem-life")

        def main(thread):
            session = yield from _stem_session(thread, net)
            circuit_id = yield from session.invoke(thread, ["new"])
            assert (yield from session.invoke(thread, ["status"])) == [circuit_id]
            yield from session.invoke(thread, ["close", circuit_id])
            assert (yield from session.invoke(thread, ["status"])) == []
            # A closed circuit leaves the table: it can no longer be named.
            with pytest.raises(BentoError, match="does not own circuit"):
                yield from session.invoke(thread, ["close", circuit_id])
            assert (yield from session.invoke(thread, ["new"])) == "2"

        run_thread(net, main)

    def test_attach_stream_and_fetch(self):
        net = _net("stem-attach")

        def main(thread):
            session = yield from _stem_session(thread, net)
            circuit_id = yield from session.invoke(thread, ["new_exit"])
            return (yield from session.invoke(
                thread, ["attach_and_fetch", circuit_id]))

        assert run_thread(net, main) == [True, 200, b"via stem"]

    def test_controller_fetch_helper(self):
        net = _net("stem-fetch")

        def main(thread):
            session = yield from _stem_session(thread, net)
            circuit_id = yield from session.invoke(thread, ["new_exit"])
            return (yield from session.invoke(thread,
                                              ["fetch_both", circuit_id]))

        assert run_thread(net, main) == [200, b"via stem", b"via"]

    def test_network_statuses(self):
        net = _net("stem-statuses")

        def main(thread):
            session = yield from _stem_session(thread, net)
            return (yield from session.invoke(thread, ["relays"]))

        assert run_thread(net, main) == len(net.relays)

    def test_get_info(self):
        net = _net("stem-info")

        def main(thread):
            session = yield from _stem_session(thread, net)
            version = yield from session.invoke(thread, ["info", "version"])
            address = yield from session.invoke(thread, ["info", "address"])
            with pytest.raises(BentoError, match="unsupported GETINFO key"):
                yield from session.invoke(thread, ["info", "bogus-key"])
            return version, address

        version, address = run_thread(net, main)
        assert version.startswith("repro-tor")
        assert address == net.server.node.address


class TestFirewall:
    def test_routine_allowlist(self):
        net = _net("stem-allow")

        def main(thread):
            session = yield from _stem_session(
                thread, net, {"stem.get_network_statuses"})
            assert (yield from session.invoke(thread, ["relays"])) > 0
            with pytest.raises(BentoError, match="not in manifest"):
                yield from session.invoke(thread, ["info", "version"])
            # The call outside the manifest killed the function.
            assert net.server.active_function_count == 0

        run_thread(net, main)

    def test_unknown_routine_in_grant_rejected(self):
        with pytest.raises(ValueError, match="unknown api calls"):
            FunctionManifest.create("f", "f", {"stem.not_a_routine"})

    def test_circuit_ownership(self):
        net = _net("stem-own")

        def main(thread):
            owner = yield from _stem_session(thread, net)
            other = yield from _stem_session(thread, net)
            circuit_id = yield from owner.invoke(thread, ["new"])
            # Another function cannot touch the owner's circuit...
            with pytest.raises(BentoError, match="does not own circuit"):
                yield from other.invoke(thread, ["close", circuit_id])
            with pytest.raises(BentoError, match="does not own circuit"):
                yield from other.invoke(thread, ["pad", circuit_id])
            # ...even once it has a circuit of its own under the same id.
            assert (yield from other.invoke(thread, ["new"])) == circuit_id
            yield from other.invoke(thread, ["close", circuit_id])
            assert (yield from owner.invoke(thread, ["status"])) == [circuit_id]
            yield from owner.invoke(thread, ["close", circuit_id])

        run_thread(net, main)

    def test_release_all_closes_owned_circuits(self):
        net = _net("stem-release")

        def main(thread):
            session = yield from _stem_session(thread, net)
            yield from session.invoke(thread, ["new"])
            onion = yield from session.invoke(thread, ["serve"])
            stem = _instance(net, session).api.stem
            circuit = stem._circuits["1"]
            intros = list(stem._services[onion].intro_circuits)
            assert net.authority.fetch_hs_descriptor(onion) is not None
            yield from session.shutdown(thread)
            return circuit, intros, onion

        circuit, intros, onion = run_thread(net, main)
        assert circuit.destroyed
        assert len(intros) == 1 and intros[0].destroyed
        with pytest.raises(DirectoryError):
            net.authority.fetch_hs_descriptor(onion)

    def test_padding_requires_permission_and_ownership(self):
        net = _net("stem-pad")

        def main(thread):
            session = yield from _stem_session(thread, net)
            circuit_id = yield from session.invoke(thread, ["new"])
            circuit = _instance(net, session).api.stem._circuits[circuit_id]
            sent = circuit.cells_sent
            yield from session.invoke(thread, ["pad", circuit_id])  # allowed
            assert circuit.cells_sent == sent + 1
            with pytest.raises(BentoError, match="does not own circuit 999"):
                yield from session.invoke(thread, ["pad", "999"])
            unpermitted = yield from _stem_session(
                thread, net, {"stem.new_circuit"})
            own_id = yield from unpermitted.invoke(thread, ["new"])
            with pytest.raises(BentoError, match="not in manifest"):
                yield from unpermitted.invoke(thread, ["pad", own_id])

        run_thread(net, main)

"""API features beyond the basics: http_session, concurrent fetches,
hidden-service handler threads, logging, time, randomness."""

import pytest

from repro.core.client import BentoClient
from repro.core.errors import BentoError
from repro.core.manifest import FunctionManifest
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


@pytest.fixture()
def api_net():
    net = TorTestNetwork(n_relays=9, seed="api-feat", bento_fraction=0.25)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    net.servers = [BentoServer(r, net.authority, ias=ias)
                   for r in net.bento_boxes()]
    net.create_web_server("api.example", {
        "/a": b"A" * 5000, "/b": b"B" * 5000, "/c": b"C" * 5000,
        "/big": b"D" * 400_000})
    return net


def _run_function(net, code, api_calls, args, image="python"):
    client = BentoClient(net.create_client(), ias=net.ias)
    out = {}

    def main(thread):
        session = yield from client.connect(thread, client.pick_box())
        yield from session.request_image(thread, image)
        yield from session.load_function(
            thread, code,
            FunctionManifest.create("t", "main", api_calls, image=image))
        out["result"] = yield from session.invoke(thread, args)
        out["session"] = session
        yield from session.shutdown(thread)

    run_thread(net, main)
    return out["result"]


class TestHttpSession:
    def test_keepalive_session(self, api_net):
        code = """
def main():
    session = yield from api.http_session("api.example")
    bodies = []
    for p in ("/a", "/b", "/c"):
        bodies.append((yield from session.get(p)).body)
    session.close()
    return [len(b) for b in bodies]
"""
        result = _run_function(api_net, code, {"http_get"}, [])
        assert result == [5000, 5000, 5000]

    def test_session_faster_than_separate_gets(self, api_net):
        keepalive = """
def main():
    start = yield from api.time()
    session = yield from api.http_session("api.example")
    for path in ("/a", "/b", "/c"):
        yield from session.get(path)
    session.close()
    return (yield from api.time()) - start
"""
        separate = """
def main():
    start = yield from api.time()
    for path in ("/a", "/b", "/c"):
        yield from api.http_get("https://api.example" + path)
    return (yield from api.time()) - start
"""
        fast = _run_function(api_net, keepalive, {"http_get", "time"}, [])
        slow = _run_function(api_net, separate, {"http_get", "time"}, [])
        assert fast < slow     # saves two TLS handshakes

    @pytest.mark.expects_failed_actors
    def test_session_respects_iptables(self):
        from repro.core.policy import MiddleboxNodePolicy
        from repro.tor.exitpolicy import ExitPolicy

        net = TorTestNetwork(n_relays=6, seed="sess-ipt", bento_fraction=0.2)
        box = net.bento_boxes()[0]
        box.exit_policy = ExitPolicy.parse("accept *:80")
        box.register_with(net.authority)
        ias = IntelAttestationService(net.sim.rng.fork("ias"))
        net.ias = ias
        BentoServer(box, net.authority, ias=ias)
        net.create_web_server("api.example", {"/a": b"x"})
        code = """
def main():
    yield from api.http_session("api.example", 443)
"""
        with pytest.raises(BentoError, match="iptables"):
            _run_function(net, code, {"http_get"}, [])


class TestStemFetch:
    def test_ranged_fetch_through_circuit(self, api_net):
        code = """
def main():
    circuit_id = yield from api.stem.new_circuit()
    part = yield from api.stem.fetch(circuit_id, "https://api.example/big",
                                     offset=100, length=50)
    yield from api.stem.close_circuit(circuit_id)
    return [part["status"], len(part["body"]), part["total"]]
"""
        result = _run_function(
            api_net, code,
            {"stem.new_circuit", "stem.close_circuit", "stem.fetch",
             "stem.attach_stream"}, [])
        assert result == [206, 50, 400_000]

    def test_concurrent_fetches_overlap(self, api_net):
        code = """
def main():
    circuits, handles, parts = [], [], []
    for _ in range(2):
        circuits.append((yield from api.stem.new_circuit()))
    start = yield from api.time()
    for c in circuits:
        handles.append((yield from api.stem.fetch_begin(
            c, "https://api.example/big")))
    for h in handles:
        parts.append((yield from api.stem.fetch_join(h)))
    wall = (yield from api.time()) - start
    serial = sum(p["elapsed"] for p in parts)
    for c in circuits:
        yield from api.stem.close_circuit(c)
    return [wall, serial, len(parts[0]["body"])]
"""
        wall, serial, size = _run_function(
            api_net, code,
            {"stem.new_circuit", "stem.close_circuit", "stem.fetch",
             "stem.attach_stream", "time"}, [])
        assert size == 400_000
        assert wall < 0.8 * serial   # genuine overlap in simulated time


class TestHiddenServiceHandler:
    @pytest.mark.expects_failed_actors
    def test_plain_handler_rejected_at_the_call(self, api_net):
        # Its stream.send/recv calls would be un-iterated generators.
        code = """
def main():
    def handler(stream, host, port):
        stream.send(b"hi")
    yield from api.stem.create_hidden_service(handler)
"""
        with pytest.raises(BentoError,
                           match="ApiError.*must be a generator function"):
            _run_function(api_net, code, {"stem.create_hidden_service"}, [])


class TestMiscApi:
    def test_log_captured_on_instance(self, api_net):
        client = BentoClient(api_net.create_client(), ias=api_net.ias)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread,
                "def main():\n    yield from api.log('note to self')\n",
                FunctionManifest.create("t", "main", {"log"}))
            yield from session.invoke(thread, [])
            server = next(s for s in api_net.servers
                          if s.relay.fingerprint == session.box.identity_fp)
            instance = server._by_invocation[session.invocation_token]
            return list(instance.logs)

        logs = run_thread(api_net, main)
        assert len(logs) == 1 and "note to self" in logs[0]

    def test_time_is_simulated_time(self, api_net):
        code = """
def main():
    before = yield from api.time()
    yield from api.sleep(3.5)
    return (yield from api.time()) - before
"""
        elapsed = _run_function(api_net, code, {"time", "sleep"}, [])
        assert elapsed == pytest.approx(3.5)

    def test_random_bytes_distinct(self, api_net):
        code = """
def main():
    a = yield from api.random_bytes(16)
    b = yield from api.random_bytes(16)
    return [len(a), len(b), a == b]
"""
        result = _run_function(api_net, code, {"random"}, [])
        assert result == [16, 16, False]

    def test_invocation_token_visible_to_function(self, api_net):
        client = BentoClient(api_net.create_client(), ias=api_net.ias)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread,
                "def main():\n    return api.invocation_token\n    yield\n",
                FunctionManifest.create("t", "main", {"send"}))
            token = yield from session.invoke(thread, [])
            assert token == session.invocation_token
            yield from session.shutdown(thread)

        run_thread(api_net, main)


class TestErrorVocabulary:
    """What a function can catch: ``api.Error`` and its three members.

    Each row uploads one function that makes a call and reports the name
    it caught; the internal class behind it never reaches the function.
    """

    WRAPPER = """
def main(arg):
    try:
        return (yield from attempt(arg))
    except api.Timeout:
        return "Timeout"
    except api.PeerGone:
        return "PeerGone"
    except api.NotFound:
        return "NotFound"
    except api.Error:
        return "Error"
"""
    REMOTE = "def main():\n    yield from api.recv()\n"
    CALLS = {"recv", "send", "deploy", "remote_invoke", "remote_recv",
             "stem.close_circuit"}

    @pytest.fixture()
    def vocab_net(self, api_net):
        from repro.netsim.faults import FaultPlane

        api_net.plane = FaultPlane(api_net.network)
        return api_net

    def _outcome(self, net, attempt, arg=None, after_output=None):
        """The uploaded function's result, or the crash it ended with.

        ``after_output(payload)`` runs host-side on the function's first
        output, before the host answers it with one message.
        """
        client = BentoClient(net.create_client(), ias=net.ias)
        manifest = FunctionManifest.create("t", "main", self.CALLS)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(thread, attempt + self.WRAPPER,
                                             manifest)
            session.invoke_nowait([arg])
            if after_output is not None:
                after_output((yield from session.next_output(thread)))
                session.send_message(b"go")
            try:
                return (yield from session.await_result(thread))
            except BentoError as exc:
                return str(exc)

        return run_thread(net, main)

    def _crash(self, net, fingerprint):
        box = next(s for s in net.servers
                   if s.relay.fingerprint == fingerprint)
        net.plane.crash_node(box.node.name)

    def test_an_expired_recv_is_timeout(self, api_net):
        attempt = """
def attempt(arg):
    yield from api.recv(timeout=1.0)
"""
        assert self._outcome(api_net, attempt) == "Timeout"

    def test_remote_recv_from_a_crashed_box_is_peer_gone(self, vocab_net):
        attempt = """
def attempt(remote):
    handle = yield from api.deploy(remote, %r, direct=True)
    info = yield from api.remote_info(handle)
    yield from api.remote_invoke_nowait(handle, [])
    yield from api.send(info["box_fp"].encode())
    yield from api.recv()
    yield from api.remote_recv(handle, timeout=60.0)
""" % FunctionManifest.create("r", "main", {"recv"}).to_wire()
        outcome = self._outcome(
            vocab_net, attempt, self.REMOTE,
            after_output=lambda fp: self._crash(vocab_net, fp.decode()))
        assert outcome == "PeerGone"

    def test_deploy_to_an_unreachable_box_is_peer_gone(self, vocab_net):
        target = vocab_net.servers[-1].relay.fingerprint
        self._crash(vocab_net, target)
        attempt = """
def attempt(target):
    yield from api.deploy("def main():\\n    yield\\n", %r,
                          target_fingerprint=target, direct=True)
""" % FunctionManifest.create("r", "main", {"recv"}).to_wire()
        assert self._outcome(vocab_net, attempt, target) == "PeerGone"

    def test_an_unknown_remote_handle_is_not_found(self, api_net):
        attempt = """
def attempt(arg):
    yield from api.remote_info("remote-99")
"""
        assert self._outcome(api_net, attempt) == "NotFound"

    def test_a_kill_is_not_an_api_error(self, api_net):
        from repro.core.api import Error, FunctionKilled

        assert not issubclass(FunctionKilled, Error)
        attempt = """
def attempt(arg):
    yield from api.log("not in the manifest")
"""
        assert self._outcome(api_net, attempt).endswith(
            "function-crashed (FunctionKilled: api call 'log' not in "
            "manifest)")

    def test_an_unmapped_error_crashes_under_its_own_name(self, api_net):
        attempt = """
def attempt(arg):
    yield from api.stem.close_circuit("7")
"""
        assert "function-crashed (StemPolicyViolation: function " in \
            self._outcome(api_net, attempt)

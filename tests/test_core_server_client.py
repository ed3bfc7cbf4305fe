"""Integration: the full Bento client/server protocol over live circuits."""

import pytest

from repro.core.client import BentoClient
from repro.core.errors import BentoError
from repro.core.manifest import FunctionManifest
from repro.core.policy import MiddleboxNodePolicy
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.netsim.bytestream import Framer
from repro.netsim.simulator import Sleep
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread

MB = 1024 * 1024

ECHO = """
def echo(text):
    yield from api.send(text.encode("utf-8"))
    return len(text)
"""

COUNTER = """
def counter():
    total = 0
    while True:
        message = yield from api.recv(timeout=300.0)
        if message == b"stop":
            break
        total += int(message.decode("utf-8"))
        yield from api.send(str(total).encode("utf-8"))
    return total
"""


def _client(net):
    user = net.create_client()
    return BentoClient(user, ias=net.ias)


class TestProtocolBasics:
    def test_policy_query(self, bento_net):
        client = _client(bento_net)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            policy = yield from session.query_policy(thread)
            session.close()
            return policy

        policy = run_thread(bento_net, main)
        assert "python" in policy.images

    def test_load_invoke_roundtrip(self, bento_net):
        client = _client(bento_net)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, ECHO,
                FunctionManifest.create("echo", "echo", {"send"}))
            result = yield from session.invoke(thread, ["hello bento"])
            output = yield from session.next_output(thread)
            yield from session.shutdown(thread)
            session.close()
            return result, output

        result, output = run_thread(bento_net, main)
        assert result == 11 and output == b"hello bento"

    def test_long_running_function_message_loop(self, bento_net):
        client = _client(bento_net)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, COUNTER,
                FunctionManifest.create("counter", "counter",
                                        {"send", "recv"}))
            session.invoke_nowait()
            outputs = []
            for n in (5, 7, 10):
                session.send_message(str(n).encode())
                outputs.append((yield from session.next_output(thread)))
            session.send_message(b"stop")
            final = yield from session.await_result(thread, 120.0)
            yield from session.shutdown(thread)
            return outputs, final

        outputs, final = run_thread(bento_net, main)
        assert outputs == [b"5", b"12", b"22"] and final == 22

    def test_crash_reported_as_error(self, bento_net):
        client = _client(bento_net)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, "def boom():\n    raise ValueError('no')\n    yield\n",
                FunctionManifest.create("boom", "boom", {"send"}))
            with pytest.raises(BentoError, match="function-crashed"):
                yield from session.invoke(thread, [])
            yield from session.shutdown(thread)

        run_thread(bento_net, main)


    def test_plain_entry_refused_at_load(self, bento_net):
        client = _client(bento_net)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            with pytest.raises(BentoError, match="generator function"):
                yield from session.load_function(
                    thread, "def echo(text):\n    api.send(text.encode())\n",
                    FunctionManifest.create("echo", "echo", {"send"}))
            # Nothing to run: the container exists but holds no entry point.
            with pytest.raises(BentoError, match="function not loaded"):
                yield from session.invoke(thread, ["hi"])
            server = next(s for s in bento_net.bento_servers
                          if s.relay.fingerprint == session.box.identity_fp)
            instance = server._by_invocation[session.invocation_token]
            assert instance.runtime.entry is None
            assert not instance.runtime.running
            yield from session.shutdown(thread)

        run_thread(bento_net, main)


class TestServeLoop:
    @pytest.mark.expects_failed_actors
    def test_a_receive_bug_fails_the_session_actor(self, bento_net,
                                                   monkeypatch):
        """A session ends quietly only on what a receive is expected to
        raise; a bug under ``recv_frame`` (here a ``Framer.feed`` that
        raises RuntimeError) fails the box's session actor, and the kernel
        counts it, instead of closing the session as if the client left."""
        feed = Framer.feed

        def broken(self, data):
            if b"poison" in data:
                raise RuntimeError("framer bug")
            return feed(self, data)

        monkeypatch.setattr(Framer, "feed", broken)
        client = _client(bento_net)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            session.send_message(b"poison")
            yield Sleep(5.0)

        run_thread(bento_net, main)
        [failed] = bento_net.sim._failed
        assert failed.name.startswith("bento")
        assert type(failed.exception) is RuntimeError


class TestTokens:
    def test_invocation_token_shareable(self, bento_net):
        first = _client(bento_net)
        second = _client(bento_net)

        def main(thread):
            box = first.pick_box()
            session = yield from first.connect(thread, box)
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, ECHO,
                FunctionManifest.create("echo", "echo", {"send"}))
            token = session.invocation_token
            session.close()

            other = yield from second.connect(thread, box)
            yield from other.attach(thread, token)
            result = yield from other.invoke(thread, ["shared!"])
            assert (yield from other.next_output(thread)) == b"shared!"
            # ...but the second user cannot shut it down.
            assert other.shutdown_token is None
            other.close()
            return result

        assert run_thread(bento_net, main) == 7

    def test_wrong_tokens_rejected(self, bento_net):
        client = _client(bento_net)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            with pytest.raises(BentoError, match="bad-token"):
                yield from session.attach(thread, "inv-forged")
            # Invocation token cannot be used as shutdown token.
            real_invocation = session.invocation_token
            session.shutdown_token = real_invocation
            with pytest.raises(BentoError, match="bad-token"):
                yield from session.shutdown(thread)

        run_thread(bento_net, main)

    def test_shutdown_reclaims(self, bento_net):
        client = _client(bento_net)

        def main(thread):
            box = client.pick_box()
            session = yield from client.connect(thread, box)
            yield from session.request_image(thread, "python")
            yield from session.load_function(
                thread, ECHO,
                FunctionManifest.create("echo", "echo", {"send"}))
            server = next(s for s in bento_net.bento_servers
                          if s.relay.fingerprint == box.identity_fp)
            assert server.active_function_count == 1
            yield from session.shutdown(thread)
            assert server.active_function_count == 0
            # Using the old invocation token now fails.
            with pytest.raises(BentoError):
                yield from session.invoke(thread, ["x"])

        run_thread(bento_net, main)


class TestAttestationPaths:
    def test_stapled_verification(self, bento_net):
        client = _client(bento_net)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(
                thread, "python-op-sgx", verify="stapled")
            assert session.report is not None
            assert session.channel is not None
            yield from session.load_function(
                thread, ECHO,
                FunctionManifest.create("echo", "echo", {"send"},
                                        image="python-op-sgx"))
            result = yield from session.invoke(thread, ["sgx"])
            yield from session.shutdown(thread)
            return result

        assert run_thread(bento_net, main) == 3

    def test_client_side_ias_verification(self, bento_net):
        client = _client(bento_net)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            before = bento_net.sim.now
            yield from session.request_image(
                thread, "python-op-sgx", verify="ias")
            elapsed = bento_net.sim.now - before
            yield from session.shutdown(thread)
            return elapsed

        # The ias path pays at least one extra WAN round trip.
        assert run_thread(bento_net, main) >= 2 * bento_net.ias.latency_s

    def test_sgx_refused_without_ias(self):
        net = TorTestNetwork(n_relays=6, seed="no-sgx", bento_fraction=0.2)
        BentoServer(net.bento_boxes()[0], net.authority)   # no IAS
        user = net.create_client()
        client = BentoClient(user)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            with pytest.raises(BentoError):
                yield from session.request_image(
                    thread, "python-op-sgx", verify="none")

        run_thread(net, main)


class TestPolicyEnforcementAtLoad:
    def test_manifest_beyond_policy_rejected(self):
        net = TorTestNetwork(n_relays=6, seed="strict", bento_fraction=0.2)
        ias = IntelAttestationService(net.sim.rng.fork("ias"))
        BentoServer(net.bento_boxes()[0], net.authority, ias=ias,
                    policy=MiddleboxNodePolicy.network_measurement_policy())
        client = BentoClient(net.create_client(), ias=ias)

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            manifest = FunctionManifest.create(
                "dropper", "dropper", {"storage.put"}, disk_bytes=10)
            with pytest.raises(BentoError, match="manifest-rejected"):
                yield from session.load_function(
                    thread, "def dropper():\n    pass\n", manifest)

        run_thread(net, main)

    def test_container_limit(self):
        net = TorTestNetwork(n_relays=6, seed="limit", bento_fraction=0.2)
        ias = IntelAttestationService(net.sim.rng.fork("ias"))
        BentoServer(net.bento_boxes()[0], net.authority, ias=ias,
                    policy=MiddleboxNodePolicy(max_containers=2))
        client = BentoClient(net.create_client(), ias=ias)

        def main(thread):
            box = client.pick_box()
            first = yield from client.connect(thread, box)
            yield from first.request_image(thread, "python")
            second = yield from client.connect(thread, box)
            yield from second.request_image(thread, "python")
            third = yield from client.connect(thread, box)
            with pytest.raises(BentoError, match="container limit"):
                yield from third.request_image(thread, "python")
            # Shutting one down frees a slot.
            yield from first.shutdown(thread)
            third_retry = yield from client.connect(thread, box)
            yield from third_retry.request_image(thread, "python")

        run_thread(net, main)

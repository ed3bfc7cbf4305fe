"""Byte streams, framing, and the HTTP model."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.bytestream import DirectByteStream, FramedStream, Framer
from repro.netsim.http import (
    HttpServer,
    fetch,
    http_get,
    parse_url,
    plan_windows,
)
from repro.netsim.network import Network
from repro.netsim.simulator import SimTimeoutError, Simulator
from repro.util.errors import ProtocolError
from repro.util.serialization import canonical_encode


class TestFramer:
    def test_single_frame(self):
        framer = Framer()
        assert framer.feed(Framer.encode(b"abc")) == [b"abc"]

    def test_split_across_chunks(self):
        framer = Framer()
        encoded = Framer.encode(b"hello world")
        assert framer.feed(encoded[:3]) == []
        assert framer.feed(encoded[3:7]) == []
        assert framer.feed(encoded[7:]) == [b"hello world"]

    def test_multiple_frames_one_chunk(self):
        framer = Framer()
        blob = Framer.encode(b"a") + Framer.encode(b"bb") + Framer.encode(b"")
        assert framer.feed(blob) == [b"a", b"bb", b""]

    def test_pending_bytes(self):
        framer = Framer()
        framer.feed(Framer.encode(b"abcdef")[:5])
        assert framer.pending_bytes == 5

    def test_oversize_frame_rejected(self):
        framer = Framer()
        with pytest.raises(ValueError):
            framer.feed((Framer.MAX_FRAME + 1).to_bytes(4, "big"))

    @given(st.lists(st.binary(max_size=100), max_size=20),
           st.integers(min_value=1, max_value=17))
    def test_arbitrary_chunking(self, frames, chunk):
        blob = b"".join(Framer.encode(f) for f in frames)
        framer = Framer()
        out = []
        for i in range(0, len(blob), chunk):
            out.extend(framer.feed(blob[i:i + chunk]))
        assert out == frames


class TestParseUrl:
    def test_https_defaults(self):
        parsed = parse_url("https://host.example/path/x")
        assert (parsed.scheme, parsed.host, parsed.port, parsed.path) == (
            "https", "host.example", 443, "/path/x")

    def test_http_port(self):
        assert parse_url("http://h/").port == 80

    def test_explicit_port(self):
        assert parse_url("https://h:8443/x").port == 8443

    def test_scheme_defaulting(self):
        assert parse_url("host/x").scheme == "https"

    def test_bare_host_path(self):
        assert parse_url("https://host").path == "/"

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            parse_url("ftp://host/")

    def test_missing_host(self):
        with pytest.raises(ValueError):
            parse_url("https:///path")


class TestPlanWindows:
    def test_sum_matches_length(self):
        for length in (0, 1, 14_600, 100_000, 5_000_000):
            assert sum(plan_windows(length)) == length

    def test_doubling(self):
        windows = plan_windows(14_600 * 7)
        assert windows[0] == 14_600
        assert windows[1] == 29_200

    def test_zero_gets_one_empty_window(self):
        assert plan_windows(0) == [0]


def _web(sim_seed=3):
    sim = Simulator(seed=sim_seed)
    net = Network(sim)
    client = net.create_node("client")
    server = net.create_node("server")
    net.register_dns("example.com", server)
    return sim, net, client, server


class TestHttp:
    def test_get_static(self):
        sim, net, client, server = _web()
        HttpServer(server, {"/": b"index!"})

        def main(thread):
            return (yield from http_get(
                thread, net, client, "https://example.com/"))

        response = sim.run_until_done(sim.spawn(main))
        assert response.ok and response.body == b"index!"

    def test_get_dynamic(self):
        sim, net, client, server = _web()
        HttpServer(server, {"/echo": lambda path: path.encode()})

        def main(thread):
            return (yield from http_get(
                thread, net, client, "https://example.com/echo"))

        assert sim.run_until_done(sim.spawn(main)).body == b"/echo"

    def test_404(self):
        sim, net, client, server = _web()
        HttpServer(server, {})

        def main(thread):
            return (yield from http_get(
                thread, net, client, "https://example.com/nope"))

        response = sim.run_until_done(sim.spawn(main))
        assert response.status == 404 and not response.ok

    @pytest.mark.expects_failed_actors
    def test_a_receive_bug_fails_the_server_actor(self, monkeypatch):
        """The server drops a connection quietly only on what a receive is
        expected to raise; a ``Framer.feed`` that raises RuntimeError fails
        its actor, which the kernel counts."""
        sim, net, client, server = _web()
        HttpServer(server, {"/poison": b"x"})
        feed = Framer.feed

        def broken(self, data):
            if b"/poison" in data:
                raise RuntimeError("framer bug")
            return feed(self, data)

        monkeypatch.setattr(Framer, "feed", broken)

        def main(thread):
            try:
                yield from http_get(thread, net, client,
                                    "https://example.com/poison", timeout=5.0)
            except SimTimeoutError:
                return "no answer"

        assert sim.run_until_done(sim.spawn(main)) == "no answer"
        [failed] = sim._failed
        assert failed.name.startswith("http:")
        assert type(failed.exception) is RuntimeError

    def test_large_body_intact(self):
        sim, net, client, server = _web()
        body = bytes(range(256)) * 2000
        HttpServer(server, {"/big": body})

        def main(thread):
            return (yield from http_get(
                thread, net, client, "https://example.com/big"))

        assert sim.run_until_done(sim.spawn(main)).body == body

    def test_range_request(self):
        sim, net, client, server = _web()
        body = b"0123456789" * 100
        HttpServer(server, {"/r": body})

        def main(thread):
            from repro.netsim.bytestream import FramedStream
            from repro.netsim.http import fetch

            conn = yield from net.connect_blocking(
                thread, client, net.resolve("example.com"), 443,
                handshake_rtts=2.0)
            framed = FramedStream(DirectByteStream(conn, client))
            response = yield from fetch(
                thread, framed, "/r", offset=10, length=20)
            framed.close()
            return response

        response = sim.run_until_done(sim.spawn(main))
        assert response.status == 206
        assert response.body == body[10:30]
        assert response.total == len(body)

    def test_rtt_dominates_small_fetch(self):
        """Small transfers are RTT-bound: double the latency, roughly
        double the time (the Table 2 mechanism)."""
        def timed(latency):
            sim, net, client, server = _web()
            net.set_latency("client", "server", latency)
            HttpServer(server, {"/s": b"x" * 2000})

            def main(thread):
                return (yield from http_get(
                    thread, net, client, "https://example.com/s"))

            return sim.run_until_done(sim.spawn(main)).elapsed

        fast, slow = timed(0.02), timed(0.2)
        assert slow > 4 * fast

    def test_bandwidth_dominates_large_fetch(self):
        """Large transfers are bandwidth-bound: latency matters little."""
        def timed(latency):
            sim, net, client, server = _web()
            net.set_latency("client", "server", latency)
            HttpServer(server, {"/big": b"x" * 5_000_000})

            def main(thread):
                return (yield from http_get(
                    thread, net, client, "https://example.com/big"))

            return sim.run_until_done(sim.spawn(main)).elapsed

        fast, slow = timed(0.02), timed(0.06)
        assert slow < 2 * fast

    def test_keepalive_multiple_requests(self):
        sim, net, client, server = _web()
        http = HttpServer(server, {"/a": b"A", "/b": b"B"})

        def main(thread):
            from repro.netsim.http import fetch

            conn = yield from net.connect_blocking(
                thread, client, net.resolve("example.com"), 443,
                handshake_rtts=2.0)
            framed = FramedStream(DirectByteStream(conn, client))
            first = yield from fetch(thread, framed, "/a")
            second = yield from fetch(thread, framed, "/b")
            framed.close()
            return first.body + second.body

        assert sim.run_until_done(sim.spawn(main)) == b"AB"
        assert http.request_count == 2


class TestHostileHttpPeers:
    """Request and response headers are read through ``decode_request``:
    a peer's malformed dict costs that peer, and nobody else."""

    @pytest.mark.parametrize("request_frame", [
        canonical_encode(["GET", "/"]),
        canonical_encode({"path": 5}),
        canonical_encode({"path": "/", "offset": "0"}),
    ])
    def test_a_mistyped_request_drops_only_its_connection(self,
                                                          request_frame):
        sim, net, client, server = _web()
        http = HttpServer(server, {"/": b"index!"})

        def main(thread):
            conn = yield from net.connect_blocking(
                thread, client, net.resolve("example.com"), 443)
            framed = FramedStream(DirectByteStream(conn, client))
            framed.send_frame(request_frame)
            dropped = (yield from framed.recv_frame(thread, timeout=60.0))
            honest = yield from http_get(thread, net, client,
                                         "https://example.com/")
            return dropped, honest.body

        assert sim.run_until_done(sim.spawn(main)) == (None, b"index!")
        assert http.request_count == 1 and not sim._failed

    @pytest.mark.parametrize("header", [
        [200, 0, 0, 1],
        {"status": "200", "length": 0, "total": 0, "nwindows": 1},
        {"status": 200, "length": 0, "nwindows": 1},
    ])
    def test_a_mistyped_response_header_is_a_protocol_error(self, header):
        sim, net, client, server = _web()

        def accept(conn):
            def answer(thread):
                framed = FramedStream(DirectByteStream(conn, server))
                yield from framed.recv_frame(thread, timeout=60.0)
                framed.send_frame(canonical_encode(header))
            sim.spawn(answer)

        server.listen(443, accept)

        def main(thread):
            conn = yield from net.connect_blocking(
                thread, client, net.resolve("example.com"), 443)
            with pytest.raises(ProtocolError):
                yield from fetch(thread, FramedStream(
                    DirectByteStream(conn, client)), "/")

        sim.run_until_done(sim.spawn(main))

"""Equivalence and harness tests for the hot-path optimizations.

The batched layer crypto and the coalesced bulk transfer are pure
optimizations: each must be byte- and float-identical to the
straightforward implementation it replaced.  The keystream golden hashes
are frozen next to a reference written from the cipher's definition (they
were re-recorded once, when the XOF construction replaced SHA-256-counter
blocks); the coalescing tests compare the fast path against the chunked
path directly (toggled via :data:`repro.netsim.connection.COALESCE`).
"""

import hashlib

import pytest

import repro.netsim.connection as connection_mod
from repro.crypto.stream import StreamCipher, stream_xor
from repro.netsim.connection import Connection, LoopbackConnection
from repro.netsim.network import Network
from repro.netsim.simulator import Simulator
from repro.perf.counters import counters
from repro.perf.report import render_report
from repro.perf.timing import reset_sections, section_times, timed_section
from repro.tor.cell import RelayCellPayload, RelayCommand
from repro.tor.layercrypto import BACKWARD, FORWARD, HopCrypto
from repro.tor.ntor import CircuitKeys


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reference_keystream(key: bytes, nonce: bytes, n: int) -> bytes:
    """The first ``n`` keystream bytes, written straight from the definition.

    Batch *k* is SHAKE128(prefix || k as 8 big-endian bytes) squeezed to
    4096 bytes, prefix = SHA256("stream:" || key || ":" || nonce).  Shares
    no code with :class:`StreamCipher`; the frozen digests below are
    therefore derivable, not only recorded.
    """
    prefix = hashlib.sha256(b"stream:" + key + b":" + nonce).digest()
    out = b""
    k = 0
    while len(out) < n:
        out += hashlib.shake_128(prefix + k.to_bytes(8, "big")).digest(4096)
        k += 1
    return out[:n]


def _reference_xor(data: bytes, pad: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(data, pad))


class TestGoldenKeystream:
    """Frozen vectors of the XOF keystream, each beside the reference."""

    KEY, NONCE = b"golden-key-0123456789abcdef", b"nonce-A"
    # The old block-size cases (706 bytes, then 4096 across the first
    # boundary), 3390 to land exactly on the end of batch 1, then the batch
    # boundaries from an aligned start: one short (4095), onto it with one
    # byte buffered (4096), over it (4097, ends aligned again), two whole
    # batches plus one byte (8193), and after a partial read (100) one
    # that straddles the rest of that batch and the next (5000).
    LENGTHS = (1, 31, 32, 33, 100, 509, 0, 4096,
               3390, 4095, 4096, 4097, 8193, 100, 5000)
    DIGESTS = (
        "77adfc95029e73b173f60e556f915b0cd8850848111358b1c370fb7c154e61fd",
        "37fd07104da23bdd8a22863386c5b8950c985bfa0fd5d3f60bd0beffb9888fdd",
        "f7649cd132f8233daa8ba8151f1fea00683948d7af278c03eb787c4ecbc56bc6",
        "ecb65b33c0cea284f5ea5e6216cf7ebaf574f146e31f7e74f703f76e05c45c37",
        "b443c9132d38ba05480b4cbd76de7c803bbf5defb0229773666b234678f83130",
        "b065d88764ff8190d9216d168584657e1daf2cf04b5aefd7812357a0d275fb6a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "cc972489847c29acf0059e229e9cf1804b7b7d76c8b217df9e2bef37c947e32d",
        "584d89df3a198986e1b583b22b9c0a7718421bba520d4d08391e15f00b646b4f",
        "dbffe73603c9e1995c3247c206211b0e941dc81aedbb687cb89d1e9e410ceb6e",
        "44cc13f7801f266fff02bafcb4f0fa7bf68bab5f9f55b379ca5c871b6ca35995",
        "a68edfc1e6f66311dd211e97f3318eaa2e8df4ba4972acce6ae706ea10e9a96a",
        "cdd1969d1642113d7efc2b5cf354656ebcd0270f323516a8b909211603722dad",
        "ea68ebfc3b3e5ddb3a2213218aa18e9e0b40833dbff7f1bbd729c269d4986cf1",
        "b82a37290d4ab07d0cee32693012478f3606bf02eab44d1ab7a067d4412a0120",
    )
    CAT = "6b6ff1b9c06405efe30b7519c577f0dea0c173542b9353f4371a8efd68a564e4"

    def test_incremental_reads_match_frozen_vectors(self):
        cipher = StreamCipher(self.KEY, self.NONCE)
        parts = [cipher.keystream(n) for n in self.LENGTHS]
        reference = _reference_keystream(self.KEY, self.NONCE, sum(self.LENGTHS))
        offset = 0
        for n, part, digest in zip(self.LENGTHS, parts, self.DIGESTS):
            assert len(part) == n
            assert part == reference[offset:offset + n]
            assert _sha(part) == digest
            offset += n
        assert len(self.DIGESTS) == len(self.LENGTHS)
        assert _sha(b"".join(parts)) == self.CAT

    def test_one_shot_read_equals_incremental(self):
        incremental = StreamCipher(self.KEY, self.NONCE)
        parts = b"".join(incremental.keystream(n) for n in self.LENGTHS)
        oneshot = StreamCipher(self.KEY, self.NONCE)
        assert oneshot.keystream(sum(self.LENGTHS)) == parts

    def test_process_matches_frozen_vector(self):
        cipher = StreamCipher(b"k" * 16, b"n2")
        messages = [bytes(range(i % 256)) * 3 for i in (5, 97, 200)]
        out = b"".join(cipher.process(m) for m in messages)
        plain = b"".join(messages)
        assert out == _reference_xor(
            plain, _reference_keystream(b"k" * 16, b"n2", len(plain)))
        assert _sha(out) == (
            "8d08346bb97e79818aac0175273f950f577c329277b9f54e4abc04953e14bbb0")

    def test_process_many_equals_sequential_process(self):
        messages = [bytes([i]) * (50 + 37 * i) for i in range(9)]
        sequential = StreamCipher(b"pm-key-16-bytes!", b"pm-nonce")
        batched = StreamCipher(b"pm-key-16-bytes!", b"pm-nonce")
        expect = [sequential.process(m) for m in messages]
        assert batched.process_many(messages) == expect
        # Both ciphers sit at the same stream position afterwards.
        assert sequential.keystream(64) == batched.keystream(64)

    def test_stream_xor_frozen_vector(self):
        data = b"hello bento" * 50
        out = stream_xor(b"key-material-16b", b"iv", data)
        assert out == _reference_xor(
            data, _reference_keystream(b"key-material-16b", b"iv", len(data)))
        assert _sha(out) == (
            "259106b4499fb4665a77a346f983d62fed42ffd809ea9636e753d58f7dd8c431")


def _mkkeys(tag: bytes) -> CircuitKeys:
    digest = lambda s: hashlib.sha256(tag + s).digest()  # noqa: E731
    return CircuitKeys(kf=digest(b"kf"), kb=digest(b"kb"),
                       df=digest(b"df"), db=digest(b"db"))


class TestGoldenLayerCrypto:
    """Frozen wire bytes for five forward/backward rounds through one hop.

    The real-mode vector was re-recorded with the XOF keystream; the
    fast-mode vector never touches the stream cipher and is unchanged.
    """

    DIGESTS = {
        False: "474bf8ca403915c0207f2cfbb1e79adfb86bc6f1388a3c2f12cb0f49cf2ef938",
        True: "a1ccf225587ebf8ec066c95714f4e685eb413635a1aeec2d47d4cb1a31ea30a6",
    }

    @pytest.mark.parametrize("fast", [False, True])
    def test_wire_bytes_match_frozen_vectors(self, fast):
        keys = _mkkeys(b"hop")
        sender = HopCrypto(keys, fast=fast)
        relay = HopCrypto(keys, fast=fast)
        wire = []
        sealed = {FORWARD: [], BACKWARD: []}
        for i in range(5):
            cell = RelayCellPayload(command=RelayCommand.DATA, stream_id=7,
                                    data=bytes([i]) * (100 + i))
            sealed[FORWARD].append(sender.seal_payload(cell, FORWARD))
            fwd = sender.crypt_forward(sealed[FORWARD][-1])
            wire.append(fwd)
            opened = relay.open_payload(relay.crypt_forward(fwd), FORWARD)
            assert opened is not None and opened.data == cell.data
            sealed[BACKWARD].append(relay.seal_payload(RelayCellPayload(
                command=RelayCommand.DATA, stream_id=7, data=b"r" * 40),
                BACKWARD))
            bwd = relay.crypt_backward(sealed[BACKWARD][-1])
            wire.append(bwd)
            assert sender.open_payload(
                sender.crypt_backward(bwd), BACKWARD) is not None
        assert _sha(b"".join(wire)) == self.DIGESTS[fast]
        if not fast:
            # Each direction is its sealed payloads XOR one reference
            # keystream, so the real-mode digest is derivable too.
            for direction, key, nonce, cells in (
                    (FORWARD, keys.kf, b"layer-f", wire[0::2]),
                    (BACKWARD, keys.kb, b"layer-b", wire[1::2])):
                plain = b"".join(sealed[direction])
                assert b"".join(cells) == _reference_xor(
                    plain, _reference_keystream(key, nonce, len(plain)))

    @pytest.mark.parametrize("fast", [False, True])
    def test_crypt_many_equals_sequential(self, fast):
        one_by_one = HopCrypto(_mkkeys(b"many"), fast=fast)
        batched = HopCrypto(_mkkeys(b"many"), fast=fast)
        payloads = [bytes([i]) * 509 for i in range(7)]
        expect_f = [one_by_one.crypt_forward(p) for p in payloads]
        assert batched.crypt_forward_many(list(payloads)) == expect_f
        expect_b = [one_by_one.crypt_backward(p) for p in payloads]
        assert batched.crypt_backward_many(list(payloads)) == expect_b


def _two_node_net():
    sim = Simulator(seed=5)
    net = Network(sim, min_latency_s=0.02, max_latency_s=0.02)
    a = net.create_node("a", up_bytes_per_s=100_000.0,
                        down_bytes_per_s=100_000.0)
    b = net.create_node("b", up_bytes_per_s=80_000.0,
                        down_bytes_per_s=80_000.0)
    return sim, net, a, b


def _trace_single_flow(coalesce, monkeypatch):
    """One 100 KB message a->b; returns every observable timing."""
    monkeypatch.setattr(connection_mod, "COALESCE", coalesce)
    sim, net, a, b = _two_node_net()
    conn = Connection(sim, a, b, latency_s=0.02)
    trace = {"taps_up": [], "taps_down": [], "sent": None, "delivered": None}
    a.uplink.add_tap(lambda t, size: trace["taps_up"].append((t, size)))
    b.downlink.add_tap(lambda t, size: trace["taps_down"].append((t, size)))

    def on_message(_conn, payload, size):
        trace["delivered"] = (sim.now, len(payload), size)

    conn.endpoint_of(b).on_message = on_message
    conn.send(a, b"m" * 100_000,
              on_sent=lambda: trace.__setitem__("sent", sim.now))
    sim.run()
    trace["busy_up"] = a.uplink._busy_until
    trace["busy_down"] = b.downlink._busy_until
    trace["bytes_up"] = a.uplink.bytes_total
    trace["end"] = sim.now
    return trace


def _trace_contended(coalesce, monkeypatch):
    """Bulk a->b preempted mid-flight by a second flow a->c."""
    monkeypatch.setattr(connection_mod, "COALESCE", coalesce)
    sim, net, a, b = _two_node_net()
    c = net.create_node("c", up_bytes_per_s=80_000.0,
                        down_bytes_per_s=80_000.0)
    conn_ab = Connection(sim, a, b, latency_s=0.02)
    conn_ac = Connection(sim, a, c, latency_s=0.015)
    delivered = {}
    for name, node, conn in (("b", b, conn_ab), ("c", c, conn_ac)):
        conn.endpoint_of(node).on_message = (
            lambda _c, payload, size, name=name:
                delivered.__setitem__(name, (sim.now, size)))
    taps = []
    a.uplink.add_tap(lambda t, size: taps.append((t, size)))
    conn_ab.send(a, b"m" * 100_000)
    # Lands mid-transfer on a's uplink: forces a preemption when coalesced.
    sim.schedule(0.3, conn_ac.send, a, b"n" * 50_000)
    sim.run()
    return {"delivered": delivered, "taps": sorted(taps), "end": sim.now}


class TestCoalescingEquivalence:
    def test_uncontended_transfer_is_bit_identical(self, monkeypatch):
        chunked = _trace_single_flow(False, monkeypatch)
        coalesced = _trace_single_flow(True, monkeypatch)
        assert coalesced == chunked
        assert chunked["delivered"] is not None
        # 100 KB in 4 KiB chunks: many tap records either way.
        assert len(chunked["taps_up"]) > 10

    def test_coalesced_path_actually_engaged(self, monkeypatch):
        counters.reset()
        _trace_single_flow(True, monkeypatch)
        assert counters.bulk_grants == 1
        assert counters.chunks_coalesced > 10
        counters.reset()
        _trace_single_flow(False, monkeypatch)
        assert counters.bulk_grants == 0

    def test_preempted_transfer_is_bit_identical(self, monkeypatch):
        chunked = _trace_contended(False, monkeypatch)
        counters.reset()
        coalesced = _trace_contended(True, monkeypatch)
        assert counters.bulk_preemptions >= 1
        assert coalesced == chunked

    def test_small_messages_never_coalesce(self, monkeypatch):
        monkeypatch.setattr(connection_mod, "COALESCE", True)
        sim, net, a, b = _two_node_net()
        conn = Connection(sim, a, b, latency_s=0.02)
        got = []
        conn.endpoint_of(b).on_message = (
            lambda _c, payload, size: got.append(payload))
        counters.reset()
        conn.send(a, b"cell" * 100)   # 400 B < DEFAULT_CHUNK
        sim.run()
        assert got == [b"cell" * 100]
        assert counters.bulk_grants == 0


class TestConnectionQueues:
    def test_receive_order_fifo(self):
        sim, net, a, b = _two_node_net()
        conn = Connection(sim, a, b, latency_s=0.02)
        seen = []

        def receiver(thread):
            for _ in range(3):
                seen.append((yield from conn.receive(b, thread)))

        sim.spawn(receiver)
        for i in range(3):
            conn.send(a, b"msg%d" % i)
        sim.run()
        sim.check_failures()
        assert seen == [b"msg0", b"msg1", b"msg2"]

    def test_send_rejects_sizeless_non_bytes(self):
        sim, net, a, b = _two_node_net()
        conn = Connection(sim, a, b, latency_s=0.02)
        with pytest.raises(TypeError):
            conn.send(a, {"not": "bytes"})
        conn.send(a, {"not": "bytes"}, size=512)   # explicit size is fine

    def test_loopback_rejects_sizeless_non_bytes(self):
        sim = Simulator(seed=3)
        net = Network(sim)
        node = net.create_node("solo")
        side_a, side_b = LoopbackConnection.create(sim, node)
        with pytest.raises(TypeError):
            side_a.send(node, ("tuple", "payload"))
        got = []
        side_b._endpoint.on_message = (
            lambda _c, payload, size: got.append((payload, size)))
        side_a.send(node, ("tuple", "payload"), size=64)
        side_a.send(node, b"raw")
        sim.run()
        assert got == [(("tuple", "payload"), 64), (b"raw", 3)]


class TestSimulatorHeapCompaction:
    def test_cancelled_backlog_is_compacted(self):
        sim = Simulator(seed=7)
        events = [sim.schedule(1000.0 + i, lambda: None) for i in range(200)]
        for event in events:
            event.cancel()
        fired = []
        sim.schedule(0.5, lambda: fired.append(sim.now))
        counters.reset()
        sim.run(until=1.0)
        assert fired == [0.5]
        assert counters.heap_compactions >= 1
        assert sim.queued == 0   # garbage gone, not merely skipped

    def test_compaction_preserves_order(self):
        sim = Simulator(seed=7)
        doomed = [sim.schedule(50.0 + i, lambda: None) for i in range(100)]
        fired = []
        for delay in (3.0, 1.0, 2.0):
            sim.schedule(delay, lambda d=delay: fired.append(d))
        for event in doomed:
            event.cancel()
        sim.run(until=10.0)
        assert fired == [1.0, 2.0, 3.0]


class TestPerfHarness:
    def test_counters_track_a_run(self):
        counters.reset()
        sim, net, a, b = _two_node_net()
        conn = Connection(sim, a, b, latency_s=0.02)
        conn.endpoint_of(b).on_message = lambda _c, _p, _s: None
        conn.send(a, b"x" * 50_000)
        sim.run()
        snapshot = counters.snapshot()
        assert snapshot["events_processed"] > 0
        assert snapshot["events_scheduled"] > 0
        # Coalesced chunks bypass Interface.transmit; together the two
        # counters see every chunk exactly once.
        assert snapshot["chunks_transmitted"] + snapshot["chunks_coalesced"] > 1
        counters.reset()
        assert counters.snapshot()["events_processed"] == 0

    def test_keystream_counters(self):
        counters.reset()
        StreamCipher(b"count-key-16byte", b"count-nonce").keystream(10_000)
        assert counters.keystream_bytes >= 10_000
        assert counters.hash_calls > 0

    def test_timed_sections_accumulate(self):
        reset_sections()
        with timed_section("unit-test-section"):
            pass
        with timed_section("unit-test-section"):
            pass
        assert section_times["unit-test-section"] >= 0.0
        reset_sections()
        assert "unit-test-section" not in section_times

    def test_render_report_lists_all_counters(self):
        counters.reset()
        text = render_report()
        assert "events_processed" in text
        assert "chunks_coalesced" in text

    def test_cli_perf_report_scenario(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "perf-report" in capsys.readouterr().out.split()
        assert main(["perf-report", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "events_processed" in out
        assert "cells_crypted" in out

"""Equivalence and harness tests for the hot-path optimizations.

The batched layer crypto is a pure optimization: it must be byte-identical
to the straightforward implementation it replaced, and the keystream
golden hashes are frozen next to the pure-Python reference cipher.  The
link model has one path; its two fixed scenarios are pinned to the floats
it produced while a coalesced fast path still existed beside it (both
agreed on every one), so a change to the pacing arithmetic shows here.
"""

import hashlib

import pytest

import repro.netsim.simulator as simulator_mod
from repro.crypto.stream import ReferenceCipher, StreamCipher, stream_xor
from repro.netsim.connection import Connection, LoopbackConnection
from repro.netsim.network import Network
from repro.netsim.scenarios import MeshScenario
from repro.netsim.shard import ShardedSimulator
from repro.netsim.simulator import Simulator, Sleep
from repro.perf.counters import counters
from repro.perf.report import render_report
from repro.tor.cell import RelayCellPayload, RelayCommand
from repro.tor.layercrypto import BACKWARD, FORWARD, HopCrypto
from repro.tor.ntor import CircuitKeys
from repro.tor.testnet import TorTestNetwork

from conftest import bulk_origin, run_thread


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reference_keystream(key: bytes, nonce: bytes, n: int) -> bytes:
    """The first ``n`` keystream bytes from the block function written from
    FIPS-197 (``tests/test_crypto_stream.py`` holds it to the standards'
    vectors), which shares only the key derivation with the libcrypto
    binding; the frozen digests below are therefore derivable, not only
    recorded."""
    return ReferenceCipher(key, nonce).keystream(n)


def _reference_xor(data: bytes, pad: bytes) -> bytes:
    return bytes(a ^ b for a, b in zip(data, pad))


class TestGoldenKeystream:
    """Frozen vectors of the AES-128-CTR keystream, each beside the reference."""

    KEY, NONCE = b"golden-key-0123456789abcdef", b"nonce-A"
    # Reads that end before, on and after 16-byte block boundaries (1, 31,
    # 32, 33), a cell (509), nothing, and long reads from an aligned start
    # (3390 ends on byte 8192) and from an odd one: a partial block, whole
    # blocks in bulk and a partial block again within one call.
    LENGTHS = (1, 31, 32, 33, 100, 509, 0, 4096,
               3390, 4095, 4096, 4097, 8193, 100, 5000)
    DIGESTS = (
        "9d1e0e2d9459d06523ad13e28a4093c2316baafe7aec5b25f30eba2e113599c4",
        "00d4fdc067b45dd9781ee640b03627cbbdce3c34016b24c2798523e79df07f02",
        "72f80328930a36e39ebe5c8693cf3c753a2e08909ab209a49e8b8fa5caa25b54",
        "c81935c3a2086bf18068d101947b54bbfe2919bcd02774237551e2e3218f792c",
        "4022c0f26fa985258765218d9400d2a99d2a3b0222720b66d0c3899e1c2bbfa5",
        "4cc5ca001a550ebd6002902123df3dde79b53c17b25a6c05c5f82be0955b5102",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ea5563f36f2170f0802abdabd14565eac46236626b57ec4ab9fe8e8e6ace38da",
        "5f8881f08c123d823744c46ae131e89b998c7220312e9c56acf51c0daa504981",
        "a0f383e8df5a33d737a2799473a02be1882703f5ecd8924c7e4833ccd52b1092",
        "33def7e0fd313152fa9704dfdde9d38b09d7cfb06724699cbc653572251f4dd5",
        "b6676882ef1540cb1ae8cd2c91ff20dcf7e3c550bc51070b468e35679414e864",
        "8a141c03193725a5da352511b5975e60e9c95ab9ed8a03e2350682ddf8a04556",
        "16ecc51bf9b29f39f9a6cf74ebe68601697a1cda7de70b0e9c23bfdc4c144350",
        "90ac3de7ee81bd1e5da57b38e07c5d448573ce857f235cb08e5e5265e413d0d6",
    )
    CAT = "e24f71bd76713f50fffa228f5168a0880f865aa3739ff09856b7449dfb5749e4"

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
            "e22161400938b480024728ff7b8f7d0472d93fa6b09dde4febd33b9e38532f89")

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
            "2d45db32df1363ae434fcb0e36aa54725a0c04ad6dd219f17dd9550f0d07e9d5")


def _mkkeys(tag: bytes) -> CircuitKeys:
    digest = lambda s: hashlib.sha256(tag + s).digest()  # noqa: E731
    return CircuitKeys(kf=digest(b"kf"), kb=digest(b"kb"),
                       df=digest(b"df"), db=digest(b"db"))


class TestGoldenLayerCrypto:
    """Frozen wire bytes for five forward/backward rounds through one hop,
    derivable from the reference keystream (below)."""

    DIGEST = "3262f73cb62b5fb39e40ec97778028335a131392879c0751a3e9c14a05a61c87"

    def test_wire_bytes_match_frozen_vectors(self):
        keys = _mkkeys(b"hop")
        sender = HopCrypto(keys)
        relay = HopCrypto(keys)
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
        assert _sha(b"".join(wire)) == self.DIGEST
        # Each direction is its sealed payloads XOR one reference
        # keystream, so the digest is derivable too.
        for direction, key, nonce, cells in (
                (FORWARD, keys.kf, b"layer-f", wire[0::2]),
                (BACKWARD, keys.kb, b"layer-b", wire[1::2])):
            plain = b"".join(sealed[direction])
            assert b"".join(cells) == _reference_xor(
                plain, _reference_keystream(key, nonce, len(plain)))

    def test_crypt_many_equals_sequential(self):
        one_by_one = HopCrypto(_mkkeys(b"many"))
        batched = HopCrypto(_mkkeys(b"many"))
        payloads = [bytes([i]) * 509 for i in range(7)]
        expect_f = [one_by_one.crypt_forward(p) for p in payloads]
        assert batched.crypt_forward_many(list(payloads)) == expect_f
        expect_b = [one_by_one.crypt_backward(p) for p in payloads]
        assert batched.crypt_backward_many(list(payloads)) == expect_b


def _bulk_over_three_hops(direction, size=1_000_000):
    """One ``size``-byte put or get through three real-crypto hops.  Returns
    the counters of the transfer alone; ``events_scheduled`` is accounted
    when ``run()`` returns, so read that one off ``counters`` afterwards,
    where it covers the whole run."""
    net = TorTestNetwork(n_relays=6, seed="volume-pin")
    sunk = bulk_origin(net, bytes(size))
    client = net.create_client()

    def main(thread):
        circuit = yield from client.build_circuit(
            thread, exit_to=("origin.example", 80))
        stream = yield from circuit.open_stream(
            thread, "origin.example", 80)
        counters.reset()
        if direction == "get":
            stream.send(b"GET")
            body = yield from stream.recv(thread, timeout=60.0,
                                          min_bytes=size)
            assert len(body) == size
        else:
            stream.send(bytes(size))
            while sunk[0] < size:
                yield Sleep(0.05)
        return counters.snapshot()

    return run_thread(net, main)


class TestTrainsAreReadAhead:
    """A bulk transfer calls the cipher once per burst per hop, not once per
    cell per hop.  Pinned as a count, so a return to peeling cell by cell
    fails here whatever the machine's speed."""

    @pytest.mark.parametrize("direction", ["put", "get"])
    def test_one_cipher_call_per_ten_layer_applications(self, direction):
        size = 1_000_000
        snapshot = _bulk_over_three_hops(direction, size)
        assert snapshot["cells_crypted"] > 3 * size // 498
        assert snapshot["hash_calls"] * 10 <= snapshot["cells_crypted"], snapshot


class TestHandlesAreForCancelling:
    """A queue entry carries an ``Event`` only for a caller that may cancel
    it.  Pinned as a count of constructions, so a return to an object per
    event fails here whatever the machine's speed."""

    @pytest.fixture()
    def handles(self, monkeypatch):
        made = []

        class CountedEvent(simulator_mod.Event):
            __slots__ = ()

            def __init__(self, *args):
                made.append(1)
                super().__init__(*args)

        monkeypatch.setattr(simulator_mod, "Event", CountedEvent)
        return made

    def test_bulk_get_takes_one_handle_per_hundred_events(self, handles):
        _bulk_over_three_hops("get")
        assert counters.events_scheduled > 10_000
        assert len(handles) * 100 <= counters.events_scheduled

    def test_mesh_session_takes_no_more_handles_than_it_arms_timers(
            self, handles, monkeypatch):
        arms = []
        arm_timer = simulator_mod.SimTask._arm_timer
        monkeypatch.setattr(
            simulator_mod.SimTask, "_arm_timer",
            lambda task, *args: arms.append(1) or arm_timer(task, *args))
        scenario = MeshScenario(seed=5, n_sessions=40, n_groups=2,
                                nodes_per_group=4, messages_per_session=3)
        result = ShardedSimulator(scenario, workers=1, seed=5).run()
        assert len(result["records"]) == 40
        assert 0 < len(handles) <= len(arms)


def _two_node_net():
    sim = Simulator(seed=5)
    net = Network(sim, min_latency_s=0.02, max_latency_s=0.02)
    a = net.create_node("a", up_bytes_per_s=100_000.0,
                        down_bytes_per_s=100_000.0)
    b = net.create_node("b", up_bytes_per_s=80_000.0,
                        down_bytes_per_s=80_000.0)
    return sim, net, a, b


def _trace_single_flow():
    """One 100 KB message a->b; returns every observable timing."""
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


def _trace_contended():
    """Bulk a->b joined mid-flight by a second flow a->c on a's uplink."""
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
    sim.schedule(0.3, conn_ac.send, a, b"n" * 50_000)
    sim.run()
    return {"delivered": delivered, "taps": sorted(taps), "end": sim.now}


# Completion times of 24 full chunks + the 1,696-byte tail of 100 KB: a's
# uplink at 100 kB/s, then b's downlink at 80 kB/s behind 20 ms.
_SINGLE_UP = [
    0.04096, 0.08192, 0.12288000000000002, 0.16384, 0.2048, 0.24576,
    0.28672000000000003, 0.32768, 0.36864, 0.4096, 0.45056, 0.49152,
    0.5324800000000001, 0.5734400000000001, 0.6144000000000001, 0.65536,
    0.69632, 0.73728, 0.77824, 0.8192, 0.86016, 0.90112, 0.94208, 0.98304,
    1.0]
_SINGLE_DOWN = [
    0.11216000000000001, 0.16336, 0.21456, 0.26576, 0.31696,
    0.36816000000000004, 0.41936000000000007, 0.4705600000000001,
    0.5217600000000001, 0.5729600000000001, 0.6241600000000002,
    0.6753600000000002, 0.7265600000000002, 0.7777600000000002,
    0.8289600000000003, 0.8801600000000003, 0.9313600000000003,
    0.9825600000000003, 1.0337600000000002, 1.0849600000000001, 1.13616,
    1.18736, 1.2385599999999999, 1.2897599999999998, 1.31096]
# a's uplink with both flows on it: the second message's chunks (12 full
# + an 848-byte tail) take every other slot from t=0.3 s on.
_CONTENDED_TAPS = [
    (0.04096, 4096), (0.08192, 4096), (0.12288000000000002, 4096),
    (0.16384, 4096), (0.2048, 4096), (0.24576, 4096),
    (0.28672000000000003, 4096), (0.32768, 4096), (0.36864, 4096),
    (0.4096, 4096), (0.45056, 4096), (0.49152, 4096),
    (0.5324800000000001, 4096), (0.5734400000000001, 4096),
    (0.6144000000000001, 4096), (0.65536, 4096), (0.69632, 4096),
    (0.73728, 4096), (0.77824, 4096), (0.8192, 4096), (0.86016, 4096),
    (0.90112, 4096), (0.94208, 4096), (0.98304, 4096), (1.024, 4096),
    (1.0649600000000001, 4096), (1.1059200000000002, 4096),
    (1.1468800000000003, 4096), (1.1878400000000005, 4096),
    (1.2288000000000006, 4096), (1.2697600000000007, 4096),
    (1.3107200000000008, 4096), (1.3192000000000008, 848),
    (1.360160000000001, 4096), (1.401120000000001, 4096),
    (1.4420800000000011, 4096), (1.4830400000000012, 4096),
    (1.5000000000000013, 1696)]


class TestLinkModelPinned:
    """Exact floats, not approx: the link model's arithmetic is part of
    every fixed-seed artifact, so it may not drift by an ulp."""

    def test_uncontended_transfer_is_pinned(self):
        sizes = [4096] * 24 + [1696]
        assert _trace_single_flow() == {
            "taps_up": list(zip(_SINGLE_UP, sizes)),
            "taps_down": list(zip(_SINGLE_DOWN, sizes)),
            "sent": 1.0,
            "delivered": (1.31096, 100_000, 100_000),
            "busy_up": 1.0,
            "busy_down": 1.31096,
            "bytes_up": 100_000,
            "end": 1.31096,
        }

    def test_contended_transfer_is_pinned(self):
        assert _trace_contended() == {
            "delivered": {"c": (1.3465600000000004, 50_000),
                          "b": (1.6079200000000005, 100_000)},
            "taps": _CONTENDED_TAPS,
            "end": 1.6079200000000005,
        }


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
        # 50,000 B is 13 chunks, each serialized up and then down.
        assert snapshot["chunks_transmitted"] == 26
        counters.reset()
        assert counters.snapshot()["events_processed"] == 0

    def test_keystream_counters(self):
        counters.reset()
        StreamCipher(b"count-key-16byte", b"count-nonce").keystream(10_000)
        assert counters.keystream_bytes >= 10_000
        assert counters.hash_calls > 0

    def test_render_report_lists_all_counters(self):
        counters.reset()
        text = render_report()
        assert "events_processed" in text
        assert "chunks_transmitted" in text

    def test_cli_perf_report_scenario(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        assert "perf-report" in capsys.readouterr().out.split()
        assert main(["perf-report", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "events_processed" in out
        assert "cells_crypted" in out

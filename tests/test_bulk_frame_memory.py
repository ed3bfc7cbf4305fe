"""A bulk Bento message is held once: its frame leaves as the pieces it
was encoded as, its payload is gathered in place into the ``bytes`` object
the decoded message holds, and both are let go of once it is dispatched;
FS Protect seals it straight into its envelope."""

import gc
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
import types

from repro.core import messages
from repro.core.client import BentoClient, BentoSession
from repro.core.manifest import FunctionManifest
from repro.core.server import BentoServer
from repro.enclave.fsprotect import FSProtect
from repro.netsim import bytestream
from repro.netsim.bytestream import FramedStream, Framer
from repro.netsim.simulator import Simulator, Sleep
from repro.sandbox.memfs import MemFS
from repro.tor.stream import TorStream

from conftest import PEAK_RSS_KIB, needs_proc, run_thread

MIB = 1 << 20
KIB = 1 << 10
CELL = 498   # RELAY_DATA_SIZE: what one DATA cell carries


def _traced_peak(fn):
    """``fn()``'s result and the traced memory it peaked at above where it
    started (what existed before is not counted)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_fs_protect_writes_a_4_mib_file_as_one_envelope():
    """Sealed straight into an envelope of its final size: the write
    allocates the envelope and nothing else of the file's size.  Sealed,
    then copied into the envelope, it peaked at two copies; encoded
    through a growing buffer and copied out of it, at three."""
    plaintext = random.Random(41).randbytes(4 * MIB)
    fs = FSProtect(MemFS().chroot("/c"), b"k" * 32)
    _, peak = _traced_peak(lambda: fs.write_file("/drop/f", plaintext))
    envelope = fs.operator_view("/drop/f")
    assert peak <= len(envelope) + 64 * KIB, peak / MIB
    assert fs.read_file("/drop/f") == plaintext


class _Wire:
    """The send side of a byte stream: keeps what it is given."""

    def __init__(self) -> None:
        self.sent = []

    def send(self, *pieces: bytes) -> None:
        self.sent.append(pieces)


def test_a_4_mib_msg_is_sent_by_reference():
    """The client's send site hands the stream the frame's length prefix and
    the pieces the message was encoded as, the payload itself among them:
    sending allocates no block of the frame's size.  Joined behind the
    prefix, it allocated one; copied through the encoder's buffer, out of
    it and again behind the prefix, two."""
    payload = random.Random(42).randbytes(4 * MIB)
    wire = _Wire()
    session = BentoSession(None, messages.framed(wire), None, False, None)
    session.invocation_token = "t"
    rid, peak = _traced_peak(lambda: session.send_message(payload))
    [sent] = wire.sent
    assert peak <= 64 * KIB, peak / KIB
    assert any(piece is payload for piece in sent)
    assert b"".join(sent) == Framer.encode(messages.encode_message(
        messages.Msg, token="t", payload=payload, rid=rid))


def test_a_small_frame_is_sent_joined():
    """Below ``BY_REFERENCE`` a frame leaves as one ``bytes``, as before."""
    wire = _Wire()
    session = BentoSession(None, messages.framed(wire), None, False, None)
    session.invocation_token = "t"
    session.send_message(b"x" * 1000)
    [(sent,)] = wire.sent
    assert type(sent) is bytes


def _cells(sim, stream, data: bytes) -> None:
    """Deliver ``data`` to ``stream`` one DATA cell per millisecond, each
    cell's bytes made as it arrives."""
    for i, offset in enumerate(range(0, len(data), CELL)):
        sim.post_at(i * 0.001, lambda at: stream._on_data(data[at:at + CELL]),
                    (offset,))

ECHO = """
def echo():
    while True:
        message = yield from api.recv(timeout=600.0)
        yield from api.send(message)
"""


def test_a_bulk_frame_costs_about_two_copies_of_its_payload():
    """A 1 MiB ``Msg`` arrives one cell per event, as a Tor stream delivers
    it, and is received and decoded.  Assembled in one buffer and copied
    out once, the frame peaks at about two payloads; assembled twice and
    copied out through a slice, it took four."""
    payload = random.Random(31).randbytes(MIB)
    data = Framer.encode(messages.encode_message(
        messages.Msg, token="t", payload=payload, rid=7))
    sim = Simulator(seed=5)
    stream = TorStream(types.SimpleNamespace(sim=sim), stream_id=1)
    framed = FramedStream(stream)
    got = []

    def push(offset):
        stream._on_data(data[offset:offset + CELL])

    def reader(thread):
        raw = yield from framed.recv_frame(thread, timeout=60.0)
        got.append(messages.decode_message(raw).payload)

    for i, offset in enumerate(range(0, len(data), CELL)):
        sim.post_at(i * 0.001, push, (offset,))
    sim.spawn(reader)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        sim.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == [payload]
    assert peak <= 2.5 * len(payload), peak / len(payload)


def test_a_received_payload_is_the_only_block_of_its_size():
    """A 4 MiB ``Msg`` arrives one cell per event on a Bento stream and is
    decoded: its payload is gathered straight into the ``bytes`` object the
    message holds, so the receive peaks at that payload and 64 KiB.  Joined
    in the framer's buffer, copied out and sliced by the decoder, it took
    two to three payloads (the test above)."""
    payload = random.Random(33).randbytes(4 * MIB)
    data = Framer.encode(messages.encode_message(
        messages.Msg, token="t", payload=payload, rid=7))
    sim = Simulator(seed=5)
    stream = TorStream(types.SimpleNamespace(sim=sim), stream_id=1)
    framed = FramedStream(stream, by_reference=True)
    got = []

    def reader(thread):
        raw = yield from framed.recv_frame(thread, timeout=60.0)
        got.append(messages.decode_message(raw))

    _cells(sim, stream, data)
    sim.spawn(reader)
    _, peak = _traced_peak(sim.run)
    [message] = got
    assert message == messages.Msg(token="t", payload=payload, rid=7)
    assert peak <= len(payload) + 64 * KIB, (peak - len(payload)) / KIB


def test_a_frame_gathers_as_its_cells_arrive(monkeypatch):
    """While a ``recv_frame`` waits for the rest of a 4 MiB frame, each
    cell is appended to the frame's buffer as it is pushed: at the wake no
    cell is queued, and until the frame is copied out the traced peak is
    that buffer, as allocated (a growing ``bytearray`` keeps up to an
    eighth spare), and 64 KiB.  Queued and copied in at the wake, the
    cells were a second frame's worth of memory."""
    data = Framer.encode(random.Random(43).randbytes(4 * MIB))
    sim = Simulator(seed=5)
    stream = TorStream(types.SimpleNamespace(sim=sim), stream_id=1)
    framed = FramedStream(stream)
    queue, seen = stream._recv, {}
    wake, feed = bytestream._RecvQueue._wake, Framer.feed

    def wake_spy(self):
        if self._target > CELL:  # the wake of the read for the frame's rest
            seen["queued_at_wake"] = len(self._chunks)
        wake(self)

    def feed_spy(self, chunk):
        if len(chunk) > CELL:  # the gathered frame, before it is copied out
            seen["peak"] = tracemalloc.get_traced_memory()[1]
            seen["buffer"] = sys.getsizeof(self._buffer)
        return feed(self, chunk)

    monkeypatch.setattr(bytestream._RecvQueue, "_wake", wake_spy)
    monkeypatch.setattr(Framer, "feed", feed_spy)
    got = []

    def reader(thread):
        got.append((yield from framed.recv_frame(thread, timeout=60.0)))

    def push(offset):  # a cell's bytes are made as it arrives
        queue.push(data[offset:offset + CELL])

    for i, offset in enumerate(range(0, len(data), CELL)):
        sim.post_at(i * 0.001, push, (offset,))
    sim.spawn(reader)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sim.run()
    finally:
        tracemalloc.stop()
    assert got == [data[4:]]
    assert seen["queued_at_wake"] == 0
    assert seen["peak"] - base <= seen["buffer"] + 64 * KIB, (
        (seen["peak"] - base - seen["buffer"]) / KIB)


def test_a_direct_session_carries_a_bulk_payload_both_ways(bento_net):
    """Over a direct connection a bulk frame leaves as one message of its
    pieces and arrives as one chunk, whose leaf is cut out of it."""
    client = BentoClient(bento_net.create_client(), ias=bento_net.ias)
    payload = random.Random(34).randbytes(MIB)

    def main(thread):
        session = yield from client.connect_direct(thread, client.pick_box())
        yield from session.request_image(thread, "python")
        yield from session.load_function(
            thread, ECHO, FunctionManifest.create(
                "echo", "echo", {"send", "recv"}, memory_bytes=8 * MIB))
        session.invoke_nowait([])
        rid = session.send_message(payload)
        return (yield from session.next_output(thread, timeout=600.0,
                                               rid=rid))

    assert run_thread(bento_net, main) == payload


def test_the_serve_loop_lets_go_of_a_dispatched_frame(bento_net, monkeypatch):
    """While it waits for the next frame, the session actor that
    dispatched a 1 MiB ``Msg`` holds neither the raw frame nor the
    decoded message."""
    seen = []
    decode = messages.decode_message

    def spy(raw):
        message = decode(raw)
        if type(message) is messages.Msg:
            seen.append((raw, message))
        return message

    monkeypatch.setattr(messages, "decode_message", spy)
    client = BentoClient(bento_net.create_client(), ias=bento_net.ias)
    payload = random.Random(32).randbytes(MIB)

    def main(thread):
        session = yield from client.connect(thread, client.pick_box())
        yield from session.request_image(thread, "python")
        yield from session.load_function(
            thread, ECHO, FunctionManifest.create(
                "echo", "echo", {"send", "recv"}, memory_bytes=8 * MIB))
        session.invoke_nowait([])
        rid = session.send_message(payload)
        echoed = yield from session.next_output(thread, timeout=600.0,
                                                rid=rid)
        # The box has dispatched the message and is waiting for the next.
        serving = [g for g in gc.get_objects()
                   if type(g) is types.GeneratorType and g.gi_frame
                   and g.gi_code is BentoServer._serve.__code__]
        held = [value for g in serving
                for value in g.gi_frame.f_locals.values()]
        return echoed, serving, held

    echoed, serving, held = run_thread(bento_net, main)
    assert echoed == payload
    assert serving and len(seen) == 1
    raw, message = seen[0]
    assert not any(value is raw or value is message for value in held)


def _announce(leaf: int) -> bytes:
    """The start of a ``Msg`` frame whose payload is ``leaf`` bytes long:
    its length, its head and the leaf's first 4 KiB, and no more."""
    head = (b"M" + (4).to_bytes(4, "big") + b"S" + (7).to_bytes(4, "big")
            + b"payload" + b"B" + leaf.to_bytes(4, "big"))
    return (len(head) + leaf + 47).to_bytes(4, "big") + head + bytes(4096)


HOSTILE = PEAK_RSS_KIB + """
import types
from repro.netsim.bytestream import FramedStream
from repro.netsim.simulator import Simulator, Sleep
from repro.tor.stream import TorStream

def exchange(sent):
    sim = Simulator(seed=5)
    stream = TorStream(types.SimpleNamespace(sim=sim), stream_id=1)
    framed = FramedStream(stream, by_reference=True)
    got = []
    def reader(thread):
        got.append((yield from framed.recv_frame(thread, timeout=60.0)))
    for i, at in enumerate(range(0, len(sent), 498)):
        sim.post_at(i * 0.001, stream._on_data, (sent[at:at + 498],))
    sim.post_at(1.0, stream._on_end)
    sim.spawn(reader)
    sim.run()
    assert got == [None], got

exchange(SMALL)  # the allocator reaches its steady size
before = peak()
exchange(HUGE)
print(peak() - before)
"""


@needs_proc
def test_a_hostile_announce_holds_only_what_was_sent():
    """A peer sends the start of a frame announcing a 64 MiB payload, then
    closes.  The receiver ends the read at EOF with no frame, and its peak
    resident set grows by less than what was sent and 256 KiB: the leaf an
    announce makes costs address space, not memory, until bytes arrive to
    fill it, as the growing buffer it replaces did.  A fresh interpreter,
    so that the peak read is this exchange's."""
    src = str(pathlib.Path(bytestream.__file__).resolve().parents[2])
    script = HOSTILE.replace("SMALL", repr(_announce(1 << 17))).replace(
        "HUGE", repr(_announce(64 * MIB)))
    out = subprocess.run([sys.executable, "-c", script], check=True,
                         capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert int(out.stdout) * KIB <= len(_announce(0)) + 256 * KIB, out.stdout


def test_a_hostile_announce_ends_the_session_cleanly(bento_net):
    """The same announce, sent to a Bento server which then sees the
    connection close: its session actor returns, no actor fails, and the
    box serves the next client."""
    client = BentoClient(bento_net.create_client(), ias=bento_net.ias)
    box = client.pick_box()

    def main(thread):
        hostile = yield from client.connect_direct(thread, box)
        hostile.framed.stream.send(_announce(64 * MIB))
        yield Sleep(5.0)
        hostile.close()
        yield Sleep(5.0)
        serving = [g for g in gc.get_objects()
                   if type(g) is types.GeneratorType and g.gi_frame
                   and g.gi_code is BentoServer._serve.__code__]
        honest = yield from client.connect_direct(thread, box)
        policy = yield from honest.query_policy(thread)
        honest.close()
        return serving, policy

    serving, policy = run_thread(bento_net, main)
    assert serving == [] and policy is not None

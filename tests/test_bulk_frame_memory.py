"""A bulk Bento message is held once: its frame is assembled in one buffer
while it arrives, and the server lets go of it once it is dispatched."""

import gc
import random
import tracemalloc
import types

from repro.core import messages
from repro.core.client import BentoClient
from repro.core.manifest import FunctionManifest
from repro.core.server import BentoServer
from repro.netsim.bytestream import FramedStream, Framer
from repro.netsim.simulator import Simulator
from repro.tor.stream import TorStream

from conftest import run_thread

MIB = 1 << 20
CELL = 498   # RELAY_DATA_SIZE: what one DATA cell carries

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

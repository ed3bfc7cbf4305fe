"""The receive path against its first form.

``framer_reference`` keeps the queue, framer and ``recv_frame`` the tree
had before a frame's rest was accumulated behind its start, in the
framer's own buffer, and gathered there as each chunk is pushed.  Driven by the same byte schedule, both must return
the same frames, wake their reader the same number of times, time out as
often, and count the same ``bytes_zero_copied``.  ``TestOracleHasTeeth``
shows the property failing on five plausible mistakes.
"""

import pathlib
import random
import sys
import types
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from framer_reference import ReferenceFramedReader, ReferenceRecvQueue
from repro.netsim import bytestream
from repro.netsim.simulator import SimTimeoutError, Simulator, Sleep
from repro.perf.counters import counters
from repro.util.serialization import canonical_encode, leading_leaf

KIB = 1024
BIG = 1024 * KIB
TIMEOUT = 5.0   # the reader's; a stall is longer
STALL = 10.0


class Schedule(NamedTuple):
    frames: list        # what the sender framed, in order
    pushes: list        # (gap before it, chunk) as the stream delivers them
    pause: float        # how long the reader is away after a timeout


def _bento_big() -> bytes:
    """A 1 MiB ``Msg`` body: its payload is a leading leaf, which a Bento
    stream gathers in place."""
    head = canonical_encode({"payload": b"", "rid": 3, "token": "t",
                             "type": "msg"})
    return canonical_encode({"payload": random.Random("big").randbytes(
        BIG - len(head)), "rid": 3, "token": "t", "type": "msg"})


def _schedule(sizes, big_at, cuts, cell, rhythm, stall, pause=0.0,
              bento=False):
    """``sizes`` frames with a 1 MiB one inserted at ``big_at`` (a ``Msg``
    if ``bento``), cut at ``cuts`` and every ``cell`` bytes; the chunk
    ``stall`` of the way into the big frame arrives after a gap longer
    than the reader's timeout, the others after ``rhythm``'s gaps in
    turn."""
    frames = [random.Random(i).randbytes(n) for i, n in enumerate(sizes)]
    frames.insert(big_at, _bento_big() if bento
                  else random.Random("big").randbytes(BIG))
    wire = b"".join(bytestream.Framer.encode(f) for f in frames)
    big_start = sum(4 + len(f) for f in frames[:big_at]) + 4
    stall_at = big_start + int(stall * BIG)
    points = {c for c in cuts if 0 < c < len(wire)} | {stall_at}
    if cell:
        points.update(range(cell, len(wire), cell))
    bounds = [0, *sorted(points), len(wire)]
    pushes = []
    for i, (start, end) in enumerate(zip(bounds, bounds[1:])):
        gap = STALL if start == stall_at else rhythm[i % len(rhythm)]
        pushes.append((gap, wire[start:end]))
    return Schedule(frames, pushes, pause)


@st.composite
def schedules(draw):
    sizes = draw(st.lists(st.integers(0, 64 * KIB), max_size=5))
    wire_size = sum(4 + n for n in sizes) + 4 + BIG
    return _schedule(
        sizes, draw(st.integers(0, len(sizes))),
        draw(st.lists(st.integers(1, wire_size - 1), max_size=24)),
        draw(st.sampled_from([0, 498, 4096])),
        draw(st.lists(st.sampled_from([0.0, 0.01, 1.0]), min_size=1,
                      max_size=6)),
        draw(st.floats(0.001, 0.999)),
        draw(st.sampled_from([0.0, 3.0, STALL])), draw(st.booleans()))


def _back_to_parked_bytes() -> Schedule:
    """A read times out, then one with bytes parks them and times out too;
    the rest of the frame arrives in one chunk while the reader is away."""
    frames = [b"abc", random.Random("big").randbytes(BIG)]
    wire = b"".join(bytestream.Framer.encode(f) for f in frames)
    return Schedule(frames, [(0.0, wire[:100_000]),
                             (1.0, wire[100_000:200_000]),
                             (24.0, wire[200_000:])], pause=10.0)


def _eof_mid_leaf() -> Schedule:
    """The sender goes away a third of the way into a ``Msg``'s payload:
    the frame before it is read, then EOF, and nothing else."""
    frames = [b"abc", _bento_big()]
    wire = b"".join(bytestream.Framer.encode(f) for f in frames)
    cut = 7 + BIG // 3
    pushes = [(0.01, wire[at:min(at + 498, cut)]) for at in range(0, cut, 498)]
    return Schedule(frames[:1], pushes, pause=0.0)


class _QueueStream:
    """The receive side of a byte stream: what a Tor stream delivers."""

    def __init__(self, queue) -> None:
        self._queue = queue

    def recv(self, thread, timeout=None, min_bytes=1, into=None):
        return (yield from self._queue.pop(thread, timeout, min_bytes, into))


def _current(sim):
    queue = bytestream._RecvQueue(sim)
    return queue, bytestream.FramedStream(_QueueStream(queue))


def _split(sim):
    queue = bytestream._RecvQueue(sim)
    return queue, bytestream.FramedStream(_QueueStream(queue),
                                          by_reference=True)


def _reference(sim):
    queue = ReferenceRecvQueue(sim)
    return queue, ReferenceFramedReader(queue)


def _whole(frame) -> bytes:
    """A split frame, ``(rest, leaf)``, as the body it was cut from."""
    if type(frame) is not tuple:
        return frame
    rest, leaf = frame
    at = leading_leaf(rest)
    return rest[:at] + leaf + rest[at:]


def _receive(schedule: Schedule, build) -> dict:
    """Deliver ``schedule`` and read frames until EOF, retrying timeouts."""
    sim = Simulator(seed=1)
    queue, reader = build(sim)
    seen = {"frames": [], "timeouts": 0, "split": 0}

    def read(thread):
        while True:
            try:
                frame = yield from reader.recv_frame(thread, timeout=TIMEOUT)
            except SimTimeoutError:
                seen["timeouts"] += 1
                yield Sleep(schedule.pause)
                continue
            if frame is None:
                return
            seen["split"] += type(frame) is tuple
            seen["frames"].append(_whole(frame))

    counters.reset()
    sim.spawn(read)
    now = 0.0
    for gap, chunk in schedule.pushes:
        now += gap
        sim.post_at(now, queue.push, (chunk,))
    sim.post_at(now + 1.0, queue.push_eof)
    sim.run()
    seen.update(wakes=counters.task_switches,
                zero_copied=counters.bytes_zero_copied)
    return seen


# Twelve 498-byte cells of the big frame arrive together, then the rest
# only after the reader's timeout: the read it interrupts has parked bytes.
@example(_schedule([3, 70_000], 1, [], 498, [0.0] * 12 + [0.01], 0.5))
@example(_back_to_parked_bytes())
# The big frame's 4 KiB cells a second apart: each read gathers four or
# five while it waits, times out mid-gather, and the next resumes with
# them parked, at once or after a pause.
@example(_schedule([], 0, [], 4096, [1.0], 0.5))
@example(_schedule([40], 1, [], 4096, [1.0], 0.5, pause=3.0))
# One cell arrives while the read for the frame's rest waits, nothing
# parked before it: the timeout hands that cell back as it was queued.
@example(_schedule([], 0, [], 4096, [1.0], (8192 - 4) / BIG))
# A Bento stream's reads time out mid-leaf, a second apart, and resume;
# in the second, one times out with the leaf full and its tail begun.
@example(_schedule([], 0, [], 4096, [1.0], 0.5, bento=True))
@example(_schedule([], 0, [], 4096, [1.0], (BIG - 20) / BIG, bento=True))
@example(_schedule([40], 1, [], 4096, [1.0], 0.5, pause=3.0, bento=True))
# EOF a third of the way into a leaf.
@example(_eof_mid_leaf())
# A leaf's last bytes, its frame's tail and the next two frames arrive in
# one chunk (the tail after a 1 MiB Msg's payload is 47 bytes).
@example(_schedule([10, 20], 0, [BIG - 200], 0, [0.0], 0.5, bento=True))
@given(schedules())
@settings(deadline=None)
def test_same_frames_and_wake_ups_for_every_schedule(schedule):
    """A split framer, a Bento stream's, also reads every schedule with the
    same frames, wake-ups and timeouts; its leaves are not counted as
    handed over by reference."""
    current = _receive(schedule, _current)
    assert current["frames"] == schedule.frames
    reference = _receive(schedule, _reference)
    assert current == reference
    split = _receive(schedule, _split)
    assert split["split"] == sum(1 for f in schedule.frames
                                 if leading_leaf(f) > 0)
    del split["zero_copied"], reference["zero_copied"]
    assert split == {**reference, "split": split["split"]}


def _mutant(old: str, new: str) -> types.ModuleType:
    """``repro.netsim.bytestream`` with ``old`` (which must occur) replaced
    by ``new``."""
    source = pathlib.Path(bytestream.__file__).read_text()
    assert old in source, old
    module = types.ModuleType("bytestream_mutant")
    exec(compile(source.replace(old, new), "<mutant>", "exec"),
         module.__dict__)
    return module


class TestOracleHasTeeth:
    """Each mutant makes the property above, exactly as written, fail."""

    @pytest.fixture()
    def fails_under(self, monkeypatch):
        def check(old: str, new: str) -> None:
            monkeypatch.setattr(sys.modules[__name__], "bytestream",
                                _mutant(old, new))
            with pytest.raises((AssertionError, ExceptionGroup)) as failed:
                test_same_frames_and_wake_ups_for_every_schedule()
            if isinstance(failed.value, ExceptionGroup):
                assert failed.value.split(AssertionError)[1] is None
        return check

    def test_dropping_a_timed_out_reads_parked_bytes_is_caught(
            self, fails_under):
        fails_under("                except SimTimeoutError:\n",
                    "                except SimTimeoutError:\n"
                    "                    del buffer[base:mark]\n"
                    "                    mark = base\n")

    def test_a_by_reference_read_over_parked_bytes_is_caught(
            self, fails_under):
        """Counts, not frames, differ: the chunk is counted as handed over
        by reference where the first form appended it to parked bytes."""
        fails_under("if not self._parked and len(chunks) == 1",
                    "if not self._pending and len(chunks) == 1")

    def test_keeping_what_a_timed_out_read_gathered_is_caught(
            self, fails_under):
        fails_under("                    if len(buffer) > mark:\n",
                    "                    if False:\n")

    def test_gathering_after_a_timeout_is_caught(self, fails_under):
        fails_under("                finally:\n"
                    "                    self._put = chunks.append\n",
                    "                else:\n"
                    "                    self._put = chunks.append\n")

    def test_a_header_offset_off_by_one_is_caught(self, fails_under):
        fails_under("frames.append(bytes(view[offset + header_size:end]))",
                    "frames.append(bytes(view[offset + header_size + 1:end]))")

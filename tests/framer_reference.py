"""The receive path as it was before frames were assembled in one buffer,
kept as the oracle the framer in :mod:`repro.netsim.bytestream` is held to
(``tests/test_framer_oracle.py``): the same frames for any byte schedule,
after the same number of reader wake-ups.  Do not optimise this file.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Optional

from repro.netsim.simulator import Actor, Future, Wait
from repro.obs.metrics import REGISTRY as _metrics

_BYTES_ZERO_COPIED = _metrics.counter("bytes_zero_copied")


class ReferenceRecvQueue:
    """Shared receive-side machinery: a queue of byte chunks + EOF flag.

    Large reads (``min_bytes > 1``) accumulate into a single persistent
    :class:`bytearray` as chunks arrive, instead of re-joining the whole
    deque once at the end — a read interrupted by a timeout keeps its
    partial bytes buffered, and each chunk is copied exactly once.
    """

    def __init__(self, sim) -> None:
        self._sim = sim
        self._chunks: deque[bytes] = deque()
        self._size = 0
        self._target = 1
        self._eof = False
        self._waiter: Optional[Future] = None
        self._pending = bytearray()   # partially accumulated large read

    def push(self, data: bytes) -> None:
        """Queue received bytes for the reader."""
        self._chunks.append(data)
        self._size += len(data)
        if self._size >= self._target:
            self._wake()

    def push_eof(self) -> None:
        """Mark end-of-stream; blocked readers wake with b''."""
        self._eof = True
        self._wake()

    def _wake(self) -> None:
        if self._waiter is not None and not self._waiter.done:
            self._waiter.resolve(None)

    def pop(self, thread: Actor, timeout: Optional[float],
            min_bytes: int = 1) -> bytes:
        """Block until ``min_bytes`` bytes (or EOF) are available.

        With the default ``min_bytes=1`` this returns exactly one queued
        chunk (preserving message boundaries for legacy callers).  With a
        larger hint, the reader only wakes once enough bytes are buffered
        and receives them as one bytes-like object — on a multi-megabyte
        transfer that removes one actor wake-up per network chunk.
        """
        if min_bytes > 1:
            chunks = self._chunks
            pending = self._pending
            if not pending and len(chunks) == 1 and self._size >= min_bytes:
                # A single buffered chunk satisfies the read: hand it over
                # by reference instead of round-tripping it through the
                # accumulation buffer.
                self._size = 0
                data = chunks.popleft()
                _BYTES_ZERO_COPIED.value += len(data)
                return data
            while True:
                while chunks:
                    pending += chunks.popleft()
                self._size = 0
                if len(pending) >= min_bytes or self._eof:
                    break
                self._target = min_bytes - len(pending)
                self._waiter = Future(self._sim)
                # A timeout propagates from here with the accumulated
                # bytes safely parked in self._pending for the next read.
                yield Wait(self._waiter, timeout)
                self._waiter = None
            self._target = 1
            if not pending:
                return b""  # EOF
            self._pending = bytearray()
            return pending
        if self._pending:
            # A timed-out large read left coalesced bytes behind; serve
            # them first (their original chunk boundaries are gone).
            data = self._pending
            self._pending = bytearray()
            return data
        while not self._chunks and not self._eof:
            self._waiter = Future(self._sim)
            yield Wait(self._waiter, timeout)
            self._waiter = None
        if self._chunks:
            data = self._chunks.popleft()
            self._size -= len(data)
            return data
        return b""  # EOF


class ReferenceFramer:
    """Length-prefixed message framing over a byte pipe.

    Stateless encode plus a stateful decoder that tolerates frames split
    across arbitrary chunk boundaries.
    """

    _HEADER = struct.Struct(">I")
    MAX_FRAME = 256 * 1024 * 1024

    def __init__(self) -> None:
        self._buffer = bytearray()

    @classmethod
    def encode(cls, frame: bytes) -> bytes:
        """Prefix ``frame`` with its 4-byte big-endian length."""
        if len(frame) > cls.MAX_FRAME:
            raise ValueError("frame too large")
        return cls._HEADER.pack(len(frame)) + frame

    def feed(self, data: bytes) -> list[bytes]:
        """Add received bytes; return all frames completed by them."""
        header_size = self._HEADER.size
        if not self._buffer:
            # Fast path: slice complete frames straight out of ``data``
            # through a memoryview; only a trailing partial frame is
            # copied into the reassembly buffer.
            view = memoryview(data)
            total = len(view)
            frames: list[bytes] = []
            offset = 0
            while total - offset >= header_size:
                (length,) = self._HEADER.unpack_from(view, offset)
                if length > self.MAX_FRAME:
                    raise ValueError("incoming frame exceeds maximum size")
                end = offset + header_size + length
                if end > total:
                    break
                frames.append(bytes(view[offset + header_size:end]))
                offset = end
            if offset < total:
                self._buffer.extend(view[offset:])
            if offset:
                _BYTES_ZERO_COPIED.value += offset
            return frames
        self._buffer.extend(data)
        frames = []
        while True:
            if len(self._buffer) < header_size:
                break
            (length,) = self._HEADER.unpack_from(self._buffer, 0)
            if length > self.MAX_FRAME:
                raise ValueError("incoming frame exceeds maximum size")
            end = header_size + length
            if len(self._buffer) < end:
                break
            frames.append(bytes(self._buffer[header_size:end]))
            del self._buffer[:end]
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._buffer)

    @property
    def needed_bytes(self) -> int:
        """How many more bytes must arrive to complete the current frame.

        Used as a ``min_bytes`` receive hint.  Always at least 1; once the
        header is buffered, this knows the full frame length.
        """
        buffered = len(self._buffer)
        if buffered < self._HEADER.size:
            return self._HEADER.size - buffered
        (length,) = self._HEADER.unpack_from(self._buffer, 0)
        if length > self.MAX_FRAME:
            return 1  # feed() will raise on the next chunk regardless
        return max(1, self._HEADER.size + length - buffered)


class ReferenceFramedReader:
    """``FramedStream``'s receive half, over a :class:`ReferenceRecvQueue`."""

    def __init__(self, queue: ReferenceRecvQueue) -> None:
        self._queue = queue
        self._framer = ReferenceFramer()
        self._ready: list[bytes] = []

    def recv_frame(self, thread: Actor,
                   timeout: Optional[float] = None) -> Optional[bytes]:
        """Block until one complete frame arrives; ``None`` on EOF."""
        if self._ready:
            return self._ready.pop(0)
        while True:
            data = yield from self._queue.pop(thread, timeout,
                                              self._framer.needed_bytes)
            if data == b"":
                return None
            frames = self._framer.feed(data)
            if frames:
                self._ready.extend(frames[1:])
                return frames[0]

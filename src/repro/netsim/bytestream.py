"""Byte-stream abstraction and framing.

Tor streams and direct TCP connections both present the same interface to
applications: an ordered, reliable byte pipe.  :class:`ByteStream` is that
interface; :class:`DirectByteStream` implements it over a plain
:class:`~repro.netsim.connection.Connection`, and
:class:`~repro.tor.stream.TorStream` implements it over a circuit.  The
HTTP layer and all Bento wire traffic run over either, unchanged — which is
what lets an exit node splice streams without understanding the protocol
inside them.

:class:`Framer` provides length-prefixed message framing on top of a byte
pipe.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Optional, Protocol

from repro.netsim.connection import Connection, ConnectionClosed
from repro.netsim.node import Node
from repro.netsim.simulator import Actor, Future, Wait
from repro.obs.metrics import REGISTRY as _metrics

# Cached registry handle (the registry resets in place, so this survives).
_BYTES_ZERO_COPIED = _metrics.counter("bytes_zero_copied")


class ByteStream(Protocol):
    """An ordered, reliable, bidirectional byte pipe."""

    def send(self, data: bytes) -> None:
        """Queue bytes for the peer."""
        ...  # pragma: no cover - protocol stub

    def recv(self, thread: Actor, timeout: Optional[float] = None,
             min_bytes: int = 1) -> bytes:
        """Block until at least ``min_bytes`` bytes (or EOF) arrive.

        ``b''`` signals EOF.  ``min_bytes`` is a wake-up hint: readers that
        know how many bytes they need (e.g. a framer mid-frame) avoid one
        wake-per-chunk on large transfers.  Implementations may return
        fewer bytes at EOF.
        """
        ...  # pragma: no cover - protocol stub

    def close(self) -> None:
        """Close the pipe in both directions."""
        ...  # pragma: no cover - protocol stub


class StreamClosed(ConnectionClosed):
    """Raised when sending on a closed byte stream."""


class _RecvQueue:
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


class DirectByteStream:
    """A :class:`ByteStream` over a plain network connection."""

    def __init__(self, conn: Connection, local: Node) -> None:
        self.conn = conn
        self.local = local
        self._recv = _RecvQueue(conn.sim)
        endpoint = conn.endpoint_of(local)
        endpoint.on_message = self._on_message
        endpoint.on_close = lambda _conn: self._recv.push_eof()

    def _on_message(self, _conn: Connection, payload: object, _size: int) -> None:
        if isinstance(payload, bytes):
            # Immutable payloads queue by reference — no per-hop copy.
            self._recv.push(payload)
            _BYTES_ZERO_COPIED.value += len(payload)
        elif isinstance(payload, (bytearray, memoryview)):
            self._recv.push(bytes(payload))

    def send(self, data: bytes) -> None:
        """Send bytes to the peer."""
        if self.conn.closed:
            raise StreamClosed("send on closed stream")
        if data:
            self.conn.send(self.local,
                           data if isinstance(data, bytes) else bytes(data))

    def recv(self, thread: Actor, timeout: Optional[float] = None,
             min_bytes: int = 1) -> bytes:
        """Block until ``min_bytes`` bytes arrive; b'' at EOF."""
        return (yield from self._recv.pop(thread, timeout, min_bytes))

    def close(self) -> None:
        """Close the stream/connection."""
        self.conn.close()

    @property
    def closed(self) -> bool:
        """Whether the underlying connection has closed."""
        return self.conn.closed


class Framer:
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


class FramedStream:
    """Message-oriented view of a byte stream (length-prefixed frames).

    ``on_frame`` is an optional accounting tap: when set, it is called
    with each outgoing frame's payload length before the frame hits the
    stream.  The serving plane uses it to meter per-connection egress for
    fair scheduling.  It must never sleep or raise — pacing decisions are
    made elsewhere (at the API gate), keeping this off the per-byte path.
    """

    def __init__(self, stream: ByteStream, on_frame=None) -> None:
        self.stream = stream
        self.on_frame = on_frame
        self._framer = Framer()
        self._ready: list[bytes] = []

    def send_frame(self, frame: bytes) -> None:
        """Send one frame."""
        if self.on_frame is not None:
            self.on_frame(len(frame))
        self.stream.send(Framer.encode(frame))

    def recv_frame(self, thread: Actor,
                   timeout: Optional[float] = None) -> Optional[bytes]:
        """Block until one complete frame arrives; ``None`` on EOF."""
        if self._ready:
            return self._ready.pop(0)
        while True:
            data = yield from self.stream.recv(
                thread, timeout=timeout,
                min_bytes=self._framer.needed_bytes)
            if data == b"":
                return None
            frames = self._framer.feed(data)
            if frames:
                self._ready.extend(frames[1:])
                return frames[0]

    def close(self) -> None:
        """Close the underlying stream."""
        self.stream.close()

    @property
    def closed(self) -> bool:
        """Whether the underlying stream has closed (best effort)."""
        return bool(getattr(self.stream, "closed", False))

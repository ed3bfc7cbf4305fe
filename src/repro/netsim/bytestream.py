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
pipe.  A frame costs one full-size buffer while it arrives (a reader gathers
its rest behind its start) and one copy out of that buffer; on a Bento
stream a bulk frame's payload is gathered straight into the object it ends
up as, and sent as the pieces it was encoded as.
"""

from __future__ import annotations

import struct
from collections import deque
from typing import Optional, Protocol

from repro.netsim.connection import Connection, ConnectionClosed
from repro.netsim.node import Node
from repro.netsim.simulator import Actor, Future, SimTimeoutError, Wait
from repro.obs.metrics import REGISTRY as _metrics
from repro.util.bytesutil import fill_view, new_bytes
from repro.util.serialization import BY_REFERENCE, leading_leaf

# Bytes handed over by reference; cached (the registry resets in place).
_BYTES_ZERO_COPIED = _metrics.counter("bytes_zero_copied")


class ByteStream(Protocol):
    """An ordered, reliable, bidirectional byte pipe."""

    def send(self, *pieces: bytes) -> None:
        """Queue bytes for the peer: one message, whole or as the pieces it
        joins from (a bulk frame's pieces, handed on by reference)."""
        ...  # pragma: no cover - protocol stub

    def recv(self, thread: Actor, timeout: Optional[float] = None,
             min_bytes: int = 1, into: Optional[bytearray] = None) -> bytes:
        """Block until at least ``min_bytes`` bytes (or EOF) arrive.

        ``b''`` signals EOF.  ``min_bytes`` is a wake-up hint: readers that
        know how many bytes they need (e.g. a framer mid-frame) avoid one
        wake-per-chunk on large transfers.  Implementations may return
        fewer bytes at EOF, and a large read may gather in ``into``.
        """
        ...  # pragma: no cover - protocol stub

    def close(self) -> None:
        """Close the pipe in both directions."""
        ...  # pragma: no cover - protocol stub


class StreamClosed(ConnectionClosed):
    """Raised when sending on a closed byte stream."""


def frozen(pieces: tuple) -> tuple:
    """``pieces`` as ``bytes``: a caller's buffer may change after a send."""
    for piece in pieces:
        if type(piece) is not bytes:
            return tuple(p if type(p) is bytes else bytes(p) for p in pieces)
    return pieces


class _RecvQueue:
    """Shared receive-side machinery: a queue of byte chunks + EOF flag.

    A large read (``min_bytes > 1``) gathers into one :class:`bytearray`,
    and while it waits :meth:`push` appends each chunk there: a multi-MiB
    frame is never also held as thousands of queued cells.  A timed-out
    read keeps its earlier bytes parked there and re-queues the rest.
    """

    def __init__(self, sim) -> None:
        self._sim = sim
        self._chunks: deque[bytes] = deque()
        self._size = 0
        self._target = 1
        self._eof = False
        self._waiter: Optional[Future] = None
        self._pending = bytearray()   # partially accumulated large read
        self._parked = False          # a timed-out large read left bytes
        self._put = self._chunks.append   # or a waiting large read's extend

    def push(self, data: bytes) -> None:
        """Queue received bytes, or gather them into the waiting read."""
        self._put(data)
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
            min_bytes: int = 1, into: Optional[bytearray] = None) -> bytes:
        """Block until ``min_bytes`` bytes (or EOF) are available.

        With the default ``min_bytes=1`` this returns exactly one queued
        chunk (preserving message boundaries for legacy callers).  With a
        larger hint, the reader only wakes once enough bytes are buffered
        and receives them as one bytes-like object — on a multi-megabyte
        transfer that removes one actor wake-up per network chunk.
        Given ``into`` (a framer's buffer), a large read gathers there and
        returns it (``b''`` at EOF if it added nothing); a timeout parks.
        """
        if min_bytes > 1:
            chunks = self._chunks
            if not self._parked and len(chunks) == 1 and self._size >= min_bytes:
                # A single buffered chunk satisfies the read: hand it over
                # by reference instead of round-tripping it through the
                # accumulation buffer.
                self._size = 0
                data = chunks.popleft()
                _BYTES_ZERO_COPIED.value += len(data)
                return data
            buffer, base = (self._pending, 0) if into is None else (into, len(into))
            while True:
                while chunks:
                    buffer.extend(chunks.popleft())
                self._size = 0
                got = len(buffer) - base
                if got >= min_bytes or self._eof:
                    break
                self._target = min_bytes - got
                self._waiter = Future(self._sim)
                # A timeout propagates from here, the bytes read so far
                # parked in the buffer for the next read; those pushed into
                # it while the read waited are queued again, as one chunk.
                self._parked = got > 0
                self._put, mark = buffer.extend, len(buffer)
                try:
                    yield Wait(self._waiter, timeout)
                except SimTimeoutError:
                    if len(buffer) > mark:
                        chunks.append(bytes(buffer[mark:]))
                        del buffer[mark:]
                    raise
                finally:
                    self._put = chunks.append
                self._waiter = None
            self._target = 1
            self._parked = False
            if not got:
                return b""  # EOF
            if into is None:
                self._pending = bytearray()
            return buffer
        if self._pending:
            # A timed-out large read left coalesced bytes behind; serve
            # them first (their original chunk boundaries are gone).
            data = self._pending
            self._pending = bytearray()
            self._parked = False
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
        elif type(payload) is tuple:  # one message, sent as its pieces
            self._recv.push(b"".join(payload))
        elif isinstance(payload, (bytearray, memoryview)):
            self._recv.push(bytes(payload))

    def send(self, *pieces: bytes) -> None:
        """Send bytes to the peer: pieces leave as one message, by reference."""
        if self.conn.closed:
            raise StreamClosed("send on closed stream")
        pieces = frozen(pieces)
        if any(pieces):
            self.conn.send(self.local, pieces if len(pieces) > 1 else pieces[0],
                           size=sum(map(len, pieces)))

    def recv(self, thread: Actor, timeout: Optional[float] = None,
             min_bytes: int = 1, into: Optional[bytearray] = None) -> bytes:
        """Block until ``min_bytes`` bytes arrive; b'' at EOF."""
        return (yield from self._recv.pop(thread, timeout, min_bytes, into))

    def close(self) -> None:
        """Close the stream/connection."""
        self.conn.close()

    @property
    def closed(self) -> bool:
        """Whether the underlying connection has closed."""
        return self.conn.closed


class _Gather:
    """A frame's bulk leaf, gathered through one writable view into
    ``leaf``, the ``bytes`` object the decoded frame will hold; what follows
    it goes on into ``rest``, the framer's buffer, behind the frame's head.
    To :meth:`_RecvQueue.pop` it is the bytearray a read gathers into."""

    __slots__ = ("leaf", "_view", "_filled", "_rest", "_base")

    def __init__(self, rest: bytearray, base: int, stop: int) -> None:
        self.leaf = new_bytes(None, stop - base)
        self._view, self._filled = fill_view(self.leaf), 0
        self._rest, self._base = rest, base
        there = rest[base:]  # the leaf's first bytes
        del rest[base:]
        self.extend(there)

    def __len__(self) -> int:
        return len(self._rest) + self._filled

    def extend(self, data) -> None:
        filled = self._filled
        end = filled + len(data)
        if end <= len(self.leaf):
            self._view[filled:end] = data
            self._filled = end
        else:
            room = len(self.leaf) - filled
            with memoryview(data) as src:
                self._view[filled:] = src[:room]
                self._rest += src[room:]
            self._filled += room

    # ``[mark:]``: what a read gathered since ``mark``, to read or take back.
    def _at(self, mark: int) -> tuple[int, int]:
        at = mark - self._base
        return (at, self._base) if at <= self._filled else (
            self._filled, self._base + at - self._filled)

    def __getitem__(self, span: slice) -> bytes:
        at, rest_at = self._at(span.start)
        return bytes(self._view[at:self._filled]) + self._rest[rest_at:]

    def __delitem__(self, span: slice) -> None:
        self._filled, rest_at = self._at(span.start)
        del self._rest[rest_at:]


class Framer:
    """Length-prefixed message framing over a byte pipe.

    Stateless encode plus a stateful decoder that tolerates frames split
    across arbitrary chunk boundaries.  A ``by_reference`` framer hands a
    frame whose :func:`~repro.util.serialization.leading_leaf` is there as
    ``(rest, leaf)``: the leaf gathered straight into the ``bytes`` object
    it will be, the rest of the frame around it copied out as before.
    """

    _HEADER = struct.Struct(">I")
    MAX_FRAME = 256 * 1024 * 1024

    def __init__(self, by_reference: bool = False) -> None:
        self._buffer = bytearray()
        self._by_reference = by_reference
        self._gather: Optional[_Gather] = None

    @classmethod
    def length(cls, size: int) -> bytes:
        """The 4-byte length prefix of a ``size``-byte frame."""
        if size > cls.MAX_FRAME:
            raise ValueError("frame too large")
        return cls._HEADER.pack(size)

    @classmethod
    def encode(cls, *pieces: bytes) -> bytes:
        """Join ``pieces``, one frame, behind its 4-byte length: one copy."""
        return b"".join((cls.length(sum(map(len, pieces))), *pieces))

    def feed(self, data: bytes) -> list:
        """Add received bytes; return all frames completed by them.  ``data``
        may be the buffer (or leaf) a reader appended to in place."""
        header_size = self._HEADER.size
        buffer = self._buffer
        frames: list = []
        gather = self._gather
        if gather is not None:
            if data is not gather:
                gather.extend(data)
            cut = header_size + self._HEADER.unpack_from(buffer)[0]
            if len(gather) < cut:
                return frames
            cut -= len(gather.leaf)
            frames.append((bytes(buffer[header_size:cut]), gather.leaf))
            self._gather = None
            del buffer[:cut]
            if not buffer:
                return frames
            data = buffer
        fresh = not buffer
        if not fresh and data is not buffer:
            buffer += data
        offset = 0
        # Bodies are copied once, out of a view: of ``data`` if it is fresh.
        with memoryview(data if fresh else buffer) as view:
            total = len(view)
            while total - offset >= header_size:
                (length,) = self._HEADER.unpack_from(view, offset)
                if length > self.MAX_FRAME:
                    raise ValueError("incoming frame exceeds maximum size")
                end = offset + header_size + length
                if end > total:
                    break
                if leaf := self._leaf(view, offset + header_size, end):
                    at, stop = leaf
                    frames.append((b"".join((view[offset + header_size:at],
                                             view[stop:end])),
                                   bytes(view[at:stop])))
                else:
                    frames.append(bytes(view[offset + header_size:end]))
                offset = end
            if fresh:
                buffer += view[offset:]
        if fresh:
            _BYTES_ZERO_COPIED.value += offset
        else:
            del buffer[:offset]
        if len(buffer) > header_size and (leaf := self._leaf(
                buffer, header_size,
                header_size + self._HEADER.unpack_from(buffer)[0])):
            self._gather = _Gather(buffer, *leaf)
        return frames

    def _leaf(self, data, start: int, end: int) -> Optional[tuple[int, int]]:
        """The span of ``data`` that the leading leaf of the frame body
        ``data[start:end]`` fills, if this framer splits and it has one."""
        at = (self._by_reference and end - start > BY_REFERENCE
              and leading_leaf(data, start))
        if at:
            at += start
            stop = at + int.from_bytes(data[at - 4:at], "big")
            if stop <= end:
                return at, stop
        return None

    @property
    def _into(self):
        """What a read for the current frame's rest gathers into."""
        return self._gather if self._gather is not None else self._buffer

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered but not yet forming a complete frame."""
        return len(self._into)

    @property
    def needed_bytes(self) -> int:
        """How many more bytes must arrive to complete the current frame.

        Used as a ``min_bytes`` receive hint.  Always at least 1; once the
        header is buffered, this knows the full frame length.
        """
        buffered = len(self._into)
        if buffered < self._HEADER.size:
            return self._HEADER.size - buffered
        (length,) = self._HEADER.unpack_from(self._buffer, 0)
        if length > self.MAX_FRAME:
            return 1  # feed() will raise on the next chunk regardless
        return max(1, self._HEADER.size + length - buffered)


class FramedStream:
    """Message-oriented view of a byte stream (length-prefixed frames).

    ``by_reference`` (a Bento stream's canonical frames) hands a bulk frame
    on by reference both ways: it leaves as the pieces it is given, and
    arrives split as :class:`Framer` says."""

    def __init__(self, stream: ByteStream, by_reference: bool = False) -> None:
        self.stream = stream
        self._framer = Framer(by_reference)
        self._ready: list = []

    def send_frame(self, *pieces: bytes) -> None:
        """Send one frame, given whole or as the pieces it joins from."""
        size = sum(map(len, pieces))
        if size >= BY_REFERENCE and self._framer._by_reference:
            self.stream.send(Framer.length(size), *pieces)
        else:
            self.stream.send(Framer.encode(*pieces))

    def recv_frame(self, thread: Actor, timeout: Optional[float] = None):
        """Block until one complete frame arrives; ``None`` on EOF.  On a
        ``by_reference`` stream it may be ``(rest, leaf)`` (:class:`Framer`)."""
        if self._ready:
            return self._ready.pop(0)
        framer = self._framer
        while True:
            # Mid-frame, the rest of the frame accumulates behind its start.
            into = framer._into
            data = yield from self.stream.recv(
                thread, timeout=timeout, min_bytes=framer.needed_bytes,
                into=into if into else None)
            if data == b"":
                return None
            frames = framer.feed(data)
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

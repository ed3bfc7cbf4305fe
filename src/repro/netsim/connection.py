"""Reliable, ordered, message-oriented connections.

A :class:`Connection` models a TCP (or TLS) connection between two nodes.
Messages are Python objects with an explicit wire size; large messages are
chunked through the sender's uplink and the receiver's downlink so that
concurrent connections share bandwidth fairly.  An optional *windowed* send
models TCP slow start, which is what makes small transfers RTT-bound — the
effect behind Table 2's "Browser beats standard Tor on small pages" result.

There is one link model: every chunk of every message is its own
:meth:`~repro.netsim.interface.Interface.transmit` on each interface it
crosses, and :func:`pace_chunks` starts a message's next chunk only when
the uplink's busy horizon reaches it, so whatever else wants the interface
in the meantime queues between the chunks rather than behind the message.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Optional

from repro.netsim.interface import Interface
from repro.netsim.node import Node
from repro.netsim.simulator import Future, Simulator, Wait
from repro.obs.span import TRACER as _obs

# Chunk size for interleaving concurrent flows on an interface.  Small
# messages (e.g. 514-byte Tor cells) are never split.
DEFAULT_CHUNK = 4096

MessageHandler = Callable[["Connection", Any, int], None]
CloseHandler = Callable[["Connection"], None]


class ConnectionClosed(Exception):
    """Raised when sending on (or waiting to receive from) a closed connection."""


def _message_size(payload: Any, size: Optional[int]) -> int:
    """Wire size of a payload: explicit ``size``, or ``len`` for bytes."""
    if size is not None:
        return int(size)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    raise TypeError("non-bytes payloads need an explicit size")


class Endpoint:
    """One side's view of a connection: handlers plus a receive queue."""

    __slots__ = ("on_message", "on_close", "_queue", "_waiter", "_sim",
                 "_closed")

    def __init__(self, sim: Simulator) -> None:
        self.on_message: Optional[MessageHandler] = None
        self.on_close: Optional[CloseHandler] = None
        self._queue: deque[tuple[Any, int]] = deque()
        self._waiter: Optional[Future] = None
        self._sim = sim
        self._closed = False

    def _deliver(self, conn: "Connection", payload: Any, size: int) -> None:
        if self.on_message is not None:
            self.on_message(conn, payload, size)
            return
        self._queue.append((payload, size))
        if self._waiter is not None and not self._waiter.done:
            self._waiter.resolve(None)

    def _notify_close(self, conn: "Connection") -> None:
        self._closed = True
        if self._waiter is not None and not self._waiter.done:
            self._waiter.resolve(None)
        if self.on_close is not None:
            self.on_close(conn)

    def receive(self, conn: "Connection", timeout: Optional[float] = None) -> Any:
        """Block (in an actor) until a message is queued; return its payload.

        Drain-then-raise: queued messages stay readable after ``conn``
        closes, and :class:`ConnectionClosed` is raised only once the
        queue is empty.
        """
        if self.on_message is not None:
            raise RuntimeError("endpoint already has an on_message handler")
        queue = self._queue
        while not queue:
            if self._closed or conn.closed:
                raise ConnectionClosed("connection closed while receiving")
            self._waiter = Future(self._sim)
            yield Wait(self._waiter, timeout)
            self._waiter = None
        return queue.popleft()[0]


def pace_chunks(sim: Simulator, uplink: Interface, chunk_size: int,
                remaining: int, put: Callable[[int, bool], None],
                on_sent: Optional[Callable[[], None]]) -> None:
    """Serialize the next chunk of a multi-chunk message; pace the rest.

    ``put(chunk, final)`` is the caller's one ``uplink.transmit`` for the
    chunk, carrying its own "chunk left the uplink" callback; only the
    final chunk hands the payload on.  The next chunk is posted at the
    uplink's busy horizon, not at ``now``: that gap is where concurrent
    flows get their turn on the interface, instead of one message
    claiming the line for its whole length.  ``on_sent`` fires when the
    last chunk has been serialized.
    """
    if remaining > chunk_size:
        put(chunk_size, False)
        sim.post_at(uplink._busy_until, pace_chunks,
                    (sim, uplink, chunk_size, remaining - chunk_size, put,
                     on_sent))
    else:
        put(remaining, True)
        if on_sent is not None:
            sim.post_at(uplink._busy_until, on_sent)


class Connection:
    """A bidirectional reliable channel between two nodes.

    Create via :meth:`repro.netsim.network.Network.connect` (which models
    the connection-establishment round trip) rather than directly.
    """

    def __init__(self, sim: Simulator, initiator: Node, responder: Node,
                 latency_s: float, chunk_size: int = DEFAULT_CHUNK) -> None:
        self.sim = sim
        self.initiator = initiator
        self.responder = responder
        self.latency = latency_s
        self.chunk_size = chunk_size
        self.closed = False
        self._endpoints = {initiator.name: Endpoint(sim), responder.name: Endpoint(sim)}
        self._peers = {initiator.name: responder, responder.name: initiator}
        self.bytes_sent = {initiator.name: 0, responder.name: 0}
        initiator.connections[self] = None
        responder.connections[self] = None
        log = _obs.log
        if log is not None:
            self._span = log.begin_span(
                "netsim.connection", sim.now, track=initiator.name,
                initiator=initiator.name, responder=responder.name)
        else:
            self._span = None

    # -- wiring ---------------------------------------------------------

    def endpoint_of(self, node: Node) -> Endpoint:
        """The endpoint owned by ``node`` (KeyError for strangers)."""
        return self._endpoints[node.name]

    def peer_of(self, node: Node) -> Node:
        """The node on the other side."""
        try:
            return self._peers[node.name]
        except KeyError:
            raise KeyError(
                f"{node.name} is not an endpoint of this connection") from None

    @property
    def rtt(self) -> float:
        """Round-trip propagation time of this connection."""
        return 2.0 * self.latency

    # -- sending ----------------------------------------------------------

    def send(self, sender: Node, payload: Any, size: Optional[int] = None,
             on_sent: Optional[Callable[[], None]] = None) -> None:
        """Send ``payload`` from ``sender`` to the peer.

        ``size`` defaults to ``len(payload)`` for byte strings.  The payload
        is delivered to the peer endpoint after serialization through both
        interfaces plus propagation latency.  ``on_sent`` fires when the
        sender's uplink has finished serializing (used for backpressure).
        """
        if self.closed:
            raise ConnectionClosed(f"send on closed connection {self!r}")
        receiver = self._peers[sender.name]
        if size is not None:
            nbytes = size
        elif isinstance(payload, (bytes, bytearray)):
            nbytes = len(payload)
        else:
            raise TypeError("non-bytes payloads need an explicit size")
        self.bytes_sent[sender.name] += nbytes
        if nbytes <= self.chunk_size:
            # Single chunk (every Tor cell): no pacing events needed.
            finish = sender.uplink.transmit(
                nbytes, self._chunk_arrived, self.latency,
                (receiver, payload, nbytes, nbytes))
            if on_sent is not None:
                self.sim.post_at(finish, on_sent)
            return
        self._send_chunked(sender.uplink, receiver, payload, nbytes, on_sent)

    def _send_chunked(self, uplink: Interface, receiver: Node, payload: Any,
                      nbytes: int, on_sent: Optional[Callable[[], None]]) -> None:
        """Multi-chunk message: chunk by chunk behind the uplink's horizon."""

        def put(chunk: int, final: bool) -> None:
            # self.latency is read per chunk: a latency spike applies to
            # what a message in flight has still to send.
            if final:
                uplink.transmit(chunk, self._chunk_arrived, self.latency,
                                (receiver, payload, nbytes, chunk))
            else:
                uplink.transmit(chunk, receiver.downlink.transmit,
                                self.latency, (chunk,))

        pace_chunks(self.sim, uplink, self.chunk_size, nbytes, put, on_sent)

    def _chunk_arrived(self, receiver: Node, payload: Any, nbytes: int,
                       chunk: int) -> None:
        """Final chunk reached the receiver: serialize down, then deliver."""
        receiver.downlink.transmit(chunk, self._deliver, 0.0,
                                   (receiver, payload, nbytes))

    def _deliver(self, receiver: Node, payload: Any, size: int) -> None:
        if self.closed:
            return
        self._endpoints[receiver.name]._deliver(self, payload, size)

    # -- receiving (blocking style, for actors) ----------------------------

    def receive(self, node: Node, thread, timeout: Optional[float] = None) -> Any:
        """Block (in an actor) until a message for ``node`` arrives."""
        return self._endpoints[node.name].receive(self, timeout)

    # -- teardown -----------------------------------------------------------

    def close(self) -> None:
        """Close both directions (drain-then-raise semantics).

        Messages already delivered to an endpoint's queue remain readable:
        :meth:`receive` keeps returning them after close and raises
        :class:`ConnectionClosed` only once the queue is empty.  Messages
        still serializing on the wire when close happens are dropped at
        delivery time.  Blocked receivers are woken immediately.
        """
        if self.closed:
            return
        self.closed = True
        self.initiator.connections.pop(self, None)
        self.responder.connections.pop(self, None)
        if self._span is not None:
            self._span.end(self.sim.now,
                           bytes_initiator=self.bytes_sent[self.initiator.name],
                           bytes_responder=self.bytes_sent[self.responder.name])
        for node in (self.initiator, self.responder):
            self._endpoints[node.name]._notify_close(self)

    def abort(self) -> None:
        """Hard teardown for fault injection: :meth:`close`, marked on the span.

        What is still on the wire is dropped at delivery time, as for any
        close.  ``on_sent`` events stay scheduled: the sender's NIC did
        serialize those bytes, and backpressure waiters must wake.
        """
        if self.closed:
            return
        if self._span is not None:
            self._span.annotate(aborted=True)
        self.close()

    def __repr__(self) -> str:
        return f"<Connection {self.initiator.name}<->{self.responder.name}>"


class LoopbackConnection:
    """A connection from a node to itself (e.g. an exit relay dialing the
    Bento server on its own machine).

    A normal :class:`Connection` keys endpoints by node name, which
    collapses for loopback; instead, :meth:`create` returns two *sides*,
    each presenting the Connection interface with its own endpoint.
    Loopback transfers skip the interface queues (the kernel does not put
    localhost traffic on the NIC) and arrive after a negligible delay.
    """

    LOOPBACK_DELAY = 1e-5

    @classmethod
    def create(cls, sim: Simulator, node: Node
               ) -> tuple["LoopbackConnection", "LoopbackConnection"]:
        """Two connected sides for one loopback connection."""
        a = cls(sim, node)
        b = cls(sim, node)
        a._peer = b
        b._peer = a
        return a, b

    def __init__(self, sim: Simulator, node: Node) -> None:
        self.sim = sim
        self.initiator = node
        self.responder = node
        self.latency = self.LOOPBACK_DELAY
        self.closed = False
        self._endpoint = Endpoint(sim)
        self._peer: Optional["LoopbackConnection"] = None
        node.connections[self] = None

    @property
    def rtt(self) -> float:
        """Round-trip propagation time."""
        return 2.0 * self.latency

    def endpoint_of(self, _node: Node) -> Endpoint:
        """This side's endpoint (loopback: each side has its own)."""
        return self._endpoint

    def peer_of(self, node: Node) -> Node:
        """The node on the other side (itself, for loopback)."""
        return node

    def send(self, _sender: Node, payload: Any, size: Optional[int] = None,
             on_sent: Optional[Callable[[], None]] = None) -> None:
        """Send bytes to the peer."""
        if self.closed:
            raise ConnectionClosed("send on closed loopback connection")
        sim = self.sim
        sim.post_at(sim.now + self.LOOPBACK_DELAY, self._deliver_to_peer,
                    (payload, _message_size(payload, size)))
        if on_sent is not None:
            sim.post_at(sim.now, on_sent)

    def _deliver_to_peer(self, payload: Any, nbytes: int) -> None:
        peer = self._peer
        if peer is not None and not peer.closed:
            peer._endpoint._deliver(peer, payload, nbytes)

    def receive(self, _node: Node, thread, timeout: Optional[float] = None) -> Any:
        """Blocking receive of the next queued payload."""
        return self._endpoint.receive(self, timeout)

    def close(self) -> None:
        """Close the stream/connection (drain-then-raise, like Connection)."""
        if self.closed:
            return
        self.closed = True
        self.initiator.connections.pop(self, None)
        self._endpoint._notify_close(self)
        peer = self._peer
        if peer is not None and not peer.closed:
            peer.close()

    def abort(self) -> None:
        """Hard teardown: nothing of a loopback is on a wire, so just close."""
        self.close()

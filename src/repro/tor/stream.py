"""Tor streams: the :class:`~repro.netsim.bytestream.ByteStream` interface
over a circuit.

A stream on a normal circuit terminates at the exit relay (which connects
onward per its exit policy); on a rendezvous circuit it terminates at the
hidden service.  Either way the application sees the same byte pipe it
would get from a direct connection — which is what lets the HTTP layer and
all Bento traffic run unmodified over Tor.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.bytestream import StreamClosed, _RecvQueue
from repro.netsim.simulator import Actor, Future, Wait
from repro.tor.cell import RelayCommand
from repro.util.errors import ProtocolError
from repro.util.serialization import canonical_encode


class TorStream:
    """One multiplexed byte stream on a circuit."""

    def __init__(self, circuit, stream_id: int) -> None:
        self.circuit = circuit
        self.stream_id = stream_id
        self.connected = False
        self.closed = False
        self.package_window = 500   # STREAM_PACKAGE_WINDOW; avoids import cycle
        self.delivered_count = 0
        self._recv = _RecvQueue(circuit.sim)
        self._connect_waiter: Optional[Future] = None
        self.remote_address: Optional[str] = None

    # -- connection setup ------------------------------------------------

    def wait_connected(self, thread: Actor,
                       timeout: Optional[float] = 120.0) -> None:
        """Block until the endpoint confirms (CONNECTED) or refuses (END)."""
        if self.connected:
            return
        self._connect_waiter = Future(self.circuit.sim)
        yield Wait(self._connect_waiter, timeout)
        self._connect_waiter = None

    def _on_connected(self, info: dict) -> None:
        self.connected = True
        self.remote_address = info.get("address")
        if self._connect_waiter is not None and not self._connect_waiter.done:
            self._connect_waiter.resolve(None)

    # -- ByteStream interface -----------------------------------------------

    def send(self, data: bytes) -> None:
        """Queue bytes toward the stream endpoint (window-paced)."""
        if self.closed:
            raise StreamClosed("send on closed Tor stream")
        if data:
            self.circuit.send_stream_data(
                self.stream_id, data if isinstance(data, bytes) else bytes(data))

    def recv(self, thread: Actor, timeout: Optional[float] = None,
             min_bytes: int = 1) -> bytes:
        """Block until ``min_bytes`` bytes arrive; ``b''`` at end of stream."""
        return (yield from self._recv.pop(thread, timeout, min_bytes))

    def close(self) -> None:
        """Half-close from our side (sends END)."""
        if self.closed:
            return
        self.closed = True
        self.circuit.streams.pop(self.stream_id, None)
        if not self.circuit.destroyed:
            try:
                self.circuit.send_relay(
                    RelayCommand.END, self.stream_id,
                    canonical_encode({"reason": "done"}),
                    to_hs=self.circuit.hs_crypto is not None)
            except ProtocolError:
                pass

    # -- circuit-side callbacks ------------------------------------------------

    def _on_data(self, data: bytes) -> None:
        self._recv.push(data)

    def _on_end(self) -> None:
        self.closed = True
        self._recv.push_eof()
        if self._connect_waiter is not None and not self._connect_waiter.done:
            self._connect_waiter.reject(
                ProtocolError(f"stream {self.stream_id} refused by endpoint"))

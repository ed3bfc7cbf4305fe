"""Client-side circuits: layered encryption, stream multiplexing, flow
control, and the hidden-service ("virtual hop") endpoint.

A :class:`Circuit` is owned by whichever party *built* it — a Tor client,
or a hidden service building toward a rendezvous point.  Cells the owner
sends always travel "forward" along its own circuit; replies are unwrapped
one backward layer per hop until some hop's digest recognizes the cell.

After a rendezvous, both sides attach an extra :class:`HopCrypto` (the
*hs layer*) shared end-to-end between client and service; the rendezvous
point splices payloads across the two circuits without being able to read
them.  By convention the connecting client uses the hs layer's FORWARD
direction and the service its BACKWARD direction.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.netsim.connection import Connection, ConnectionClosed
from repro.netsim.simulator import Actor, Future, Wait
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import TRACER as _obs
from repro.tor.cell import (
    CELL_SIZE,
    Cell,
    CellCommand,
    Fragments,
    RelayCellPayload,
    RelayCommand,
)
from repro.tor.descriptor import RelayDescriptor
from repro.tor.layercrypto import BACKWARD, FORWARD, BackwardPeel, HopCrypto
from repro.tor.relay import (
    CIRCUIT_PACKAGE_WINDOW,
    CIRCUIT_SENDME_INCREMENT,
    STREAM_SENDME_INCREMENT,
)
from repro.util.errors import ProtocolError, ReproError
from repro.util.serialization import canonical_encode
from repro.util.spec import decode_request

HS_CLIENT = "client"
HS_SERVICE = "service"

# Cached metric handles (reset in place between tests; see repro.obs).
_CTR_STREAM_OK = _metrics.counter("streams_opened", {"outcome": "ok"})
_CTR_STREAM_FAIL = _metrics.counter("streams_opened", {"outcome": "error"})
_HIST_STREAM_OPEN = _metrics.histogram("stream_open_s")
# Cached enum members: a lookup on the class is a metaclass call, ~90 ns a cell.
_RELAY, _DATA = CellCommand.RELAY, RelayCommand.DATA


class CircuitDestroyed(ReproError):
    """Raised when using a circuit that has been torn down."""


class Circuit:
    """One built circuit and everything multiplexed over it."""

    def __init__(self, owner, conn: Connection, circ_id: int,
                 path: list[RelayDescriptor]) -> None:
        from repro.tor.stream import TorStream  # cycle: stream needs Circuit

        self._stream_cls = TorStream
        self.owner = owner              # the TorClient that built this circuit
        self.sim = owner.sim
        self.conn = conn
        self.circ_id = circ_id
        self.path = list(path)
        self.hops: list[HopCrypto] = []
        self._peel = BackwardPeel(self.hops)
        self.hs_crypto: Optional[HopCrypto] = None
        self.hs_role: str = HS_CLIENT
        self.destroyed = False
        self.streams: dict[int, "TorStream"] = {}
        self.on_begin: Optional[Callable[["TorStream", str, int], None]] = None
        self.on_introduce2: Optional[Callable[[bytes], None]] = None
        self.on_destroy: Optional[Callable[["Circuit"], None]] = None
        self._stream_ids = itertools.count(1)
        self._created_waiter: Optional[Future] = None
        self._control_waiters: dict[RelayCommand, list[Future]] = {}
        self._control_backlog: dict[RelayCommand, list[dict]] = {}
        # Flow control for data the owner *sends* (forward direction).
        self.package_window = CIRCUIT_PACKAGE_WINDOW
        self._pending_data = Fragments()
        self._delivered_forward = 0     # received DATA cells, for SENDMEs
        self.cells_sent = 0
        self.cells_received = 0

    # -- wiring ------------------------------------------------------------

    def attach_connection(self) -> None:
        """Point the guard connection's receive path at this circuit."""
        endpoint = self.conn.endpoint_of(self.owner.node)
        endpoint.on_message = self._on_message
        endpoint.on_close = lambda _conn: self._teardown(notify=False)

    def add_hop(self, crypto: HopCrypto) -> None:
        """Record a freshly negotiated hop (during build)."""
        self.hops.append(crypto)

    def attach_hs(self, crypto: HopCrypto, role: str) -> None:
        """Attach the end-to-end hidden-service layer after rendezvous."""
        if role not in (HS_CLIENT, HS_SERVICE):
            raise ValueError(f"bad hs role: {role}")
        self.hs_crypto = crypto
        self.hs_role = role

    # -- sending -------------------------------------------------------------

    def send_relay(self, command: RelayCommand, stream_id: int, data: bytes,
                   hop_index: Optional[int] = None, to_hs: bool = False) -> None:
        """Seal and send one relay cell toward a hop (or the hs endpoint)."""
        if self.destroyed:
            raise CircuitDestroyed("circuit is destroyed")
        cell = RelayCellPayload(command=command, stream_id=stream_id, data=data)
        if to_hs:
            if self.hs_crypto is None:
                raise ProtocolError("no hidden-service layer attached")
            if self.hs_role == HS_CLIENT:
                payload = self.hs_crypto.seal_payload(cell, FORWARD)
                payload = self.hs_crypto.crypt_forward(payload)
            else:
                payload = self.hs_crypto.seal_payload(cell, BACKWARD)
                payload = self.hs_crypto.crypt_backward(payload)
            hop_index = len(self.hops) - 1
        else:
            if hop_index is None:
                hop_index = len(self.hops) - 1
            payload = self.hops[hop_index].seal_payload(cell, FORWARD)
        for index in range(hop_index, -1, -1):
            payload = self.hops[index].crypt_forward(payload)
        self._send_cell(Cell(self.circ_id, CellCommand.RELAY, payload))

    def send_raw_create(self, onionskin: bytes) -> Future:
        """Send the CREATE cell for the first hop; future resolves with the
        CREATED payload."""
        self._created_waiter = Future(self.sim)
        self._send_cell(Cell(self.circ_id, CellCommand.CREATE, onionskin))
        return self._created_waiter

    def _send_cell(self, cell: Cell) -> None:
        try:
            self.conn.send(self.owner.node, cell, size=CELL_SIZE)
            self.cells_sent += 1
        except ConnectionClosed:
            self._teardown(notify=False)
            raise CircuitDestroyed("guard connection closed") from None

    # -- stream data with flow control -------------------------------------------

    def send_stream_data(self, stream_id: int, *pieces: bytes) -> None:
        """Queue one message of stream bytes, given as the pieces it joins
        from, and send what the package windows allow.  Its cells are cut
        as they are sent (:class:`~repro.tor.cell.Fragments`): the bytes
        are copied once, straight into each cell's pack buffer."""
        self._pending_data.put(pieces, stream_id)
        self._pump_data()

    def _pump_data(self) -> None:
        # Drain everything the windows allow into one batch, then seal and
        # onion-encrypt the burst with one keystream pull per hop.  Wire
        # bytes and send order are identical to cell-at-a-time pumping;
        # windows cannot replenish mid-drain (SENDMEs arrive via events).
        batch: list[tuple[int, bytes]] = []
        pending = self._pending_data
        while pending and self.package_window > 0:
            stream_id, cells, _ = pending.head()
            stream = self.streams.get(stream_id)
            if stream is None:
                pending.drop()
                continue
            n = min(cells, self.package_window, stream.package_window)
            if n <= 0:
                break  # head-of-line stream is stalled; wait for its SENDME
            stream.package_window -= n
            self.package_window -= n
            batch += zip(itertools.repeat(stream_id), pending.take(n))
        if batch:
            self._send_data_many(batch)

    def _send_data_many(self, batch: list[tuple[int, bytes]]) -> None:
        """Seal and send a burst of DATA cells (same wire bytes as
        :meth:`send_relay` per cell, one cipher batch per hop)."""
        if self.destroyed:
            raise CircuitDestroyed("circuit is destroyed")
        hs, hop_index = self.hs_crypto, len(self.hops) - 1
        if hs is None:
            payloads = self.hops[hop_index].seal_many(batch, FORWARD)
        elif self.hs_role == HS_CLIENT:
            payloads = hs.crypt_forward_many(hs.seal_many(batch, FORWARD))
        else:
            payloads = hs.crypt_backward_many(hs.seal_many(batch, BACKWARD))
        for index in range(hop_index, -1, -1):
            payloads = self.hops[index].crypt_forward_many(payloads)
        train = payloads if len(payloads) > 1 else None
        for index, payload in enumerate(payloads):
            self._send_cell(Cell(self.circ_id, CellCommand.RELAY, payload,
                                 train, index))

    # -- control-cell rendezvous ----------------------------------------------

    def expect_control(self, command: RelayCommand) -> Future:
        """A future resolved with the next control cell of this type."""
        future = Future(self.sim)
        backlog = self._control_backlog.get(command)
        if backlog:
            future.resolve(backlog.pop(0))
        else:
            self._control_waiters.setdefault(command, []).append(future)
        return future

    def wait_control(self, thread: Actor, command: RelayCommand,
                     timeout: Optional[float] = 120.0) -> dict:
        """Blocking form of :meth:`expect_control`."""
        return (yield Wait(self.expect_control(command), timeout))

    def _deliver_control(self, command: RelayCommand, info: dict) -> None:
        waiters = self._control_waiters.get(command)
        if waiters:
            waiters.pop(0).resolve(info)
        else:
            self._control_backlog.setdefault(command, []).append(info)

    # -- receiving ---------------------------------------------------------------

    def _on_message(self, _conn: Connection, payload: object, _size: int) -> None:
        if not isinstance(payload, Cell) or payload.circ_id != self.circ_id:
            return
        cell = payload
        self.cells_received += 1
        if cell.command == _RELAY:
            self._process_relay(cell)
        elif cell.command == CellCommand.CREATED:
            if self._created_waiter is not None and not self._created_waiter.done:
                self._created_waiter.resolve(cell.payload)
        elif cell.command == CellCommand.DESTROY:
            self._teardown(notify=False)

    def _process_relay(self, cell: Cell) -> None:
        hop, parsed, payload = self._peel.open(cell.payload, cell.train,
                                               cell.index)
        hs = self.hs_crypto
        if parsed is None and hs is not None:
            if self.hs_role == HS_CLIENT:
                parsed = hs.open_payload(hs.crypt_backward(payload), BACKWARD)
            else:
                parsed = hs.open_payload(hs.crypt_forward(payload), FORWARD)
            hop = len(self.hops)
        if parsed is not None:
            self._dispatch(parsed, from_hop=hop)
        # Else unrecognized at every layer: corrupted or misrouted; dropped.

    def _dispatch(self, parsed: RelayCellPayload, from_hop: int) -> None:
        command = parsed.command
        if command == _DATA:
            self._on_data(parsed)
        elif command == RelayCommand.END:
            stream = self.streams.pop(parsed.stream_id, None)
            if stream is not None:
                stream._on_end()
        elif command == RelayCommand.CONNECTED:
            stream = self.streams.get(parsed.stream_id)
            if stream is not None:
                try:
                    (address,) = decode_request(parsed.data, address=str)
                except ProtocolError:       # it ends the stream, as END does
                    self.streams.pop(parsed.stream_id)._on_end()
                else:
                    stream._on_connected(address)
        elif command == RelayCommand.SENDME:
            self._on_sendme(parsed)
        elif command == RelayCommand.BEGIN:
            self._on_begin_cell(parsed)
        elif command == RelayCommand.DROP:
            pass  # cover traffic terminates here by design
        elif command == RelayCommand.INTRODUCE2:
            try:
                (blob,) = decode_request(parsed.data, blob=bytes)
            except ProtocolError:
                return  # not from an honest intro point: dropped
            if self.on_introduce2 is not None:
                self.on_introduce2(blob)
            else:
                self._deliver_control(command, {"blob": blob, "hop": from_hop})
        else:
            info = {"data": parsed.data, "hop": from_hop,
                    "stream_id": parsed.stream_id}
            self._deliver_control(command, info)

    def _on_data(self, parsed: RelayCellPayload) -> None:
        stream = self.streams.get(parsed.stream_id)
        if stream is None:
            return
        stream._on_data(parsed.data)
        stream.delivered_count += 1
        self._delivered_forward += 1
        to_hs = self.hs_crypto is not None
        if stream.delivered_count % STREAM_SENDME_INCREMENT == 0:
            self.send_relay(RelayCommand.SENDME, parsed.stream_id, b"", to_hs=to_hs)
        if self._delivered_forward % CIRCUIT_SENDME_INCREMENT == 0:
            self.send_relay(RelayCommand.SENDME, 0, b"", to_hs=to_hs)

    def _on_sendme(self, parsed: RelayCellPayload) -> None:
        if parsed.stream_id == 0:
            self.package_window += CIRCUIT_SENDME_INCREMENT
        else:
            stream = self.streams.get(parsed.stream_id)
            if stream is not None:
                stream.package_window += STREAM_SENDME_INCREMENT
        self._pump_data()

    def _on_begin_cell(self, parsed: RelayCellPayload) -> None:
        """A BEGIN arriving *at* us: we are the service side of a rendezvous."""
        to_hs = self.hs_crypto is not None
        try:
            host, port = decode_request(parsed.data, host=str, port=int)
        except ProtocolError:       # answered with END; no stream is made
            self.send_relay(RelayCommand.END, parsed.stream_id,
                            canonical_encode({"reason": "bad-begin"}), to_hs=to_hs)
            return
        stream = self._stream_cls(self, parsed.stream_id)
        self.streams[parsed.stream_id] = stream
        stream.connected = True
        self.send_relay(RelayCommand.CONNECTED, parsed.stream_id,
                        canonical_encode({"address": "onion"}), to_hs=to_hs)
        if self.on_begin is not None:
            self.on_begin(stream, host, port)

    # -- stream creation (owner side) ----------------------------------------------

    def open_stream(self, thread: Actor, host: str, port: int,
                    timeout: Optional[float] = 120.0):
        """BEGIN a stream to ``host:port`` via the endpoint hop (or hs peer).

        Returns a connected :class:`~repro.tor.stream.TorStream`; raises
        :class:`ProtocolError` if the endpoint refuses (exit policy, etc.).
        """
        stream_id = next(self._stream_ids)
        stream = self._stream_cls(self, stream_id)
        self.streams[stream_id] = stream
        data = canonical_encode({"host": host, "port": port})
        with _obs.span("tor.stream_open", self.sim, ok=_CTR_STREAM_OK,
                       failed=_CTR_STREAM_FAIL, seconds=_HIST_STREAM_OPEN,
                       track=self.owner.node.name, circ_id=self.circ_id,
                       stream_id=stream_id, host=host, port=port):
            self.send_relay(RelayCommand.BEGIN, stream_id, data,
                            to_hs=self.hs_crypto is not None)
            yield from stream.wait_connected(thread, timeout=timeout)
        return stream

    # -- teardown ---------------------------------------------------------------------

    def close(self) -> None:
        """Destroy the circuit (sends DESTROY toward the guard)."""
        if self.destroyed:
            return
        try:
            self.conn.send(self.owner.node,
                           Cell(self.circ_id, CellCommand.DESTROY, b""),
                           size=CELL_SIZE)
        except ConnectionClosed:
            pass
        self._teardown(notify=False)

    def _teardown(self, notify: bool) -> None:
        if self.destroyed:
            return
        self.destroyed = True
        for stream in list(self.streams.values()):
            stream._on_end()
        self.streams.clear()
        if self._created_waiter is not None and not self._created_waiter.done:
            self._created_waiter.reject(CircuitDestroyed("circuit destroyed"))
        for waiters in self._control_waiters.values():
            for waiter in waiters:
                if not waiter.done:
                    waiter.reject(CircuitDestroyed("circuit destroyed"))
        self._control_waiters.clear()
        # Drop ourselves from the owner's live-circuit list so rebuilds
        # don't accumulate dead circuits (close_all copes either way).
        owner_circuits = getattr(self.owner, "circuits", None)
        if owner_circuits is not None and self in owner_circuits:
            owner_circuits.remove(self)
        if self.on_destroy is not None:
            self.on_destroy(self)

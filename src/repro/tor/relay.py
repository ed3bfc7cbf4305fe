"""Tor relays: circuit switching, extension, exit streams, hidden-service
introduction and rendezvous.

A relay is fully event-driven (it never blocks the simulator).  Per-circuit
state lives in :class:`CircuitEntry`; per-exit-stream state in
:class:`ExitStream`.  Flow control mirrors Tor's SENDME scheme: a 1000-cell
circuit package window and 500-cell stream windows, replenished 100/50 at a
time by SENDMEs from the consuming end.

Each OR connection is a :class:`_Channel`, made when the relay accepts it or
dials it for an EXTEND.  Its ``circuits`` table maps a circuit id to the entry
and which side of it this connection is; ``pending`` holds the ids of CREATEs
sent on it and not yet answered.  A cell is looked up only in the tables of the
connection it arrived on, so two neighbours may pick the same id.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.netsim.connection import Connection, ConnectionClosed, LoopbackConnection
from repro.netsim.network import Network, NetworkError
from repro.netsim.node import Node
from repro.tor.cell import (
    CELL_SIZE,
    Cell,
    CellCommand,
    Fragments,
    RelayCellPayload,
    RelayCommand,
)
from repro.tor.descriptor import (
    FLAG_BENTO,
    FLAG_EXIT,
    OR_PORT,
    RelayDescriptor,
)
from repro.tor.directory import DirectoryAuthority
from repro.tor.exitpolicy import ExitPolicy
from repro.tor.layercrypto import BACKWARD, FORWARD, HopCrypto
from repro.tor import ntor
from repro.crypto.rsa import RsaKeyPair
from repro.util.errors import ProtocolError
from repro.util.serialization import canonical_encode
from repro.util.spec import decode_request

CIRCUIT_PACKAGE_WINDOW = 1000
CIRCUIT_SENDME_INCREMENT = 100
STREAM_PACKAGE_WINDOW = 500
STREAM_SENDME_INCREMENT = 50

# Cached enum member: a lookup on the class is a metaclass call, ~90 ns a cell.
_RELAY = CellCommand.RELAY


class ExitStream:
    """Exit-side state for one BEGUN stream: an external connection plus
    backward-direction packaging with SENDME flow control."""

    def __init__(self, relay: "Relay", entry: "CircuitEntry", stream_id: int,
                 conn: Connection) -> None:
        self.relay = relay
        self.entry = entry
        self.stream_id = stream_id
        self.conn = conn
        self.package_window = STREAM_PACKAGE_WINDOW
        self.delivered_count = 0
        self.pending = Fragments()
        self.open = True
        endpoint = conn.endpoint_of(relay.node)
        endpoint.on_message = self._on_external_message
        endpoint.on_close = self._on_external_close

    # -- external -> client (backward) -------------------------------------

    def _on_external_message(self, _conn: Connection, payload: object,
                             _size: int) -> None:
        # A tuple is one message sent as its pieces (DirectByteStream.send).
        if type(payload) is not tuple:
            if not isinstance(payload, (bytes, bytearray)):
                return
            payload = (bytes(payload),)
        if self.open:
            self.pending.put(payload)
            self.pump()

    def pump(self) -> None:
        """Send queued chunks backward while both windows allow.

        Everything both windows permit is sealed and crypted as one batch
        (one keystream pull for the whole burst) — the cells, their order,
        and their send times are identical to pumping one at a time.  Once
        the origin has closed and the queue is empty, END the stream.
        """
        while (self.pending
               and self.package_window > 0 and self.entry.package_window > 0):
            n = min(len(self.pending), self.package_window,
                    self.entry.package_window)
            chunks = self.pending.take(n)
            self.package_window -= n
            self.entry.package_window -= n
            self.relay._reply_many(self.entry, self.stream_id, chunks)
        if not self.open and not self.pending:
            self.relay._end_stream(self.entry, self.stream_id, "done")
            self.entry.streams.pop(self.stream_id, None)

    def _on_external_close(self, _conn: Connection) -> None:
        """The origin is done: half-close.  Nothing more is accepted from
        it, but what it already sent keeps draining as SENDMEs open the
        windows, and :meth:`pump` sends END behind the last byte."""
        if not self.open:
            return
        self.open = False
        self.pump()

    # -- client -> external (forward) ----------------------------------------

    def deliver_forward(self, data: bytes) -> None:
        """Write client bytes into the external connection; account SENDMEs."""
        if not self.open:
            return
        try:
            self.conn.send(self.relay.node, data)
        except ConnectionClosed:
            self._on_external_close(self.conn)
            return
        self.delivered_count += 1
        if self.delivered_count % STREAM_SENDME_INCREMENT == 0:
            self.relay._reply(self.entry, RelayCellPayload(
                command=RelayCommand.SENDME, stream_id=self.stream_id, data=b""))

    def close(self) -> None:
        """Tear down from the circuit side; bytes still queued are dropped."""
        self.open = False
        self.pending.clear()
        self.conn.close()


class CircuitEntry:
    """One relay's state for one circuit passing through it."""

    def __init__(self, chan_prev: "_Channel", circ_id_prev: int,
                 crypto: HopCrypto) -> None:
        self.chan_prev = chan_prev
        self.circ_id_prev = circ_id_prev
        self.crypto = crypto
        self.chan_next: Optional[_Channel] = None
        self.circ_id_next: Optional[int] = None
        self.streams: dict[int, ExitStream] = {}
        self.joined: Optional["CircuitEntry"] = None      # rendezvous splice
        self.intro_for: Optional[str] = None              # intro circuit key
        self.rend_cookie: Optional[bytes] = None          # cookie it waits on
        self.package_window = CIRCUIT_PACKAGE_WINDOW      # backward budget
        self.forward_count = 0                            # for circuit SENDMEs
        self.destroyed = False


class _Channel:
    """One OR connection at a relay, and the circuits it carries."""

    def __init__(self, relay: "Relay", conn: Connection,
                 dialed: Optional[str] = None) -> None:
        self.relay, self.conn = relay, conn
        self.dialed = dialed          # its key in the relay's _or_conns, if any
        self.circuits: dict[int, tuple[CircuitEntry, bool]] = {}  # bool: from_prev
        self.pending: dict[int, CircuitEntry] = {}   # CREATE sent, no CREATED
        relay._channels[conn] = self
        endpoint = conn.endpoint_of(relay.node)
        endpoint.on_message, endpoint.on_close = self.on_cell, self.on_close

    def on_cell(self, _conn: Connection, cell: object, _size: int) -> None:
        if not isinstance(cell, Cell):
            return  # not a cell; a relay ignores stray traffic
        relay, command = self.relay, cell.command
        # No entry: a stale cell for a torn-down circuit, dropped below.
        entry, from_prev = self.circuits.get(cell.circ_id, (None, False))
        try:
            if command == _RELAY and entry is not None:
                if from_prev:
                    relay._relay_forward(entry, cell)
                else:
                    relay._relay_backward(entry, cell)
            elif command == CellCommand.CREATE:
                relay._handle_create(self.conn, cell)
            elif command == CellCommand.CREATED:
                relay._handle_created(self, cell)
            elif command == CellCommand.DESTROY and entry is not None:
                relay._destroy_entry(entry, notify_prev=not from_prev,
                                     notify_next=from_prev)
        except ProtocolError:
            relay._send_destroy(self.conn, cell.circ_id)

    def on_close(self, _conn: Connection) -> None:
        del self.relay._channels[self.conn]
        if self.relay._or_conns.get(self.dialed) is self:
            del self.relay._or_conns[self.dialed]
        # A snapshot (each destroy pops ids here), in registration order.
        for entry, _from_prev in list(self.circuits.values()):
            self.relay._destroy_entry(entry, notify_prev=True, notify_next=True)


class Relay:
    """A Tor relay bound to a simulator node."""

    def __init__(self, network: Network, node: Node, nickname: str,
                 exit_policy: Optional[ExitPolicy] = None,
                 flags: tuple[str, ...] = (),
                 bento_port: Optional[int] = None,
                 or_port: int = OR_PORT) -> None:
        self.network = network
        self.node = node
        self.sim = node.sim
        self.nickname = nickname
        self.or_port = or_port
        self.exit_policy = exit_policy or ExitPolicy.reject_all()
        self._rng = self.sim.rng.fork(f"relay:{nickname}")
        self.identity = RsaKeyPair.generate(self._rng.fork("identity"))
        self.flags = tuple(flags)
        self.bento_port = bento_port
        self._channels: dict[Connection, _Channel] = {}   # every live one
        self._or_conns: dict[str, _Channel] = {}     # those this relay dialed
        self._intro_circuits: dict[str, CircuitEntry] = {}
        self._rend_waiting: dict[bytes, CircuitEntry] = {}
        self._circ_id_counter = itertools.count(1)
        node.listen(or_port, self._accept)

    # -- registration --------------------------------------------------------

    @property
    def fingerprint(self) -> str:
        """This relay's identity fingerprint."""
        return self.identity.public.fingerprint()

    def descriptor(self) -> RelayDescriptor:
        """Build and sign this relay's descriptor."""
        flags = set(self.flags)
        if self.exit_policy.is_exit:
            flags.add(FLAG_EXIT)
        if self.bento_port is not None:
            flags.add(FLAG_BENTO)
        bandwidth = min(self.node.uplink.rate, self.node.downlink.rate)
        descriptor = RelayDescriptor(
            nickname=self.nickname,
            address=self.node.address,
            or_port=self.or_port,
            identity_fp=self.fingerprint,
            bandwidth=bandwidth,
            exit_policy=self.exit_policy.render(),
            flags=tuple(sorted(flags)),
            bento_port=self.bento_port,
        )
        descriptor.sign(self.identity)
        return descriptor

    def register_with(self, authority: DirectoryAuthority) -> None:
        """Publish this relay's descriptor."""
        authority.register_relay(self.descriptor())

    # -- connection plumbing ---------------------------------------------------

    def _accept(self, conn: Connection) -> None:
        _Channel(self, conn)

    # -- circuit creation ------------------------------------------------------

    def _handle_create(self, conn: Connection, cell: Cell) -> None:
        keys, reply = ntor.server_respond(
            self._rng.fork(f"ntor:{cell.circ_id}:{self.sim.now}"),
            self.fingerprint,
            cell.payload,
        )
        chan = self._channels[conn]
        entry = CircuitEntry(chan_prev=chan, circ_id_prev=cell.circ_id,
                             crypto=HopCrypto(keys))
        chan.circuits[cell.circ_id] = (entry, True)
        self._send_cell(conn, Cell(cell.circ_id, CellCommand.CREATED, reply))

    def _handle_created(self, chan: _Channel, cell: Cell) -> None:
        entry = chan.pending.pop(cell.circ_id, None)
        if entry is None or entry.destroyed:
            return
        entry.chan_next = chan
        entry.circ_id_next = cell.circ_id
        chan.circuits[cell.circ_id] = (entry, False)
        # Hand the CREATED payload back to the client as EXTENDED.
        self._reply(entry, RelayCellPayload(
            command=RelayCommand.EXTENDED, stream_id=0,
            data=cell.payload[:ntor.REPLY_LEN]))

    # -- relay cell processing ---------------------------------------------------

    def _relay_forward(self, entry: CircuitEntry, cell: Cell) -> None:
        payload, train = entry.crypto.crypt_forward_ahead(
            cell.payload, cell.train, cell.index)
        # open_payload's own first test, made here so that a cell this hop
        # only passes on costs no call: it can skip the call, never decide.
        if payload[:2] == b"\x00\x00":
            parsed = entry.crypto.open_payload(payload, FORWARD)
            if parsed is not None:
                self._handle_recognized(entry, parsed)
                return
        if entry.chan_next is not None:
            # Reuse the delivered cell object: nothing upstream retains it
            # once it reaches us, and pass-through is the per-cell hot path.
            cell.circ_id = entry.circ_id_next
            cell.payload = payload
            cell.train = train
            self._send_cell(entry.chan_next.conn, cell)
            return
        if entry.joined is not None:
            peer = entry.joined
            if not peer.destroyed:
                spliced = peer.crypto.crypt_backward(payload)
                self._send_cell(peer.chan_prev.conn,
                                Cell(peer.circ_id_prev, _RELAY, spliced))
            return
        raise ProtocolError("unrecognized relay cell at end of circuit")

    def _relay_backward(self, entry: CircuitEntry, cell: Cell) -> None:
        cell.circ_id = entry.circ_id_prev
        cell.payload, cell.train = entry.crypto.crypt_backward_ahead(
            cell.payload, cell.train, cell.index)
        self._send_cell(entry.chan_prev.conn, cell)

    _RELAY_HANDLERS = {
        RelayCommand.EXTEND: "_cmd_extend",
        RelayCommand.BEGIN: "_cmd_begin",
        RelayCommand.DATA: "_cmd_data",
        RelayCommand.END: "_cmd_end",
        RelayCommand.SENDME: "_cmd_sendme",
        RelayCommand.DROP: "_cmd_drop",
        RelayCommand.ESTABLISH_INTRO: "_cmd_establish_intro",
        RelayCommand.INTRODUCE1: "_cmd_introduce1",
        RelayCommand.ESTABLISH_RENDEZVOUS: "_cmd_establish_rendezvous",
        RelayCommand.RENDEZVOUS1: "_cmd_rendezvous1",
    }

    def _handle_recognized(self, entry: CircuitEntry,
                           parsed: RelayCellPayload) -> None:
        name = self._RELAY_HANDLERS.get(parsed.command)
        if name is None:
            raise ProtocolError(f"relay cannot handle {parsed.command.name}")
        getattr(self, name)(entry, parsed)

    # -- relay commands -----------------------------------------------------------

    def _cmd_extend(self, entry: CircuitEntry, parsed: RelayCellPayload) -> None:
        address, port, onionskin = decode_request(
            parsed.data, address=str, port=int, onionskin=bytes)
        new_circ_id = next(self._circ_id_counter) | (1 << 16)

        def _with_chan(chan: _Channel) -> None:
            if entry.destroyed:
                return
            chan.pending[new_circ_id] = entry
            self._send_cell(chan.conn,
                            Cell(new_circ_id, CellCommand.CREATE, onionskin))

        cached = self._or_conns.get(f"{address}:{port}")
        if cached is not None:      # live: a channel leaves the cache on close
            _with_chan(cached)
            return

        future = self.network.connect(self.node, address, port)

        def _connected(fut) -> None:
            try:
                conn = fut.result()
            except NetworkError:
                conn = None
            if conn is None or conn.closed:     # closed: no on_close will come
                self._end_stream(entry, 0, "extend-failed")
                return
            chan = _Channel(self, conn, dialed=f"{address}:{port}")
            self._or_conns[chan.dialed] = chan
            _with_chan(chan)

        future.add_done_callback(_connected)

    def _cmd_begin(self, entry: CircuitEntry, parsed: RelayCellPayload) -> None:
        host, port = decode_request(parsed.data, host=str, port=int)
        stream_id = parsed.stream_id
        try:
            address = self.network.resolve(host)
        except NetworkError:
            self._end_stream(entry, stream_id, "resolve-failed")
            return
        # The "localhost" exception (§5): a relay running a Bento server
        # lets circuits reach that one port on itself even when its exit
        # policy rejects everything else.
        is_local_bento = (address == self.node.address
                          and self.bento_port is not None
                          and port == self.bento_port)
        if not is_local_bento and not self.exit_policy.allows(address, port):
            self._end_stream(entry, stream_id, "exit-policy")
            return
        if is_local_bento:
            # Loopback to the co-resident Bento server: no NIC involved.
            handler = self.node.listener_for(port)
            if handler is None:
                self._end_stream(entry, stream_id, "connect-refused")
                return
            exit_side, server_side = LoopbackConnection.create(self.sim, self.node)
            entry.streams[stream_id] = ExitStream(self, entry, stream_id,
                                                  exit_side)
            handler(server_side)
            self._reply(entry, RelayCellPayload(
                command=RelayCommand.CONNECTED, stream_id=stream_id,
                data=canonical_encode({"address": address})))
            return
        handshake_rtts = 2.0 if port == 443 else 1.0
        future = self.network.connect(self.node, address, port,
                                      handshake_rtts=handshake_rtts)

        def _connected(fut) -> None:
            if entry.destroyed:
                return
            try:
                conn = fut.result()
            except NetworkError:
                self._end_stream(entry, stream_id, "connect-refused")
                return
            entry.streams[stream_id] = ExitStream(self, entry, stream_id, conn)
            self._reply(entry, RelayCellPayload(
                command=RelayCommand.CONNECTED, stream_id=stream_id,
                data=canonical_encode({"address": address})))

        future.add_done_callback(_connected)

    def _cmd_data(self, entry: CircuitEntry, parsed: RelayCellPayload) -> None:
        stream = entry.streams.get(parsed.stream_id)
        if stream is None:
            return  # stream already ended; drop late data
        stream.deliver_forward(parsed.data)
        entry.forward_count += 1
        if entry.forward_count % CIRCUIT_SENDME_INCREMENT == 0:
            self._reply(entry, RelayCellPayload(
                command=RelayCommand.SENDME, stream_id=0, data=b""))

    def _cmd_end(self, entry: CircuitEntry, parsed: RelayCellPayload) -> None:
        stream = entry.streams.pop(parsed.stream_id, None)
        if stream is not None:
            stream.close()

    def _cmd_sendme(self, entry: CircuitEntry, parsed: RelayCellPayload) -> None:
        if parsed.stream_id == 0:
            entry.package_window += CIRCUIT_SENDME_INCREMENT
            for stream in list(entry.streams.values()):
                stream.pump()
        else:
            stream = entry.streams.get(parsed.stream_id)
            if stream is not None:
                stream.package_window += STREAM_SENDME_INCREMENT
                stream.pump()

    def _cmd_drop(self, entry: CircuitEntry, parsed: RelayCellPayload) -> None:
        """Long-range padding: absorbed silently (this is the point)."""

    # -- hidden-service commands ----------------------------------------------------

    def _cmd_establish_intro(self, entry: CircuitEntry,
                             parsed: RelayCellPayload) -> None:
        (auth_key,) = decode_request(parsed.data, auth=str)
        entry.intro_for = auth_key
        self._intro_circuits[auth_key] = entry
        self._reply(entry, RelayCellPayload(
            command=RelayCommand.INTRO_ESTABLISHED, stream_id=0, data=b""))

    def _cmd_introduce1(self, entry: CircuitEntry,
                        parsed: RelayCellPayload) -> None:
        service, blob = decode_request(parsed.data, service=str, blob=bytes)
        intro_entry = self._intro_circuits.get(service)
        if intro_entry is None or intro_entry.destroyed:
            self._reply(entry, RelayCellPayload(
                command=RelayCommand.INTRODUCE_ACK, stream_id=0,
                data=canonical_encode({"status": "no-such-service"})))
            return
        self._reply(intro_entry, RelayCellPayload(
            command=RelayCommand.INTRODUCE2, stream_id=0,
            data=canonical_encode({"blob": blob})))
        self._reply(entry, RelayCellPayload(
            command=RelayCommand.INTRODUCE_ACK, stream_id=0,
            data=canonical_encode({"status": "ok"})))

    def _cmd_establish_rendezvous(self, entry: CircuitEntry,
                                  parsed: RelayCellPayload) -> None:
        (cookie,) = decode_request(parsed.data, cookie=bytes)
        self._forget_cookie(entry)      # a second ESTABLISH replaces the first
        entry.rend_cookie = cookie
        self._rend_waiting[cookie] = entry
        self._reply(entry, RelayCellPayload(
            command=RelayCommand.RENDEZVOUS_ESTABLISHED, stream_id=0, data=b""))

    def _cmd_rendezvous1(self, entry: CircuitEntry,
                         parsed: RelayCellPayload) -> None:
        cookie, blob = decode_request(parsed.data, cookie=bytes, blob=bytes)
        client_entry = self._rend_waiting.pop(cookie, None)
        if client_entry is None or client_entry.destroyed:
            raise ProtocolError("rendezvous cookie unknown")
        client_entry.rend_cookie = None
        entry.joined = client_entry
        client_entry.joined = entry
        self._reply(client_entry, RelayCellPayload(
            command=RelayCommand.RENDEZVOUS2, stream_id=0,
            data=canonical_encode({"blob": blob})))

    # -- helpers ----------------------------------------------------------------

    def _end_stream(self, entry: CircuitEntry, stream_id: int, reason: str) -> None:
        self._reply(entry, RelayCellPayload(
            command=RelayCommand.END, stream_id=stream_id,
            data=canonical_encode({"reason": reason})))

    def _reply(self, entry: CircuitEntry, cell: RelayCellPayload) -> None:
        """Send a relay cell backward from this hop toward the client."""
        if entry.destroyed:
            return
        payload = entry.crypto.seal_payload(cell, BACKWARD)
        payload = entry.crypto.crypt_backward(payload)
        self._send_cell(entry.chan_prev.conn,
                        Cell(entry.circ_id_prev, _RELAY, payload))

    def _reply_many(self, entry: CircuitEntry, stream_id: int,
                    chunks: list[bytes]) -> None:
        """Send a burst of DATA cells backward as one crypto batch.

        The burst is sealed in one pass, in order (the digest chain
        demands it); the layer cipher runs once over it.  Wire bytes and
        cell send order match per-cell :meth:`_reply` exactly.
        """
        if entry.destroyed:
            return
        crypto = entry.crypto
        conn_prev = entry.chan_prev.conn
        circ_id_prev = entry.circ_id_prev
        payloads = crypto.crypt_backward_many(
            crypto.seal_many(zip(itertools.repeat(stream_id), chunks), BACKWARD))
        train = payloads if len(payloads) > 1 else None
        for index, payload in enumerate(payloads):
            self._send_cell(conn_prev, Cell(circ_id_prev, _RELAY,
                                            payload, train, index))

    def _send_cell(self, conn: Connection, cell: Cell) -> None:
        try:
            conn.send(self.node, cell, size=CELL_SIZE)
        except ConnectionClosed:
            pass  # teardown races are benign in the simulator

    def _send_destroy(self, conn: Connection, circ_id: int) -> None:
        try:
            conn.send(self.node, Cell(circ_id, CellCommand.DESTROY, b""),
                      size=CELL_SIZE)
        except ConnectionClosed:
            pass

    def _forget_cookie(self, entry: CircuitEntry) -> None:
        """Drop ``entry``'s rendezvous cookie, unless a later circuit holds it."""
        if self._rend_waiting.get(entry.rend_cookie) is entry:
            del self._rend_waiting[entry.rend_cookie]

    def _destroy_entry(self, entry: CircuitEntry, notify_prev: bool,
                       notify_next: bool) -> None:
        if entry.destroyed:
            return
        entry.destroyed = True
        for stream in list(entry.streams.values()):
            stream.close()
        entry.streams.clear()
        if entry.intro_for is not None:
            self._intro_circuits.pop(entry.intro_for, None)
        self._forget_cookie(entry)
        if notify_prev:
            self._send_destroy(entry.chan_prev.conn, entry.circ_id_prev)
        if notify_next and entry.chan_next is not None:
            self._send_destroy(entry.chan_next.conn, entry.circ_id_next)
        entry.chan_prev.circuits.pop(entry.circ_id_prev, None)
        if entry.chan_next is not None:
            entry.chan_next.circuits.pop(entry.circ_id_next, None)
        if entry.joined is not None and not entry.joined.destroyed:
            peer, entry.joined = entry.joined, None
            peer.joined = None
            self._destroy_entry(peer, notify_prev=True, notify_next=True)

    # -- introspection -------------------------------------------------------------

    def _entries(self):
        """Every live circuit entry, once: by its client-side registration."""
        return (entry for chan in self._channels.values()
                for entry, from_prev in chan.circuits.values() if from_prev)

    @property
    def active_circuit_count(self) -> int:
        """Number of live circuit entries at this relay."""
        return sum(1 for _entry in self._entries())

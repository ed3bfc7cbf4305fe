"""Tor cells: the fixed-size wire unit of the overlay.

Faithful to tor-spec in shape: 514-byte cells with a 4-byte circuit id and
1-byte command; RELAY cells carry an encrypted 509-byte payload of
``recognized(2) | stream_id(2) | digest(4) | length(2) | command(1) |
data(498)``.  Cover-traffic (the Cover function) uses RELAY_DROP cells,
exactly as proposed for padding in Tor.
"""

from __future__ import annotations

import enum
import struct

from repro.util.errors import ProtocolError

CELL_SIZE = 514
CELL_HEADER_SIZE = 5          # circ_id(4) + command(1)
RELAY_PAYLOAD_SIZE = CELL_SIZE - CELL_HEADER_SIZE   # 509
RELAY_HEADER_SIZE = 11        # recognized(2)+stream(2)+digest(4)+len(2)+cmd(1)
RELAY_DATA_SIZE = RELAY_PAYLOAD_SIZE - RELAY_HEADER_SIZE  # 498

_RELAY_HEADER = struct.Struct(">HH4sHB")


class CellCommand(enum.IntEnum):
    """Link-level cell commands."""

    CREATE = 1
    CREATED = 2
    RELAY = 3
    DESTROY = 4


class RelayCommand(enum.IntEnum):
    """Commands inside (decrypted) RELAY cells."""

    BEGIN = 1
    DATA = 2
    END = 3
    CONNECTED = 4
    SENDME = 5
    EXTEND = 6
    EXTENDED = 7
    DROP = 10                    # long-range padding; discarded at recipient
    # Hidden-service (rendezvous) commands, numbered as in tor-spec.
    ESTABLISH_INTRO = 32
    ESTABLISH_RENDEZVOUS = 33
    INTRODUCE1 = 34
    INTRODUCE2 = 35
    RENDEZVOUS1 = 36
    RENDEZVOUS2 = 37
    INTRO_ESTABLISHED = 38
    RENDEZVOUS_ESTABLISHED = 39
    INTRODUCE_ACK = 40


_RELAY_COMMANDS = {command.value: command for command in RelayCommand}


class Cell:
    """One 514-byte cell.  ``payload`` is exactly 509 bytes on the wire.

    A plain ``__slots__`` class rather than a dataclass: tens of thousands
    of cells are built per transfer, and slot construction is measurably
    cheaper than dict-backed dataclass instances.

    ``train`` and ``index`` are not on the wire.  A sender that encrypted a
    burst in one batch passes the batch's output list, and from then on
    ``train[index] is payload``: it tells each hop which cells follow this
    one, so it can read ahead (:mod:`repro.tor.layercrypto`).
    """

    __slots__ = ("circ_id", "command", "payload", "train", "index")

    def __init__(self, circ_id: int, command: CellCommand, payload: bytes,
                 train: list[bytes] | None = None, index: int = 0) -> None:
        if len(payload) > RELAY_PAYLOAD_SIZE:
            raise ProtocolError(
                f"cell payload {len(payload)} exceeds {RELAY_PAYLOAD_SIZE}"
            )
        if len(payload) < RELAY_PAYLOAD_SIZE:
            payload = payload.ljust(RELAY_PAYLOAD_SIZE, b"\x00")
            train = None  # the padded payload is no longer train[index]
        self.circ_id = circ_id
        self.command = command
        self.payload = payload
        self.train = train
        self.index = index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cell):
            return NotImplemented
        return (self.circ_id == other.circ_id
                and self.command == other.command
                and self.payload == other.payload)

    __hash__ = None  # mutable, like the dataclass it replaced

    def __repr__(self) -> str:
        return (f"Cell(circ_id={self.circ_id!r}, command={self.command!r}, "
                f"payload={self.payload!r})")

    @property
    def wire_size(self) -> int:
        """Bytes this cell occupies on the wire (fixed)."""
        return CELL_SIZE


class RelayCellPayload:
    """The decrypted interior of a RELAY cell."""

    __slots__ = ("command", "stream_id", "data", "digest")

    def __init__(self, command: RelayCommand, stream_id: int, data: bytes,
                 digest: bytes = b"\x00\x00\x00\x00") -> None:
        self.command = command
        self.stream_id = stream_id
        self.data = data
        self.digest = digest

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RelayCellPayload):
            return NotImplemented
        return (self.command == other.command
                and self.stream_id == other.stream_id
                and self.data == other.data
                and self.digest == other.digest)

    def __hash__(self) -> int:
        return hash((self.command, self.stream_id, self.data, self.digest))

    def __repr__(self) -> str:
        return (f"RelayCellPayload(command={self.command!r}, "
                f"stream_id={self.stream_id!r}, data={self.data!r}, "
                f"digest={self.digest!r})")

    def pack_buf(self, digest: bytes = b"\x00\x00\x00\x00") -> bytearray:
        """Serialize into a fresh 509-byte :class:`bytearray`.

        One allocation and one copy of ``data`` (which may be any
        bytes-like object, including a :class:`memoryview`), instead of
        the concatenate-then-pad double copy.  Callers that need the
        digest spliced in afterwards (see
        :meth:`~repro.tor.layercrypto.HopCrypto.seal_payload`) mutate the
        returned buffer in place.
        """
        size = len(self.data)
        if size > RELAY_DATA_SIZE:
            raise ProtocolError(
                f"relay data {size} exceeds {RELAY_DATA_SIZE}"
            )
        if len(digest) != 4:
            raise ProtocolError("relay digest must be 4 bytes")
        buf = bytearray(RELAY_PAYLOAD_SIZE)
        _RELAY_HEADER.pack_into(
            buf, 0, 0, self.stream_id, digest, size, int(self.command)
        )
        buf[RELAY_HEADER_SIZE:RELAY_HEADER_SIZE + size] = self.data
        return buf

    def pack(self, digest: bytes = b"\x00\x00\x00\x00") -> bytes:
        """Serialize to exactly 509 bytes with the given digest field."""
        return bytes(self.pack_buf(digest))

    @classmethod
    def unpack(cls, payload: bytes) -> "RelayCellPayload":
        """Parse 509 payload bytes; raises :class:`ProtocolError` if malformed.

        The *recognized* and digest checks live in
        :meth:`~repro.tor.layercrypto.HopCrypto.open_payload`; this only
        parses structure.
        """
        if len(payload) != RELAY_PAYLOAD_SIZE:
            raise ProtocolError(f"relay payload must be {RELAY_PAYLOAD_SIZE} bytes")
        recognized, stream_id, digest, length, command = _RELAY_HEADER.unpack_from(
            payload, 0
        )
        if recognized != 0:
            raise ProtocolError("relay cell not recognized")
        if length > RELAY_DATA_SIZE:
            raise ProtocolError("relay length field out of range")
        relay_command = _RELAY_COMMANDS.get(command)
        if relay_command is None:
            raise ProtocolError(f"unknown relay command {command}")
        data = payload[RELAY_HEADER_SIZE:RELAY_HEADER_SIZE + length]
        return cls(command=relay_command, stream_id=stream_id,
                   data=data, digest=digest)

    @staticmethod
    def looks_recognized(payload: bytes) -> bool:
        """Cheap first-pass check: the recognized field is zero."""
        return len(payload) == RELAY_PAYLOAD_SIZE and payload[0] == 0 and payload[1] == 0

"""Layered ("onion") relay-cell crypto and recognized/digest checking.

Each hop holds a :class:`HopCrypto`: stateful forward and backward XOR
stream ciphers plus rolling digest counters.  A client applies its hops'
forward ciphers outermost-last; each relay applies its own once; whichever
hop finds the cell *recognized* (leading zeros and a valid rolling digest)
consumes it.

There is one layer cipher, AES-128-CTR (:mod:`repro.crypto.stream`), one C
call per burst, on every hop of every circuit.

**Who batches.**  The sender of a burst: a client draining its package
window (``Circuit._send_data_many``) and an exit draining a stream window
(``Relay._reply_many``) seal the burst in one pass
(:meth:`HopCrypto.seal_many`), crypt it with one ``crypt_*_many`` call per
hop, and put the list the last call returned on the cells they build
(``Cell.train``, ``Cell.index``): a *train*.

**Who reads ahead.**  Everyone a train then passes.  A relay forwarding it
calls ``crypt_*_ahead``: handed cell ``i`` of a train it is not already
inside, a direction runs ``train[i:]`` through the cipher in one call and
keeps the result; it returns ``output[i]`` and the output list, which is the
cell's train at the next hop.  Cells ``i+1...`` arriving in order are
answered from the kept list with no cipher call.  The circuit's owner peels
all its hops at once (:class:`BackwardPeel`): a train's first cell goes hop
by hop, every hop reading ahead, and the peel notes the later cells that
begin ``00 00`` at an outer hop.  Only those go hop by hop again; every
other one is the innermost hop's output, and moves every hop's cursor.
Digests and flow control stay per cell, at its own delivery.

**The abandon rule.**  A direction's keystream must be consumed in the order
its cells arrive, and now and then something other than the train's next
cell does: the relay's own reply, a cell a middle hop answered, a gap.  Any
such use first *abandons* the read-ahead: the keystream spent on the cells
not yet handed out is ``source XOR output``, and it goes back to the *front*
of the direction's stream, to be used up before the cipher is called again.
So every cell meets exactly the keystream bytes it would have met one call
at a time, in whatever order cells arrive.  It is rare, and reading ahead
therefore pays, because a connection is FIFO and is only ever dropped
whole: a train's cells reach each hop back to back, in the order its cipher
must consume them, unless a hop speaks up between them.
"""

from __future__ import annotations

from collections.abc import Iterable
from hashlib import sha256

from repro.crypto.stream import StreamCipher
from repro.obs.metrics import REGISTRY as _metrics

# Hottest counters in the codebase: handles cached at import, one plain
# attribute add per call (the registry resets values in place).
_CELLS_FWD = _metrics.counter("cells_crypted", {"direction": "fwd"})
_CELLS_BWD = _metrics.counter("cells_crypted", {"direction": "bwd"})
from repro.tor.cell import (RELAY_PAYLOAD_SIZE, ZERO_DIGEST, RelayCellPayload,
                            RelayCommand, pack_relay)
from repro.tor.ntor import CircuitKeys
from repro.util.bytesutil import xor_bytes
from repro.util.errors import ProtocolError

FORWARD = "f"
BACKWARD = "b"


class _Direction:
    """One direction's cipher, the train it has read ahead over, and its
    rolling digest: key, and cells sealed and opened so far."""

    __slots__ = ("_cipher", "_source", "_output", "_next", "_unread",
                 "_digest_key", "_send_seq", "_recv_seq")

    def __init__(self, key: bytes, nonce: bytes, digest_key: bytes) -> None:
        self._cipher = StreamCipher(key, nonce=nonce)
        self._source: list[bytes] | None = None  # train being read ahead
        self._output: list[bytes] | None = None  # the same cells, crypted
        self._next = 0                  # first cell of it not yet handed out
        self._unread = b""              # keystream an abandon gave back
        self._digest_key = digest_key
        self._send_seq = self._recv_seq = 0

    def _abandon(self) -> None:
        rest = slice(self._next, None)
        self._unread = xor_bytes(b"".join(self._source[rest]),
                                 b"".join(self._output[rest])) + self._unread
        self._source = self._output = None

    def process(self, payload: bytes) -> bytes:
        """XOR ``payload`` with the next keystream bytes of this direction."""
        if self._source is not None:
            self._abandon()
        unread = self._unread
        if not unread:
            return self._cipher.process(payload)
        n, k = len(payload), len(unread)
        self._unread = unread[n:]
        return (xor_bytes(payload[:k], unread[:n])
                + self._cipher.process(payload[k:]))

    def process_many(self, payloads: list[bytes]) -> list[bytes]:
        """:meth:`process` each payload in order: one cipher call, unless
        keystream an abandon gave back has to be used up first."""
        if self._source is not None:
            self._abandon()
        if not self._unread:
            return self._cipher.process_many(payloads)
        return [self.process(payload) for payload in payloads]

    def process_ahead(self, payload: bytes, train: list[bytes] | None,
                      index: int) -> tuple[bytes, list[bytes] | None]:
        """:meth:`process` ``payload``, which is ``train[index]``; also
        returns the train the result belongs to (see the module docstring)."""
        if train is None:
            return self.process(payload), None
        if train is not self._source or index != self._next:
            crypted = self.process_many(train[index:])
            self._source, self._output = train, [None] * index + crypted
        output = self._output
        self._next = index + 1
        if index + 1 == len(output):
            self._source = self._output = None
        return output[index], output


class HopCrypto:
    """One hop's cipher state plus rolling digests for recognized cells.

    The same class serves both the client's per-hop replica and the relay's
    own state; XOR stream ciphers make encrypt and decrypt the same
    operation at matching stream positions, and both stay in sync because
    every forward cell crosses each hop exactly once (and symmetrically
    backward).
    """

    __slots__ = ("_fwd", "_bwd")

    # ``fast`` is ignored: benchmarks/suite/drills.py passes it.
    def __init__(self, keys: CircuitKeys, fast: bool = False) -> None:
        self._fwd = _Direction(keys.kf, b"layer-f", keys.df)
        self._bwd = _Direction(keys.kb, b"layer-b", keys.db)

    # -- layer cipher -----------------------------------------------------

    def crypt_forward(self, payload: bytes) -> bytes:
        """Apply this hop's forward layer (encrypt at client, strip at relay)."""
        _CELLS_FWD.value += 1
        return self._fwd.process(payload)

    def crypt_backward(self, payload: bytes) -> bytes:
        """Apply this hop's backward layer."""
        _CELLS_BWD.value += 1
        return self._bwd.process(payload)

    def crypt_forward_many(self, payloads: list[bytes]) -> list[bytes]:
        """Apply the forward layer to consecutive payloads in one batch.

        Equivalent to mapping :meth:`crypt_forward`; the cipher stream is
        consumed in list order.
        """
        _CELLS_FWD.value += len(payloads)
        return self._fwd.process_many(payloads)

    def crypt_backward_many(self, payloads: list[bytes]) -> list[bytes]:
        """Apply the backward layer to consecutive payloads in one batch."""
        _CELLS_BWD.value += len(payloads)
        return self._bwd.process_many(payloads)

    def crypt_forward_ahead(self, payload: bytes, train: list[bytes] | None,
                            index: int) -> tuple[bytes, list[bytes] | None]:
        """:meth:`crypt_forward` for a delivered cell: ``payload`` is
        ``train[index]`` of the burst its sender batched, or ``train`` is
        ``None``.  Returns the crypted payload and the train it is now
        part of, for the next hop to read ahead over in its turn."""
        _CELLS_FWD.value += 1
        return self._fwd.process_ahead(payload, train, index)

    def crypt_backward_ahead(self, payload: bytes, train: list[bytes] | None,
                             index: int) -> tuple[bytes, list[bytes] | None]:
        """:meth:`crypt_backward` for a delivered cell; see
        :meth:`crypt_forward_ahead`."""
        _CELLS_BWD.value += 1
        return self._bwd.process_ahead(payload, train, index)

    # -- digests ---------------------------------------------------------
    # SHA-256(digest key || 8-byte seq || payload, digest field zeroed)[:4]

    def seal_many(self, cells: Iterable[tuple[int, bytes]], direction: str,
                  command: RelayCommand = RelayCommand.DATA) -> list[bytes]:
        """Pack ``(stream_id, data)`` relay cells, in order, each with the
        next send digest for ``direction``: one pass over the burst."""
        state = self._fwd if direction == FORWARD else self._bwd
        key, seq = state._digest_key, state._send_seq
        sealed = []
        for stream_id, data in cells:
            buf = pack_relay(command, stream_id, data)
            digest = sha256(key)
            digest.update(seq.to_bytes(8, "big"))
            digest.update(buf)
            buf[4:8] = digest.digest()[:4]
            sealed.append(bytes(buf))
            seq += 1
        state._send_seq = seq
        return sealed

    def seal_payload(self, cell: RelayCellPayload, direction: str) -> bytes:
        """Pack one relay payload with the next send digest for ``direction``."""
        return self.seal_many(((cell.stream_id, cell.data),), direction,
                              cell.command)[0]

    def open_payload(self, payload: bytes, direction: str) -> RelayCellPayload | None:
        """The parsed payload if this hop is its endpoint, else ``None``
        (the caller forwards the cell on).  The digest is checked before
        the parse, and the receive counter advances only when both pass,
        so pass-through cells never desynchronise the digest chain."""
        if len(payload) != RELAY_PAYLOAD_SIZE or payload[0] or payload[1]:
            return None
        state = self._fwd if direction == FORWARD else self._bwd
        seq = state._recv_seq
        digest = sha256(state._digest_key)
        digest.update(seq.to_bytes(8, "big"))
        digest.update(payload[:4])
        digest.update(ZERO_DIGEST)
        digest.update(payload[8:])
        if digest.digest()[:4] != payload[4:8]:
            return None
        try:
            parsed = RelayCellPayload.unpack(payload)
        except ProtocolError:
            return None
        state._recv_seq = seq + 1
        return parsed


class BackwardPeel:
    """A circuit owner's unwrap of what it receives, outermost hop first
    ("Who reads ahead" above).  It holds the train whose cells have passed
    every hop, and those that start ``00 00`` at an outer hop
    (``_stops``), until the train's last cell."""

    __slots__ = ("_hops", "_train", "_next", "_directions", "_outputs",
                 "_stops")

    def __init__(self, hops: list[HopCrypto]) -> None:
        self._hops = hops       # the owner's list: a hop it adds counts
        self._train = None

    def open(self, payload: bytes, train: list[bytes] | None,
             index: int) -> tuple[int, RelayCellPayload | None, bytes]:
        """Peel ``payload`` (``train[index]``) until a hop recognises it:
        that hop's index, the parsed cell and the payload as it left the
        hop, or the innermost hop's, ``None`` and its output."""
        hops = self._hops
        if (train is not None and train is self._train
                and index == self._next and index not in self._stops):
            # No outer hop can recognise it: every hop hands it out.  The
            # peel alone drives its hops' backward directions, so each is
            # where the peel left it.
            directions, outputs = self._directions, self._outputs
            self._next = after = index + 1
            for direction in directions:
                direction._next = after
            if after == len(train):         # the last: let go of it
                for direction in directions:
                    direction._source = direction._output = None
                self._train = self._directions = self._outputs = None
            _CELLS_BWD.value += len(hops)
            payload = outputs[-1][index]
            return len(hops) - 1, hops[-1].open_payload(payload, BACKWARD), payload
        self._train = self._directions = self._outputs = None
        inner, source, crypted, parsed = len(hops) - 1, train, [], None
        for at, hop in enumerate(hops):
            payload, train = hop.crypt_backward_ahead(payload, train, index)
            crypted.append(train)
            parsed = hop.open_payload(payload, BACKWARD)
            if parsed is not None and at < inner:
                return at, parsed, payload
        if crypted and train is not None and index + 1 < len(train):
            self._hold(source, index, crypted)
        return inner, parsed, payload

    def _hold(self, train: list[bytes], index: int,
              outputs: list[list[bytes]]) -> None:
        # Cell ``index`` of ``train`` has just left the innermost hop, so
        # every hop is reading ahead over the train.
        self._train, self._next = train, index + 1
        self._directions = [hop._bwd for hop in self._hops]
        self._outputs = outputs
        self._stops = {later for output in outputs[:-1]
                       for later in range(index + 1, len(output))
                       if output[later][:2] == b"\x00\x00"}

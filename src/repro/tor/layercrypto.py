"""Layered ("onion") relay-cell crypto and recognized/digest checking.

Each hop holds a :class:`HopCrypto`: stateful forward and backward XOR
stream ciphers plus rolling digest counters.  A client applies its hops'
forward ciphers outermost-last; each relay applies its own once; whichever
hop finds the cell *recognized* (leading zeros and a valid rolling digest)
consumes it.

Two modes share one interface:

* ``real`` — AES-128-CTR (:mod:`repro.crypto.stream`), one C call per burst.
* ``fast`` — a cached per-hop pad, one big-int XOR per cell.  Structurally
  identical (payloads still mutate per layer, recognition/digests still
  enforced), ten times the cost to construct and now slower per cell in a
  burst as well as outside one (measured in ROADMAP item 2, which deletes
  it).  Never a security claim.

**Who batches.**  The sender of a burst: a client draining its package
window (``Circuit._send_data_many``) and an exit draining a stream window
(``Relay._reply_many``) seal each cell, crypt the burst with one
``crypt_*_many`` call per hop, and put the list the last call returned on
the cells they build (``Cell.train``, ``Cell.index``): a *train*.

**Who reads ahead.**  Everyone a train then passes: a relay forwarding it
and the client unwrapping it call ``crypt_*_ahead``.  Handed cell ``i`` of a
train it is not already inside, a direction runs ``train[i:]`` through the
cipher in one call and keeps the result; it returns ``output[i]`` and the
output list, which is the cell's train at the next hop.  Cells ``i+1...``
arriving in order are answered from the kept list with no cipher call.
Recognition, digests and flow control stay per cell, at its own delivery.

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

import hashlib

from repro.crypto.kdf import hkdf
from repro.crypto.stream import StreamCipher
from repro.obs.metrics import REGISTRY as _metrics

# Hottest counters in the codebase: handles cached at import, one plain
# attribute add per call (the registry resets values in place).
_CELLS_FWD = _metrics.counter("cells_crypted", {"direction": "fwd"})
_CELLS_BWD = _metrics.counter("cells_crypted", {"direction": "bwd"})
from repro.tor.cell import RELAY_PAYLOAD_SIZE, RelayCellPayload
from repro.tor.ntor import CircuitKeys
from repro.util.bytesutil import xor_bytes
from repro.util.errors import ProtocolError

FORWARD = "f"
BACKWARD = "b"


class _Direction:
    """One direction's cipher, and the train it has read ahead over."""

    __slots__ = ("_cipher", "_source", "_output", "_next", "_unread")

    def __init__(self, key: bytes, nonce: bytes) -> None:
        self._cipher = StreamCipher(key, nonce=nonce)
        self._source: list[bytes] | None = None  # train being read ahead
        self._output: list[bytes] | None = None  # the same cells, crypted
        self._next = 0                  # first cell of it not yet handed out
        self._unread = b""              # keystream an abandon gave back

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


class _RealLayer:
    """Stateful keystream XOR, independent per direction.

    Every entry point is its direction's method, bound once: the per-cell
    path goes straight there, with no frame in between.
    """

    def __init__(self, keys: CircuitKeys) -> None:
        fwd = self._fwd = _Direction(keys.kf, b"layer-f")
        bwd = self._bwd = _Direction(keys.kb, b"layer-b")
        self.forward, self.backward = fwd.process, bwd.process
        self.forward_many, self.backward_many = fwd.process_many, bwd.process_many
        self.forward_ahead, self.backward_ahead = fwd.process_ahead, bwd.process_ahead


class _FastLayer:
    """Cached-pad XOR: one pad per direction, reused every cell.

    The pads are cached both as bytes and as big ints, so the per-cell
    work in the common full-payload case is a single int XOR.
    """

    def __init__(self, keys: CircuitKeys) -> None:
        self._fwd_pad = hkdf(keys.kf, info=b"fast-pad-f", length=RELAY_PAYLOAD_SIZE)
        self._bwd_pad = hkdf(keys.kb, info=b"fast-pad-b", length=RELAY_PAYLOAD_SIZE)
        self._fwd_int = int.from_bytes(self._fwd_pad, "big")
        self._bwd_int = int.from_bytes(self._bwd_pad, "big")

    def forward(self, payload: bytes) -> bytes:
        """Apply the forward-direction layer."""
        if len(payload) == RELAY_PAYLOAD_SIZE:
            return (int.from_bytes(payload, "big") ^ self._fwd_int).to_bytes(
                RELAY_PAYLOAD_SIZE, "big")
        return xor_bytes(payload, self._fwd_pad)

    def backward(self, payload: bytes) -> bytes:
        """Apply the backward-direction layer."""
        if len(payload) == RELAY_PAYLOAD_SIZE:
            return (int.from_bytes(payload, "big") ^ self._bwd_int).to_bytes(
                RELAY_PAYLOAD_SIZE, "big")
        return xor_bytes(payload, self._bwd_pad)

    def forward_many(self, payloads: list[bytes]) -> list[bytes]:
        """Apply the forward layer to each payload (pad reuse: no batching gain)."""
        return [self.forward(p) for p in payloads]

    def backward_many(self, payloads: list[bytes]) -> list[bytes]:
        """Apply the backward layer to each payload."""
        return [self.backward(p) for p in payloads]

    def forward_ahead(self, payload: bytes, _train, _index) -> tuple:
        """A pad has no stream position to read ahead from: no train."""
        return self.forward(payload), None

    def backward_ahead(self, payload: bytes, _train, _index) -> tuple:
        """A pad has no stream position to read ahead from: no train."""
        return self.backward(payload), None


class HopCrypto:
    """One hop's cipher state plus rolling digests for recognized cells.

    The same class serves both the client's per-hop replica and the relay's
    own state; XOR stream ciphers make encrypt and decrypt the same
    operation at matching stream positions, and both stay in sync because
    every forward cell crosses each hop exactly once (and symmetrically
    backward).
    """

    def __init__(self, keys: CircuitKeys, fast: bool = False) -> None:
        self._layer = _FastLayer(keys) if fast else _RealLayer(keys)
        self._digest_keys = {FORWARD: keys.df, BACKWARD: keys.db}
        self._send_seq = {FORWARD: 0, BACKWARD: 0}
        self._recv_seq = {FORWARD: 0, BACKWARD: 0}

    # -- layer cipher -----------------------------------------------------

    def crypt_forward(self, payload: bytes) -> bytes:
        """Apply this hop's forward layer (encrypt at client, strip at relay)."""
        _CELLS_FWD.value += 1
        return self._layer.forward(payload)

    def crypt_backward(self, payload: bytes) -> bytes:
        """Apply this hop's backward layer."""
        _CELLS_BWD.value += 1
        return self._layer.backward(payload)

    def crypt_forward_many(self, payloads: list[bytes]) -> list[bytes]:
        """Apply the forward layer to consecutive payloads in one batch.

        Equivalent to mapping :meth:`crypt_forward`; the cipher stream is
        consumed in list order.
        """
        _CELLS_FWD.value += len(payloads)
        return self._layer.forward_many(payloads)

    def crypt_backward_many(self, payloads: list[bytes]) -> list[bytes]:
        """Apply the backward layer to consecutive payloads in one batch."""
        _CELLS_BWD.value += len(payloads)
        return self._layer.backward_many(payloads)

    def crypt_forward_ahead(self, payload: bytes, train: list[bytes] | None,
                            index: int) -> tuple[bytes, list[bytes] | None]:
        """:meth:`crypt_forward` for a delivered cell: ``payload`` is
        ``train[index]`` of the burst its sender batched, or ``train`` is
        ``None``.  Returns the crypted payload and the train it is now
        part of, for the next hop to read ahead over in its turn."""
        _CELLS_FWD.value += 1
        return self._layer.forward_ahead(payload, train, index)

    def crypt_backward_ahead(self, payload: bytes, train: list[bytes] | None,
                             index: int) -> tuple[bytes, list[bytes] | None]:
        """:meth:`crypt_backward` for a delivered cell; see
        :meth:`crypt_forward_ahead`."""
        _CELLS_BWD.value += 1
        return self._layer.backward_ahead(payload, train, index)

    # -- digests ---------------------------------------------------------

    def _digest(self, direction: str, seq: int, payload_zero_digest: bytes) -> bytes:
        # Streaming updates instead of one concatenated material buffer:
        # same digest, no 500-byte temporary, and bytearray inputs work.
        digest = hashlib.sha256(self._digest_keys[direction])
        digest.update(seq.to_bytes(8, "big"))
        digest.update(payload_zero_digest)
        return digest.digest()[:4]

    def seal_payload(self, cell: RelayCellPayload, direction: str) -> bytes:
        """Pack a relay payload with the next send digest for ``direction``."""
        seq = self._send_seq[direction]
        self._send_seq[direction] = seq + 1
        buf = cell.pack_buf()
        digest = self._digest(direction, seq, buf)
        # Digest occupies bytes 4..8 of the packed payload; splice it into
        # the pack buffer in place instead of re-packing (or slicing and
        # re-concatenating) the whole cell.
        buf[4:8] = digest
        return bytes(buf)

    def open_payload(self, payload: bytes, direction: str) -> RelayCellPayload | None:
        """Recognition check: parse + verify digest, consuming one recv seq.

        Returns the parsed payload if this hop is the intended endpoint,
        else ``None`` (the caller forwards the cell on).  The receive
        counter only advances on success, so unrecognized pass-through
        cells never desynchronise the digest chain.
        """
        if not RelayCellPayload.looks_recognized(payload):
            return None
        try:
            parsed = RelayCellPayload.unpack(payload)
        except ProtocolError:
            return None
        # Zero the digest field (bytes 4..8) for the digest computation —
        # one copy plus an in-place splice, not two slices and a concat.
        zeroed = bytearray(payload)
        zeroed[4:8] = b"\x00\x00\x00\x00"
        seq = self._recv_seq[direction]
        expected = self._digest(direction, seq, zeroed)
        if expected != parsed.digest:
            return None
        self._recv_seq[direction] = seq + 1
        return parsed

"""Layered ("onion") relay-cell crypto and recognized/digest checking.

Each hop holds a :class:`HopCrypto`: stateful forward and backward XOR
stream ciphers plus rolling digest counters.  A client applies its hops'
forward ciphers outermost-last; each relay applies its own once; whichever
hop finds the cell *recognized* (leading zeros and a valid rolling digest)
consumes it.

Two modes share one interface:

* ``real`` — AES-128-CTR (:mod:`repro.crypto.stream`), one C call per cell.
* ``fast`` — a cached per-hop pad, one big-int XOR per cell.  Structurally
  identical (payloads still mutate per layer, recognition/digests still
  enforced) and faster only on long runs of unbatched cells: it costs ten
  times as much to construct and four times as much per batched cell
  (measured in ROADMAP item 2, which deletes it).  Never a security claim.

Both modes expose ``crypt_*_many`` batch entry points: a relay draining a
full stream window crypts all those cells with one call into the cipher
(real mode) instead of one per cell.  The ciphertext is identical either
way; batching only saves Python round trips.
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


class _RealLayer:
    """Stateful keystream XOR, independent per direction."""

    def __init__(self, keys: CircuitKeys) -> None:
        self._fwd = StreamCipher(keys.kf, nonce=b"layer-f")
        self._bwd = StreamCipher(keys.kb, nonce=b"layer-b")

    def forward(self, payload: bytes) -> bytes:
        """Apply the forward-direction layer."""
        return self._fwd.process(payload)

    def backward(self, payload: bytes) -> bytes:
        """Apply the backward-direction layer."""
        return self._bwd.process(payload)

    def forward_many(self, payloads: list[bytes]) -> list[bytes]:
        """Apply the forward layer to consecutive payloads in one batch."""
        return self._fwd.process_many(payloads)

    def backward_many(self, payloads: list[bytes]) -> list[bytes]:
        """Apply the backward layer to consecutive payloads in one batch."""
        return self._bwd.process_many(payloads)


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
        seq = self._recv_seq[FORWARD if direction == FORWARD else BACKWARD]
        expected = self._digest(direction, seq, zeroed)
        if expected != parsed.digest:
            return None
        self._recv_seq[direction] = seq + 1
        return parsed

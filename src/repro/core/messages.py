"""The Bento wire protocol: one declaration per message type.

A message is one canonical-encoded dict per
:class:`~repro.netsim.bytestream.FramedStream` frame.  Its ``type`` names
a frame type declared below: a frozen :class:`Frame` record whose
``WIRE`` fields each have a builtin kind (``object``: any canonical value),
or ``(kind, default)`` if optional.  An optional field the sender leaves out
stays off the wire.

Every frame has ``rid``, the request id.  A client session numbers its
requests from 1, and every answer carries the ``rid`` of the request it
answers (``Output``: of the message the function was handling when it
called ``api.send``).  ``rid`` 0 answers none: the "moved" notice.

:func:`decode_message` is the server's trust boundary (any Tor user may
talk to a box, §5.2).  It returns a typed frame or raises
:class:`FrameError` on an unknown type or key, a missing required field,
or a value of the wrong kind by :func:`~repro.util.spec.typed`'s rules: a
``bool`` is not an ``int``; an ``int`` passes for a ``float``.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.core.errors import (BentoError, FunctionCrashed, FunctionMoved,
                               ManifestRejected, PuzzleRequired, ServerBusy,
                               TokenInvalid)
from repro.netsim.bytestream import FramedStream
from repro.util.errors import ProtocolError
from repro.util.serialization import (SerializationError, canonical_decode,
                                      canonical_pieces)
from repro.util.spec import PeerRecord, field_table, read_fields

_TYPES: dict[str, type[Frame]] = {}


class FrameError(ProtocolError):
    """Bytes that are no declared frame; ``rid`` is theirs if readable."""

    def __init__(self, detail: str, rid: int = 0) -> None:
        super().__init__(detail)
        self.rid = rid


class Frame(PeerRecord, frozen=True):
    """A Bento message: the base of every type :func:`_frame` declares."""

    TYPE = ""


def _frame(tag: str, **kinds: Any) -> type[Frame]:
    """Declare frame type ``tag``: a :class:`Frame` whose ``WIRE`` table
    (``rid`` included) is built once."""
    table = field_table(rid=(int, 0), **kinds)
    cls = type(tag.title().replace("_", ""), (Frame,), {
        "__module__": __name__, "TYPE": tag, "WIRE": table})
    _TYPES[tag] = cls
    return cls


# Client -> server.
PolicyQuery = _frame("policy_query")
# ``priority`` and a solved puzzle (``pow_*``) are for the serving plane.
RequestImage = _frame("request_image", image=str, priority=(str, "bulk"),
                      pow_challenge=(bytes, b""), pow_nonce=(int, 0))
# ``code``, or ``sealed_code`` under the channel ``client_pub`` completes.
LoadFunction = _frame("load_function", token=str, manifest=dict,
                      code=(str, ""), sealed_code=(bytes, b""),
                      client_pub=(bytes, b""), data=(dict, None))
Invoke = _frame("invoke", token=str, args=list)
Msg = _frame("msg", token=str, payload=bytes)      # the next api.recv()
Attach = _frame("attach", token=str)               # share a token (§5.3)
Shutdown = _frame("shutdown", token=str)
# ``checkpoint``, or ``sealed_checkpoint`` under the attested channel.
Restore = _frame("restore", token=str, start=bool, checkpoint=(dict, None),
                 sealed_checkpoint=(bytes, b""), adopt_invocation=(str, ""),
                 adopt_shutdown=(str, ""))

# Server -> client.
Policy = _frame("policy", policy=dict)
ImageReady = _frame("image_ready", container_id=str, invocation=str,
                    shutdown=str, image=str, quote=(dict, None),
                    report=(dict, None), enclave_pub=(bytes, b""),
                    measurement=(str, ""))
Loaded = _frame("loaded")
Output = _frame("output", payload=bytes)
Done = _frame("done", result=object)
ShutdownOk = _frame("shutdown_ok")
Restored = _frame("restored", invocation=str, shutdown=str)
# ``reason`` names the failure's class; the rest is what that class carries.
Error = _frame("error", reason=str, detail=(str, ""), retry_after=(float, 0.0),
               challenge=(bytes, b""), difficulty=(int, 0), box_fp=(str, ""))

#: The spelling ``benchmarks/suite/drills.py`` uses for :data:`Msg`.
MSG = Msg

_REFUSALS = {cls.reason: cls for cls in (
    ManifestRejected, TokenInvalid, FunctionCrashed, ServerBusy,
    FunctionMoved, PuzzleRequired)}


def encode_message(kind: type[Frame], **fields: Any) -> bytes:
    """One wire frame of type ``kind``: ``fields``, and ``rid`` (0 unless
    given).  An undeclared type or field is a :class:`ProtocolError`."""
    return b"".join(message_pieces(kind, **fields))


def message_pieces(kind: type[Frame], **fields: Any) -> list:
    """:func:`encode_message`'s frame as the pieces ``send_frame`` joins
    behind its length: a bulk payload is copied once, onto the wire."""
    if _TYPES.get(getattr(kind, "TYPE", None)) is not kind \
            or not fields.keys() <= kind.WIRE.keys():
        raise ProtocolError(f"no such frame: {kind!r} with {sorted(fields)}")
    fields.setdefault("rid", 0)
    fields["type"] = kind.TYPE
    return canonical_pieces(fields)


def decode_message(frame) -> Frame:
    """Parse one wire frame (or a split one, ``(rest, leaf)``: see
    :class:`~repro.netsim.bytestream.Framer`) into its typed :class:`Frame`;
    raises :class:`FrameError` if the bytes are not one."""
    try:
        body = canonical_decode(*frame) if type(frame) is tuple \
            else canonical_decode(frame)
    except SerializationError as exc:
        raise FrameError(f"undecodable message: {exc}") from exc
    if type(body) is not dict:
        raise FrameError("message is not a dict")
    rid = body["rid"] if type(body.get("rid")) is int else 0
    tag = body.pop("type", None)
    kind = _TYPES.get(tag) if type(tag) is str else None
    if kind is None:
        raise FrameError(f"unknown message type: {tag!r}", rid)
    try:
        return kind(**read_fields(body, kind.WIRE, exact=True))
    except TypeError as exc:
        raise FrameError(f"bad {tag} frame: {exc}", rid) from None


def framed(stream) -> FramedStream:
    """A Bento stream over ``stream``: bulk frames travel by reference."""
    return FramedStream(stream, by_reference=True)


class Route(NamedTuple):
    """Where an answer goes: the client's transport and the request's rid."""

    framed: Any
    rid: int

    def send(self, kind: type[Frame], **fields: Any) -> None:
        self.framed.send_frame(*message_pieces(kind, rid=self.rid, **fields))


def error_fields(exc: BaseException) -> dict:
    """The :data:`Error` fields carrying ``exc``, by its class's ``reason``
    and ``wire_fields``."""
    return {"reason": getattr(exc, "reason", BentoError.reason),
            "detail": str(exc),
            **{name: getattr(exc, name)
               for name in getattr(exc, "wire_fields", ())}}


def error_from(frame: Frame) -> BentoError:
    """The exception an :data:`Error` frame carries, fields and all."""
    cls = _REFUSALS.get(frame.reason, BentoError)
    return cls(f"server error: {frame.reason} ({frame.detail})",
               **{name: getattr(frame, name) for name in cls.wire_fields})

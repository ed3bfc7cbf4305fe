"""The one strict-parsing idiom: spec dataclasses and peer-sent fields.

A spec (a workload scenario, a chain template) is plain data end to end.
Deriving a frozen dataclass from :class:`Spec` gives it, from its field
annotations alone:

* :meth:`Spec.to_dict` / :meth:`Spec.from_dict` — a lossless round-trip
  through JSON-able plain data (nested specs become dicts, tuples become
  lists);
* :meth:`Spec.to_json` / :meth:`Spec.from_json` / :meth:`Spec.from_file`
  — the spec as a reviewable text file;
* :meth:`Spec.digest` — SHA-256 over the canonical encoding, so two specs
  are the same iff their digests match.

Parsing is **strict**: an unknown key, a scalar of the wrong type (a bool
or a float where an int is declared, a string where a bool is) or a
non-list where a tuple is declared raises the family's own error class —
the only thing a family parameterises — instead of being silently
accepted, because a typo'd knob that parses is a spec you did not mean.
Cross-field rules stay in each class's ``__post_init__``.  The scalar
rule, :func:`typed`, is the tree's only one: Bento frames and any other
dict a peer sends (:func:`decode_request`) are checked by it too.

A record that crosses a trust boundary (a signed descriptor, an SGX quote,
an IAS report, a node policy) is a dataclass deriving from :class:`Record`
whose ``WIRE`` :func:`field_table` names its wire keys, which are its
attribute names, once; its wire dict and signed body follow from it, and a
:class:`PeerRecord` also decodes a peer's dict through :func:`read_fields`.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from typing import Any, Mapping, get_args, get_origin, get_type_hints

from repro.util.errors import ProtocolError, ReproError
from repro.util.serialization import (SerializationError, canonical_decode,
                                      canonical_digest, canonical_encode)

__all__ = ["PeerRecord", "Record", "Spec", "decode_request", "field_table",
           "read_fields", "typed"]


class Spec:
    """Base of every spec dataclass; subclasses set ``Error``/``context``."""

    #: What every validation or parse failure of this family raises.
    Error = ReproError
    #: How parse errors name this class (``"tenant.arrivals: unknown …"``).
    context = "spec"

    @classmethod
    def _require(cls, cond: bool, message: str) -> None:
        if not cond:
            raise cls.Error(message)

    # -- plain data out ----------------------------------------------------

    def to_dict(self) -> dict:
        """A plain JSON-able dict; ``from_dict`` inverts it exactly."""
        return {f.name: _plain(getattr(self, f.name)) for f in fields(self)}

    def to_json(self) -> str:
        """The spec as deterministic, reviewable JSON."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def digest(self) -> str:
        """SHA-256 over the canonical encoding: the spec's identity."""
        return canonical_digest(self.to_dict())

    # -- plain data in -----------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]):
        """Strict hydration: unknown keys and mistyped values are errors."""
        return _from_mapping(cls, data)

    @classmethod
    def from_json(cls, text: str):
        def reject(constant: str):
            # json.loads accepts NaN and ±Infinity, which are not JSON; an
            # infinite duration would run forever.
            raise cls.Error(f"{cls.context} is not valid JSON: "
                            f"{constant} is not a number")

        try:
            data = json.loads(text, parse_constant=reject)
        except json.JSONDecodeError as exc:
            raise cls.Error(
                f"{cls.context} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path: str):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def _from_mapping(cls: type, data: Mapping[str, Any]) -> Spec:
    """Strict dataclass hydration: unknown keys are errors."""
    cls._require(isinstance(data, Mapping),
                 f"{cls.context}: expected a mapping, "
                 f"got {type(data).__name__}")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    cls._require(not unknown, f"{cls.context}: unknown keys {unknown}")
    kinds = get_type_hints(cls)
    kwargs = {name: _from_plain(cls, kinds[name], value, name)
              for name, value in data.items()}
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise cls.Error(f"{cls.context}: {exc}") from exc


def _from_plain(cls: type, kind: Any, value: Any, name: str) -> Any:
    """``value`` as the ``kind`` ``cls`` declares for field ``name``."""
    if get_origin(kind) is tuple:
        cls._require(isinstance(value, (list, tuple)),
                     f"{cls.context}: '{name}' must be a list")
        return tuple(_from_plain(cls, get_args(kind)[0], item, name)
                     for item in value)
    if issubclass(kind, Spec):
        return _from_mapping(kind, value)
    try:
        return typed(kind, value)
    except TypeError:
        raise cls.Error(f"{cls.context}: '{name}' must be {kind.__name__}, "
                        f"got {value!r}") from None


def _plain(value: Any) -> Any:
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


#: How a record attribute of each container kind travels: as a list of
#: str, sorted for a set.  A nested record travels as its wire dict.
_LISTED = {tuple: list, frozenset: sorted}


class Record:
    """A record whose ``WIRE`` table (see :func:`field_table`) names its
    wire keys, each the name of an attribute, in wire order."""

    WIRE: Mapping[str, tuple[Any, Any]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Per field: its kind, how it is converted out, and its wire kind.
        cls._fields, cls._sent = [], {}
        for name, (kind, default) in cls.WIRE.items():
            nested = issubclass(kind, Record)
            out = kind.to_wire if nested else _LISTED.get(kind)
            cls._fields.append((name, kind, out))
            cls._sent[name] = (dict if nested else list if out else kind,
                               default)

    def to_wire(self) -> dict:
        """A plain-dict form safe to canonically encode."""
        return {name: getattr(self, name) if out is None
                else out(getattr(self, name)) for name, _, out in self._fields}

    def signed_body(self) -> bytes:
        """The canonical bytes the ``signature`` field covers: the rest."""
        wire = self.to_wire()
        del wire["signature"]
        return canonical_encode(wire)


class PeerRecord(Record):
    """A record a peer sends: :meth:`from_wire` is a trust boundary."""

    @classmethod
    def from_wire(cls, wire: Any):
        """The record a peer's dict carries; any other shape, the content
        checks of ``__post_init__`` included, is a ProtocolError."""
        try:
            values = read_fields(wire, cls._sent, exact=True)
            for name, kind, out in cls._fields:
                if kind in _LISTED:
                    "".join(values[name])   # a TypeError unless all are str
                    values[name] = kind(values[name])
                elif out is not None:
                    values[name] = kind.from_wire(values[name])
            return cls(**values)
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed {cls.__name__}: {exc}") from None


def field_table(**kinds: Any) -> dict[str, tuple[Any, Any]]:
    """``{field: (kind, default)}`` from ``field=kind`` or a tuple."""
    return {name: kind if type(kind) is tuple else (kind, MISSING)
            for name, kind in kinds.items()}


def typed(kind: type, value: Any, name: str = "value") -> Any:
    """``value`` if exactly a ``kind`` (``object``: any), else TypeError: a
    bool is an int to Python and an int a float to JSON, but ``"seq": true``
    is a mistake; only an int where a float is declared passes."""
    if type(value) is kind or kind is object:
        return value
    if kind is float and type(value) is int:
        return float(value)
    raise TypeError(f"{name!r} must be {kind.__name__}, "
                    f"got {type(value).__name__}")


def read_fields(body: Any, table: Mapping[str, tuple[Any, Any]],
                exact: bool = False) -> dict:
    """``table``'s fields out of ``body`` by :func:`typed`, defaults for
    absent ones (``MISSING``: a TypeError); ``exact`` refuses other keys."""
    if type(body) is not dict:
        raise TypeError(f"expected a dict, got {type(body).__name__}")
    if exact and not body.keys() <= table.keys():
        raise TypeError(f"unknown keys {sorted(body.keys() - table.keys())}")
    values = {}
    for name, (kind, default) in table.items():
        if name in body:
            values[name] = typed(kind, body[name], name)
        elif default is MISSING:
            raise TypeError(f"missing {kind.__name__} {name!r}")
        else:
            values[name] = default
    return values


def decode_request(data: bytes, **kinds: Any) -> list:
    """The named fields (see :func:`field_table`) of a peer's canonical
    dict, in order.  Anything else is a :class:`ProtocolError`, which costs
    the sender its request and its reader nothing."""
    try:
        return list(read_fields(canonical_decode(data),
                                field_table(**kinds)).values())
    except (SerializationError, TypeError) as exc:
        raise ProtocolError(f"malformed request: {exc}") from exc

"""The one spec idiom: strict, serializable, digestable frozen dataclasses.

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
Cross-field rules stay in each class's ``__post_init__``.
"""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Any, Mapping, get_args, get_origin, get_type_hints

from repro.util.errors import ReproError
from repro.util.serialization import canonical_digest

__all__ = ["Spec"]


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
        try:
            data = json.loads(text)
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
    # bool is an int to Python and an int is a float to JSON, but a spec
    # that says ``"shared": 0`` or ``"max_replicas": 1.0`` is a mistake:
    # only the int-written-for-a-float blur is normalized.
    if kind is float and type(value) is int:
        return float(value)
    cls._require(type(value) is kind,
                 f"{cls.context}: '{name}' must be {kind.__name__}, "
                 f"got {value!r}")
    return value


def _plain(value: Any) -> Any:
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value

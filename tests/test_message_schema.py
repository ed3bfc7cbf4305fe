"""The Bento frame schema as properties, for every declared frame type.

``decode_message`` is the server's trust boundary, so each type is fed
its own keys carrying values of the wrong kind, and arbitrary canonical
values: the only failure allowed is :class:`ProtocolError`.  And every
well-typed frame survives ``encode_message`` then ``decode_message``.
"""

from dataclasses import MISSING

import pytest
from hypothesis import given, strategies as st

from repro.core import messages
from repro.util.errors import ProtocolError
from repro.util.serialization import canonical_encode

TAGS = sorted(messages._TYPES)

_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.floats(allow_nan=False), st.text(max_size=8),
                     st.binary(max_size=8))
_values = st.recursive(
    _scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8)
_OF_KIND = {str: st.text(max_size=12), int: st.integers(),
            float: st.floats(allow_nan=False), bool: st.booleans(),
            bytes: st.binary(max_size=12), list: st.lists(_values, max_size=3),
            dict: st.dictionaries(st.text(max_size=6), _values, max_size=3),
            object: _values}


def _wrong(kind):
    """Canonical values :func:`repro.util.spec.typed` refuses as ``kind``."""
    return _values.filter(lambda value: type(value) is not kind
                          and not (kind is float and type(value) is int))


@given(st.sampled_from(TAGS), st.data())
def test_right_keys_wrong_types_are_only_protocol_errors(tag, data):
    kind = messages._TYPES[tag]
    body = {name: data.draw(_OF_KIND[of])
            for name, (of, _default) in kind.FIELDS.items()}
    wrong = data.draw(st.sampled_from(
        [name for name, (of, _default) in kind.FIELDS.items()
         if of is not object]))
    body[wrong] = data.draw(_wrong(kind.FIELDS[wrong][0]))
    with pytest.raises(ProtocolError):
        messages.decode_message(canonical_encode({"type": tag, **body}))


@given(st.sampled_from(TAGS), st.data())
def test_right_keys_any_values_decode_or_are_protocol_errors(tag, data):
    kind = messages._TYPES[tag]
    body = {name: data.draw(_values) for name in kind.FIELDS}
    try:
        frame = messages.decode_message(canonical_encode({"type": tag,
                                                          **body}))
    except ProtocolError:
        return
    assert type(frame) is kind


@given(st.sampled_from(TAGS), st.data())
def test_every_well_typed_frame_round_trips(tag, data):
    kind = messages._TYPES[tag]
    fields = {name: data.draw(_OF_KIND[of])
              for name, (of, default) in kind.FIELDS.items()
              if default is MISSING or data.draw(st.booleans())}
    frame = messages.decode_message(messages.encode_message(kind, **fields))
    assert type(frame) is kind
    assert frame == kind(**fields)

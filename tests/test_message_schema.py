"""The Bento frame schema as properties, for every declared frame type
and every record a peer sends inside one.

``decode_message`` is the server's trust boundary, and a record's
``from_wire`` the client's (a box's node policy, SGX quote and IAS
report), so each schema is fed its own keys carrying values of the wrong
kind, and arbitrary canonical values: the only failure allowed is
:class:`ProtocolError`.  And every well-typed frame survives
``encode_message`` then ``decode_message``, every well-typed record its
wire dict's canonical bytes and ``from_wire``.
"""

from dataclasses import MISSING

import pytest
from hypothesis import given, strategies as st

from repro.core import messages
from repro.core.apispec import ALL_API_CALLS
from repro.core.policy import MiddleboxNodePolicy
from repro.enclave.attestation import AttestationReport, Quote
from repro.sandbox.seccomp import ALL_SYSCALLS
from repro.util.errors import ProtocolError
from repro.util.serialization import canonical_decode, canonical_encode

TAGS = sorted(messages._TYPES)
RECORDS = {kind.__name__: kind
           for kind in (Quote, AttestationReport, MiddleboxNodePolicy)}
SCHEMAS = TAGS + sorted(RECORDS)

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


_quotes = st.builds(Quote, platform=st.text(max_size=8),
                    measurement=st.text(max_size=8), tcb=st.integers(),
                    report_data=st.binary(max_size=12),
                    signature=st.binary(max_size=12))
_names = st.lists(st.text(max_size=6), max_size=3)
#: A well-typed record of each kind, content checks passed.
_RECORD = {
    "Quote": _quotes,
    "AttestationReport": st.builds(
        AttestationReport, quote=_quotes, status=st.text(max_size=8),
        timestamp=st.floats(allow_nan=False),
        signature=st.binary(max_size=12)),
    "MiddleboxNodePolicy": st.builds(
        MiddleboxNodePolicy,
        api_calls=st.frozensets(st.sampled_from(sorted(ALL_API_CALLS))),
        syscalls=st.frozensets(st.sampled_from(sorted(ALL_SYSCALLS))),
        images=_names.map(tuple), max_function_memory=st.integers(),
        max_function_disk=st.integers(), max_total_memory=st.integers(),
        max_total_disk=st.integers(), max_containers=st.integers(),
        enclave_only=_names.map(frozenset)),
}


def _table(schema):
    """``{field: (wire kind, default)}`` that ``schema`` is read by."""
    if schema in RECORDS:
        return RECORDS[schema]._sent
    return messages._TYPES[schema].FIELDS


def _receive(schema, body):
    """``body`` sent as ``schema``, decoded as its receiver decodes it."""
    if schema in RECORDS:
        return RECORDS[schema].from_wire(
            canonical_decode(canonical_encode(body)))
    return messages.decode_message(canonical_encode({"type": schema, **body}))


def _wrong(kind):
    """Canonical values :func:`repro.util.spec.typed` refuses as ``kind``."""
    return _values.filter(lambda value: type(value) is not kind
                          and not (kind is float and type(value) is int))


@given(st.sampled_from(SCHEMAS), st.data())
def test_right_keys_wrong_types_are_only_protocol_errors(schema, data):
    table = _table(schema)
    body = {name: data.draw(_OF_KIND[of]) for name, (of, _) in table.items()}
    wrong = data.draw(st.sampled_from(
        [name for name, (of, _default) in table.items() if of is not object]))
    body[wrong] = data.draw(_wrong(table[wrong][0]))
    with pytest.raises(ProtocolError):
        _receive(schema, body)


@given(st.sampled_from(SCHEMAS), st.data())
def test_right_keys_any_values_decode_or_are_protocol_errors(schema, data):
    body = {name: data.draw(_values) for name in _table(schema)}
    try:
        decoded = _receive(schema, body)
    except ProtocolError:
        return
    assert type(decoded) is (RECORDS.get(schema) or messages._TYPES[schema])


@given(st.sampled_from(SCHEMAS), st.data())
def test_every_well_typed_frame_round_trips(schema, data):
    if schema in RECORDS:
        record = data.draw(_RECORD[schema])
        assert _receive(schema, record.to_wire()) == record
        return
    kind = messages._TYPES[schema]
    fields = {name: data.draw(_OF_KIND[of])
              for name, (of, default) in kind.FIELDS.items()
              if default is MISSING or data.draw(st.booleans())}
    frame = messages.decode_message(messages.encode_message(kind, **fields))
    assert type(frame) is kind
    assert frame == kind(**fields)

"""The dispatch-by-type canonical codec against its first form.

``codec_reference`` keeps the isinstance-chain codec the tree started
with.  The codec in ``repro.util.serialization`` must write the same bytes
for every value and, for any input bytes, decode the same value or raise a
:class:`SerializationError` with the same message.  ``TestOracleHasTeeth``
shows the properties failing on four plausible mistakes.
"""

import enum
import math
import pathlib
import sys
import types

import pytest
from hypothesis import example, given, strategies as st

from codec_reference import reference_decode, reference_encode
from repro.netsim import bytestream
from repro.util import serialization
from repro.util.serialization import MAX_DEPTH, SerializationError


class Colour(str, enum.Enum):
    """A ``(str, Enum)`` key: ``str()`` of it is ``'Colour.RED'``."""

    RED = "red"
    BLUE = "blue"


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 20


class Loud(str):
    """A str subclass whose ``str()`` is not its text."""

    def __str__(self) -> str:
        return self.upper() + "!"


class Count(int):
    pass


_leaves = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-(10 ** 40), 10 ** 40),
    st.floats(),                                 # NaN and the infinities too
    st.text(max_size=12), st.binary(max_size=16),
    st.characters(categories=["Cs"]),            # a lone surrogate
    st.sampled_from(list(Colour)), st.sampled_from(list(Level)),
    st.text(max_size=6).map(Loud), st.integers(-99, 99).map(Count),
    st.binary(max_size=8).map(bytearray), st.binary(max_size=8).map(memoryview),
)
_keys = st.one_of(
    st.text(max_size=6), st.sampled_from(list(Colour)),
    st.text(max_size=4).map(Loud),
    st.integers(0, 3) | st.none(),               # refused, and said so
)
_values = st.recursive(_leaves, lambda children: st.one_of(
    st.lists(children, max_size=5),
    st.lists(children, max_size=3).map(tuple),
    st.dictionaries(_keys, children, max_size=5),
    st.dictionaries(st.text(max_size=6), children, max_size=5),
), max_leaves=25)


def _nest(depth: int, kind) -> object:
    value = "leaf"
    for _ in range(depth):
        value = [value] if kind is list else {"k": value}
    return value


#: Values at and just past MAX_DEPTH: encode has no limit, decode does.
_DEEP = [_nest(depth, kind) for depth in (MAX_DEPTH, MAX_DEPTH + 1)
         for kind in (list, dict)]


def _outcome(fn, arg):
    try:
        return "value", fn(arg)
    except Exception as exc:  # compared below, by class and message
        return "raised", (type(exc), str(exc))


def _same(a, b) -> bool:
    """Equal values of equal types, NaN equal to itself, dict order kept."""
    if type(a) is not type(b):
        return False
    if type(a) is float:
        return a == b or (math.isnan(a) and math.isnan(b))
    if type(a) is list:
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is dict:
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    return a == b


def check_encode(codec, value) -> None:
    want, got = _outcome(reference_encode, value), _outcome(
        codec.canonical_encode, value)
    assert want == got


def check_decode(codec, data: bytes) -> None:
    (want_kind, want), (got_kind, got) = (
        _outcome(reference_decode, data),
        _outcome(codec.canonical_decode, data))
    assert want_kind == got_kind, (want, got)
    if want_kind == "raised":
        assert want[0] is SerializationError and got == want
    else:
        assert _same(want, got), (want, got)


def _encodable(value) -> bool:
    return _outcome(reference_encode, value)[0] == "value"


_encodable_values = _values.filter(_encodable)

#: Inputs made to look like encodings: tag letters, small lengths, digits.
_wireish = st.lists(st.sampled_from(b"NTFIDSBLM\x00\x00\x00\x01\x02\x05-07\xff"),
                    max_size=60).map(bytes)


@st.composite
def _damaged(draw):
    """A valid encoding with one byte changed."""
    data = reference_encode(draw(_encodable_values))
    at = draw(st.integers(0, len(data) - 1))
    return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]


_inputs = st.one_of(st.binary(max_size=80), _wireish, _damaged(),
                    _encodable_values.map(reference_encode))


@given(_values)
@example({"type": "msg", "rid": 7, "payload": b"x", "token": "t"})
@example(float("nan"))
@example([1.0, float("nan")])
@example({"b": 1, Colour.RED: 2, Loud("a"): [Level.HIGH, True]})
@example(10 ** 5000)
@example(Count(10 ** 5000))    # past str()'s limit
@example({"k": 1, 2: 3})
@example({Colour.BLUE: 1, None: 2})
def test_same_bytes_for_every_value(value):
    check_encode(serialization, value)


@pytest.mark.parametrize("value", _DEEP, ids=["list64", "dict64",
                                          "list65", "dict65"])
def test_depth_64_and_65(value):
    check_encode(serialization, value)
    check_decode(serialization, reference_encode(value))


@given(_inputs)
@example(b"")
@example(b"S\x00\x00\x00\x02\xff\xfe")     # not UTF-8
@example(b"I\x00\x00\x00\x021\x1c")
@example(b"I\x00\x00\x00\x01x")
@example(b"M\x00\x00\x00\x01I\x00\x00\x00\x011N")       # int key
@example(b"L\x00\x00\x00\x02S\x00\x00\x00\x05ab")       # truncated leaf
@example(b"D\x7f\xf8\x00\x00\x00\x00\x00\x00")
@example(b"NN")
@example(b"Q")
def test_same_value_or_message_for_any_bytes(data):
    check_decode(serialization, data)


@given(_encodable_values)
@example({"type": "msg", "rid": 7, "payload": b"x", "token": "t"})
def test_same_value_or_message_for_every_prefix(value):
    data = reference_encode(value)
    for cut in range(len(data)):
        check_decode(serialization, data[:cut])


_MIB = 1 << 20
_BIG = bytes(range(256)) * (2 * _MIB // 256)        # 2 MiB
_HUGE = b"\xa5" * (3 * _MIB + 7)

#: Bulk ``bytes`` leaves, which the codec hands on by reference: at top
#: level, in a dict, in a list, and nested with each other and small ones.
_BULK = [
    _BIG,
    {"type": "msg", "rid": 7, "payload": _BIG, "token": "t"},
    [_HUGE, 1, b"x", "s"],
    {"a": [{"b": _BIG, "c": b"q" * 70_000}], "d": (_HUGE, _BIG),
     "e": {"f": [[_BIG]]}, "g": bytearray(_BIG[:90_000])},
]


def test_multi_mib_leaves_encode_as_the_reference_does():
    for value in _BULK:
        want = reference_encode(value)
        assert serialization.canonical_encode(value) == want
        pieces = serialization.canonical_pieces(value)
        assert b"".join(pieces) == want
        assert any(piece is _BIG or piece is _HUGE for piece in pieces)
        check_decode(serialization, want)


def _mutant(old: str, new: str) -> types.ModuleType:
    """``repro.util.serialization`` with ``old`` (which must occur once)
    replaced by ``new``, raising the real SerializationError."""
    source = pathlib.Path(serialization.__file__).read_text()
    assert source.count(old) == 1, old
    module = types.ModuleType("serialization_mutant")
    exec(compile(source.replace(old, new), "<mutant>", "exec"),
         module.__dict__)
    module.SerializationError = SerializationError
    return module


class TestOracleHasTeeth:
    """Each mutant makes one of the properties above, exactly as written,
    fail."""

    @pytest.fixture()
    def fails_under(self, monkeypatch):
        def check(old: str, new: str, prop) -> None:
            monkeypatch.setattr(sys.modules[__name__], "serialization",
                                _mutant(old, new))
            with pytest.raises((AssertionError, ExceptionGroup)) as failed:
                prop()
            if isinstance(failed.value, ExceptionGroup):
                assert failed.value.split(AssertionError)[1] is None
        return check

    def test_unsorted_keys_are_caught(self, fails_under):
        fails_under("for key in sorted(value):\n            raw = key",
                    "for key in value:\n            raw = key",
                    test_same_bytes_for_every_value)

    def test_a_length_off_by_one_is_caught(self, fails_under):
        fails_under("            if offset > size:\n"
                    "                raise SerializationError(_TRUNCATED)\n"
                    "            raw = data[start:offset]\n"
                    "            result[key]",
                    "            if offset > size + 1:\n"
                    "                raise SerializationError(_TRUNCATED)\n"
                    "            raw = data[start:offset]\n"
                    "            result[key]",
                    test_same_value_or_message_for_every_prefix)

    def test_a_by_reference_leaf_out_of_place_is_caught(self, fails_under):
        fails_under("out.leaves.append((len(out), value))",
                    "out.leaves.append((len(out) - 1, value))",
                    test_multi_mib_leaves_encode_as_the_reference_does)

    def test_the_first_value_winning_over_a_later_equal_key_is_caught(
            self, fails_under):
        fails_under("    value.update(rest)\n",
                    "    value = {**rest, **value}\n",
                    test_split_decode_is_the_whole_decode)

    def test_str_of_a_str_subclass_is_caught(self, fails_under):
        fails_under('encoded = value.encode("utf-8")',
                    'encoded = str(value).encode("utf-8")',
                    test_same_bytes_for_every_value)


# -- a frame's leading leaf taken by reference ------------------------------

_BY_REF = serialization.BY_REFERENCE
_LEAF_BYTES = bytes(range(256)) * (_BY_REF // 256 + 1)


def _u32(n: int) -> bytes:
    return n.to_bytes(4, "big")


@st.composite
def _leading_leaf_bodies(draw):
    """A dict's encoding that starts with a big ``bytes`` leaf, or nearly:
    the leaf one byte short of ``BY_REFERENCE`` or announced past the end,
    a count of 0, a non-UTF-8 first key, a dict where the leaf would be,
    and after it well-formed pairs (the first key again among them) or
    wire-like noise."""
    key = draw(st.sampled_from([b"payload", b"a", b"", b"\xff\xfe"]))
    pairs = draw(st.lists(st.tuples(
        st.sampled_from(["payload", "rid", "zz", key.decode(errors="replace")]),
        _encodable_values), max_size=3))
    count = draw(st.sampled_from([len(pairs) + 1, 0, len(pairs) + 2]))
    size = _BY_REF + draw(st.sampled_from([-1, 0, 3]))
    short = draw(st.sampled_from([0, 0, 0, 1, 70]))   # bytes missing
    first = draw(st.sampled_from([b"B", b"B", b"M"]))
    rest = b"".join(reference_encode(k) + reference_encode(v)
                    for k, v in pairs) if pairs else draw(_wireish)
    return (b"M" + _u32(count) + b"S" + _u32(len(key)) + key + first
            + _u32(size) + _LEAF_BYTES[:size - short] + rest)


def _split_decode(body: bytes, cut: int):
    """``body`` framed, received by a splitting framer in two reads (the
    first ``cut`` bytes, then the rest), and decoded as a Bento stream
    decodes it."""
    framer = bytestream.Framer(by_reference=True)
    wire = bytestream.Framer.encode(body)
    frames = framer.feed(wire[:cut]) + framer.feed(wire[cut:])
    assert len(frames) == 1 and framer.pending_bytes == 0
    (frame,) = frames
    if type(frame) is tuple:
        return serialization.canonical_decode(*frame)
    return serialization.canonical_decode(frame)


def _splits(body: bytes) -> bool:
    at = serialization.leading_leaf(body)
    return bool(at) and at + int.from_bytes(body[at - 4:at], "big") <= len(body)


def split_check(body: bytes) -> None:
    """Gathered behind a 40-byte first read, or cut out of one whole read,
    the frame decodes as the reference decodes the whole body."""
    want_kind, want = _outcome(reference_decode, body)
    for cut in (40, len(body) + 4):
        got_kind, got = _outcome(lambda b: _split_decode(b, cut), body)
        assert want_kind == got_kind, (want, got)
        if want_kind == "raised":
            assert want[0] is SerializationError and got == want
        else:
            assert _same(want, got), (want, got)


_MSG = reference_encode({"payload": _LEAF_BYTES[:_BY_REF], "rid": 7,
                         "token": "t", "type": "msg"})


@given(_leading_leaf_bodies())
@example(_MSG)
# The leaf announced past the frame's end.
@example(_MSG[:22 + _BY_REF - 5])
@example(_MSG[:18] + _u32(len(_MSG)) + _MSG[22:])
# The leaf's key later in the dict: the codec keeps the last value.
@example(b"M" + _u32(2) + _MSG[5:22 + _BY_REF]
         + reference_encode("payload") + reference_encode(5))
# A non-UTF-8 first key.
@example(b"M" + _u32(1) + b"S" + _u32(2) + b"\xff\xfe" + b"B" + _u32(_BY_REF)
         + _LEAF_BYTES[:_BY_REF])
# A leaf one byte under BY_REFERENCE: not split, decoded whole.
@example(reference_encode({"payload": _LEAF_BYTES[:_BY_REF - 1], "rid": 1}))
# A dict as the first value.
@example(reference_encode({"a": {"b": _LEAF_BYTES[:_BY_REF]}, "c": 1}))
def test_split_decode_is_the_whole_decode(body):
    split_check(body)


def test_the_split_examples_split():
    """Not vacuous: a leaf of BY_REFERENCE bytes or more that the frame
    holds is taken by reference, and nothing else is."""
    assert _splits(_MSG)
    leaf = dict(serialization.canonical_decode(*_split_parts(_MSG)))["payload"]
    assert leaf == _LEAF_BYTES[:_BY_REF]
    assert not _splits(_MSG[:22 + _BY_REF - 5])
    assert not _splits(reference_encode({"payload": b"x" * (_BY_REF - 1)}))
    assert not _splits(reference_encode({"a": {"b": _LEAF_BYTES[:_BY_REF]}}))


def _split_parts(body: bytes) -> tuple:
    at = serialization.leading_leaf(body)
    end = at + int.from_bytes(body[at - 4:at], "big")
    return body[:at] + body[end:], body[at:end]

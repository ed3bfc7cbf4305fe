"""Typed Bento frames at the server's trust boundary, replies matched by
``rid``, and no peer's dict read straight out of the codec (ROADMAP 12)."""

import pathlib
import re

import pytest

import repro
from repro.core import messages
from repro.core.client import BentoClient
from repro.core.manifest import FunctionManifest
from repro.netsim.simulator import SimTimeoutError
from repro.util.errors import ProtocolError
from repro.util.serialization import canonical_encode

from conftest import run_thread

#: ROADMAP 3, reproduction (ii): each killed the session actor, and the
#: client heard nothing until its read timed out.  Built from the
#: session's (invocation, shutdown) tokens.
HOSTILE = {
    "load_function without a manifest":
        lambda inv, _sd: {"type": "load_function", "token": inv},
    "load_function with an empty manifest":
        lambda inv, _sd: {"type": "load_function", "token": inv,
                          "manifest": {}, "code": "x"},
    "load_function with an int manifest name":
        lambda inv, _sd: {"type": "load_function", "token": inv,
                          "manifest": {"name": 5}, "code": "x"},
    "invoke with int args":
        lambda inv, _sd: {"type": "invoke", "token": inv, "args": 5},
    "attach with a list token":
        lambda inv, _sd: {"type": "attach", "token": [inv]},
    "checkpoint with a str seq":
        lambda _inv, sd: {"type": "checkpoint", "token": sd, "seq": "x"},
}

SLOW_ECHO = """
def slow_echo():
    while True:
        message = yield from api.recv(timeout=600.0)
        if message == b"slow":
            yield from api.sleep(30.0)
        yield from api.send(message)
"""


def _client(net):
    return BentoClient(net.create_client(), ias=net.ias)


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_a_mistyped_frame_is_answered_and_the_session_serves_on(bento_net,
                                                                name):
    client = _client(bento_net)

    def main(thread):
        session = yield from client.connect(thread, client.pick_box())
        yield from session.request_image(thread, "python")
        body = HOSTILE[name](session.invocation_token, session.shutdown_token)
        session.framed.send_frame(canonical_encode({**body, "rid": 41}))
        answer = messages.decode_message(
            (yield from session.framed.recv_frame(thread, timeout=60.0)))
        policy = yield from session.query_policy(thread)    # honest, after
        session.close()
        return answer, policy

    answer, policy = run_thread(bento_net, main)
    assert type(answer) is messages.Error
    assert (answer.reason, answer.rid) == ("bad-message", 41)
    assert "python" in policy.offered_images
    assert not bento_net.sim._failed


def test_a_late_reply_is_not_read_as_the_next_ones(bento_net):
    """The reply crossing ``drop_transport`` used to paper over: the first
    read times out with its answer still in flight, and the second read
    must get the second message's answer, not the late first one."""
    client = _client(bento_net)

    def main(thread):
        session = yield from client.connect(thread, client.pick_box())
        yield from session.request_image(thread, "python")
        yield from session.load_function(
            thread, SLOW_ECHO, FunctionManifest.create(
                "slow_echo", "slow_echo", {"send", "recv", "sleep"}))
        session.invoke_nowait([])
        rid = session.send_message(b"slow")
        with pytest.raises(SimTimeoutError):
            yield from session.next_output(thread, timeout=5.0, rid=rid)
        rid = session.send_message(b"fast")
        answer = yield from session.next_output(thread, timeout=120.0,
                                                rid=rid)
        with pytest.raises(SimTimeoutError):    # the late b"slow" is gone
            yield from session.next_output(thread, timeout=60.0)
        session.close()
        return answer

    assert run_thread(bento_net, main) == b"fast"


def test_an_abandoned_invocations_result_is_never_handed_on(bento_net):
    client = _client(bento_net)
    code = ("def nap(seconds):\n"
            "    yield from api.sleep(seconds)\n"
            "    return seconds\n")

    def main(thread):
        session = yield from client.connect(thread, client.pick_box())
        yield from session.request_image(thread, "python")
        yield from session.load_function(
            thread, code, FunctionManifest.create("nap", "nap", {"sleep"}))
        with pytest.raises(SimTimeoutError):
            yield from session.invoke(thread, [30.0], timeout=5.0)
        with pytest.raises(SimTimeoutError):    # its DONE lands, unread
            yield from session.await_result(thread, timeout=60.0)
        return (yield from session.invoke(thread, [1.0], timeout=60.0))

    assert run_thread(bento_net, main) == 1.0


RECV_LOOP = """
def listen():
    while True:
        message = yield from api.recv(timeout=600.0)
        yield from api.send(message)
"""


def _running_listener(client, thread, calls):
    """A session whose ``listen`` loop is running; returns it and the
    invoke's rid."""
    session = yield from client.connect(thread, client.pick_box())
    yield from session.request_image(thread, "python")
    yield from session.load_function(
        thread, RECV_LOOP, FunctionManifest.create("listen", "listen", calls))
    return session, session.invoke_nowait([])


def test_the_owners_shutdown_is_not_reported_as_a_crash(bento_net):
    """ROADMAP 3(iii): after ``ShutdownOk`` the box used to send
    ``Error function-crashed ("FunctionKilled: shutdown by owner")`` on
    the invoke's rid.  Nothing follows it now."""
    client = _client(bento_net)

    def main(thread):
        session, _rid = yield from _running_listener(client, thread, {"recv"})
        yield from session.shutdown(thread)
        with pytest.raises(SimTimeoutError):
            yield from session.framed.recv_frame(thread, timeout=60.0)
        session.close()

    run_thread(bento_net, main)


def test_a_manifest_violation_is_still_reported_as_a_crash(bento_net):
    client = _client(bento_net)

    def main(thread):
        session, rid = yield from _running_listener(client, thread, {"recv"})
        session.send_message(b"echo me")     # api.send is not granted
        answer = messages.decode_message(
            (yield from session.framed.recv_frame(thread, timeout=60.0)))
        session.close()
        return answer, rid

    answer, rid = run_thread(bento_net, main)
    assert type(answer) is messages.Error
    assert (answer.reason, answer.rid) == ("function-crashed", rid)
    assert answer.detail == ("FunctionKilled: api call 'send' not in "
                             "manifest")


class TestCodec:
    def test_an_undeclared_key_is_refused_with_its_rid(self):
        with pytest.raises(messages.FrameError) as refused:
            messages.decode_message(canonical_encode(
                {"type": "attach", "token": "t", "rid": 9, "admin": True}))
        assert refused.value.rid == 9

    def test_an_undeclared_field_is_refused_on_encode(self):
        with pytest.raises(ProtocolError):
            messages.encode_message(messages.Attach, token="t", admin=True)

    def test_error_frames_carry_their_exceptions_structure(self):
        from repro.core.errors import PuzzleRequired, ServerBusy

        for exc in (ServerBusy("full", retry_after=2.5),
                    PuzzleRequired("solve", challenge=b"\x01" * 16,
                                   difficulty=9)):
            frame = messages.decode_message(messages.encode_message(
                messages.Error, **messages.error_fields(exc)))
            back = messages.error_from(frame)
            assert type(back) is type(exc)
            assert all(getattr(back, name) == getattr(exc, name)
                       for name in exc.wire_fields)


def _bare_decodes(text: str):
    """Line numbers where ``canonical_decode(...)`` is indexed or ``.get``
    straight away, its parentheses matched across lines."""
    for match in re.finditer(r"\bcanonical_decode\(", text):
        depth, at = 1, match.end()
        while depth:
            depth += {"(": 1, ")": -1}.get(text[at], 0)
            at += 1
        if re.match(r"[\s\\]*(\[|\.get\()", text[at:]):
            yield text.count("\n", 0, match.start()) + 1


def test_no_peer_bytes_are_read_straight_out_of_the_codec():
    assert list(_bare_decodes('x = canonical_decode(f(a))["blob"]')) == [1]
    assert list(_bare_decodes("y = canonical_decode(\n  b)\\\n.get(1)")) == [1]
    src = pathlib.Path(repro.__file__).parent
    hits = [f"{path.relative_to(src)}:{line}"
            for path in sorted(src.rglob("*.py"))
            for line in _bare_decodes(path.read_text())]
    assert hits == []

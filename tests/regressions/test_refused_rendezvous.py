"""A refused rendezvous costs the DDoS defense one introduction, not the
function.

The defense completes a rendezvous for each introduction that carries a
valid proof of work.  A hop that cannot extend on the way to the
rendezvous point fails that build with ``TorError``, which was outside
``api.Error``'s vocabulary: it crashed the function and failed
``cross-plane`` at seeds 5, 9, 12, 25, 27 and 34.  ``TorError`` is now
``api.PeerGone``, which the function catches by name.
"""

from types import SimpleNamespace

import pytest

from repro.core import api
from repro.functions.ddos_defense import DDOS_DEFENSE_SOURCE, solve_pow
from repro.netsim.simulator import SimTimeoutError
from repro.tor.client import TorError

DIFFICULTY = 4


@api.speaks_vocabulary
class _Stem:
    """The stem routines the function calls, answering at once.  The
    rendezvous for the first cookie is refused."""

    def __init__(self, clock, cookies):
        self.clock = clock
        self.refused = cookies[0]
        self.introductions = [
            {"cookie": cookie, "extra": {"pow_nonce": solve_pow(cookie, DIFFICULTY)}}
            for cookie in cookies]
        self.joined = []

    def create_hidden_service(self, handler, n_intro, manual_introductions):
        yield from ()
        return SimpleNamespace(onion_address="guarded.onion")

    def wait_introduction(self, service, timeout):
        yield from ()
        self.clock[0] += timeout
        if not self.introductions:
            raise SimTimeoutError("no introduction")
        return self.introductions.pop(0)

    def complete_rendezvous(self, service, request):
        yield from ()
        if request["cookie"] == self.refused:
            raise TorError("extend to relay3 failed")
        self.joined.append(request["cookie"])


class _Api:
    Error, Timeout, PeerGone = api.Error, api.Timeout, api.PeerGone

    def __init__(self, stem):
        self.stem, self.clock = stem, stem.clock

    def recv(self, timeout):
        yield from ()
        return b"content"

    def send(self, data):
        yield from ()

    def time(self):
        yield from ()
        return self.clock[0]


def test_a_refused_rendezvous_leaves_the_function_serving():
    stem = _Stem([0.0], [b"refused-cookie", b"second-cookie"])
    namespace = {"api": _Api(stem)}
    exec(DDOS_DEFENSE_SOURCE, namespace)
    service = namespace["guarded_service"](DIFFICULTY, 10.0, 1.0)
    with pytest.raises(StopIteration) as done:
        next(service)       # every call answers at once: it runs to the end
    assert done.value.value == {"accepted": 1, "rejected": 0, "served": 0}
    assert stem.joined == [b"second-cookie"]

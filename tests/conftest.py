"""Shared fixtures: small, fast networks reused across test modules."""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.obs.metrics import REGISTRY
from repro.obs.testing import fresh_observability
from repro.tor.testnet import TorTestNetwork

# The example budget of every property that leaves ``max_examples`` unset.
# It is sized for those that run a whole program per example — the kernel
# order and task-kernel oracles, the link-model properties, the relay
# routing oracle, the hostile-cell test and the read-ahead and client-peel
# properties; nightly.yml runs them with ``--hypothesis-profile nightly``.
# ``default`` draws the same examples on every run, so tier-1 is a function
# of the code like every other artifact here; ``nightly`` stays random and
# is where new counterexamples are looked for.
settings.register_profile("default", max_examples=300, derandomize=True)
settings.register_profile("nightly", max_examples=3000)


@pytest.fixture(autouse=True)
def _fresh_observability():
    """No cross-test bleed through the process-wide instrumentation.

    Shared with ``benchmarks/conftest.py`` via
    :mod:`repro.obs.testing` so the two harnesses reset identically.
    """
    with fresh_observability():
        yield


@pytest.fixture(autouse=True)
def _no_unexpected_failed_actor(request, _fresh_observability):
    """A dead actor is an event: fail any test that leaves one behind
    (``actors_failed{kind="task"}``, counted by the kernel) unless it is
    marked ``expects_failed_actors`` -- and a marked test that leaves
    none, so the marks stay a list of the tests about failing actors."""
    yield
    failed = sum(counter.value for counter in REGISTRY.family("actors_failed"))
    expected = request.node.get_closest_marker("expects_failed_actors")
    if failed and expected is None:
        pytest.fail(f"{failed} actor(s) failed; mark the test "
                    f"expects_failed_actors if that is what it tests",
                    pytrace=False)
    if not failed and expected is not None:
        pytest.fail("marked expects_failed_actors, but no actor failed",
                    pytrace=False)


@pytest.fixture()
def testnet():
    """A fresh 9-relay Tor network (function-scoped: tests mutate it)."""
    return TorTestNetwork(n_relays=9, seed="pytest")


@pytest.fixture()
def bento_net():
    """A network with Bento boxes, servers, and an IAS, ready for clients."""
    net = TorTestNetwork(n_relays=9, seed="pytest-bento", bento_fraction=0.34)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    servers = [BentoServer(relay, net.authority, ias=ias)
               for relay in net.bento_boxes()]
    net.ias = ias
    net.bento_servers = servers
    return net


#: Source of ``peak()`` for a script run in a fresh interpreter: that
#: process's own peak resident set, in KiB.  Not ``ru_maxrss``, which a
#: child starts at its spawner's peak: under a pytest process larger than
#: the script, any growth read as none.
PEAK_RSS_KIB = (
    "def peak():\n"
    "    with open('/proc/self/status') as status:\n"
    "        return next(int(line.split()[1]) for line in status\n"
    "                    if line.startswith('VmHWM:'))\n")
needs_proc = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="reads the process's peak from /proc")


def run_thread(net, fn, name="test", until=None):
    """Spawn the generator function ``fn(task)`` as an actor and run the
    simulation to completion; returns the actor's result."""
    thread = net.sim.spawn(fn, name=name)
    return net.sim.run_until_done(thread, until=until)


def bulk_origin(net, body: bytes, host="origin.example", port=80):
    """A raw origin on ``net``: answers ``b"GET"`` with ``body`` and counts
    every other byte it is sent into the one-element list it returns."""
    origin = net.create_node("origin", bandwidth=12_500_000.0)
    net.network.register_dns(host, origin)
    sunk = [0]

    def accept(conn):
        def on_message(_conn, payload, _size):
            if payload == b"GET":
                conn.send(origin, body)
            else:
                sunk[0] += len(payload)
        conn.endpoint_of(origin).on_message = on_message

    origin.listen(port, accept)
    return sunk

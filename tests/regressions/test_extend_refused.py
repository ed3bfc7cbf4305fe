"""A relay that cannot reach the next hop refuses the EXTEND, and the
building client hears it.

The relay answers END on stream 0 with reason ``extend-failed``.  The
client once took that for the END of a stream (there is none on stream
0), so the build waited out its whole timeout, and a refusal could only
ever have answered an earlier EXTEND's leftover waiter.  This is the
cause of ``cross-plane``'s 240 s ``Timeout`` crashes (ROADMAP item 10(d)),
which now surface as ``TorError: extend to relayN failed``.  Hearing the
refusals moved three preset digests, ``chaos-soak``,
``chaos-soak-standby`` and ``cross-plane``: the builds their faults
refuse now fail at once, not after 120 s.
"""

import pytest

from repro.netsim.faults import FaultPlane
from repro.tor.client import TorError
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


def test_a_refused_extend_fails_the_build_at_once():
    net = TorTestNetwork(n_relays=6, seed="extend-fail")
    FaultPlane(net.network).cut_link("relay1", "relay2")
    client = net.create_client()
    path = client.consensus().routers[:3]
    assert [relay.nickname for relay in path] == ["relay0", "relay1", "relay2"]

    def main(thread):
        started = net.sim.now
        with pytest.raises(TorError, match="extend to relay2 failed"):
            yield from client.build_circuit(thread, path=path)
        return net.sim.now - started

    assert run_thread(net, main) < 5.0             # the timeout is 120 s
    assert path[2].identity_fp in client.failed_relays
    assert client.circuits == []

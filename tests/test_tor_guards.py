"""Entry-guard persistence."""

import pytest

from repro.tor.client import TorClient
from repro.tor.descriptor import FLAG_GUARD
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


class TestEntryGuards:
    def test_guard_reused_across_circuits(self):
        net = TorTestNetwork(n_relays=12, seed="guards")
        client = TorClient(net.network, net.create_node("sticky"),
                           net.authority, use_entry_guard=True)

        def main(thread):
            guards = []
            for _ in range(5):
                circuit = yield from client.build_circuit(thread)
                guards.append(circuit.path[0].identity_fp)
                circuit.close()
            return guards

        guards = run_thread(net, main)
        assert len(set(guards)) == 1

    def test_guard_has_guard_flag(self):
        net = TorTestNetwork(n_relays=12, seed="guards2")
        client = TorClient(net.network, net.create_node("sticky"),
                           net.authority, use_entry_guard=True)

        def main(thread):
            circuit = yield from client.build_circuit(thread)
            fp = circuit.path[0].identity_fp
            circuit.close()
            return fp

        fp = run_thread(net, main)
        descriptor = net.authority.consensus().find(fp)
        assert descriptor.has_flag(FLAG_GUARD)

    def test_default_clients_rotate(self):
        net = TorTestNetwork(n_relays=12, seed="guards3")
        client = net.create_client()

        def main(thread):
            guards = set()
            for _ in range(12):
                circuit = yield from client.build_circuit(thread)
                guards.add(circuit.path[0].identity_fp)
                circuit.close()
            return guards

        assert len(run_thread(net, main)) > 1

    def test_guard_avoided_when_it_would_repeat_in_path(self):
        """If the sticky guard is picked elsewhere in the path, the client
        substitutes another guard instead of repeating a relay."""
        net = TorTestNetwork(n_relays=12, seed="guards4")
        client = TorClient(net.network, net.create_node("sticky"),
                           net.authority, use_entry_guard=True)

        def main(thread):
            for _ in range(8):
                circuit = yield from client.build_circuit(thread)
                fps = [r.identity_fp for r in circuit.path]
                assert len(set(fps)) == len(fps)
                circuit.close()
            return True

        assert run_thread(net, main)

"""The controller and the Stem firewall (§5.3)."""

import pytest

from repro.netsim.bytestream import FramedStream
from repro.netsim.http import fetch
from repro.stemlib.controller import Controller, ControllerError
from repro.stemlib.firewall import StemFirewall, StemPolicyViolation
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


@pytest.fixture()
def ctl_net():
    net = TorTestNetwork(n_relays=9, seed="stem-tests")
    net.create_web_server("web.example", {"/": b"via stem"})
    client = net.create_client("controller-owner")
    net.controller = Controller(client)
    return net


class TestController:
    def test_circuit_lifecycle(self, ctl_net):
        controller = ctl_net.controller

        def main(thread):
            circuit_id = yield from controller.new_circuit(thread)
            assert circuit_id in controller.list_circuits()
            controller.close_circuit(circuit_id)
            assert circuit_id not in controller.list_circuits()
            with pytest.raises(ControllerError):
                controller.get_circuit(circuit_id)

        run_thread(ctl_net, main)

    def test_attach_stream_and_fetch(self, ctl_net):
        controller = ctl_net.controller

        def main(thread):
            circuit_id = yield from controller.new_circuit(
                thread, exit_to=("web.example", 443))
            stream = yield from controller.attach_stream(thread, circuit_id,
                                                         "web.example", 443)
            framed = FramedStream(stream)
            body = (yield from fetch(thread, framed, "/")).body
            controller.close_circuit(circuit_id)
            return body

        assert run_thread(ctl_net, main) == b"via stem"

    def test_controller_fetch_helper(self, ctl_net):
        controller = ctl_net.controller

        def main(thread):
            circuit_id = yield from controller.new_circuit(
                thread, exit_to=("web.example", 443))
            result = yield from controller.fetch(thread, circuit_id,
                                                 "https://web.example/")
            controller.close_circuit(circuit_id)
            return result

        result = run_thread(ctl_net, main)
        assert result["status"] == 200 and result["body"] == b"via stem"

    def test_network_statuses(self, ctl_net):
        statuses = ctl_net.controller.get_network_statuses()
        assert len(statuses) == 9

    def test_get_info(self, ctl_net):
        assert ctl_net.controller.get_info("version").startswith("repro-tor")
        with pytest.raises(ControllerError):
            ctl_net.controller.get_info("bogus-key")


class TestFirewall:
    def _firewall(self, ctl_net, allowed):
        return StemFirewall(ctl_net.controller, "fn-1", frozenset(allowed))

    def test_routine_allowlist(self, ctl_net):
        firewall = self._firewall(ctl_net, {"get_network_statuses"})
        assert firewall.get_network_statuses()
        with pytest.raises(StemPolicyViolation):
            firewall.get_info("version")

    def test_unknown_routine_in_grant_rejected(self, ctl_net):
        with pytest.raises(ValueError):
            self._firewall(ctl_net, {"not_a_routine"})

    def test_circuit_ownership(self, ctl_net):
        fw1 = self._firewall(ctl_net, {"new_circuit", "close_circuit"})
        fw2 = StemFirewall(ctl_net.controller, "fn-2",
                           frozenset({"close_circuit", "send_padding"}))

        def main(thread):
            circuit_id = yield from fw1.new_circuit(thread)
            # Another function cannot touch fn-1's circuit.
            with pytest.raises(StemPolicyViolation):
                fw2.close_circuit(circuit_id)
            with pytest.raises(StemPolicyViolation):
                fw2.send_padding(circuit_id)
            fw1.close_circuit(circuit_id)

        run_thread(ctl_net, main)

    def test_audit_log_records_everything(self, ctl_net):
        firewall = self._firewall(ctl_net, {"get_network_statuses"})
        firewall.get_network_statuses()
        with pytest.raises(StemPolicyViolation):
            firewall.get_info("version")
        routines = [entry[0] for entry in firewall.audit_log]
        assert routines == ["get_network_statuses", "get_info"]

    def test_release_all_closes_owned_circuits(self, ctl_net):
        firewall = self._firewall(ctl_net, {"new_circuit"})

        def main(thread):
            circuit_id = yield from firewall.new_circuit(thread)
            firewall.release_all()
            assert circuit_id not in ctl_net.controller.list_circuits()

        run_thread(ctl_net, main)

    def test_padding_requires_permission_and_ownership(self, ctl_net):
        firewall = self._firewall(ctl_net, {"new_circuit", "send_padding"})

        def main(thread):
            circuit_id = yield from firewall.new_circuit(thread)
            firewall.send_padding(circuit_id, hop_index=1)  # allowed
            with pytest.raises(StemPolicyViolation):
                firewall.send_padding("999")                # not owned
            firewall.release_all()

        run_thread(ctl_net, main)

"""Two hidden services made by one Tor client have two keys.

A service without key material drew its key from
``client._rng.fork("hidden-service")``, and a fork depends only on its
label: every such service one client made had the same key and onion
address, so the second one's first descriptor was "stale" against the
first's and its publish failed.  ``cross-plane`` crashed that way at seeds
10, 19 and 26, when the LoadBalancer and the DDoS defense were deployed
onto the same box.  The n-th service now forks ``hidden-service:{n}``.
"""

from repro.tor.hidden_service import HiddenService
from repro.tor.testnet import TorTestNetwork

from conftest import run_thread


def test_two_services_on_one_client_have_distinct_onions_and_both_publish():
    net = TorTestNetwork(n_relays=9, seed="hs-keys")
    host = net.create_client("hs-host")

    def main(thread):
        services = [HiddenService(host, lambda *a: None) for _ in range(2)]
        for service in services:
            yield from service.establish(thread, n_intro=1)
        return services

    first, second = run_thread(net, main)
    assert first.onion_address != second.onion_address
    for service in (first, second):
        descriptor = net.authority.fetch_hs_descriptor(
            str(service.onion_address))
        assert descriptor.verify()
        assert descriptor.intro_points == [
            relay.identity_fp for relay in service.intro_points]

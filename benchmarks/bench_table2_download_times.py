"""Table 2: full-page download times, standard Tor vs. Browser.

Paper (seconds):

    domain           Tor   0MB   1MB   7MB
    indiatoday.in    5.0   6.4   34.9  86.0
    yahoo.com        6.7   6.3*  21.2  87.4
    netflix.com      8.5   8.1*  28.4  86.3
    ebay.com         6.1   7.0   22.3  81.8
    aliexpress.com   3.1   5.9   37.7  91.9
    (* = Browser faster than standard Tor)

The shape under test: (a) padding monotonically increases time, (b) for
page-heavy sites Browser-0MB is competitive with (sometimes faster than)
standard Tor because the circuit RTT drops out of the per-resource slow
start, while for small simple pages standard Tor wins, (c) 1MB and 7MB
rows are dominated by the padded transfer itself.

Domains are synthetic stand-ins with the paper sites' approximate weight
and resource counts.
"""

from __future__ import annotations

import pytest

from repro.core.client import BentoClient
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.fingerprint.websites import SiteSpec
from repro.functions.browser import BrowserFunction
from repro.netsim.bytestream import FramedStream
from repro.netsim.http import fetch
from repro.tor.testnet import TorTestNetwork

from conftest import banner

KB = 1024

# name -> (total bytes, number of resources): heavier pages have more
# subresources, like the real sites the paper measured.
DOMAINS = {
    "indiatoday.in": (2_600 * KB, 45),
    "yahoo.com": (1_900 * KB, 35),
    "netflix.com": (1_300 * KB, 22),
    "ebay.com": (1_700 * KB, 28),
    "aliexpress.com": (450 * KB, 7),
}

PADDINGS = [0, 1_000_000, 7_000_000]

PAPER = {
    "indiatoday.in": [5.0, 6.4, 34.9, 86.0],
    "yahoo.com": [6.7, 6.3, 21.2, 87.4],
    "netflix.com": [8.5, 8.1, 28.4, 86.3],
    "ebay.com": [6.1, 7.0, 22.3, 81.8],
    "aliexpress.com": [3.1, 5.9, 37.7, 91.9],
}


def _build_net():
    net = TorTestNetwork(n_relays=12, seed="table2",
                         bento_fraction=0.25)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    for relay in net.bento_boxes():
        BentoServer(relay, net.authority, ias=ias)
    body_rng = net.sim.rng.fork("bodies")
    for index, (hostname, (total, n_res)) in enumerate(DOMAINS.items()):
        per = max(2 * KB, total // n_res)
        site = SiteSpec(index=index, hostname=hostname,
                        resource_sizes=[per] * n_res)
        net.create_web_server(hostname,
                              site.resources(body_rng.fork(hostname)))
    return net


def _standard_tor_time(net, hostname: str, repeat: int) -> float:
    """Request-to-done time through an existing circuit (build excluded,
    matching 'from the time the client issues the request')."""
    client = net.create_client(f"std-{hostname}-{repeat}")
    out = {}

    def main(thread):
        from repro.fingerprint.lab import standard_tor_visit

        circuit = yield from client.build_circuit(thread,
                                                  exit_to=(hostname, 443))
        started = net.sim.now
        yield from standard_tor_visit(thread, client, hostname,
                                      circuit=circuit)
        out["elapsed"] = net.sim.now - started

    net.sim.run_until_done(net.sim.spawn(main, name="std"))
    return out["elapsed"]


def _browser_time(net, box, hostname: str, padding: int, repeat: int) -> float:
    """Invoke-to-blob time with the function already installed."""
    client = BentoClient(
        net.create_client(f"bro-{hostname}-{padding}-{repeat}"), ias=net.ias)
    out = {}

    def main(thread):
        session = yield from client.connect(thread, box)
        yield from session.request_image(thread, "python")
        yield from session.load_function(thread, BrowserFunction.SOURCE,
                                         BrowserFunction.manifest(
                                             image="python"))
        started = net.sim.now
        yield from BrowserFunction.fetch(thread, session,
                                         f"https://{hostname}/", padding)
        out["elapsed"] = net.sim.now - started
        yield from session.shutdown(thread)

    net.sim.run_until_done(net.sim.spawn(main, name="browser"))
    return out["elapsed"]


REPEATS = 2


def run_table2() -> dict:
    net = _build_net()
    client_seed = BentoClient(net.create_client("box-picker"), ias=net.ias)
    box = client_seed.pick_box()      # one box for every measurement
    rows = {}
    for hostname in DOMAINS:
        times = [sum(_standard_tor_time(net, hostname, r)
                     for r in range(REPEATS)) / REPEATS]
        for padding in PADDINGS:
            times.append(sum(_browser_time(net, box, hostname, padding, r)
                             for r in range(REPEATS)) / REPEATS)
        rows[hostname] = times
    return {"rows": rows}


def test_table2_download_times(benchmark, experiment_recorder):
    result = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    rows = result["rows"]

    banner("TABLE 2 — download times (s): standard Tor vs Browser")
    print(f"{'Domain':18s} {'Tor':>7s} {'0MB':>7s} {'1MB':>7s} {'7MB':>7s}"
          f"   | paper: {'Tor':>5s} {'0MB':>5s} {'1MB':>5s} {'7MB':>5s}")
    for hostname, times in rows.items():
        mark = "*" if times[1] < times[0] else " "
        paper = PAPER[hostname]
        print(f"{hostname:18s} {times[0]:7.1f} {times[1]:6.1f}{mark} "
              f"{times[2]:7.1f} {times[3]:7.1f}   |"
              f" {paper[0]:6.1f} {paper[1]:5.1f} {paper[2]:5.1f} {paper[3]:5.1f}")

    experiment_recorder("table2", result)

    for hostname, times in rows.items():
        tor, zero, one, seven = times
        # Padding can only add bytes: the 7MB tier dominates, and the 1MB
        # tier is never materially cheaper than the unpadded transfer.
        assert one < seven, f"7MB must cost more than 1MB ({hostname})"
        assert zero < one + 2.0, f"1MB should not beat 0MB ({hostname})"
    # The crossover the paper highlights: Browser-0MB wins on some sites
    # and loses on others — neither strictly dominates.
    wins = [h for h in rows if rows[h][1] < rows[h][0]]
    losses = [h for h in rows if rows[h][1] >= rows[h][0]]
    assert wins, "Browser-0MB should beat standard Tor somewhere"
    assert losses, "standard Tor should beat Browser-0MB somewhere"
    # And full padding costs real time everywhere (the trilemma trade):
    # shipping the extra megabytes takes seconds on top of any page.
    assert all(rows[h][3] > rows[h][1] + 3.0 for h in rows)

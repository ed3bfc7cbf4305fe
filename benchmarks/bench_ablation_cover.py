"""Ablation A6: Cover traffic rate vs. observable idle gaps (§9.1).

Cover's purpose is to erase the distinction between an idle circuit and
an active one.  We sweep the cover rate and measure, at the client's
guard link, (a) how many one-second windows fall below half the target
rate (the "quiet seconds" an observer could exploit) and (b) the
bandwidth cost — the trilemma's bandwidth-for-anonymity trade, measured.
"""

from __future__ import annotations

import pytest

from repro.core.client import BentoClient
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.cover import CoverFunction
from repro.netsim.simulator import Sleep
from repro.netsim.trace import INCOMING, TraceRecorder
from repro.tor.testnet import TorTestNetwork

from conftest import banner

RATES = [0.0, 10_000.0, 40_000.0, 80_000.0]
DURATION = 25.0


def _one_rate(rate: float) -> dict:
    net = TorTestNetwork(n_relays=10, seed=f"cover-{int(rate)}",
                         bento_fraction=0.3)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    for relay in net.bento_boxes():
        BentoServer(relay, net.authority, ias=ias)
    net.create_web_server("site.example", {"/": b"p" * 120_000})

    client = BentoClient(net.create_client("covered"), ias=ias)
    recorder = TraceRecorder(client.tor.node)

    def cover_main(thread):
        if rate <= 0:
            yield Sleep(DURATION)
            return
        session = yield from client.connect(thread, client.pick_box())
        yield from session.request_image(thread, "python")
        yield from session.load_function(thread, CoverFunction.SOURCE,
                                         CoverFunction.manifest())
        yield from CoverFunction.run_bidirectional(thread, session, rate,
                                                   DURATION, chunk_size=2048)
        yield from session.shutdown(thread)

    def browse_main(thread):
        yield Sleep(10.0)
        from repro.netsim.bytestream import FramedStream
        from repro.netsim.http import fetch

        circuit = yield from client.tor.build_circuit(
            thread, exit_to=("site.example", 443))
        stream = yield from circuit.open_stream(thread, "site.example", 443)
        yield from fetch(thread, FramedStream(stream), "/")
        circuit.close()

    net.sim.spawn(cover_main, name="cover")
    net.sim.spawn(browse_main, name="browse")
    net.sim.run()
    net.sim.check_failures()
    buckets = [b for _t, b in recorder.bytes_in_windows(
        1.0, direction=INCOMING, t_end=DURATION)]
    window = buckets[3:int(DURATION) - 2]
    threshold = max(rate * 0.5, 1.0)
    quiet = sum(1 for b in window if b < threshold)
    return {"rate": rate, "quiet_seconds": quiet,
            "total_down_bytes": sum(buckets)}


def run_cover_sweep() -> dict:
    return {"rows": [_one_rate(rate) for rate in RATES],
            "duration": DURATION}


def test_ablation_cover(benchmark, experiment_recorder):
    result = benchmark.pedantic(run_cover_sweep, rounds=1, iterations=1)

    banner("ABLATION A6 — cover rate vs observable idle gaps")
    print(f"{'cover rate':>12s} {'quiet seconds':>14s} {'bytes down':>12s}")
    for row in result["rows"]:
        print(f"{row['rate'] / 1000:10.0f}kB {row['quiet_seconds']:14d} "
              f"{row['total_down_bytes']:12d}")

    experiment_recorder("ablation_cover", result)

    rows = result["rows"]
    # No cover: the link is quiet except during the one fetch.
    assert rows[0]["quiet_seconds"] >= 10
    # Adequate cover: the link never looks idle.
    assert rows[2]["quiet_seconds"] == 0 and rows[3]["quiet_seconds"] == 0
    # And the bandwidth bill scales with the rate.
    totals = [row["total_down_bytes"] for row in rows]
    assert totals == sorted(totals)

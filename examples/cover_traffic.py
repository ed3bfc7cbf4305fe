#!/usr/bin/env python3
"""The §9.1 scenario: constant-rate cover traffic.

A client runs the Cover function on a Bento box: junk flows at a fixed
rate in both directions across the client's guard link, so an observer
sees the same traffic pattern whether or not the client is doing anything.
We verify that by comparing the link profile of an idle covered client to
one browsing under cover.

Run:  python examples/cover_traffic.py
"""

from repro.core import BentoClient, BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.cover import CoverFunction
from repro.netsim.simulator import Sleep
from repro.netsim.trace import INCOMING, TraceRecorder
from repro.tor import TorTestNetwork

RATE = 40_000.0       # bytes/second of cover in each direction
DURATION = 30.0


def profile(seed: str, also_browse: bool) -> list[float]:
    """Per-second downstream byte counts on the client's link."""
    net = TorTestNetwork(n_relays=10, seed=seed, bento_fraction=0.3)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    for relay in net.bento_boxes():
        BentoServer(relay, net.authority, ias=ias)
    net.create_web_server("site.example", {"/": b"p" * 150_000})

    client = BentoClient(net.create_client("covered"), ias=ias)
    recorder = TraceRecorder(client.tor.node)

    def cover_main(thread):
        session = yield from client.connect(thread, client.pick_box())
        yield from session.request_image(thread, "python")
        yield from session.load_function(thread, CoverFunction.SOURCE,
                                         CoverFunction.manifest())
        yield from CoverFunction.run_bidirectional(thread, session, RATE,
                                                   DURATION, chunk_size=4096)
        yield from session.shutdown(thread)

    def browse_main(thread):
        yield Sleep(10.0)     # browse mid-cover
        from repro.netsim.bytestream import FramedStream
        from repro.netsim.http import fetch

        circuit = yield from client.tor.build_circuit(
            thread, exit_to=("site.example", 443))
        stream = yield from circuit.open_stream(thread, "site.example", 443)
        yield from fetch(thread, FramedStream(stream), "/")
        circuit.close()

    net.sim.spawn(cover_main, name="cover")
    if also_browse:
        net.sim.spawn(browse_main, name="browse")
    net.sim.run()
    net.sim.check_failures()
    buckets = recorder.bytes_in_windows(1.0, direction=INCOMING,
                                        t_end=DURATION)
    return [b for _t, b in buckets]


def main() -> None:
    idle = profile("cover-idle", also_browse=False)
    busy = profile("cover-busy", also_browse=True)
    print(f"cover rate {RATE / 1000:.0f} kB/s for {DURATION:.0f}s; "
          f"downstream bytes per second at the client:\n")
    print(f"{'t (s)':>6s} {'idle under cover':>18s} {'browsing under cover':>22s}")
    for t in range(5, 25):
        print(f"{t:6d} {idle[t]:18d} {busy[t]:22d}")
    # Without cover, browsing is a burst in an empty channel; with cover,
    # the burst rides on a channel that was never quiet.
    floor = RATE * 0.5
    quiet_idle = sum(1 for b in idle[2:25] if b < floor)
    quiet_busy = sum(1 for b in busy[2:25] if b < floor)
    print(f"\nseconds below {floor / 1000:.0f} kB/s: idle={quiet_idle}, "
          f"browsing={quiet_busy} (the channel never goes quiet)")


if __name__ == "__main__":
    main()

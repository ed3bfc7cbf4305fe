"""Hot-path macro benchmark: bulk transfer over a 3-hop circuit.

Measures wall-clock time (the cost of *running* the simulation, not the
simulated seconds) for the workloads the hot-path optimizations target:

* ``macro``  — one client downloads 10 MB over a 3-hop circuit, fast and
  real crypto.  The simulated results (response ``elapsed`` and final
  ``sim.now``) are asserted bit-identical to the pre-optimization
  implementation: every optimization must be timing-invisible.
* ``fanin``  — N clients download concurrently from one server, which
  keeps the shared interfaces contended.
* ``micro``  — raw keystream generation throughput.

Results (plus the perf-counter totals) are written to
``benchmarks/BENCH_hotpath.json``.  ``--smoke`` runs a 1 MB variant with
no wall-clock assertions, suitable for CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--smoke]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

RESULT_PATH = pathlib.Path(__file__).resolve().parent / "BENCH_hotpath.json"

# Pre-optimization implementation on the reference machine (frozen at the
# commit before the hot-path overhaul; same workload, same seed).  The
# simulated results must be reproduced exactly; the wall baselines are what
# the speedup is computed against.
BASELINE = {
    "fast_wall_s": 3.264,
    "real_wall_s": 5.130,
    "elapsed": 16.561745253881966,
    "sim_now": 18.112774545951705,
    "bytes": 10_000_000,
}


def run_macro(fast: bool, size: int = 10_000_000) -> dict:
    """One client, 3-hop circuit, one ``size``-byte download."""
    from repro.netsim.bytestream import FramedStream
    from repro.netsim.http import fetch
    from repro.perf.counters import counters
    from repro.tor.testnet import TorTestNetwork

    net = TorTestNetwork(n_relays=9, seed="bench", fast_crypto=fast)
    net.create_web_server("big.example", {"/file": b"x" * size})
    client = net.create_client("bench-client")
    result: dict = {}

    def flow(thread):
        circuit = yield from client.build_circuit(
            thread, exit_to=("big.example", 443))
        stream = yield from client.open_stream(thread, circuit,
                                               "big.example", 443)
        framed = FramedStream(stream)
        response = yield from fetch(thread, framed, "/file", timeout=600.0)
        result["bytes"] = len(response.body)
        result["elapsed"] = response.elapsed
        framed.close()

    counters.reset()
    t0 = time.perf_counter()
    net.sim.run_until_done(net.sim.spawn(flow))
    result["wall_s"] = time.perf_counter() - t0
    result["sim_now"] = net.sim.now
    result["counters"] = counters.snapshot()
    return result


def run_fanin(n_clients: int = 4, size: int = 1_000_000) -> dict:
    """N clients downloading concurrently from one origin server."""
    from repro.netsim.bytestream import FramedStream
    from repro.netsim.http import fetch
    from repro.perf.counters import counters
    from repro.tor.testnet import TorTestNetwork

    net = TorTestNetwork(n_relays=9, seed="bench-fanin", fast_crypto=True)
    net.create_web_server("busy.example", {"/file": b"y" * size})
    result = {"bytes": 0}

    def flow(thread, client):
        circuit = yield from client.build_circuit(
            thread, exit_to=("busy.example", 443))
        stream = yield from client.open_stream(thread, circuit,
                                               "busy.example", 443)
        framed = FramedStream(stream)
        response = yield from fetch(thread, framed, "/file", timeout=600.0)
        result["bytes"] += len(response.body)
        framed.close()

    threads = []
    for index in range(n_clients):
        client = net.create_client(f"fan-{index}")
        threads.append(net.sim.spawn(flow, client, name=f"fan-{index}"))
    counters.reset()
    t0 = time.perf_counter()
    net.sim.run()
    wall = time.perf_counter() - t0
    for thread in threads:
        if thread.exception is not None:
            raise thread.exception
    return {"wall_s": wall, "sim_now": net.sim.now, "bytes": result["bytes"],
            "n_clients": n_clients, "counters": counters.snapshot()}


def run_micro_keystream(total: int = 10_000_000) -> dict:
    """Raw keystream throughput (the crypto inner loop, no simulator)."""
    from repro.crypto.stream import StreamCipher

    cipher = StreamCipher(b"bench-keystream-key", b"bench")
    t0 = time.perf_counter()
    produced = 0
    while produced < total:
        produced += len(cipher.keystream(4096))
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "bytes": produced,
            "mb_per_s": produced / wall / 1e6}


def main(argv: list[str] | None = None) -> int:
    """Run the benchmark suite; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="1 MB variant, no wall-clock assertions (CI)")
    args = parser.parse_args(argv)

    results: dict = {"baseline": BASELINE, "smoke": args.smoke}
    size = 1_000_000 if args.smoke else 10_000_000
    # Full scale takes best-of-2 so the headline number is not dominated
    # by first-run interpreter warm-up; smoke runs once to stay cheap.
    rounds = 1 if args.smoke else 2

    fast = min((run_macro(fast=True, size=size) for _ in range(rounds)),
               key=lambda r: r["wall_s"])
    print(f"macro fast : wall={fast['wall_s']:.3f}s "
          f"elapsed={fast['elapsed']:.3f}s bytes={fast['bytes']}")
    results["macro_fast"] = fast

    real = min((run_macro(fast=False, size=size) for _ in range(rounds)),
               key=lambda r: r["wall_s"])
    print(f"macro real : wall={real['wall_s']:.3f}s "
          f"elapsed={real['elapsed']:.3f}s bytes={real['bytes']}")
    results["macro_real"] = real

    fanin = run_fanin(size=max(size // 4, 100_000))
    print(f"fan-in x{fanin['n_clients']}: wall={fanin['wall_s']:.3f}s "
          f"sim_now={fanin['sim_now']:.3f}s bytes={fanin['bytes']}")
    results["fanin"] = fanin

    micro = run_micro_keystream(size)
    print(f"keystream  : {micro['mb_per_s']:.1f} MB/s")
    results["micro_keystream"] = micro

    assert fast["bytes"] == size and real["bytes"] == size
    # The optimizations must be invisible in simulated time: both crypto
    # modes see identical transfer timing (crypto costs no simulated time),
    # independent of batching decisions.
    assert fast["elapsed"] == real["elapsed"]
    assert fast["sim_now"] == real["sim_now"]

    if not args.smoke:
        # Full scale reproduces the frozen pre-optimization simulation
        # exactly, and the wall-clock speedup is the headline number.
        assert fast["elapsed"] == BASELINE["elapsed"], (
            f"simulated elapsed drifted: {fast['elapsed']!r}")
        assert fast["sim_now"] == BASELINE["sim_now"], (
            f"simulated end time drifted: {fast['sim_now']!r}")
        results["speedup_fast"] = BASELINE["fast_wall_s"] / fast["wall_s"]
        results["speedup_real"] = BASELINE["real_wall_s"] / real["wall_s"]
        print(f"speedup    : fast {results['speedup_fast']:.2f}x, "
              f"real {results['speedup_real']:.2f}x "
              f"(vs frozen pre-optimization walls on the reference machine)")

    RESULT_PATH.write_text(json.dumps(results, indent=2, sort_keys=True))
    print(f"wrote {RESULT_PATH}")
    return 0


def test_hotpath_smoke() -> None:
    """1 MB macro at both crypto modes: determinism + timing invariance."""
    first = run_macro(fast=True, size=1_000_000)
    again = run_macro(fast=True, size=1_000_000)
    real = run_macro(fast=False, size=1_000_000)
    assert first["bytes"] == again["bytes"] == real["bytes"] == 1_000_000
    assert first["elapsed"] == again["elapsed"] == real["elapsed"]
    assert first["sim_now"] == again["sim_now"] == real["sim_now"]
    assert first["counters"]["events_processed"] > 0


if __name__ == "__main__":
    sys.exit(main())

"""Scale benchmark: N concurrent Bento sessions through the full stack.

Sweeps N in {10, 100, 1000, 10000, 100000} sessions — C clients running
S sequential sessions each — through the complete path: consensus fetch,
circuit build, Bento REQUEST_IMAGE (every 8th session provisions the
enclave image and verifies its quote at the IAS), function upload,
invocation, and a payload download back through the circuit.  Reports
wall-clock seconds, events/second, peak RSS, and control-plane cache hit
rates.

Each N runs in its own subprocess so peak RSS (``ru_maxrss``) is
attributable to that N alone.

    PYTHONPATH=src python benchmarks/bench_scale.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke    # N=10k only

``--smoke`` (CI) runs N=10,000 on the coroutine kernel and enforces two
budgets: total peak RSS under ``SMOKE_RSS_BUDGET_KB``, and per-session
RSS strictly below what the retired thread-per-actor kernel spent per
session at N=1,000 (``THREAD_KERNEL_N1000``) — ten times the sessions
must not cost thread-kernel memory.

The script runs unmodified on pre-scale-plane trees (it feature-detects
circuit reuse and the cache metrics), which is how the frozen BASELINE
numbers below were measured.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dataclasses import replace  # noqa: E402

from repro.core import BentoClient, BentoServer, FunctionManifest  # noqa: E402
from repro.core.policy import MiddleboxNodePolicy  # noqa: E402
from repro.enclave.attestation import IntelAttestationService  # noqa: E402
from repro.obs.metrics import REGISTRY  # noqa: E402
from repro.perf.counters import counters  # noqa: E402
from repro.tor import TorTestNetwork  # noqa: E402

#: Pre-scale-plane numbers (this script, same machine, commit 913a396).
#: Frozen so BENCH_scale.json can always report the speedup.
BASELINE = {
    10: {"wall_s": 0.218, "peak_rss_kb": 24228},
    100: {"wall_s": 2.273, "peak_rss_kb": 28560},
    1000: {"wall_s": 22.218, "peak_rss_kb": 72732},
}

#: The thread-per-actor kernel measured by this script immediately before
#: the coroutine kernel landed (same machine, N=1000 subprocess run).
#: Frozen as the reference the per-session memory assertion compares to.
THREAD_KERNEL_N1000 = {"wall_s": 7.21, "peak_rss_kb": 52448}

#: CI budget for the N=10k smoke run's total peak RSS (coroutine kernel).
SMOKE_RSS_BUDGET_KB = 400_000

PAYLOAD_BYTES = 32_768
SWEEP = (10, 100, 1000, 10_000, 100_000)
SMOKE_N = 10_000

CODE = (
    "def blob(n):\n"
    "    yield from api.send(b'\\x5a' * int(n))\n"
    "    return int(n)\n"
)


def _split_sessions(n_sessions: int) -> tuple[int, int]:
    """(clients, sessions-per-client) with clients * sessions == N."""
    per_client = 5 if n_sessions <= 10 else 20
    if n_sessions >= 10_000:
        # Hold concurrent clients near 200 regardless of N: the three
        # boxes' container caps bound concurrency, so bigger sweeps run
        # *longer* sessions-per-client, not wider fleets (2000 clients
        # at N=100k would blow through 3 boxes x 64 containers).
        per_client = max(50, n_sessions // 200)
    n_clients = max(1, n_sessions // per_client)
    return n_clients, n_sessions // n_clients


def run_scale(n_sessions: int, seed: int = 2021,
              payload: int = PAYLOAD_BYTES) -> dict:
    """Run N sessions in-process and return the measurement dict."""
    REGISTRY.reset()
    n_clients, per_client = _split_sessions(n_sessions)
    net = TorTestNetwork(n_relays=12, seed=seed,
                         bento_fraction=0.25)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    # Roomy operator caps: with circuits pooled, clients spend nearly all
    # of their active window holding a container, so concurrent instances
    # per box track concurrent clients (~N/150 per box at the default
    # split) instead of hiding behind circuit-build gaps.  The default
    # 16-container cap never bound in the pre-scale-plane baseline runs,
    # so raising it leaves those numbers comparable.
    policy = replace(MiddleboxNodePolicy.open_policy(),
                     max_containers=64,
                     max_total_memory=2048 * 1024 * 1024)
    for relay in net.bento_boxes():
        BentoServer(relay, net.authority, policy=policy, ias=ias)

    clients = []
    for index in range(n_clients):
        tor = net.create_client(f"user{index}")
        try:
            client = BentoClient(tor, ias=ias, reuse_circuits=True)
        except TypeError:   # pre-scale-plane tree: no circuit reuse
            client = BentoClient(tor, ias=ias)
        clients.append(client)

    manifest_plain = FunctionManifest.create(
        "blob", "blob", {"send"}, image="python")
    manifest_sgx = FunctionManifest.create(
        "blob", "blob", {"send"}, image="python-op-sgx")
    completed = [0]

    def client_flow(thread, client, client_index):
        boxes = client.discover_boxes()
        box = boxes[client_index % len(boxes)]
        for s in range(per_client):
            session_index = client_index * per_client + s
            sgx = session_index % 8 == 7
            session = yield from client.connect(thread, box)
            if sgx:
                yield from session.request_image(thread, "python-op-sgx",
                                                 verify="ias")
                yield from session.load_function(thread, CODE, manifest_sgx)
            else:
                yield from session.request_image(thread, "python",
                                                 verify="none")
                yield from session.load_function(thread, CODE, manifest_plain)
            result = yield from session.invoke(thread, [payload])
            output = yield from session.next_output(thread)
            assert result == payload and len(output) == payload
            yield from session.shutdown(thread)
            session.close()
            completed[0] += 1

    threads = [
        net.sim.spawn(client_flow, client, index, name=f"scale{index}",
                      delay=0.25 * index)
        for index, client in enumerate(clients)
    ]
    start = time.perf_counter()
    net.sim.run()
    wall = time.perf_counter() - start
    for thread in threads:
        if thread.exception is not None:
            raise thread.exception
    assert completed[0] == n_sessions, (completed[0], n_sessions)

    snap = counters.snapshot()
    return {
        "n_sessions": n_sessions,
        "n_clients": n_clients,
        "payload_bytes": payload,
        "wall_s": round(wall, 3),
        "sim_now": net.sim.now,
        "events_processed": snap["events_processed"],
        "events_per_s": round(snap["events_processed"] / wall, 1),
        "cells_crypted": snap["cells_crypted"],
        "heap_compactions": snap["heap_compactions"],
        "timers_cancelled": snap.get("timers_cancelled", 0),
        "bytes_zero_copied": snap.get("bytes_zero_copied", 0),
        "tasks_spawned": snap.get("tasks_spawned", 0),
        "task_switches": snap.get("task_switches", 0),
        "cache_hit_rates": _cache_hit_rates(),
    }


def _cache_hit_rates() -> dict:
    """Per-layer hit rates from the cache_{hits,misses}{layer=...} metrics."""
    hits: dict[str, int] = {}
    misses: dict[str, int] = {}
    for key, value in REGISTRY.snapshot().items():
        for name, store in (("cache_hits{", hits), ("cache_misses{", misses)):
            if key.startswith(name) and 'layer="' in key:
                layer = key.split('layer="', 1)[1].split('"', 1)[0]
                store[layer] = store.get(layer, 0) + int(value)
    rates = {}
    for layer in sorted(set(hits) | set(misses)):
        total = hits.get(layer, 0) + misses.get(layer, 0)
        rates[layer] = {
            "hits": hits.get(layer, 0),
            "misses": misses.get(layer, 0),
            "rate": round(hits.get(layer, 0) / total, 4) if total else 0.0,
        }
    return rates


def _run_child(n_sessions: int, seed: int) -> dict:
    """Run one N in a subprocess; returns its JSON (incl. peak RSS)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--run", str(n_sessions), "--seed", str(seed)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(
            f"N={n_sessions} child failed:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help=f"run only N={SMOKE_N} and assert the CI "
                             "memory budgets")
    parser.add_argument("--run", type=int, default=None,
                        help=argparse.SUPPRESS)   # subprocess worker mode
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--out", default=str(Path(__file__).parent
                                             / "BENCH_scale.json"))
    args = parser.parse_args()

    if args.run is not None:
        result = run_scale(args.run, seed=args.seed)
        result["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(result))
        return 0

    sweep = (SMOKE_N,) if args.smoke else SWEEP
    report: dict = {"smoke": args.smoke, "seed": args.seed,
                    "thread_kernel_n1000": THREAD_KERNEL_N1000, "runs": []}
    failures = []
    for n_sessions in sweep:
        result = _run_child(n_sessions, args.seed)
        base = BASELINE.get(n_sessions) or {}
        if base.get("wall_s"):
            result["baseline_wall_s"] = base["wall_s"]
            result["baseline_peak_rss_kb"] = base["peak_rss_kb"]
            result["speedup"] = round(base["wall_s"] / result["wall_s"], 2)
            result["rss_ratio"] = round(
                result["peak_rss_kb"] / base["peak_rss_kb"], 3)
        result["rss_per_session_kb"] = round(
            result["peak_rss_kb"] / n_sessions, 2)
        report["runs"].append(result)
        line = (f"N={n_sessions:6d}  wall={result['wall_s']:8.3f}s  "
                f"events/s={result['events_per_s']:>10}  "
                f"rss={result['peak_rss_kb']}kB "
                f"({result['rss_per_session_kb']}kB/session)")
        if "speedup" in result:
            line += (f"  speedup={result['speedup']}x  "
                     f"rss_ratio={result['rss_ratio']}")
        print(line)
        for layer, stats in result["cache_hit_rates"].items():
            print(f"         cache[{layer}]: {stats['hits']}/{stats['hits'] + stats['misses']} "
                  f"hit rate {stats['rate']:.2%}")
        if n_sessions >= 1000:
            thread_per_session = (THREAD_KERNEL_N1000["peak_rss_kb"] / 1000)
            if result["rss_per_session_kb"] >= thread_per_session:
                failures.append(
                    f"N={n_sessions}: {result['rss_per_session_kb']}kB/session"
                    f" is not below the thread kernel's "
                    f"{thread_per_session:.2f}kB/session at N=1000")
        if args.smoke and result["peak_rss_kb"] > SMOKE_RSS_BUDGET_KB:
            failures.append(
                f"N={n_sessions}: peak RSS {result['peak_rss_kb']}kB exceeds "
                f"the smoke budget {SMOKE_RSS_BUDGET_KB}kB")
    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

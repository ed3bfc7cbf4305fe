"""Overload sweep: the serving plane under 0.5x-4x offered load.

One Bento box with a deliberately starved uplink serves an open-loop
arrival stream of sessions (connect, request image, load function,
invoke, download a payload, shutdown).  The box's drain capacity in
sessions/second is measured by a sequential probe (uplink bytes per
session against the uplink rate); the sweep then offers multiples of
that capacity with the serving plane off and on:

* **plane off** — every arrival gets a container immediately, all the
  concurrent downloads share the throttled uplink fairly, everybody
  slows down together, and past ~1x offered load sessions start
  finishing after their deadline: classic congestion collapse, goodput
  falls toward zero while the link stays saturated with late work.

* **plane on** — admission slots cap concurrency, the bounded queue
  absorbs bursts, and excess arrivals are refused quickly with a
  structured ``retry_after`` (and, while shedding, a client puzzle), so
  admitted sessions finish fast and goodput holds near capacity.

    PYTHONPATH=src python benchmarks/bench_qos.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_qos.py --smoke    # 4x only (CI)

Each (mode, multiplier) runs in its own subprocess so peak RSS is
attributable; results land in ``BENCH_qos.json``.
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
from repro.core.client import RETRYABLE_ERRORS  # noqa: E402
from repro.core.errors import ServerBusy  # noqa: E402
from repro.core.policy import MiddleboxNodePolicy  # noqa: E402
from repro.obs.metrics import REGISTRY  # noqa: E402
from repro.netsim.simulator import Sleep  # noqa: E402
from repro.perf.counters import counters  # noqa: E402
from repro.tor import TorTestNetwork  # noqa: E402

BOX_UPLINK_BPS = 512 * 1024      # the starved bottleneck: 0.5 MiB/s
PAYLOAD_BYTES = 256 * 1024       # each session downloads this from the box
SLOTS = 10                       # plane-on concurrency cap
DEADLINE_S = 20.0                # a session finishing later is not goodput
RETRY_MARGIN_S = 15.0            # stop retrying when service cannot fit
DURATION_S = 30.0                # offered-load window per run
HORIZON_EXTRA_S = 120.0          # let the plane-off backlog drain
MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)
SMOKE_MULTIPLIERS = (4.0,)
PROBE_SESSIONS = 4

CODE = (
    "def blob(n):\n"
    "    yield from api.send(b'\\x5a' * int(n))\n"
    "    return int(n)\n"
)


def _build_net(seed: int) -> tuple[TorTestNetwork, object]:
    """A testnet with exactly one Bento box on a throttled uplink."""
    net = TorTestNetwork(n_relays=8, seed=seed,
                         bento_fraction=0.125)
    (box_relay,) = net.bento_boxes()
    box_relay.node.uplink.rate = float(BOX_UPLINK_BPS)
    return net, box_relay


def _policy() -> MiddleboxNodePolicy:
    # Roomy caps: plane-off must accept every arrival (that is the
    # collapse under test), plane-on is gated by admission slots instead.
    return replace(MiddleboxNodePolicy.open_policy(),
                   max_containers=512,
                   max_total_memory=4096 * 1024 * 1024,
                   max_total_disk=1024 * 1024 * 1024)


def probe_capacity(seed: int) -> dict:
    """Measure one session's uplink cost; derive the box's drain rate.

    Runs a few sequential sessions on an idle plane-off box and divides
    uplink bytes by sessions: the box cannot complete sessions faster
    than its uplink can carry their payload plus protocol overhead, so
    ``uplink_rate / bytes_per_session`` is the drain capacity any
    scheduler is fighting for.
    """
    net, box_relay = _build_net(seed)
    BentoServer(box_relay, net.authority, policy=_policy())
    client = BentoClient(net.create_client("probe"))
    manifest = FunctionManifest.create("blob", "blob", {"send"},
                                       image="python")
    durations = []

    def flow(thread):
        boxes = client.discover_boxes()
        for _ in range(PROBE_SESSIONS):
            started = net.sim.now
            session = yield from client.connect(thread, boxes[0])
            yield from session.request_image(thread, "python", verify="none")
            yield from session.load_function(thread, CODE, manifest)
            result = yield from session.invoke(thread, [PAYLOAD_BYTES])
            assert result == PAYLOAD_BYTES
            output = yield from session.next_output(thread)
            assert len(output) == PAYLOAD_BYTES
            yield from session.shutdown(thread)
            session.close()
            durations.append(net.sim.now - started)

    thread = net.sim.spawn(flow, name="probe")
    net.sim.run()
    if thread.exception is not None:
        raise thread.exception
    bytes_per_session = box_relay.node.uplink.bytes_total / PROBE_SESSIONS
    return {
        "bytes_per_session": int(bytes_per_session),
        "session_s": round(sum(durations) / len(durations), 3),
        "capacity_per_s": round(BOX_UPLINK_BPS / bytes_per_session, 3),
    }


def run_overload(mode: str, multiplier: float, seed: int,
                 duration: float = DURATION_S) -> dict:
    """One (mode, multiplier) cell of the sweep."""
    probe = probe_capacity(seed)
    capacity = probe["capacity_per_s"]
    offered = capacity * multiplier
    n_sessions = max(1, int(offered * duration))

    REGISTRY.reset()
    net, box_relay = _build_net(seed)
    if mode == "on":
        from repro.qos import QosConfig
        qos = QosConfig(slots=SLOTS, queue_depth=8, queue_timeout_s=3.0,
                        base_retry_after_s=2.0)
    else:
        qos = None
    BentoServer(box_relay, net.authority, policy=_policy(), qos=qos)
    manifest = FunctionManifest.create("blob", "blob", {"send"},
                                       image="python")
    completed: list[tuple[float, float]] = []   # (arrived, finished)
    gave_up = [0]

    def one_arrival(thread, client):
        arrived = net.sim.now
        boxes = client.discover_boxes()
        while True:
            session = None
            try:
                session = yield from client.connect(thread, boxes[0])
                yield from session.request_image(thread, "python",
                                                 verify="none")
                yield from session.load_function(thread, CODE, manifest)
                result = yield from session.invoke(thread, [PAYLOAD_BYTES])
                assert result == PAYLOAD_BYTES
                output = yield from session.next_output(thread)
                assert len(output) == PAYLOAD_BYTES
                yield from session.shutdown(thread)
                completed.append((arrived, net.sim.now))
                return
            except RETRYABLE_ERRORS as exc:
                waited = net.sim.now - arrived
                # Retrying with less budget than a service time left
                # only burns the box's bandwidth on a session that will
                # finish past its deadline anyway.
                if waited >= DEADLINE_S - RETRY_MARGIN_S:
                    gave_up[0] += 1
                    return
                if isinstance(exc, ServerBusy) and exc.retry_after > 0:
                    delay = exc.retry_after
                else:
                    delay = 1.0 + client.rng.random()
                yield Sleep(min(delay, DEADLINE_S - waited))
            finally:
                if session is not None:
                    session.close()

    clients = [BentoClient(net.create_client(f"load{i}"))
               for i in range(n_sessions)]
    threads = [
        net.sim.spawn(one_arrival, client, name=f"arrival{i}",
                      delay=i / offered)
        for i, client in enumerate(clients)
    ]
    start = time.perf_counter()
    net.sim.run(until=duration + HORIZON_EXTRA_S)
    wall = time.perf_counter() - start
    for thread in threads:
        if thread.exception is not None:
            raise thread.exception
    unfinished = sum(1 for t in threads if not t.finished)

    good = sorted(done - arrived for arrived, done in completed
                  if done - arrived <= DEADLINE_S)
    all_lat = sorted(done - arrived for arrived, done in completed)
    snap = counters.snapshot()
    # Goodput over the serving makespan: from the first arrival to the
    # last in-deadline completion.  Normalizing by the arrival window
    # alone would credit the spill-over tail; normalizing by the full
    # window duration+deadline would charge the box for time after the
    # last client gave up and demand vanished.
    last_good = max((done for arrived, done in completed
                     if done - arrived <= DEADLINE_S), default=0.0)
    makespan = max(duration, last_good)
    goodput = len(good) / makespan
    return {
        "mode": mode,
        "multiplier": multiplier,
        "offered_per_s": round(offered, 3),
        "capacity_per_s": capacity,
        "probe": probe,
        "n_sessions": n_sessions,
        "completed": len(completed),
        "good": len(good),
        "gave_up": gave_up[0],
        "unfinished": unfinished,
        "makespan_s": round(makespan, 3),
        "goodput_per_s": round(goodput, 3),
        "goodput_vs_attainable": round(goodput / min(capacity, offered), 3),
        "p50_s": _pct(all_lat, 0.50),
        "p99_s": _pct(all_lat, 0.99),
        "good_p99_s": _pct(good, 0.99),
        "wall_s": round(wall, 3),
        "qos_admitted": snap.get("qos_admitted", 0),
        "qos_rejected": snap.get("qos_rejected", 0),
        "qos_shed": snap.get("qos_shed", 0),
        "qos_throttles": snap.get("qos_throttles", 0),
        "retries": snap.get("retries", 0),
    }


def _pct(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return round(ordered[index], 3)


def _run_child(mode: str, multiplier: float, seed: int,
               duration: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--run", mode, "--multiplier", str(multiplier),
         "--seed", str(seed), "--duration", str(duration)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} x{multiplier} child failed:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run only the 4x point (CI)")
    parser.add_argument("--run", choices=("off", "on"), default=None,
                        help=argparse.SUPPRESS)   # subprocess worker mode
    parser.add_argument("--multiplier", type=float, default=1.0)
    parser.add_argument("--duration", type=float, default=DURATION_S)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--out", default=str(Path(__file__).parent
                                             / "BENCH_qos.json"))
    args = parser.parse_args()

    if args.run is not None:
        result = run_overload(args.run, args.multiplier, args.seed,
                              duration=args.duration)
        result["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(result))
        return 0

    multipliers = SMOKE_MULTIPLIERS if args.smoke else MULTIPLIERS
    duration = 10.0 if args.smoke else DURATION_S
    report: dict = {"smoke": args.smoke, "seed": args.seed,
                    "slots": SLOTS, "deadline_s": DEADLINE_S,
                    "payload_bytes": PAYLOAD_BYTES,
                    "box_uplink_bps": BOX_UPLINK_BPS, "runs": []}
    for multiplier in multipliers:
        for mode in ("off", "on"):
            result = _run_child(mode, multiplier, args.seed, duration)
            report["runs"].append(result)
            print(f"x{multiplier:<4} plane={mode:3s}  "
                  f"goodput={result['goodput_per_s']:6.2f}/s "
                  f"({result['goodput_vs_attainable']:5.1%} of attainable)  "
                  f"p99={result['p99_s']:8.2f}s  "
                  f"good={result['good']}/{result['n_sessions']} "
                  f"gave_up={result['gave_up']} "
                  f"unfinished={result['unfinished']}")
    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

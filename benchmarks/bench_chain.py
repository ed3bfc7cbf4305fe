"""Chain overload sweep: joint embedding vs greedy per-function deploy.

The stock Cover→Browser-defense→Store chain is deployed twice over the
same testnet — every Bento box has a deliberately starved uplink — and
an open-loop stream of traffic units is pushed through each deployment
at multiples of the chain's sequential drain rate:

* **greedy** — the per-function baseline places one replica of every
  component on the emptiest box of a static load table; with no spent
  ledger they all land on the *same* box, so each unit crosses that one
  uplink three times and concurrent units contend for it.  Past ~1x
  offered load the queue wait passes the unit deadline: goodput caps at
  a third of the fabric's capacity.

* **joint** — the embedding engine scales replica counts from the
  template's rates, debits a capacity ledger per placement, and spreads
  replicas with sibling anti-affinity; each stage's uplink carries only
  its own arc, so the chain keeps draining near its service rate.

    PYTHONPATH=src python benchmarks/bench_chain.py           # full sweep
    PYTHONPATH=src python benchmarks/bench_chain.py --smoke   # 4x only (CI)

Each (engine, multiplier) cell runs in its own subprocess so peak RSS is
attributable; results land in ``BENCH_chain.json``.  The run is gated:
at the 4x point joint goodput must beat greedy by ``GATE_RATIO``, and
same-seed embeddings must be bit-identical across fresh processes and
fresh networks (the overlay digest is compared everywhere).
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

from repro.chain import ChainDeployment, pipeline_chain  # noqa: E402
from repro.chain.deploy import ChainDeployError  # noqa: E402
from repro.core import BentoClient, BentoServer  # noqa: E402
from repro.core.policy import MiddleboxNodePolicy  # noqa: E402
from repro.enclave.attestation import IntelAttestationService  # noqa: E402
from repro.perf.counters import counters  # noqa: E402
from repro.obs.metrics import REGISTRY  # noqa: E402
from repro.tor import TorTestNetwork  # noqa: E402

BOX_UPLINK_BPS = 512 * 1024      # every Bento box: starved 0.5 MiB/s uplink
PAYLOAD_BYTES = 128 * 1024       # per traffic unit; transfer >> RTT
DEADLINE_S = 20.0                # a unit delivered later is not goodput
DURATION_S = 30.0                # offered-load window per cell
HORIZON_EXTRA_S = 90.0           # let the backlog drain or expire
MULTIPLIERS = (0.5, 1.0, 2.0, 4.0)
SMOKE_MULTIPLIERS = (4.0,)
PROBE_UNITS = 3
GATE_MULTIPLIER = 4.0
GATE_RATIO = 1.15                # joint must beat greedy by this margin


def _policy() -> MiddleboxNodePolicy:
    # Roomy caps: greedy must be *allowed* to stack every stage on one
    # box — the collapse under test is bandwidth, not admission.
    return replace(MiddleboxNodePolicy.open_policy(),
                   max_containers=64,
                   max_total_memory=1024 * 1024 * 1024,
                   max_total_disk=1024 * 1024 * 1024)


def _build(seed: int) -> tuple[TorTestNetwork, ChainDeployment]:
    """A testnet with starved box uplinks and an undeployed chain."""
    net = TorTestNetwork(n_relays=12, seed=seed,
                         bento_fraction=0.5)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    for relay in net.bento_boxes():
        relay.node.uplink.rate = float(BOX_UPLINK_BPS)
        BentoServer(relay, net.authority, ias=ias, policy=_policy())
    client = BentoClient(net.create_client("chain-bench"), ias=ias)
    dep = ChainDeployment(client, pipeline_chain(),
                          reembed_on_failure=False)
    return net, dep


def _unit(i: int) -> bytes:
    head = i.to_bytes(4, "big")
    return head + bytes(PAYLOAD_BYTES - len(head))


def probe_capacity(seed: int, engine: str) -> dict:
    """Sequential drain rate of the deployed chain (no contention).

    A handful of back-to-back pushes on an idle deployment measure the
    unloaded per-unit service time — three stage round-trips plus three
    uplink transfers.  ``1 / unit_s`` is the normalization constant the
    sweep offers multiples of; it deliberately ignores pipelining, so a
    1x offer is comfortably sustainable and 4x is genuine overload.
    """
    net, dep = _build(seed)
    durations = []

    def flow(thread):
        yield from dep.deploy(thread, engine=engine)
        for i in range(PROBE_UNITS):
            payload = _unit(i)
            started = net.sim.now
            out = yield from dep.push(thread, payload,
                                      deadline_s=10 * DEADLINE_S)
            assert out == dep.expected_outputs(payload)
            durations.append(net.sim.now - started)

    thread = net.sim.spawn(flow, name="probe")
    net.sim.run()
    if thread.exception is not None:
        raise thread.exception
    unit_s = sum(durations) / len(durations)
    return {"unit_s": round(unit_s, 3),
            "capacity_per_s": round(1.0 / unit_s, 3)}


def run_overload(engine: str, multiplier: float, seed: int,
                 duration: float = DURATION_S) -> dict:
    """One (engine, multiplier) cell of the sweep."""
    probe = probe_capacity(seed, engine)
    capacity = probe["capacity_per_s"]
    offered = capacity * multiplier
    n_units = max(1, int(offered * duration))

    REGISTRY.reset()
    net, dep = _build(seed)
    completed: list[tuple[float, float]] = []   # (arrived, delivered)
    missed = [0]
    threads: list = []

    def one_unit(thread, i):
        payload = _unit(i)
        arrived = net.sim.now
        try:
            out = yield from dep.push(thread, payload,
                                      deadline_s=DEADLINE_S)
        except ChainDeployError:
            missed[0] += 1       # queue wait passed the unit deadline
            return
        assert out == dep.expected_outputs(payload)
        completed.append((arrived, net.sim.now))

    def driver(thread):
        # Deploy and launch arrivals from one live actor: draining the
        # event queue between phases would fast-forward through an hour
        # of idle timers and expire the sessions.
        yield from dep.deploy(thread, engine=engine)
        threads.extend(net.sim.spawn(one_unit, i, name=f"unit{i}",
                                     delay=i / offered)
                       for i in range(n_units))

    driver_task = net.sim.spawn(driver, name="driver")
    start = time.perf_counter()
    net.sim.run(until=duration + HORIZON_EXTRA_S)
    wall = time.perf_counter() - start
    if driver_task.exception is not None:
        raise driver_task.exception
    overlay = dep.overlay
    for thread in threads:
        if thread.exception is not None:
            raise thread.exception
    unfinished = sum(1 for t in threads if not t.finished)

    good = sorted(done - arrived for arrived, done in completed
                  if done - arrived <= DEADLINE_S)
    all_lat = sorted(done - arrived for arrived, done in completed)
    # Goodput over the serving makespan (see bench_qos for the rationale:
    # neither the arrival window alone nor the full horizon is fair).
    last_good = max((done for arrived, done in completed
                     if done - arrived <= DEADLINE_S), default=0.0)
    first = min((arrived for arrived, _ in completed),
                default=net.sim.now)
    makespan = max(duration, last_good - first)
    snap = counters.snapshot()
    return {
        "engine": engine,
        "multiplier": multiplier,
        "offered_per_s": round(offered, 3),
        "capacity_per_s": capacity,
        "probe": probe,
        "n_units": n_units,
        "delivered": len(completed),
        "good": len(good),
        "missed_deadline": missed[0],
        "unfinished": unfinished,
        "makespan_s": round(makespan, 3),
        "goodput_per_s": round(len(good) / makespan, 3),
        "p50_s": _pct(all_lat, 0.50),
        "p99_s": _pct(all_lat, 0.99),
        "wall_s": round(wall, 3),
        "overlay_digest": overlay.digest(),
        "placement": dict(overlay.objective),
        "chain_embeds": snap.get("chain_embeds", 0),
        "chain_arc_bytes": snap.get("chain_arc_bytes", 0),
        "chain_units_delivered": snap.get("chain_units_delivered", 0),
    }


def embed_identity(seed: int) -> dict:
    """Same-seed embeddings must be bit-identical, run to run.

    Computes the joint overlay on two *fresh* same-seed networks plus a
    second time on the first network, and compares canonical digests.
    The sweep's per-cell digests (fresh subprocesses) are checked against
    this one by the caller.
    """
    _, dep_a = _build(seed)
    _, dep_b = _build(seed)
    digest_a = dep_a.compute_overlay(engine="joint").digest()
    again = dep_a.compute_overlay(engine="joint").digest()
    digest_b = dep_b.compute_overlay(engine="joint").digest()
    return {"digest": digest_a,
            "bit_identical": digest_a == again == digest_b}


def _pct(ordered: list[float], q: float) -> float:
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return round(ordered[index], 3)


def _run_child(engine: str, multiplier: float, seed: int,
               duration: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--run", engine, "--multiplier", str(multiplier),
         "--seed", str(seed), "--duration", str(duration)],
        capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{engine} x{multiplier} child failed:\n"
                           f"{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="run only the 4x point (CI)")
    parser.add_argument("--run", choices=("joint", "greedy"), default=None,
                        help=argparse.SUPPRESS)   # subprocess worker mode
    parser.add_argument("--multiplier", type=float, default=1.0)
    parser.add_argument("--duration", type=float, default=DURATION_S)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--out", default=str(Path(__file__).parent
                                             / "BENCH_chain.json"))
    args = parser.parse_args()

    if args.run is not None:
        result = run_overload(args.run, args.multiplier, args.seed,
                              duration=args.duration)
        result["peak_rss_kb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(result))
        return 0

    multipliers = SMOKE_MULTIPLIERS if args.smoke else MULTIPLIERS
    duration = 12.0 if args.smoke else DURATION_S
    identity = embed_identity(args.seed)
    report: dict = {"smoke": args.smoke, "seed": args.seed,
                    "deadline_s": DEADLINE_S,
                    "payload_bytes": PAYLOAD_BYTES,
                    "box_uplink_bps": BOX_UPLINK_BPS,
                    "gate_ratio": GATE_RATIO,
                    "embed_identity": identity, "runs": []}
    goodput: dict[tuple[str, float], float] = {}
    digests_agree = identity["bit_identical"]
    for multiplier in multipliers:
        for engine in ("greedy", "joint"):
            result = _run_child(engine, multiplier, args.seed, duration)
            report["runs"].append(result)
            goodput[(engine, multiplier)] = result["goodput_per_s"]
            if engine == "joint" \
                    and result["overlay_digest"] != identity["digest"]:
                digests_agree = False
            print(f"x{multiplier:<4} engine={engine:6s}  "
                  f"goodput={result['goodput_per_s']:6.2f}/s  "
                  f"good={result['good']}/{result['n_units']}  "
                  f"missed={result['missed_deadline']} "
                  f"unfinished={result['unfinished']}  "
                  f"p99={result['p99_s']:7.2f}s  "
                  f"boxes={result['placement']['boxes_used']} "
                  f"peak={result['placement']['peak_box_units_per_s']}")
    gate_mult = max(multipliers)
    joint_g = goodput[("joint", gate_mult)]
    greedy_g = goodput[("greedy", gate_mult)]
    ratio = joint_g / greedy_g if greedy_g else float("inf")
    gate_passed = ratio >= GATE_RATIO and digests_agree
    report["gate"] = {"multiplier": gate_mult,
                      "joint_goodput_per_s": joint_g,
                      "greedy_goodput_per_s": greedy_g,
                      "ratio": round(ratio, 3),
                      "threshold": GATE_RATIO,
                      "embeddings_bit_identical": digests_agree,
                      "passed": gate_passed}
    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"gate at x{gate_mult}: joint {joint_g}/s vs greedy {greedy_g}/s "
          f"= {ratio:.2f}x (need >= {GATE_RATIO}x), embeddings "
          f"{'bit-identical' if digests_agree else 'DIVERGED'} -> "
          f"{'PASS' if gate_passed else 'FAIL'}")
    print(f"wrote {out_path}")
    return 0 if gate_passed else 1


if __name__ == "__main__":
    sys.exit(main())

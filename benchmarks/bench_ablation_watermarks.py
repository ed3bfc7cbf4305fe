"""Ablation A4: LoadBalancer watermark sensitivity (§8.2).

The high watermark ("at most two clients at a time" in the paper's
Figure 5 run) decides how aggressively replicas spawn.  Sweeping it shows
the trade: low watermarks buy parallel bandwidth with more machines; high
watermarks serve everyone from fewer instances, slower.
"""

from __future__ import annotations

import functools

import pytest

from repro.netsim.simulator import Sleep  # noqa: E402
from repro.core.client import BentoClient
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.loadbalancer import LoadBalancerFunction
from repro.tor.testnet import TorTestNetwork

from conftest import FULL_SCALE, banner

N_CLIENTS = 10
FILE_SIZE = 3_000_000
HIGH_WATERS = [1, 2, 4, 99] if FULL_SCALE else [2, 99]  # 99 ~ never scale
# Same calibration as Figure 5: fair share below the per-stream window
# ceiling, so replica capacity is the binding constraint.
SERVER_BW = 1_200_000.0


def _one_setting(high_water: int) -> dict:
    net = TorTestNetwork(n_relays=14, seed=f"wm-{high_water}",
                         bento_fraction=0.45)
    net.network.min_latency = 0.015
    net.network.max_latency = 0.05
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    for relay in net.bento_boxes():
        relay.node.uplink.rate = SERVER_BW
        relay.node.downlink.rate = SERVER_BW
        relay.register_with(net.authority)
    for relay in net.bento_boxes():
        BentoServer(relay, net.authority, ias=ias)
    content = bytes(net.sim.rng.fork("content").randbytes(FILE_SIZE))
    operator = BentoClient(net.create_client("operator"), ias=ias)
    shared = {}

    def op_main(thread):
        session = yield from operator.connect(thread, operator.pick_box())
        yield from session.request_image(thread, "python")
        yield from session.load_function(
            thread, LoadBalancerFunction.SOURCE,
            LoadBalancerFunction.manifest(image="python"))
        shared["onion"] = yield from LoadBalancerFunction.start(
            thread, session, content, high_water=high_water, low_water=1,
            max_replicas=3, duration_s=300.0, poll_interval=2.0,
            replica_image="python")
        shared["stats"] = yield from session.await_result(thread,
                                                          timeout=600.0)

    durations = []

    def visitor(thread, index):
        yield Sleep(index * 2.0)
        client = net.create_client(f"wm-client{index}")
        started = net.sim.now
        body, _ = yield from LoadBalancerFunction.download(thread, client,
                                                           shared["onion"])
        assert len(body) == FILE_SIZE
        durations.append(net.sim.now - started)

    op_thread = net.sim.spawn(op_main, name="op")
    net.sim.run(until=60.0)
    for i in range(N_CLIENTS):
        net.sim.spawn(functools.partial(visitor, index=i), name=f"wm-v{i}")
    net.sim.run_until_done(op_thread)
    net.sim.check_failures()
    events = shared["stats"]["events"]
    peak = max((e[2] for e in events
                if e[1] in ("start", "scale-up", "scale-down")), default=1)
    return {"high_water": high_water, "peak_instances": peak,
            "mean_s": sum(durations) / len(durations),
            "max_s": max(durations)}


def run_watermark_sweep() -> dict:
    return {"rows": [_one_setting(hw) for hw in HIGH_WATERS]}


def test_ablation_watermarks(benchmark, experiment_recorder):
    result = benchmark.pedantic(run_watermark_sweep, rounds=1, iterations=1)

    banner(f"ABLATION A4 — high watermark sweep "
           f"({N_CLIENTS} clients, {FILE_SIZE // 1_000_000}MB)")
    print(f"{'high water':>11s} {'peak instances':>15s} {'mean (s)':>9s} "
          f"{'max (s)':>9s}")
    for row in result["rows"]:
        print(f"{row['high_water']:11d} {row['peak_instances']:15d} "
              f"{row['mean_s']:9.1f} {row['max_s']:9.1f}")

    experiment_recorder("ablation_watermarks", result)

    rows = {row["high_water"]: row for row in result["rows"]}
    # The paper's setting (2 clients per instance) uses more machines
    # than never-scale...
    assert rows[2]["peak_instances"] > rows[99]["peak_instances"] == 1
    # ...and buys faster downloads than the single-instance setting.
    assert rows[2]["mean_s"] < rows[99]["mean_s"]

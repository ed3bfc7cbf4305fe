#!/usr/bin/env python3
"""The §8 scenario: autoscaling a hidden service with LoadBalancer.

Clients arrive one per second and download a file from a hidden service.
Without the function, they all share one server's bandwidth; with it, the
balancer spins replicas up (cloning the service key to other Bento boxes)
and routes each rendezvous to the least-loaded instance — Figure 5 at
demo scale (full version: benchmarks/bench_figure5_loadbalancer.py).

Run:  python examples/hidden_service_loadbalancer.py
"""

from repro.core import BentoClient, BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions import LoadBalancerFunction
import functools

from repro.netsim.bytestream import FramedStream
from repro.netsim.http import fetch, serve_body
from repro.netsim.simulator import Sleep
from repro.tor import HiddenService, TorTestNetwork

N_CLIENTS = 6
FILE_SIZE = 2_000_000
SERVER_BW = 1_000_000.0    # T2-class hosts: fair share < per-stream ceiling


def build_net(seed):
    net = TorTestNetwork(n_relays=12, seed=seed, bento_fraction=0.5)
    net.network.min_latency = 0.015
    net.network.max_latency = 0.05
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    for relay in net.bento_boxes():
        relay.node.uplink.rate = SERVER_BW
        relay.node.downlink.rate = SERVER_BW
        relay.register_with(net.authority)
        BentoServer(relay, net.authority, ias=ias)
    return net


def run_without_balancer(content):
    """Baseline: a single ordinary hidden service."""
    net = build_net("lb-demo-baseline")
    host = net.create_client("hs-host", bandwidth=SERVER_BW)
    shared = {}

    def handler(stream, _host, _port):
        def serve(thread):
            framed = FramedStream(stream)
            frame = yield from framed.recv_frame(thread, timeout=300.0)
            if frame is not None:
                yield from serve_body(thread, framed, 200, content)
        net.sim.spawn(serve, name="serve")

    def host_main(thread):
        service = HiddenService(host, handler)
        yield from service.establish(thread)
        shared["onion"] = str(service.onion_address)

    net.sim.run_until_done(net.sim.spawn(host_main, name="host"))

    times = {}

    def visitor(thread, index):
        yield Sleep(index * 1.0)
        client = net.create_client(f"visitor{index}")
        started = net.sim.now
        circuit = yield from client.connect_to_hidden_service(
            thread, shared["onion"])
        stream = yield from circuit.open_stream(thread, "", 80)
        framed = FramedStream(stream)
        yield from fetch(thread, framed, "/")
        circuit.close()
        times[index] = net.sim.now - started

    for i in range(N_CLIENTS):
        net.sim.spawn(functools.partial(visitor, index=i), name=f"v{i}")
    net.sim.run()
    net.sim.check_failures()
    return times


def run_with_balancer(content):
    net = build_net("lb-demo-balanced")
    operator = BentoClient(net.create_client("operator"), ias=net.ias)
    shared = {}

    def op_main(thread):
        session = yield from operator.connect(thread, operator.pick_box())
        yield from session.request_image(thread, "python")
        yield from session.load_function(
            thread, LoadBalancerFunction.SOURCE,
            LoadBalancerFunction.manifest(image="python"))
        shared["onion"] = yield from LoadBalancerFunction.start(
            thread, session, content, high_water=2, low_water=1,
            max_replicas=3, duration_s=120.0, poll_interval=2.0,
            replica_image="python")
        shared["stats"] = yield from session.await_result(thread,
                                                          timeout=400.0)

    times = {}

    def visitor(thread, index):
        while "onion" not in shared:
            yield Sleep(0.5)
        yield Sleep(index * 1.0)
        client = net.create_client(f"visitor{index}")
        _body, elapsed = yield from LoadBalancerFunction.download(
            thread, client, shared["onion"])
        times[index] = elapsed

    op_thread = net.sim.spawn(op_main, name="operator")
    for i in range(N_CLIENTS):
        net.sim.spawn(functools.partial(visitor, index=i), name=f"v{i}",
                      delay=5.0)
    net.sim.run_until_done(op_thread)
    net.sim.check_failures()
    return times, shared["stats"]


def main() -> None:
    rng_content = b"\x5a" * FILE_SIZE
    print(f"{N_CLIENTS} clients, {FILE_SIZE // 1000} kB file, "
          f"1s arrival spacing\n")

    baseline = run_without_balancer(rng_content)
    balanced, stats = run_with_balancer(rng_content)

    print(f"{'client':>7s} {'no balancer (s)':>17s} {'balanced (s)':>14s}")
    for index in sorted(baseline):
        print(f"{index:7d} {baseline[index]:17.2f} "
              f"{balanced.get(index, float('nan')):14.2f}")
    print(f"\nmean download: {sum(baseline.values()) / len(baseline):.2f}s "
          f"-> {sum(balanced.values()) / len(balanced):.2f}s")
    scale_events = [e for e in stats["events"] if e[1] == "scale-up"]
    print(f"replicas created: {len(scale_events)}; "
          f"dispatches: {[e[2] for e in stats['events'] if e[1] == 'dispatch']}")


if __name__ == "__main__":
    main()

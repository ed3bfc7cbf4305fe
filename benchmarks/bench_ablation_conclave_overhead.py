"""Ablation A3: conclave overhead on function operations (§7.3).

"The use of conclaves does not provide a significant performance impact"
— because enclave transition costs are dwarfed by Tor circuit latency.
This bench runs the same Browser fetch in the plain python image and the
python-op-sgx image, and separately stresses a storage-heavy function
(many small enclave crossings), which is the worst case for transition
overhead.
"""

from __future__ import annotations

import pytest

from repro.core.client import BentoClient
from repro.core.manifest import FunctionManifest
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.browser import BrowserFunction
from repro.tor.testnet import TorTestNetwork

from conftest import banner

STORAGE_HEAVY = """
def churn(iterations):
    for i in range(iterations):
        yield from api.storage.put("/f", b"x" * 128)
        yield from api.storage.get("/f")
    return iterations
"""

MB = 1024 * 1024


def run_overhead() -> dict:
    net = TorTestNetwork(n_relays=8, seed="conclave-bench",
                         bento_fraction=0.15)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    BentoServer(net.bento_boxes()[0], net.authority, ias=ias)
    net.create_web_server("o.example", {"/": b"w" * 200_000})
    out = {}

    def main(thread):
        client = BentoClient(net.create_client(), ias=ias)
        box = client.pick_box()
        # Pin one circuit path for every measurement: we are isolating
        # enclave overhead, so path (RTT) luck must not differ between
        # the images under comparison.
        consensus = client.tor.consensus()
        selector = client.tor.path_selector()
        fixed_path = selector.build_path(
            length=3, final_hop=consensus.find(box.identity_fp))

        def pinned_session():
            circuit = yield from client.tor.build_circuit(
                thread, path=list(fixed_path))
            return (yield from client.connect(thread, box, circuit=circuit))

        for image in ("python", "python-op-sgx"):
            session = yield from pinned_session()
            yield from session.request_image(thread, image)
            yield from session.load_function(thread, BrowserFunction.SOURCE,
                                             BrowserFunction.manifest(
                                                 image=image))
            started = net.sim.now
            yield from BrowserFunction.fetch(thread, session,
                                             "https://o.example/", 0)
            out[f"browser_{image}"] = net.sim.now - started
            yield from session.shutdown(thread)

        for image in ("python", "python-op-sgx"):
            session = yield from pinned_session()
            yield from session.request_image(thread, image)
            manifest = FunctionManifest.create(
                "churn", "churn", {"storage.put", "storage.get"},
                image=image, disk_bytes=MB)
            yield from session.load_function(thread, STORAGE_HEAVY, manifest)
            started = net.sim.now
            yield from session.invoke(thread, [500])
            out[f"churn_{image}"] = net.sim.now - started
            yield from session.shutdown(thread)

    net.sim.run_until_done(net.sim.spawn(main, name="overhead"))
    return out


def test_ablation_conclave_overhead(benchmark, experiment_recorder):
    result = benchmark.pedantic(run_overhead, rounds=1, iterations=1)

    banner("ABLATION A3 — conclave overhead per workload")
    browser_delta = (result["browser_python-op-sgx"]
                     - result["browser_python"])
    churn_delta = result["churn_python-op-sgx"] - result["churn_python"]
    print(f"Browser fetch:   python {result['browser_python']:.3f}s, "
          f"sgx {result['browser_python-op-sgx']:.3f}s "
          f"(delta {browser_delta * 1000:+.1f}ms)")
    print(f"1000 storage ops: python {result['churn_python']:.3f}s, "
          f"sgx {result['churn_python-op-sgx']:.3f}s "
          f"(delta {churn_delta * 1000:+.1f}ms)")
    print("\npaper: swap-in/out overhead 'nominal'; Tor latency dominates")

    experiment_recorder("ablation_conclave_overhead", result)

    # Network-bound work barely notices the enclave...
    assert browser_delta < 0.25 * result["browser_python"]
    # ...while the syscall-churn worst case shows the transitions.
    assert churn_delta > 0

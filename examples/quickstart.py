#!/usr/bin/env python3
"""Quickstart: a complete Bento round trip in ~60 lines.

Builds a small Tor network in the simulator, runs a Bento server beside
one relay, and — as a user — uploads and invokes a first function, with
remote attestation of the SGX execution environment.

Run:  python examples/quickstart.py
"""

from repro.core import BentoClient, BentoServer, FunctionManifest
from repro.enclave.attestation import IntelAttestationService
from repro.tor import TorTestNetwork

# The function we will upload: ordinary Python, constrained to the `api`
# object (see §5 of the paper / repro.core.api for the full surface).
HELLO_FUNCTION = """
import zlib

def greet(name, repeat):
    yield from api.log("greeting " + name)
    message = ("Hello, %s! " % name) * repeat
    yield from api.storage.put("/greeting.z", zlib.compress(message.encode()))
    stored = yield from api.storage.get("/greeting.z")
    yield from api.send(stored)
    return len(message)
"""


def main() -> None:
    # 1. A Tor network: 9 relays, a third of them offering Bento.
    net = TorTestNetwork(n_relays=9, seed=2026, bento_fraction=0.34)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    for relay in net.bento_boxes():
        BentoServer(relay, net.authority, ias=ias)
    print(f"network up: {len(net.relays)} relays, "
          f"{len(net.bento_boxes())} Bento boxes")

    # 2. A user with a Tor client and a Bento client.
    alice = BentoClient(net.create_client("alice"), ias=ias)

    def session_flow(thread):
        box = alice.pick_box()
        print(f"alice picked Bento box {box.nickname} "
              f"(policy port {box.bento_port})")
        session = yield from alice.connect(thread, box)   # ends at box

        policy = yield from session.query_policy(thread)
        print(f"middlebox node policy offers images: {policy.images}")

        # Provision the SGX image; the attestation report is verified
        # against the known runtime measurement before any upload.
        yield from session.request_image(thread, "python-op-sgx",
                                         verify="stapled")
        print(f"attested enclave measurement "
              f"{session.report.quote.measurement[:16]}..., "
              f"TCB status {session.report.status}")

        manifest = FunctionManifest.create(
            name="greet", entry="greet",
            api_calls={"send", "log", "storage.put", "storage.get"},
            image="python-op-sgx", disk_bytes=1_000_000)
        yield from session.load_function(thread, HELLO_FUNCTION, manifest)
        print("function uploaded over the attested channel")

        result = yield from session.invoke(thread, ["world", 3])
        compressed = yield from session.next_output(thread)
        import zlib

        print(f"function returned {result}; output decompresses to: "
              f"{zlib.decompress(compressed).decode()!r}")
        yield from session.shutdown(thread)
        session.close()
        print(f"shut down; simulated time elapsed: {net.sim.now:.2f}s")

    thread = net.sim.spawn(session_flow, name="alice")
    net.sim.run_until_done(thread)


if __name__ == "__main__":
    main()

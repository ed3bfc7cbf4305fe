#!/usr/bin/env python3
"""The §9.2/§9.3 scenario: anonymous storage with Dropbox and Shard.

A user scatters a file across the Tor network 2-of-4 (any two Dropboxes
suffice to reconstruct), goes offline, then recovers the file even after
two of the four boxes have vanished.

Run:  python examples/dropbox_shard.py
"""

from repro.core import BentoClient, BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.shard import ShardFunction
from repro.netsim.simulator import Sleep
from repro.tor import TorTestNetwork


def main() -> None:
    net = TorTestNetwork(n_relays=12, seed="shard-demo", bento_fraction=0.6)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    servers = {relay.fingerprint: BentoServer(relay, net.authority, ias=ias)
               for relay in net.bento_boxes()}
    print(f"{len(servers)} Bento boxes available")

    secret_file = bytes(net.sim.rng.fork("file").randbytes(120_000))
    user = BentoClient(net.create_client("user"), ias=ias)

    def flow(thread):
        # Scatter: upload the Shard function; it deploys four Dropboxes
        # on other boxes and stores one encoded piece in each.
        session = yield from user.connect(thread, user.pick_box())
        yield from session.request_image(thread, "python")
        yield from session.load_function(thread, ShardFunction.SOURCE,
                                         ShardFunction.manifest())
        metadata = yield from ShardFunction.scatter(thread, session,
                                                    secret_file,
                                                    n=4, k=2, name="secret")
        session.close()
        print(f"scattered {len(secret_file)} bytes 2-of-4 across:")
        for placement in metadata["placements"]:
            print(f"  shard {placement['index']} -> "
                  f"{placement['box_nickname']}")

        yield Sleep(120.0)    # the user is offline; time passes

        # Two boxes fail (their Bento functions die with them, §5.3).
        doomed = metadata["placements"][:2]
        for placement in doomed:
            server = servers[placement["box_fp"]]
            for instance in list(server._by_invocation.values()):
                instance.kill("machine failure")
            server.node.unlisten(server.port)
            print(f"box {placement['box_nickname']} failed "
                  f"(shard {placement['index']} lost)")

        # Gather from the surviving two.
        survivors = [p["index"] for p in metadata["placements"][2:]]
        restored = yield from ShardFunction.gather(thread, user, metadata,
                                                   use_indices=survivors)
        assert restored == secret_file
        print(f"recovered all {len(restored)} bytes from shards "
              f"{survivors} only — file intact")

    net.sim.run_until_done(net.sim.spawn(flow, name="user"))


if __name__ == "__main__":
    main()

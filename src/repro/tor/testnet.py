"""One-call construction of a complete Tor network for experiments.

``TorTestNetwork(n_relays=12)`` gives you a simulator, a network, a
directory authority, registered relays (a third flagged Guard, some exits,
optionally some Bento boxes), and factories for clients and web servers.
Every experiment and example in this repository starts here.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.http import HttpServer
from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.netsim.simulator import Simulator
from repro.tor.client import TorClient
from repro.tor.descriptor import BENTO_PORT, FLAG_GUARD, FLAG_HSDIR
from repro.tor.directory import DirectoryAuthority
from repro.tor.exitpolicy import ExitPolicy
from repro.tor.relay import Relay

# EC2-flavored defaults: relays are well connected, clients modest.
RELAY_BW = 12_500_000.0      # 100 Mbit/s
CLIENT_BW = 3_750_000.0      # 30 Mbit/s
SERVER_BW = 12_500_000.0


class TorTestNetwork:
    """A self-contained Tor deployment on the simulator."""

    # ``fast_crypto`` is ignored: benchmarks/suite/workloads.py passes it.
    def __init__(self, n_relays: int = 12, seed: int | str = 0,
                 fast_crypto: bool = False,
                 exit_fraction: float = 0.5,
                 guard_fraction: float = 0.34,
                 bento_fraction: float = 0.0,
                 relay_bandwidth: float = RELAY_BW) -> None:
        if n_relays < 3:
            raise ValueError("a Tor network needs at least 3 relays")
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim)
        self.authority = DirectoryAuthority(self.sim.rng.fork("authority"))
        self.relays: list[Relay] = []
        self._client_count = 0
        self._server_count = 0

        n_guards = max(1, int(n_relays * guard_fraction))
        n_exits = max(1, int(n_relays * exit_fraction))
        n_bento = int(n_relays * bento_fraction)
        for index in range(n_relays):
            node = self.network.create_node(
                f"relay{index}",
                up_bytes_per_s=relay_bandwidth,
                down_bytes_per_s=relay_bandwidth,
            )
            flags = [FLAG_HSDIR]
            if index < n_guards:
                flags.append(FLAG_GUARD)
            is_exit = index >= n_relays - n_exits
            policy = ExitPolicy.accept_all() if is_exit else ExitPolicy.reject_all()
            bento_port = BENTO_PORT if index >= n_relays - n_bento else None
            relay = Relay(self.network, node, f"relay{index}",
                          exit_policy=policy, flags=tuple(flags),
                          bento_port=bento_port)
            relay.register_with(self.authority)
            self.relays.append(relay)

    # -- factories ---------------------------------------------------------

    def create_client(self, name: Optional[str] = None,
                      bandwidth: float = CLIENT_BW) -> TorClient:
        """A new Tor client on its own node."""
        self._client_count += 1
        node = self.network.create_node(
            name or f"client{self._client_count}",
            up_bytes_per_s=bandwidth, down_bytes_per_s=bandwidth)
        return TorClient(self.network, node, self.authority)

    def create_web_server(self, hostname: str,
                          resources: dict[str, object],
                          bandwidth: float = SERVER_BW) -> HttpServer:
        """An origin web server reachable from exits (and directly)."""
        self._server_count += 1
        node = self.network.create_node(
            f"web{self._server_count}:{hostname}",
            up_bytes_per_s=bandwidth, down_bytes_per_s=bandwidth)
        self.network.register_dns(hostname, node)
        return HttpServer(node, resources)  # type: ignore[arg-type]

    def create_node(self, name: str, bandwidth: float = CLIENT_BW) -> Node:
        """A bare node (for custom servers or Bento hosts)."""
        return self.network.create_node(
            name, up_bytes_per_s=bandwidth, down_bytes_per_s=bandwidth)

    # -- convenience ----------------------------------------------------------

    def bento_boxes(self) -> list[Relay]:
        """Relays that advertise a Bento server."""
        return [r for r in self.relays if r.bento_port is not None]

    def exit_relays(self) -> list[Relay]:
        """Relays whose policy accepts at least something."""
        return [r for r in self.relays if r.exit_policy.is_exit]

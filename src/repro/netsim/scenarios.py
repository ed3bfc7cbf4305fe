"""A self-contained netsim scenario with no Tor and no Bento on top.

:class:`MeshScenario` is a locality-structured request/ack mesh: its
sessions are mostly intra-group (cheap, low latency) with a seeded
fraction crossing groups over WAN-like latencies.  It exercises the
event kernel, the link model and the fault plane and nothing else;
:class:`~repro.netsim.shard.ShardedSimulator` runs it.

Everything the scenario derives — node names, session placement, pair
latencies, fault schedules — is a pure function of its parameters and
seed via *named* RNG forks.  Sessions are released a window ahead of
their start, so the kernel holds one window's pending clients, not all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.netsim.connection import ConnectionClosed
from repro.netsim.faults import FaultPlane
from repro.netsim.network import Network, NetworkError
from repro.netsim.simulator import Simulator, SimTimeoutError
from repro.util.rng import DeterministicRandom

__all__ = ["MeshScenario", "MESH_PORT"]

#: The port every mesh node serves on.
MESH_PORT = 9000

#: How far ahead of its start a session is spawned: one release event per
#: simulated second keeps a second's sessions queued (about 420 of the
#: suite's 25,000 over 60 s), where spawning at build kept them all.
_RELEASE_SPACING_S = 1.0


@dataclass
class MeshScenario:
    """A seeded mesh of request/ack sessions over grouped nodes.

    Each session is a client actor on one node dialing a server node,
    exchanging ``messages_per_session`` request/ack round trips, then
    closing and recording a ``done`` record (or a ``fail`` record with
    the failure stage).  Groups model racks/regions: intra-group pairs
    get low latencies, inter-group pairs WAN-like ones, and only
    ``cross_group_fraction`` of sessions leave their group.
    """

    n_sessions: int = 1000
    n_groups: int = 8
    nodes_per_group: int = 8
    messages_per_session: int = 3
    message_bytes: int = 2048
    ack_bytes: int = 64
    cross_group_fraction: float = 0.05
    start_window_s: float = 60.0
    intra_latency_s: tuple = (0.015, 0.035)
    inter_latency_s: tuple = (0.085, 0.125)
    handshake_rtts: float = 1.0
    receive_timeout_s: float = 120.0
    node_rate_bytes_per_s: float = 1_250_000.0
    seed: int = 0
    #: Optional kwargs for FaultPlane.schedule_random (minus node_names).
    faults: Optional[dict] = field(default=None)

    # -- derived topology (pure functions of the parameters) ---------------

    def node_names(self) -> list:
        return [f"g{g:02d}n{i:03d}"
                for g in range(self.n_groups)
                for i in range(self.nodes_per_group)]

    @staticmethod
    def group_of(name: str) -> int:
        return int(name[1:name.index("n")])

    def latency_of(self, a: str, b: str) -> float:
        """Deterministic one-way latency for a pair (name-keyed draw)."""
        lo, hi = (self.intra_latency_s
                  if self.group_of(a) == self.group_of(b)
                  else self.inter_latency_s)
        key = (a, b) if a <= b else (b, a)
        rng = DeterministicRandom(self.seed).fork(f"lat:{key[0]}|{key[1]}")
        return rng.uniform(lo, hi)

    def sessions(self) -> list:
        """``(session_id, client, server, start_s)`` for every session."""
        rng = DeterministicRandom(self.seed).fork("sessions")
        names = self.node_names()
        per_group = self.nodes_per_group
        out = []
        for s in range(self.n_sessions):
            group = s % self.n_groups
            client_i = rng.randint(0, per_group - 1)
            if rng.random() < self.cross_group_fraction and self.n_groups > 1:
                server_group = rng.randint(0, self.n_groups - 2)
                if server_group >= group:
                    server_group += 1
            else:
                server_group = group
            server_i = rng.randint(0, per_group - 1)
            if server_group == group and server_i == client_i:
                server_i = (server_i + 1) % per_group
            client = names[group * per_group + client_i]
            server = names[server_group * per_group + server_i]
            start = rng.uniform(0.0, self.start_window_s)
            out.append((f"s{s:06d}", client, server, start))
        return out

    # -- world construction ------------------------------------------------

    def build(self, sim: Simulator) -> list:
        """Build the mesh on ``sim``; returns the list its sessions record to.

        Each session is spawned ``_RELEASE_SPACING_S`` ahead of its start
        by a release event, and starts on the float it would if spawned
        here.

        A record is ``(time, node, node_seq, kind, attrs)``, where
        ``node_seq`` counts that node's records, so ``(time, node,
        node_seq)`` orders the list totally.
        """
        lo = min(self.intra_latency_s[0], self.inter_latency_s[0])
        hi = max(self.intra_latency_s[1], self.inter_latency_s[1])
        network = Network(sim, min_latency_s=lo, max_latency_s=hi)
        records: list = []
        counts: dict = {}

        def record(node, kind: str, **attrs) -> None:
            seq = counts.get(node.name, 0)
            counts[node.name] = seq + 1
            records.append((sim.now, node.name, seq, kind, attrs))

        def accept(conn) -> None:
            sim.spawn(self._serve, conn, name=f"serve:{conn.responder.name}")

        names = self.node_names()
        for name in names:
            network.create_node(
                name, up_bytes_per_s=self.node_rate_bytes_per_s,
                down_bytes_per_s=self.node_rate_bytes_per_s,
            ).listen(MESH_PORT, accept)
        sessions = self.sessions()
        pinned = set()
        for _sid, client, server, _start in sessions:
            key = (client, server) if client <= server else (server, client)
            if key not in pinned:
                pinned.add(key)
                network.set_latency(key[0], key[1],
                                    self.latency_of(key[0], key[1]))
        at = sim.now
        # Due order, ties in session order (stable); pop() takes the next.
        sessions.sort(key=lambda session: at + session[3])
        sessions.reverse()

        def release(until: float, at_build: bool = False) -> None:
            while sessions and at + sessions[-1][3] <= until:
                session_id, client, server, start = sessions.pop()
                # At build, spawned as always.  At a release instant
                # t = sim.now it is due at a = at + start, t < a <= until
                # <= 2t (t >= spacing), so a - t is exact (Sterbenz) and
                # t + (a - t) == a: the same float, never delay 0.
                sim.spawn(self._client, network, record, session_id,
                          client, server, name=f"client:{session_id}",
                          delay=start if at_build else at + start - sim.now)
            if sessions:
                sim.post_at(until, release, (until + _RELEASE_SPACING_S,))

        release(at + _RELEASE_SPACING_S, at_build=True)
        if self.faults:
            plane = FaultPlane(network)     # rng: a named fork
            plane.schedule_random(node_names=names, **self.faults)
        return records

    # -- actors ------------------------------------------------------------

    def _serve(self, task, conn):
        node = conn.responder
        ack = b"a" * self.ack_bytes
        try:
            while True:
                yield from conn.receive(node, task,
                                        timeout=self.receive_timeout_s)
                conn.send(node, ack)
        except (ConnectionClosed, SimTimeoutError):
            return

    def _client(self, task, network, record, session_id, client_name,
                server_name):
        node = network.node(client_name)
        address = network.node(server_name).address
        payload = b"m" * self.message_bytes
        try:
            conn = yield from network.connect_blocking(
                task, node, address, MESH_PORT,
                handshake_rtts=self.handshake_rtts,
                timeout=self.receive_timeout_s)
        except (NetworkError, SimTimeoutError) as exc:
            record(node, "fail", session=session_id, stage="dial",
                   err=type(exc).__name__)
            return
        try:
            for _ in range(self.messages_per_session):
                conn.send(node, payload)
                yield from conn.receive(node, task,
                                        timeout=self.receive_timeout_s)
            conn.close()
            record(node, "done", session=session_id, server=server_name)
        except (ConnectionClosed, NetworkError, SimTimeoutError) as exc:
            record(node, "fail", session=session_id, stage="exchange",
                   err=type(exc).__name__)

"""Topology: node registry, address assignment, latency model, dialing."""

from __future__ import annotations

from typing import Optional

from repro.netsim.connection import Connection
from repro.netsim.node import Node
from repro.netsim.simulator import Future, Simulator, Wait
from repro.obs.span import TRACER as _obs
from repro.util.errors import ReproError


class NetworkError(ReproError):
    """Raised for unknown addresses, refused connections, and the like."""


class Network:
    """A set of nodes plus a pairwise latency model.

    Latency defaults to a deterministic per-pair value drawn uniformly from
    ``[min_latency, max_latency]`` (seeded), matching the spread of WAN
    one-way delays between Tor relays.  Specific pairs can be overridden
    with :meth:`set_latency` for controlled experiments.
    """

    def __init__(
        self,
        sim: Simulator,
        min_latency_s: float = 0.02,
        max_latency_s: float = 0.08,
        geo_latency_s_per_unit: Optional[float] = None,
    ) -> None:
        self.sim = sim
        self.min_latency = min_latency_s
        self.max_latency = max_latency_s
        # Geo mode: latency derived from node positions (used by the
        # geographical-avoidance experiments).
        self.geo_latency_s_per_unit = geo_latency_s_per_unit
        self._nodes: dict[str, Node] = {}
        self._by_address: dict[str, Node] = {}
        self._latency_overrides: dict[tuple[str, str], float] = {}
        self._rng = sim.rng.fork("network-latency")
        self._next_host = 1
        self._dns: dict[str, str] = {}
        # Installed by repro.netsim.faults.FaultPlane; None means no faults.
        self.fault_plane = None

    # -- topology ---------------------------------------------------------

    def create_node(self, name: str, up_bytes_per_s: float = 12_500_000.0,
                    down_bytes_per_s: float = 12_500_000.0,
                    address: Optional[str] = None,
                    position: Optional[tuple[float, float]] = None) -> Node:
        """Create and register a node; addresses auto-assign as 10.x.y.z."""
        if name in self._nodes:
            raise NetworkError(f"duplicate node name: {name}")
        if address is None:
            host = self._next_host
            self._next_host += 1
            address = f"10.{(host >> 16) & 0xFF}.{(host >> 8) & 0xFF}.{host & 0xFF}"
        if address in self._by_address:
            raise NetworkError(f"duplicate address: {address}")
        if position is None and self.geo_latency_s_per_unit is not None:
            pos_rng = self._rng.fork(f"pos:{name}")
            position = (pos_rng.uniform(0.0, 1.0), pos_rng.uniform(0.0, 1.0))
        node = Node(self.sim, name, address,
                    up_bytes_per_s=up_bytes_per_s,
                    down_bytes_per_s=down_bytes_per_s,
                    position=position)
        self._nodes[name] = node
        self._by_address[address] = node
        return node

    def node(self, name: str) -> Node:
        """Look a node up by name."""
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"unknown node: {name}") from None

    def node_at(self, address: str) -> Node:
        """Look a node up by address."""
        try:
            return self._by_address[address]
        except KeyError:
            raise NetworkError(f"no node at address: {address}") from None

    @property
    def nodes(self) -> list[Node]:
        """All registered nodes (registration order)."""
        return list(self._nodes.values())

    # -- DNS ----------------------------------------------------------------

    def register_dns(self, hostname: str, node: Node) -> None:
        """Bind a hostname (e.g. ``example.com``) to a node's address."""
        if hostname in self._dns:
            raise NetworkError(f"hostname already registered: {hostname}")
        self._dns[hostname] = node.address

    def resolve(self, host: str) -> str:
        """Resolve a hostname or literal address to an address."""
        if host in self._dns:
            return self._dns[host]
        if host in self._by_address:
            return host
        raise NetworkError(f"cannot resolve host: {host}")

    # -- latency -------------------------------------------------------------

    def set_latency(self, a: str, b: str, latency_s: float) -> None:
        """Pin the one-way latency between two named nodes."""
        if latency_s < 0:
            raise NetworkError("latency must be non-negative")
        self._latency_overrides[self._pair_key(a, b)] = latency_s

    def latency(self, a: Node, b: Node) -> float:
        """One-way propagation latency between two nodes (0 for loopback)."""
        if a.name == b.name:
            return 0.0
        key = self._pair_key(a.name, b.name)
        override = self._latency_overrides.get(key)
        if override is not None:
            return override
        if (self.geo_latency_s_per_unit is not None
                and a.position is not None and b.position is not None):
            distance = ((a.position[0] - b.position[0]) ** 2
                        + (a.position[1] - b.position[1]) ** 2) ** 0.5
            value = self.min_latency + distance * self.geo_latency_s_per_unit
            self._latency_overrides[key] = value
            return value
        # Deterministic per-pair: derive from the pair key, not call order.
        pair_rng = self._rng.fork(f"{key[0]}|{key[1]}")
        value = pair_rng.uniform(self.min_latency, self.max_latency)
        self._latency_overrides[key] = value
        return value

    @staticmethod
    def _pair_key(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    # -- dialing ----------------------------------------------------------------

    def connect(self, initiator: Node, address: str, port: int,
                handshake_rtts: float = 1.0) -> Future:
        """Open a connection to ``address:port``.

        Returns a :class:`Future` resolving to the :class:`Connection` after
        ``handshake_rtts`` round trips (1 for TCP, use 2 to approximate
        TCP+TLS).  Rejects if nothing listens there.
        """
        future = Future(self.sim)
        try:
            responder = self.node_at(address)
        except NetworkError as exc:
            self.sim.schedule(0.0, future.reject, exc)
            return future
        latency = self.latency(initiator, responder)
        log = _obs.log
        span = log.begin_span(
            "netsim.dial", self.sim.now, track=initiator.name,
            initiator=initiator.name, responder=responder.name,
            port=port) if log is not None else None

        def _complete() -> None:
            # Fault check happens at handshake-completion time: a node that
            # dies (or a link cut) during the handshake refuses the dial.
            plane = self.fault_plane
            if plane is not None:
                reason = plane.deny_reason(initiator, responder)
                if reason is not None:
                    if span is not None:
                        span.end(self.sim.now, ok=False, reason=reason)
                    future.reject(NetworkError(
                        f"connect {initiator.name}->{address}:{port} failed: {reason}"))
                    return
            handler = responder.listener_for(port)
            if handler is None:
                if span is not None:
                    span.end(self.sim.now, ok=False, reason="refused")
                future.reject(NetworkError(
                    f"connection refused: {address}:{port} ({responder.name})"))
                return
            conn = Connection(self.sim, initiator, responder, latency)
            handler(conn)
            if span is not None:
                span.end(self.sim.now, ok=True)
            future.resolve(conn)

        self.sim.schedule(handshake_rtts * 2.0 * latency, _complete)
        return future

    def connect_blocking(self, thread, initiator: Node, address: str, port: int,
                         handshake_rtts: float = 1.0,
                         timeout: Optional[float] = None) -> Connection:
        """Blocking convenience wrapper around :meth:`connect`."""
        return (yield Wait(
            self.connect(initiator, address, port, handshake_rtts=handshake_rtts),
            timeout,
        ))

"""Simulated hosts."""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.netsim.interface import Interface
from repro.netsim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.connection import Connection

# Handler invoked with the accepted Connection when a peer connects.
AcceptHandler = Callable[["Connection"], None]


class Node:
    """A host: a name, an address, and rate-limited up/down interfaces.

    Default rates model a well-connected VPS (100 Mbit/s symmetric).  The
    evaluation scenarios override them to match the paper's EC2 instance
    classes.

    A node is ``alive`` unless a :class:`repro.netsim.faults.FaultPlane`
    has crashed it; while down its listeners are parked and every live
    connection touching it is aborted.  Services that keep in-memory
    state tied to the host (Bento servers, relays) can register crash and
    restart listeners to reset that state in step with the host.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        address: str,
        up_bytes_per_s: float = 12_500_000.0,
        down_bytes_per_s: float = 12_500_000.0,
        position: Optional[tuple[float, float]] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.address = address
        self.position = position      # optional 2-D coordinates (geo mode)
        self.uplink = Interface(sim, up_bytes_per_s, name=f"{name}.up")
        self.downlink = Interface(sim, down_bytes_per_s, name=f"{name}.down")
        self.alive = True
        # Live Connections touching this node.  A dict used as an
        # insertion-ordered set: fault injection iterates this, and set()
        # iteration order depends on object ids, which are not stable
        # across runs — dict order is, keeping chaos runs deterministic.
        self.connections: dict = {}
        # TraceRecorders tapping this node's interfaces; the fault plane
        # detaches them on crash (a dead host records nothing).
        self.trace_recorders: list = []
        self._listeners: dict[int, AcceptHandler] = {}
        self._saved_listeners: Optional[dict[int, AcceptHandler]] = None
        self._crash_listeners: list[Callable[["Node"], None]] = []
        self._restart_listeners: list[Callable[["Node"], None]] = []

    def listen(self, port: int, handler: AcceptHandler) -> None:
        """Accept connections on ``port``; ``handler`` gets each new one."""
        if port in self._listeners:
            raise ValueError(f"{self.name}: port {port} already bound")
        self._listeners[port] = handler

    def unlisten(self, port: int) -> None:
        """Stop accepting connections on ``port``."""
        self._listeners.pop(port, None)

    def listener_for(self, port: int) -> Optional[AcceptHandler]:
        """The accept handler bound to ``port``, if any."""
        return self._listeners.get(port)

    # -- fault hooks -------------------------------------------------------

    def add_crash_listener(self, fn: Callable[["Node"], None]) -> None:
        """Call ``fn(node)`` when a fault plane crashes this node."""
        self._crash_listeners.append(fn)

    def add_restart_listener(self, fn: Callable[["Node"], None]) -> None:
        """Call ``fn(node)`` when a crashed node comes back up."""
        self._restart_listeners.append(fn)

    def __repr__(self) -> str:
        return f"<Node {self.name} addr={self.address}>"


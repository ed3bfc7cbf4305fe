"""Rate-limited network interfaces.

Each :class:`~repro.netsim.node.Node` has one transmit and one receive
:class:`Interface`.  An interface serializes chunks at its configured rate;
concurrent flows share it FIFO, which (with per-flow pacing in
:func:`~repro.netsim.connection.pace_chunks`) yields approximately fair
bandwidth sharing — the property the Figure 5 experiment depends on.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.netsim.simulator import Simulator
from repro.obs.metrics import REGISTRY as _metrics

_CHUNKS_TRANSMITTED = _metrics.counter("perf_chunks_transmitted")


class Interface:
    """One direction of a node's NIC: a FIFO serializer at a fixed rate."""

    def __init__(self, sim: Simulator, rate_bytes_per_s: float, name: str = "if") -> None:
        if rate_bytes_per_s <= 0:
            raise ValueError("interface rate must be positive")
        self.sim = sim
        self.rate = float(rate_bytes_per_s)
        self.name = name
        self._busy_until = 0.0
        self.bytes_total = 0
        self._taps: list[Callable[[float, int], None]] = []

    def add_tap(self, tap: Callable[[float, int], None]) -> None:
        """Register ``tap(completion_time, nbytes)`` for every chunk serialized."""
        self._taps.append(tap)

    def remove_tap(self, tap: Callable[[float, int], None]) -> None:
        """Unregister a tap; removing an unknown tap is a no-op."""
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    def transmit(self, nbytes: int, then: Optional[Callable] = None,
                 extra_delay: float = 0.0, then_args: tuple = ()) -> float:
        """Serialize ``nbytes`` through this interface.

        Returns the simulated completion time, and (if given) schedules
        ``then(*then_args)`` at completion plus ``extra_delay`` (used for
        propagation latency).  Zero-byte transmissions are legal and take
        no line time.
        """
        if nbytes < 0:
            raise ValueError("cannot transmit a negative size")
        start = max(self.sim.now, self._busy_until)
        finish = start + nbytes / self.rate
        self._busy_until = finish
        self.bytes_total += nbytes
        _CHUNKS_TRANSMITTED.value += 1
        if self._taps:
            for tap in self._taps:
                tap(finish, nbytes)
        if then is not None:
            self.sim.post_at(finish + extra_delay, then, then_args)
        return finish

    @property
    def backlog_seconds(self) -> float:
        """How far in the future the interface is already committed."""
        return max(0.0, self._busy_until - self.sim.now)

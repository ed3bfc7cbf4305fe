"""Weighted-fair scheduling.

The scheduler is pure accounting over simulated time: callers pass the
current sim clock in and get a *pacing delay* back, and the caller (the
API gate, never the per-byte transfer path) decides where to sleep.  That
keeps the scheduler deterministic, testable without a simulator, and off
the data-plane hot path.

:class:`FairQueue` is a virtual-time weighted-fair queue (WFQ) that
apportions one resource (cpu milliseconds, network bytes) across active
flows in proportion to their priority-class weights; the serving plane
runs two.
"""

from __future__ import annotations


class _Flow:
    __slots__ = ("weight", "finish", "active")

    def __init__(self, weight: float) -> None:
        self.weight = weight
        self.finish = 0.0       # virtual finish tag of the last charge
        self.active = True


class FairQueue:
    """Virtual-time weighted-fair queuing over one shared resource.

    The shared resource drains at ``rate`` units per simulated second.
    Virtual time V advances at ``rate / sum(active weights)``, so a flow
    with weight w is entitled to the fraction ``w / W`` of the resource.
    Each charge pushes the flow's finish tag ``F = max(F, V) + cost / w``;
    the pacing delay is how long real time must pass for V to catch up to
    F (minus a small per-flow burst allowance so isolated flows never
    stall).  Interactive flows carry a larger weight than bulk flows and
    therefore see proportionally smaller delays under contention.
    """

    def __init__(self, rate: float, burst: float = 0.0) -> None:
        if rate <= 0:
            raise ValueError("fair queue rate must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self._flows: dict[object, _Flow] = {}
        self._vtime = 0.0
        self._updated = 0.0
        self._active_weight = 0.0

    # -- flow lifecycle -----------------------------------------------------

    def register(self, key: object, weight: float, now: float) -> None:
        """Add a flow; a re-register just updates its weight."""
        if weight <= 0:
            raise ValueError("flow weight must be positive")
        self._advance(now)
        flow = self._flows.get(key)
        if flow is not None:
            self._active_weight += weight - flow.weight
            flow.weight = weight
            return
        flow = _Flow(weight)
        flow.finish = self._vtime
        self._flows[key] = flow
        self._active_weight += weight

    def unregister(self, key: object, now: float) -> None:
        """Remove a flow (instance finished or was killed/shed)."""
        flow = self._flows.pop(key, None)
        if flow is not None:
            self._advance(now)
            self._active_weight -= flow.weight
            if not self._flows:
                self._active_weight = 0.0   # clamp float drift at idle

    # -- accounting ---------------------------------------------------------

    def _advance(self, now: float) -> None:
        if now > self._updated:
            if self._active_weight > 0:
                self._vtime += (now - self._updated) * (
                    self.rate / self._active_weight)
            self._updated = now

    def charge(self, key: object, cost: float, now: float) -> float:
        """Charge ``cost`` units to a flow; return its pacing delay.

        Unknown flows are unpaced (delay 0.0): flows are registered at
        admission, so an unknown key means the plane chose not to manage
        this traffic and the charge is a no-op.
        """
        flow = self._flows.get(key)
        if flow is None or cost <= 0:
            return 0.0
        self._advance(now)
        vtime = self._vtime
        flow.finish = max(flow.finish, vtime) + cost / flow.weight
        lag = flow.finish - vtime - self.burst / flow.weight
        if lag <= 0 or self._active_weight <= 0:
            return 0.0
        return lag * self._active_weight / self.rate

    def backlog(self, key: object, now: float) -> float:
        """A flow's virtual lag (0.0 when it may send immediately)."""
        flow = self._flows.get(key)
        if flow is None:
            return 0.0
        self._advance(now)
        return max(0.0, flow.finish - self._vtime)

    @property
    def active_flows(self) -> int:
        """How many flows are currently registered."""
        return len(self._flows)

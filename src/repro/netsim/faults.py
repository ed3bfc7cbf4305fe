"""Deterministic fault injection: the chaos plane.

A :class:`FaultPlane` sits beside a :class:`~repro.netsim.network.Network`
and perturbs it on a seeded schedule — crashing and restarting nodes,
severing and healing links, and injecting latency spikes.  Every fault is
a plain simulator event, so a fixed seed reproduces the exact same fault
sequence, interleaving, and recovery behavior run after run (the property
the chaos-soak acceptance test asserts).

Fault semantics:

* **Node crash** — the node's listeners are parked (new dials are refused),
  every live :class:`~repro.netsim.connection.Connection` touching it is
  aborted (blocked receivers woken with
  :class:`~repro.netsim.connection.ConnectionClosed`), and the node's
  registered crash listeners fire so host-bound services (Bento servers)
  can drop their in-memory state.  A restart restores the listeners and
  fires restart listeners; the services themselves stay registered, which
  models a supervised daemon coming back on the same machine.
* **Link cut** — connections between the pair are aborted and new dials
  between them are refused until the link heals.  Loopback connections
  are unaffected (the kernel does not route localhost over the NIC).
* **Latency spike** — live connections between the pair (and the pair's
  latency model, so new connections inherit it) get ``extra_s`` added to
  their one-way delay until the spike is cleared.

Every mutation appends to :attr:`FaultPlane.log` and bumps the global perf
counters (``faults_injected``, ``node_crashes``, ...), making recovery
observable and determinism checkable.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.netsim.network import Network
from repro.netsim.node import Node
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import TRACER as _obs
from repro.util.rng import DeterministicRandom

_NODE_RESTARTS = _metrics.counter("perf_node_restarts")
_LINKS_HEALED = _metrics.counter("perf_links_healed")
_CONNS_TORN_DOWN = _metrics.counter("perf_conns_torn_down")


class FaultPlane:
    """Crash nodes, sever links, and spike latencies on a seeded schedule."""

    def __init__(self, network: Network,
                 rng: Optional[DeterministicRandom] = None) -> None:
        self.network = network
        self.sim = network.sim
        self.rng = rng if rng is not None else network.sim.rng.fork("faults")
        self._cut: set[tuple[str, str]] = set()
        #: (sim_time, kind, detail) tuples, in injection order.
        self.log: list[tuple[float, str, str]] = []
        # Open observability spans for in-progress faults (crash->restart,
        # cut->heal, spike->clear); keyed by node name / pair key.
        self._node_spans: dict = {}
        self._link_spans: dict = {}
        self._spike_spans: dict = {}
        network.fault_plane = self

    def _count_fault(self, kind: str) -> None:
        _metrics.counter("faults_injected", {"kind": kind}).inc()

    # -- queries -----------------------------------------------------------

    def node_alive(self, name: str) -> bool:
        """Whether the named node is currently up."""
        return self.network.node(name).alive

    def link_up(self, a: str, b: str) -> bool:
        """Whether the link between two named nodes is intact."""
        return Network._pair_key(a, b) not in self._cut

    def deny_reason(self, initiator: Node, responder: Node) -> Optional[str]:
        """Why a dial between two nodes must fail right now (None if it may
        proceed).  Called by :meth:`Network.connect` at handshake completion."""
        if not initiator.alive:
            return f"{initiator.name} is down"
        if not responder.alive:
            return f"{responder.name} is down"
        if Network._pair_key(initiator.name, responder.name) in self._cut:
            return f"link {initiator.name}<->{responder.name} is cut"
        return None

    # -- node faults -------------------------------------------------------

    def crash_node(self, name: str, down_for_s: Optional[float] = None) -> None:
        """Take a node down: park listeners, abort its connections, notify.

        If ``down_for_s`` is given the node restarts that many simulated
        seconds later.  Crashing a dead node is a no-op.
        """
        node = self.network.node(name)
        if not node.alive:
            return
        if node.is_remote:
            # Shadow crash: another shard owns this node and applies the
            # full semantics (its fault schedule is replicated, so it
            # crashes the real node at this same simulated instant).  The
            # local shard only mirrors what it can see from outside: the
            # liveness flag flips (so dials are denied here, immediately)
            # and local half-connections touching the proxy abort.  The
            # owner alone appends to the fault log and bumps the fault
            # counters, so merged artifacts count each fault once.
            node.alive = False
            self._abort_connections(list(node.connections))
            if down_for_s is not None:
                self.sim.schedule(down_for_s, self.restart_node, name)
            return
        node.alive = False
        node._saved_listeners = dict(node._listeners)
        node._listeners.clear()
        self._abort_connections(list(node.connections))
        # A dead host records nothing: its packet-trace taps come off now
        # (and stay off — an observer process does not survive the crash).
        for recorder in list(node.trace_recorders):
            recorder.detach()
        self.log.append((self.sim.now, "crash", name))
        self._count_fault("crash")
        log = _obs.log
        if log is not None:
            self._node_spans[name] = log.begin_span(
                "fault.node_down", self.sim.now, track="faults", node=name)
        for fn in list(node._crash_listeners):
            fn(node)
        if down_for_s is not None:
            self.sim.schedule(down_for_s, self.restart_node, name)

    def restart_node(self, name: str) -> None:
        """Bring a crashed node back up and restore its parked listeners."""
        node = self.network.node(name)
        if node.alive:
            return
        if node.is_remote:
            # Shadow restart: mirror the owner's restart (same replicated
            # schedule, same instant); bookkeeping stays with the owner.
            node.alive = True
            return
        node.alive = True
        if node._saved_listeners is not None:
            # Listeners bound while down (none today, but legal) win.
            for port, handler in node._saved_listeners.items():
                node._listeners.setdefault(port, handler)
            node._saved_listeners = None
        _NODE_RESTARTS.value += 1
        self.log.append((self.sim.now, "restart", name))
        span = self._node_spans.pop(name, None)
        if span is not None:
            span.end(self.sim.now, restarted=True)
        for fn in list(node._restart_listeners):
            fn(node)

    # -- link faults -------------------------------------------------------

    def cut_link(self, a: str, b: str, down_for_s: Optional[float] = None) -> None:
        """Sever the link between two named nodes, aborting its connections.

        New dials between the pair are refused until :meth:`heal_link` (or
        the scheduled heal, if ``down_for_s`` is given).  Cutting an
        already-cut link is a no-op.
        """
        key = Network._pair_key(a, b)
        if key in self._cut:
            return
        self._cut.add(key)
        self._abort_connections(self._connections_between(a, b))
        self.log.append((self.sim.now, "cut", f"{key[0]}<->{key[1]}"))
        self._count_fault("cut")
        log = _obs.log
        if log is not None:
            self._link_spans[key] = log.begin_span(
                "fault.link_down", self.sim.now, track="faults",
                link=f"{key[0]}<->{key[1]}")
        if down_for_s is not None:
            self.sim.schedule(down_for_s, self.heal_link, a, b)

    def heal_link(self, a: str, b: str) -> None:
        """Restore a severed link."""
        key = Network._pair_key(a, b)
        if key not in self._cut:
            return
        self._cut.discard(key)
        _LINKS_HEALED.value += 1
        self.log.append((self.sim.now, "heal", f"{key[0]}<->{key[1]}"))
        span = self._link_spans.pop(key, None)
        if span is not None:
            span.end(self.sim.now, healed=True)

    def partition(self, group_a: Iterable[str], group_b: Iterable[str],
                  down_for_s: Optional[float] = None) -> None:
        """Cut every link between two groups of nodes (a network partition)."""
        for a in group_a:
            for b in group_b:
                if a != b:
                    self.cut_link(a, b, down_for_s=down_for_s)

    # -- latency faults ----------------------------------------------------

    def spike_latency(self, a: str, b: str, extra_s: float,
                      duration_s: Optional[float] = None) -> None:
        """Add ``extra_s`` one-way latency between a pair of nodes.

        Applies to live connections between the pair and to the latency
        model (so connections dialed during the spike inherit it).  With
        ``duration_s``, the spike clears itself that much later.
        """
        na = self.network.node(a)
        nb = self.network.node(b)
        base = self.network.latency(na, nb)
        self.network.set_latency(a, b, base + extra_s)
        affected = self._connections_between(a, b)
        for conn in affected:
            conn.latency += extra_s
        self.log.append((self.sim.now, "spike", f"{a}<->{b} +{extra_s:g}s"))
        self._count_fault("spike")
        log = _obs.log
        span = None
        if log is not None:
            span = log.begin_span(
                "fault.latency_spike", self.sim.now, track="faults",
                link=f"{a}<->{b}", extra_s=extra_s)
        if duration_s is not None:
            self.sim.schedule(duration_s, self._clear_spike, a, b, extra_s,
                              affected, base, span)

    def _clear_spike(self, a: str, b: str, extra_s: float,
                     affected: list, base: float, span=None) -> None:
        self.network.set_latency(a, b, base)
        for conn in affected:
            if not conn.closed:
                conn.latency = max(0.0, conn.latency - extra_s)
        self.log.append((self.sim.now, "spike-clear", f"{a}<->{b}"))
        if span is not None:
            span.end(self.sim.now, cleared=True)

    # -- seeded schedules --------------------------------------------------

    def schedule_random(
        self,
        *,
        node_names: Sequence[str],
        start_s: float,
        end_s: float,
        n_crashes: int = 0,
        n_link_cuts: int = 0,
        n_latency_spikes: int = 0,
        mean_downtime_s: float = 20.0,
        spike_extra_s: float = 0.25,
        restart: bool = True,
    ) -> list[tuple[float, str, str]]:
        """Draw a deterministic fault schedule from this plane's RNG.

        Fault times are uniform in ``[start_s, end_s]`` (absolute sim
        times); targets are drawn from ``node_names``.  Downtimes and heal
        delays vary uniformly around ``mean_downtime_s``.  Returns the
        planned ``(time, kind, detail)`` list, sorted by time; the faults
        themselves are scheduled on the simulator.
        """
        names = list(node_names)
        rng = self.rng
        plan: list[tuple[float, str, str]] = []
        for _ in range(n_crashes):
            t = rng.uniform(start_s, end_s)
            name = rng.choice(names)
            down = mean_downtime_s * rng.uniform(0.5, 1.5)
            self.sim.schedule_at(t, self.crash_node, name,
                                 down if restart else None)
            plan.append((t, "crash", name))
        for _ in range(n_link_cuts):
            t = rng.uniform(start_s, end_s)
            a, b = rng.sample(names, 2)
            down = mean_downtime_s * rng.uniform(0.5, 1.5)
            self.sim.schedule_at(t, self.cut_link, a, b, down)
            plan.append((t, "cut", f"{a}<->{b}"))
        for _ in range(n_latency_spikes):
            t = rng.uniform(start_s, end_s)
            a, b = rng.sample(names, 2)
            extra = spike_extra_s * rng.uniform(0.5, 2.0)
            duration = mean_downtime_s * rng.uniform(0.5, 1.5)
            self.sim.schedule_at(t, self.spike_latency, a, b, extra, duration)
            plan.append((t, "spike", f"{a}<->{b}"))
        plan.sort()
        return plan

    # -- internals ---------------------------------------------------------

    def _connections_between(self, a: str, b: str) -> list:
        node = self.network.node(a)
        pair = {a, b}
        return [conn for conn in node.connections
                if {conn.initiator.name, conn.responder.name} == pair]

    def _abort_connections(self, conns: list) -> None:
        torn = 0
        for conn in conns:
            if not conn.closed:
                conn.abort()
                torn += 1
        _CONNS_TORN_DOWN.value += torn

    def __repr__(self) -> str:
        return (f"<FaultPlane faults={len(self.log)} "
                f"cut_links={len(self._cut)}>")

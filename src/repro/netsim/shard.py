"""The sharded kernel: conservative parallel discrete-event simulation.

A :class:`ShardedSimulator` partitions a scenario's nodes across K shards
(:func:`repro.netsim.partition.partition_nodes`), runs each shard's
ordinary :class:`~repro.netsim.simulator.Simulator` event loop
independently inside an *epoch*, and exchanges cross-shard traffic at
epoch barriers.  The epoch length is the partition's **lookahead** — the
minimum one-way latency of any cross-shard link — which is what makes
the parallelism *conservative*: an event emitted during an epoch
``[T, T+L)`` toward another shard cannot be delivered before ``T+L``, so
no shard ever needs to hear from a peer mid-epoch.

Determinism
-----------

The merged run is reproducible, and byte-identical to the single-process
run of the same scenario and seed, because every input a shard consumes
is either local (its own event heap, which is deterministic) or arrives
in a canonical order:

* cross-shard events are stamped ``(delivery_time, origin_shard,
  origin_seq)`` at emission and sorted by that key before being scheduled
  on the receiving shard, so transport interleaving cannot reorder them;
* shared state a shard must *read* about remote nodes — liveness, cut
  links, declared listeners, pair latencies — is **replicated**, not
  queried: every shard derives it from the same seed (named RNG forks),
  runs the same fault schedule (:class:`~repro.netsim.faults.FaultPlane`
  applies full semantics on the owning shard and shadow semantics on the
  others), and therefore computes identical answers at identical
  simulated instants;
* the merged trace is *canonical*: scenario-level records sorted by
  ``(time, node, per-node sequence)``, not kernel event order.  Per-node
  record streams are produced only by the node's owning shard and are
  deterministic, so the sorted concatenation is too.

Cross-shard connection semantics (and their two documented divergences
from the single-process kernel) live on :class:`HalfConnection`:
chunk-level forwarding reproduces :class:`~repro.netsim.connection.
Connection`'s interface arithmetic bit for bit; simultaneous-timestamp
tie order and remote ``close`` visibility (a FIN after one-way latency
instead of instantly) may differ, neither of which canonical records
observe for well-formed scenarios.

Scenario protocol
-----------------

A *scenario* is any picklable object with three methods:

``topology() -> (names, edges)``
    Every node name (global order — all shards must create them in this
    order) and undirected ``(a, b, weight)`` affinity edges covering
    **every pair that will communicate**.  Pairs that talk but are not
    listed may land on different shards with no lookahead guarantee,
    which the kernel turns into a hard error at emission time.
``latency_of(a, b) -> float``
    The deterministic one-way latency of an edge (pure function of the
    names and the scenario's seed; used to derive the lookahead, and by
    ``build`` to pin the same values into the network).
``build(ctx: ShardContext) -> None``
    Construct the world: make a Network, ``ctx.use_network`` it, create
    every node via ``ctx.create_node`` (in global order), declare
    listeners via ``ctx.listen``, and spawn actors only for nodes the
    shard owns (``ctx.owns``).  Randomness must come from *named* RNG
    forks so replicated draws agree across shards.
"""

from __future__ import annotations

import json
import math
import time
import traceback
from typing import Any, Callable, Optional

from repro.netsim.connection import (DEFAULT_CHUNK, ConnectionClosed,
                                     Endpoint, pace_chunks)
from repro.netsim.network import Network, NetworkError
from repro.netsim.node import Node, RemoteNode
from repro.netsim.partition import Partition, lookahead_s, partition_nodes
from repro.netsim.simulator import Future, SimulationError, Simulator
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import TRACER as _obs
from repro.obs.span import EventLog

__all__ = ["HalfConnection", "ShardContext", "ShardedSimulator",
           "canonical_trace_bytes"]

_EPOCHS_COMPLETED = _metrics.counter("perf_shard_epochs_completed")
_CROSS_EVENTS = _metrics.counter("perf_shard_cross_events")
_BARRIER_WAIT_US = _metrics.counter("perf_shard_barrier_wait_us")


def canonical_trace_bytes(records: list) -> bytes:
    """Serialize scenario records to the canonical JSONL byte trace.

    Records are ``(time, node, node_seq, kind, attrs)``; sorting by
    ``(time, node, node_seq)`` makes the bytes independent of which
    shard produced which record and of execution interleaving, so K=1
    and K>1 runs of the same seed compare equal with ``==``.
    """
    lines = []
    for t, node, seq, kind, attrs in sorted(
            records, key=lambda r: (r[0], r[1], r[2])):
        lines.append(json.dumps([t, node, seq, kind, attrs],
                                sort_keys=True, separators=(",", ":")))
    return ("\n".join(lines) + "\n").encode() if lines else b""


class HalfConnection:
    """The local half of a connection whose peer lives on another shard.

    Presents the :class:`~repro.netsim.connection.Connection` surface the
    scenarios and the fault plane use (``send``/``receive``/``close``/
    ``abort``, ``initiator``/``responder``/``latency``/``closed``), but
    only one endpoint is real; bytes leave through the local node's
    uplink exactly as the single-process path would serialize them
    (the same :func:`~repro.netsim.connection.pace_chunks`), then cross
    the shard boundary as ``("chunk", ...)`` events
    whose delivery time is the uplink-finish time plus propagation
    latency — the same float arithmetic ``Connection`` performs, so
    arrival and downlink-serialization times are bit-identical.

    Divergence from ``Connection`` (invisible to canonical records): a
    graceful :meth:`close` reaches the peer as a FIN after one-way
    latency instead of instantly (:meth:`abort` stays instantaneous on
    both shards because fault schedules are replicated).
    """

    def __init__(self, ctx: "ShardContext", key: tuple, local: Node,
                 remote: RemoteNode, latency_s: float,
                 chunk_size: int = DEFAULT_CHUNK) -> None:
        self.ctx = ctx
        self.sim = ctx.sim
        self.key = key                      # (initiator, responder, port, n)
        self.local = local
        self.remote = remote
        self.latency = latency_s
        self.chunk_size = chunk_size
        self.closed = False
        self._endpoint = Endpoint(ctx.sim)
        if local.name == key[0]:
            self.initiator, self.responder = local, remote
        else:
            self.initiator, self.responder = remote, local
        self.bytes_sent = {local.name: 0}
        local.connections[self] = None
        remote.connections[self] = None

    # -- wiring -----------------------------------------------------------

    def endpoint_of(self, node: Node) -> Endpoint:
        """The (single, local) endpoint; ``node`` must be the local node."""
        if node.name != self.local.name:
            raise KeyError(f"{node.name} has no endpoint on this shard")
        return self._endpoint

    def peer_of(self, node: Node) -> RemoteNode:
        """The remote proxy on the other side."""
        if node.name != self.local.name:
            raise KeyError(f"{node.name} is not the local end")
        return self.remote

    @property
    def rtt(self) -> float:
        """Round-trip propagation time of this connection."""
        return 2.0 * self.latency

    # -- sending ----------------------------------------------------------

    def send(self, sender: Node, payload: Any, size: Optional[int] = None,
             on_sent: Optional[Callable[[], None]] = None) -> None:
        """Send ``payload`` to the remote peer (Connection.send semantics)."""
        if self.closed:
            raise ConnectionClosed(f"send on closed connection {self!r}")
        if sender.name != self.local.name:
            raise KeyError(f"{sender.name} cannot send on this half")
        if size is not None:
            nbytes = int(size)
        elif isinstance(payload, (bytes, bytearray)):
            nbytes = len(payload)
        else:
            raise TypeError("non-bytes payloads need an explicit size")
        self.bytes_sent[sender.name] += nbytes
        if nbytes <= self.chunk_size:
            finish = self.local.uplink.transmit(
                nbytes, self._emit_final, 0.0, (payload, nbytes, nbytes))
            if on_sent is not None:
                self.sim.post_at(finish, on_sent)
            return
        self._send_chunked(payload, nbytes, on_sent)

    def _send_chunked(self, payload: Any, nbytes: int,
                      on_sent: Optional[Callable[[], None]]) -> None:
        """Multi-chunk message: Connection's pacing, this half's emits."""
        uplink = self.local.uplink

        def put(chunk: int, final: bool) -> None:
            if final:
                uplink.transmit(chunk, self._emit_final, 0.0,
                                (payload, nbytes, chunk))
            else:
                uplink.transmit(chunk, self._emit_chunk, 0.0, (chunk,))

        pace_chunks(self.sim, uplink, self.chunk_size, nbytes, put, on_sent)

    def _emit_chunk(self, chunk: int) -> None:
        # Runs at the chunk's uplink-finish time; the single-process
        # kernel would run the receiver's downlink.transmit at finish +
        # latency, which is exactly this event's delivery time.
        self.ctx.emit(self.remote.shard_id, self.sim.now + self.latency,
                      ("chunk", self.key, chunk, None, 0, False))

    def _emit_final(self, payload: Any, nbytes: int, chunk: int) -> None:
        # Emitted even when locally closed: the single-process kernel's
        # in-flight chunks still occupy the receiver's downlink after a
        # close (delivery is dropped later, at _deliver), and interface
        # timing parity requires the ghost serialization to happen there.
        self.ctx.emit(self.remote.shard_id, self.sim.now + self.latency,
                      ("chunk", self.key, chunk, payload, nbytes, True))

    def _deliver_payload(self, payload: Any, size: int) -> None:
        if self.closed:
            return
        self._endpoint._deliver(self, payload, size)

    # -- receiving --------------------------------------------------------

    def receive(self, node: Node, thread,
                timeout: Optional[float] = None) -> Any:
        """Block (in an actor) until a message for ``node`` arrives."""
        return self.endpoint_of(node).receive(self, timeout)

    # -- teardown ---------------------------------------------------------

    def close(self) -> None:
        """Close this half now; the peer learns via a FIN one latency later.

        Local drain-then-raise semantics match ``Connection.close``; the
        delayed remote visibility is the documented divergence (an
        instant remote close would need zero-latency cross-shard
        delivery, which conservative lookahead forbids).
        """
        if self.closed:
            return
        self.closed = True
        self.local.connections.pop(self, None)
        self.remote.connections.pop(self, None)
        self.ctx.emit(self.remote.shard_id, self.sim.now + self.latency,
                      ("close", self.key))
        self._endpoint._notify_close(self)

    def abort(self) -> None:
        """Hard teardown for fault injection — local side only.

        No FIN is sent: fault schedules are replicated, so the shard
        owning the peer aborts its own half at this same simulated
        instant, keeping both sides consistent without breaking the
        lookahead bound.
        """
        if self.closed:
            return
        self.closed = True
        self.local.connections.pop(self, None)
        self.remote.connections.pop(self, None)
        self._endpoint._notify_close(self)

    def _remote_closed(self) -> None:
        """The peer's FIN arrived (scheduled at its delivery time)."""
        if self.closed:
            return
        self.closed = True
        self.local.connections.pop(self, None)
        self.remote.connections.pop(self, None)
        self._endpoint._notify_close(self)

    def __repr__(self) -> str:
        return (f"<HalfConnection {self.key[0]}<->{self.key[1]} "
                f"local={self.local.name}>")


class ShardContext:
    """One shard's view of the sharded world, handed to ``scenario.build``.

    Routes node creation to the real network or to
    :class:`~repro.netsim.node.RemoteNode` proxies, carries the shard's
    cross-event outbox, assigns canonical per-node record sequence
    numbers, and implements the cross-shard dial protocol.
    """

    def __init__(self, sim: Simulator, shard_id: int, partition: Partition,
                 lookahead: float) -> None:
        self.sim = sim
        self.shard_id = shard_id
        self.partition = partition
        self.n_shards = partition.n_shards
        self.lookahead = lookahead
        self.network: Optional[Network] = None
        #: Canonical scenario records: (time, node, node_seq, kind, attrs).
        self.records: list = []
        #: Outgoing cross events: (delivery, origin_shard, origin_seq,
        #: dest_shard, event); drained by the parent at each barrier.
        self.outbox: list = []
        #: Live (and closed — entries are kept so late chunks still drive
        #: the downlink, matching single-process ghost serialization)
        #: half-connections by key.
        self.conns: dict = {}
        self.epoch_end = 0.0
        self._out_seq = 0
        self._rec_seq: dict = {}
        self._dial_seq: dict = {}

    # -- build-time API ---------------------------------------------------

    def use_network(self, network: Network) -> Network:
        """Install the scenario's network and wire dial routing to us."""
        self.network = network
        network.shard_context = self
        return network

    def owns(self, name: str) -> bool:
        """Whether this shard owns (simulates) the named node."""
        return self.partition.shard_of(name) == self.shard_id

    def create_node(self, name: str, **kwargs: Any):
        """Create the node if owned, else register its remote proxy.

        Must be called for **every** node in the same global order on
        every shard: both paths consume the network's auto-address
        counter identically, which is what keeps addresses (and
        position draws) equal across shards.
        """
        if self.owns(name):
            return self.network.create_node(name, **kwargs)
        proxy_kwargs = {k: v for k, v in kwargs.items()
                        if k in ("address", "position")}
        return self.network.register_remote(
            name, self.partition.shard_of(name), **proxy_kwargs)

    def listen(self, name: str, port: int, handler) -> None:
        """Bind an accept handler if owned; else replicate the declaration.

        The proxy's declared-port set is what lets a *remote* shard
        refuse a dial to an unbound port at the same simulated instant
        the owner would.  Dynamic listen/unlisten after build does not
        propagate across shards.
        """
        node = self.network.node(name)
        if node.is_remote:
            node.listening.add(port)
        else:
            node.listen(port, handler)

    # -- canonical records ------------------------------------------------

    def record(self, node, kind: str, **attrs: Any) -> None:
        """Append a canonical trace record for ``node`` at the current time.

        Attributes must be JSON-serializable; the per-node sequence
        number makes the merged ``(time, node, seq)`` sort total for
        each node's stream regardless of cross-node tie order.
        """
        name = node if isinstance(node, str) else node.name
        seq = self._rec_seq.get(name, 0)
        self._rec_seq[name] = seq + 1
        self.records.append((self.sim.now, name, seq, kind, attrs))

    # -- cross-shard transport --------------------------------------------

    def emit(self, dest_shard: int, delivery: float, event: tuple) -> None:
        """Queue a cross-shard event for delivery at ``delivery``.

        Enforces the conservative-lookahead contract at runtime: a
        delivery before the current epoch's end means the communicating
        pair's latency undercuts the declared lookahead (usually a pair
        the scenario's topology() failed to list as an edge).
        """
        if delivery < self.epoch_end:
            raise SimulationError(
                f"cross-shard event {event[0]!r} at t={self.sim.now:g} has "
                f"delivery {delivery:g} before the epoch barrier at "
                f"{self.epoch_end:g}; the pair's latency undercuts the "
                f"lookahead (is the pair missing from scenario.topology()?)")
        self._out_seq += 1
        self.outbox.append((delivery, self.shard_id, self._out_seq,
                            dest_shard, event))

    def dial(self, initiator: Node, remote: RemoteNode, port: int,
             handshake_rtts: float) -> Future:
        """Open a connection to a node another shard owns.

        Both shards independently evaluate the *same* accept check at
        handshake-completion time — the initiator's shard against the
        replicated liveness/cut/listener state, the owner's shard
        against the real thing — so no reply event (which could not
        respect the lookahead) is ever needed: the verdicts agree by
        construction.
        """
        future = Future(self.sim)
        latency = self.network.latency(initiator, remote)
        dial_key = (initiator.name, remote.name, port)
        index = self._dial_seq.get(dial_key, 0)
        self._dial_seq[dial_key] = index + 1
        key = (initiator.name, remote.name, port, index)
        t_complete = self.sim.now + handshake_rtts * 2.0 * latency
        self.emit(remote.shard_id, t_complete,
                  ("dial", key, initiator.name, remote.name, port, latency))
        self.sim.post_at(t_complete, self._dial_complete,
                         (future, initiator, remote, port, latency, key))
        return future

    def _dial_complete(self, future: Future, initiator: Node,
                       remote: RemoteNode, port: int, latency: float,
                       key: tuple) -> None:
        # Same checks, in the same order, with the same messages as the
        # single-process Network.connect handshake completion.
        plane = self.network.fault_plane
        if plane is not None:
            reason = plane.deny_reason(initiator, remote)
            if reason is not None:
                future.reject(NetworkError(
                    f"connect {initiator.name}->{remote.address}:{port} "
                    f"failed: {reason}"))
                return
        if remote.listener_for(port) is None:
            future.reject(NetworkError(
                f"connection refused: {remote.address}:{port} "
                f"({remote.name})"))
            return
        half = HalfConnection(self, key, initiator, remote, latency)
        self.conns[key] = half
        future.resolve(half)

    # -- incoming cross events --------------------------------------------

    def apply_cross(self, event: tuple) -> None:
        """Apply one cross-shard event (scheduled at its delivery time)."""
        kind = event[0]
        if kind == "chunk":
            self._apply_chunk(*event[1:])
        elif kind == "dial":
            self._apply_dial(*event[1:])
        elif kind == "close":
            self._apply_close(*event[1:])
        else:  # pragma: no cover - transport corruption guard
            raise SimulationError(f"unknown cross-shard event kind {kind!r}")

    def _apply_dial(self, key: tuple, initiator_name: str,
                    responder_name: str, port: int, latency: float) -> None:
        responder = self.network.node(responder_name)
        initiator = self.network.node(initiator_name)   # RemoteNode proxy
        plane = self.network.fault_plane
        if plane is not None and \
                plane.deny_reason(initiator, responder) is not None:
            return      # the initiator's shard rejected with the same verdict
        handler = responder.listener_for(port)
        if handler is None:
            return      # refused there too (replicated listener declarations)
        half = HalfConnection(self, key, responder, initiator, latency)
        self.conns[key] = half
        handler(half)

    def _apply_chunk(self, key: tuple, chunk: int, payload: Any,
                     nbytes: int, final: bool) -> None:
        half = self.conns.get(key)
        if half is None:
            return      # refused dial never created a half on either shard
        if final:
            half.local.downlink.transmit(chunk, half._deliver_payload, 0.0,
                                         (payload, nbytes))
        else:
            half.local.downlink.transmit(chunk)

    def _apply_close(self, key: tuple) -> None:
        half = self.conns.get(key)
        if half is not None:
            half._remote_closed()


class _ShardRunner:
    """One shard's simulator + context + built scenario world."""

    def __init__(self, scenario, shard_id: int, partition: Partition,
                 lookahead: float, seed) -> None:
        self.sim = Simulator(seed)
        self.ctx = ShardContext(self.sim, shard_id, partition, lookahead)
        scenario.build(self.ctx)
        if self.ctx.network is None:
            raise SimulationError(
                "scenario.build() must install a Network via ctx.use_network")
        self.events_processed = 0
        self.busy_s = 0.0

    def next_time(self) -> float:
        return self.sim.next_event_time()

    def run_epoch(self, t_end: Optional[float], incoming: list,
                  budget: int) -> tuple:
        """Run one epoch: schedule incoming cross events, run to ``t_end``.

        ``incoming`` is pre-sorted by ``(delivery, origin_shard,
        origin_seq)``, so the schedule_at calls — and therefore the
        receiving heap's sequence numbers — are canonical.
        """
        # CPU time, not wall: with more workers than cores the OS
        # timeshares them, and a wall measure would bill each worker for
        # its siblings' compute.  CPU time composes into an honest
        # critical path on any host.
        started = time.process_time()
        ctx = self.ctx
        ctx.epoch_end = t_end if t_end is not None else math.inf
        for delivery, _origin_shard, _origin_seq, event in incoming:
            self.sim.post_at(delivery, ctx.apply_cross, (event,))
        processed = self.sim.run(until=t_end, max_events=budget)
        self.events_processed += processed
        outbox, ctx.outbox = ctx.outbox, []
        busy = time.process_time() - started
        self.busy_s += busy
        return self.next_time(), outbox, processed, busy

    def finish(self, include_globals: bool) -> dict:
        failures = [f"{actor.name}: {actor.exception!r}"
                    for actor in self.sim._failed]
        payload = {
            "records": self.ctx.records,
            "failures": failures,
            "events_processed": self.events_processed,
            "sim_time": self.sim.now,
            "busy_s": self.busy_s,
            "max_rss_kb": _max_rss_kb(),
        }
        if include_globals:
            # Worker process: ship the process-global observability state
            # (reset at worker start, so these are this run's deltas).
            payload["metrics"] = _metrics.state()
            log = _obs.log
            payload["log"] = log.state() if log is not None else None
        return payload


def _max_rss_kb() -> Optional[int]:
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX fallback
        return None
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


# -- drivers ---------------------------------------------------------------


class _InlineDriver:
    """All shards in this process, stepped sequentially at each barrier.

    Produces results identical to the fork driver (the epoch protocol is
    the same); used by tests and as the fallback when fork is
    unavailable.  Observability globals are shared across shards, so
    finish() reports them once at the parent layer instead of per shard.
    """

    include_globals = False

    def __init__(self, scenario, partition: Partition, lookahead: float,
                 seed, n_shards: int) -> None:
        self.runners = [
            _ShardRunner(scenario, shard, partition, lookahead, seed)
            for shard in range(n_shards)]

    def start(self) -> list:
        return [runner.next_time() for runner in self.runners]

    def epoch(self, t_end: Optional[float], incoming: list,
              budget: int) -> tuple:
        results = [runner.run_epoch(t_end, incoming[i], budget)
                   for i, runner in enumerate(self.runners)]
        return results, 0.0

    def finish(self) -> list:
        return [runner.finish(include_globals=False)
                for runner in self.runners]

    def abort(self) -> None:
        pass


class _ForkDriver:
    """One forked worker process per shard, talking over pipes.

    The parent never simulates; it routes cross events and commands
    epochs.  Workers inherit the built-up interpreter via fork (no
    respawn cost), reset the process-global metrics/trace state so
    their snapshots hold only this run's deltas, and stream their
    outboxes back after every epoch.
    """

    include_globals = True

    def __init__(self, scenario, partition: Partition, lookahead: float,
                 seed, n_shards: int) -> None:
        import multiprocessing
        mp = multiprocessing.get_context("fork")
        self.pipes = []
        self.procs = []
        for shard in range(n_shards):
            parent_end, child_end = mp.Pipe()
            proc = mp.Process(
                target=_worker_main,
                args=(child_end, scenario, shard, partition, lookahead, seed),
                daemon=True)
            proc.start()
            child_end.close()
            self.pipes.append(parent_end)
            self.procs.append(proc)

    def _recv(self, pipe):
        msg = pipe.recv()
        if msg[0] == "error":
            self.abort()
            raise SimulationError(f"shard worker failed:\n{msg[1]}")
        return msg

    def start(self) -> list:
        return [self._recv(pipe)[1] for pipe in self.pipes]

    def epoch(self, t_end: Optional[float], incoming: list,
              budget: int) -> tuple:
        for i, pipe in enumerate(self.pipes):
            pipe.send(("epoch", t_end, incoming[i], budget))
        # Barrier skew: the wait attributable to imbalance, measured as
        # the spread between the first and last shard's replies (the
        # first reply's wait is the epoch's critical path, not overhead).
        results = []
        first_done = None
        for pipe in self.pipes:
            msg = self._recv(pipe)
            if first_done is None:
                first_done = time.monotonic()
            results.append((msg[1], msg[2], msg[3], msg[4]))
        return results, max(0.0, time.monotonic() - first_done)

    def finish(self) -> list:
        for pipe in self.pipes:
            pipe.send(("finish",))
        payloads = [self._recv(pipe)[1] for pipe in self.pipes]
        for pipe in self.pipes:
            pipe.close()
        for proc in self.procs:
            proc.join(timeout=30)
        return payloads

    def abort(self) -> None:
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for pipe in self.pipes:
            try:
                pipe.close()
            except OSError:  # pragma: no cover - already torn down
                pass


def _worker_main(pipe, scenario, shard_id: int, partition: Partition,
                 lookahead: float, seed) -> None:
    """Entry point of a forked shard worker."""
    try:
        _metrics.reset()
        if _obs.log is not None:
            # A fresh log: the parent's pre-run spans were inherited by
            # fork and must not come back K times in the merge.
            _obs.attach(EventLog())
        runner = _ShardRunner(scenario, shard_id, partition, lookahead, seed)
        pipe.send(("ready", runner.next_time()))
        while True:
            msg = pipe.recv()
            if msg[0] == "epoch":
                _cmd, t_end, incoming, budget = msg
                nxt, outbox, processed, busy = runner.run_epoch(
                    t_end, incoming, budget)
                pipe.send(("ok", nxt, outbox, processed, busy))
            elif msg[0] == "finish":
                pipe.send(("done", runner.finish(include_globals=True)))
                return
            else:  # pragma: no cover - protocol corruption guard
                raise SimulationError(f"unknown command {msg[0]!r}")
    except BaseException:  # noqa: BLE001 - reported to the parent
        try:
            pipe.send(("error", traceback.format_exc()))
        except OSError:  # pragma: no cover - parent already gone
            pass


def fork_available() -> bool:
    """Whether this platform can run shard workers as forked processes."""
    try:
        import multiprocessing
        return "fork" in multiprocessing.get_all_start_methods()
    except (ImportError, ValueError):  # pragma: no cover - exotic platforms
        return False


class ShardedSimulator:
    """Run a scenario across K shards with deterministic epoch barriers.

    ``workers=1`` is the plain single-process path: one shard, no
    barriers, no proxies, exact ``max_events`` semantics — it produces
    exactly what building the scenario on a bare
    :class:`~repro.netsim.simulator.Simulator` produces.  ``workers>1``
    with ``processes=True`` (the default where fork exists) runs one
    worker process per shard; ``processes=False`` steps the shards
    sequentially in this process, exchanging the same events at the same
    barriers — same merged result, no parallelism (used by the parity
    tests).

    ``max_events`` caps the *merged* run: exact for one worker; for K
    workers the budget is re-checked at every barrier, so an overrun is
    caught within one epoch of occurring.
    """

    def __init__(self, scenario, workers: int = 1, seed: int | str = 0,
                 processes: Optional[bool] = None,
                 max_events: int = 50_000_000) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.scenario = scenario
        self.workers = workers
        self.seed = seed
        self.max_events = max_events
        if processes is None:
            processes = workers > 1 and fork_available()
        self.processes = processes and workers > 1

    def run(self) -> dict:
        names, edges = self.scenario.topology()
        part = partition_nodes(names, self.workers, edges, seed=self.seed)
        if self.workers == 1 or not part.cut_edges:
            lookahead = math.inf
        else:
            lookahead = lookahead_s(part, self.scenario.latency_of)

        if self.workers == 1:
            return self._run_single(part)

        driver_cls = _ForkDriver if self.processes else _InlineDriver
        driver = driver_cls(self.scenario, part, lookahead, self.seed,
                            self.workers)
        try:
            return self._run_epochs(driver, part, lookahead)
        except BaseException:
            driver.abort()
            raise

    # -- single-worker fast path ------------------------------------------

    def _run_single(self, part: Partition) -> dict:
        runner = _ShardRunner(self.scenario, 0, part, math.inf, self.seed)
        started = time.process_time()
        processed = runner.sim.run(max_events=self.max_events)
        runner.busy_s = time.process_time() - started
        runner.events_processed = processed
        payload = runner.finish(include_globals=False)
        self._check_failures([payload])
        return self._assemble(part, math.inf, [payload], epochs=0,
                              cross_events=0, barrier_wait_s=0.0,
                              critical_path_s=runner.busy_s,
                              merge_globals=False)

    # -- the epoch engine --------------------------------------------------

    def _run_epochs(self, driver, part: Partition, lookahead: float) -> dict:
        n = self.workers
        next_times = driver.start()
        pending: list = []      # (delivery, origin_shard, origin_seq, dest, ev)
        total_processed = 0
        epochs = 0
        cross_events = 0
        barrier_wait_s = 0.0
        critical_path_s = 0.0
        while True:
            horizon = min(next_times)
            if pending:
                horizon = min(horizon, min(p[0] for p in pending))
            if horizon == math.inf:
                break
            t_end = horizon + lookahead if lookahead != math.inf else None
            incoming: list = [[] for _ in range(n)]
            pending.sort(key=lambda p: (p[0], p[1], p[2]))
            for delivery, origin, seq, dest, event in pending:
                incoming[dest].append((delivery, origin, seq, event))
            pending = []
            budget = self.max_events - total_processed
            if budget <= 0:
                raise SimulationError(
                    f"exceeded {self.max_events} events; runaway simulation?")
            results, skew = driver.epoch(t_end, incoming, budget)
            barrier_wait_s += skew
            epochs += 1
            next_times = []
            # The epoch's critical path is its slowest shard: what the
            # barrier would cost on a machine with a core per worker.
            critical_path_s += max(result[3] for result in results)
            for next_time, outbox, processed, _busy in results:
                next_times.append(next_time)
                total_processed += processed
                cross_events += len(outbox)
                pending.extend(outbox)
            if total_processed > self.max_events:
                raise SimulationError(
                    f"exceeded {self.max_events} events; runaway simulation?")
        payloads = driver.finish()
        self._check_failures(payloads)
        _EPOCHS_COMPLETED.value += epochs
        _CROSS_EVENTS.value += cross_events
        _BARRIER_WAIT_US.value += int(barrier_wait_s * 1e6)
        return self._assemble(part, lookahead, payloads, epochs=epochs,
                              cross_events=cross_events,
                              barrier_wait_s=barrier_wait_s,
                              critical_path_s=critical_path_s,
                              merge_globals=driver.include_globals)

    # -- result assembly ---------------------------------------------------

    @staticmethod
    def _check_failures(payloads: list) -> None:
        failures = [line for payload in payloads
                    for line in payload["failures"]]
        if failures:
            raise SimulationError(
                "actors failed in sharded run:\n  " + "\n  ".join(failures))

    def _assemble(self, part: Partition, lookahead: float, payloads: list,
                  epochs: int, cross_events: int, barrier_wait_s: float,
                  critical_path_s: float, merge_globals: bool) -> dict:
        if merge_globals:
            # Fold worker deltas into the parent's process-global state,
            # reproducing what a single-process run would have left there.
            for shard, payload in enumerate(payloads):
                _metrics.merge_state(payload["metrics"])
                if _obs.log is not None and payload["log"] is not None:
                    _obs.log.merge_state(payload["log"],
                                         track_prefix=f"shard{shard}/")
        records = [record for payload in payloads
                   for record in payload["records"]]
        records.sort(key=lambda r: (r[0], r[1], r[2]))
        return {
            "workers": self.workers,
            "processes": self.processes,
            "seed": self.seed,
            "partition": dict(part.assignment),
            "lookahead_s": lookahead if lookahead != math.inf else None,
            "epochs_completed": epochs,
            "cross_shard_events": cross_events,
            "barrier_wait_s": barrier_wait_s,
            #: Sum over epochs of the slowest shard's compute seconds —
            #: the wall-clock a host with a core per worker would see.
            "critical_path_s": critical_path_s,
            "worker_busy_s": [p["busy_s"] for p in payloads],
            "events_processed": sum(p["events_processed"] for p in payloads),
            "sim_time": max((p["sim_time"] for p in payloads), default=0.0),
            "records": records,
            "trace": canonical_trace_bytes(records),
            "max_rss_kb": [p["max_rss_kb"] for p in payloads],
        }

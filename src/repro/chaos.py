"""Chaos soak: seeded fault injection against a full Bento deployment.

This is the robustness acceptance scenario: a Tor network with Bento
boxes runs a Shard deployment (k-of-N erasure-coded storage) and a
LoadBalancer service while a :class:`~repro.netsim.faults.FaultPlane`
crashes boxes, severs links, and spikes latencies on a seeded schedule.
Every layer must recover:

* visitors retry their downloads (:meth:`BentoClient.retrying`) and all
  of them must eventually get bit-identical content;
* the LoadBalancer must notice a replica whose box crashed and respawn
  it elsewhere (``replicas_respawned``);
* the Shard owner must reconstruct the original file from the surviving
  placements after two placement boxes die permanently;
* the whole run must be deterministic: the same seed yields the same
  fault log, the same counters, and the same result dict, run after run.

``run_chaos_soak`` returns a plain-data summary dict that the test suite
compares across runs and the ``chaos-soak`` CLI scenario prints.
"""

from __future__ import annotations

import functools
import json
from collections import Counter

from repro.core import messages
from repro.core.client import RETRYABLE_ERRORS, BentoClient
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.loadbalancer import LoadBalancerFunction
from repro.functions.shard import ShardFunction
from repro.netsim.faults import FaultPlane
from repro.netsim.simulator import Actor, Sleep, SimTimeoutError
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import EventLog, TRACER as _obs
from repro.perf.counters import FIELDS, counters as _perf
from repro.tor.testnet import TorTestNetwork

#: How long the LoadBalancer serves; faults all land well before this.
LB_DURATION_S = 420.0
#: Hard wall for the whole soak (simulated seconds).
SOAK_DEADLINE_S = 4000.0


def run_chaos_soak(seed: int = 2021, n_relays: int = 14,
                   n_visitors: int = 6, verbose: bool = False,
                   trace_log: EventLog | None = None,
                   recovery_mode: str = "cold") -> dict:
    """Run the full chaos scenario; returns a deterministic summary dict.

    The dict contains only plain data (ints, strings, sorted structures)
    so two runs with the same ``seed`` can be compared with ``==``.

    Pass ``trace_log`` to record the whole soak as structured spans and
    events: the log is attached to the process tracer for the duration of
    the run and detached afterwards (restoring whatever was attached
    before).  Same seed + fresh log ⇒ byte-identical exports.

    ``recovery_mode`` selects how losses recover (summarized per mode in
    the result's ``recovery`` key):

    * ``"cold"`` (default) — today's respawn-from-scratch, byte-identical
      to the pre-migration-plane soak;
    * ``"standby"`` — the LoadBalancer keeps one warm standby replica and
      promotes it on loss instead of respawning;
    * ``"migrate"`` — adds a stateful kvstore tenant whose box drains it
      to another box mid-run (servers get the migration plane);
    * ``"tenant-cold"`` — the same tenant, but its box crashes and the
      owner redeploys from scratch (the cold baseline for ``migrate``).
    """
    _metrics.reset()
    previous = _obs.log
    if trace_log is not None:
        _obs.attach(trace_log)
    try:
        return _run_soak(seed, n_relays, n_visitors, verbose, recovery_mode)
    finally:
        if trace_log is not None:
            _obs.log = previous


def _percentile(samples: list, q: float):
    """Nearest-rank percentile over simulated-seconds samples."""
    if not samples:
        return None
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return round(ordered[index], 3)


def _run_soak(seed: int, n_relays: int, n_visitors: int,
              verbose: bool, recovery_mode: str = "cold") -> dict:
    if recovery_mode not in ("cold", "standby", "migrate", "tenant-cold"):
        raise ValueError(f"unknown recovery_mode: {recovery_mode!r}")
    net = TorTestNetwork(n_relays=n_relays, seed=seed, bento_fraction=0.5,
                         fast_crypto=True)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    migrate_cfg = None
    if recovery_mode == "migrate":
        from repro.migrate import MigrationConfig
        migrate_cfg = MigrationConfig(quiesce_poll_s=0.5)
    net.servers = [BentoServer(r, net.authority, ias=ias, orphan_grace_s=60.0,
                               migrate=migrate_cfg)
                   for r in net.bento_boxes()]
    plane = FaultPlane(net.network)
    fp_to_node = {r.fingerprint: r.node.name for r in net.relays}
    content = bytes(net.sim.rng.fork("lb-content").randbytes(1_000_000))
    payload = bytes(net.sim.rng.fork("shard-file").randbytes(60_000))

    shared: dict = {"attempted": 0, "recovered": 0, "visitors_done": 0,
                    "announced": [], "crashed": set()}

    def say(text: str) -> None:
        if verbose:
            print(f"[t={net.sim.now:8.1f}] {text}")

    # -- the Shard owner: scatter early, gather after the storm ------------

    def shard_owner(thread: Actor):
        client = BentoClient(net.create_client("shard-owner"), ias=ias)
        session = yield from client.connect(thread, client.pick_box())
        yield from session.request_image(thread, "python")
        yield from session.load_function(thread, ShardFunction.SOURCE,
                                         ShardFunction.manifest())
        metadata = yield from ShardFunction.scatter(thread, session, payload,
                                                    n=5, k=3, name="soak")
        session.close()
        shared["metadata"] = metadata
        say("scatter complete: " + ", ".join(
            p["box_nickname"] for p in metadata["placements"]))
        # Wait out the storm: the LB finishing is the last scheduled act.
        while "lb_stats" not in shared or \
                shared["visitors_done"] < n_visitors:
            yield Sleep(5.0)
        gatherer = BentoClient(net.create_client("gatherer"), ias=ias)
        restored = yield from ShardFunction.gather(thread, gatherer, metadata,
                                                   timeout=90.0)
        shared["shard_ok"] = restored == payload
        say(f"gather complete, bit-identical={shared['shard_ok']}")

    # -- the LoadBalancer operator -----------------------------------------

    def lb_operator(thread: Actor):
        while "metadata" not in shared:
            yield Sleep(1.0)
        placed = {p["box_fp"] for p in shared["metadata"]["placements"]}
        client = BentoClient(net.create_client("lb-operator"), ias=ias)
        candidates = [b for b in client.discover_boxes()
                      if b.identity_fp not in placed]
        box = client.rng.choice(candidates) if candidates else \
            client.pick_box()
        shared["lb_node"] = fp_to_node[box.identity_fp]
        session = yield from client.connect(thread, box)
        yield from session.request_image(thread, "python")
        yield from session.load_function(
            thread, LoadBalancerFunction.SOURCE,
            LoadBalancerFunction.manifest(image="python"))
        onion = yield from LoadBalancerFunction.start(
            thread, session, content, high_water=1, low_water=1,
            max_replicas=2, duration_s=LB_DURATION_S, poll_interval=2.0,
            replica_image="python", announce=True,
            standbys=1 if recovery_mode == "standby" else 0)
        shared["onion"] = onion
        say(f"loadbalancer serving {onion} from {shared['lb_node']}")
        stats = None
        while stats is None:
            for index, queued in enumerate(session._pending):
                if queued["type"] == messages.DONE:
                    stats = session._pending.pop(index)["result"]
                    break
            if stats is not None:
                break
            try:
                out = yield from session.next_output(thread, timeout=20.0)
            except SimTimeoutError:
                continue
            except RETRYABLE_ERRORS:
                # Transport died mid-soak: reconnect and reattach.
                for attempt in range(5):
                    yield Sleep(2.0 * (attempt + 1))
                    try:
                        yield from session.reconnect(thread)
                        break
                    except RETRYABLE_ERRORS:
                        continue
                else:
                    raise
                say("operator session reattached")
                continue
            try:
                note = json.loads(out.decode("utf-8"))
            except ValueError:
                continue
            shared["announced"].append(note)
            say(f"announcement: {note}")
        # The events list is authoritative (announcements can be lost in
        # a reconnect window): count respawns from it.
        respawns = sum(1 for e in stats["events"] if e[1] == "respawn")
        _metrics.counter("lb_respawns").value += respawns
        promotions = sum(1 for e in stats["events"]
                         if e[1] == "standby-promoted")
        if promotions:
            # The sandboxed balancer cannot touch host counters; surface
            # its standby promotions the same way as its respawns.
            _metrics.counter("standby_promotions").value += promotions
        log = _obs.log
        if log is not None:
            # The sandboxed balancer cannot reach the tracer; surface its
            # respawns here, stamped with the event's own simulated time.
            for e in stats["events"]:
                if e[1] == "respawn":
                    log.instant("functions.lb_respawn", float(e[0]),
                                track="loadbalancer", replicas=e[2])
        shared["lb_stats"] = stats
        session.close()

    # -- visitors: the client requests that must all recover ---------------

    def visitor(thread: Actor, index: int):
        while "onion" not in shared:
            yield Sleep(1.0)
        shared["attempted"] += 1
        client = BentoClient(net.create_client(f"chaos-visitor{index}"),
                             ias=ias)

        def download():
            body, _elapsed = yield from LoadBalancerFunction.download(
                thread, client.tor, shared["onion"], timeout=60.0)
            if body != content:
                raise ConnectionError("content mismatch")
            return True

        try:
            yield from client.retrying(thread, download, attempts=6,
                                       backoff_s=2.0)
            shared["recovered"] += 1
            say(f"visitor{index} recovered its download")
        except RETRYABLE_ERRORS as exc:
            say(f"visitor{index} gave up: {exc}")
        finally:
            shared["visitors_done"] += 1

    # -- the stateful tenant (migrate / tenant-cold modes only) ------------

    tenant_enabled = recovery_mode in ("migrate", "tenant-cold")
    tenant_log: list = []          # (sim_time, counter value) per good op
    tenant_state = {"redeploys": 0}

    def tenant_owner(thread: Actor):
        from repro.functions.kvstore import KvStoreFunction

        # The tenant is an operator-managed probe (like the LB pushing to
        # its replicas): direct sessions keep the recovery measurement
        # clean of background Tor-circuit noise.
        client = BentoClient(net.create_client("tenant"), ias=ias)
        # Keep off the shard placements and the LB box: the tenant
        # director kills (or drains) the tenant's box, and that must not
        # double as an attack on the other workloads' quorum.
        while "metadata" not in shared or "lb_node" not in shared:
            yield Sleep(1.0)
        risky = {p["box_fp"] for p in shared["metadata"]["placements"]}
        risky |= {fp for fp, node in fp_to_node.items()
                  if node == shared["lb_node"]}
        box = client.pick_box(exclude=tuple(sorted(risky)))
        shared["tenant_node"] = fp_to_node[box.identity_fp]
        session = yield from client.connect_direct(thread, box)
        yield from session.request_image(thread, "python")
        yield from session.load_function(thread, KvStoreFunction.SOURCE,
                                         KvStoreFunction.manifest())
        KvStoreFunction.start(session)
        holder = {"session": session}

        def one_op():
            return KvStoreFunction.op(
                thread, holder["session"],
                {"op": "incr", "key": "hits"}, timeout=15.0)

        target_ops = 40
        while (len(tenant_log) < target_ops
               and net.sim.now < SOAK_DEADLINE_S - 600.0):
            try:
                reply = yield from client.retrying(
                    thread, one_op, attempts=3, backoff_s=2.0,
                    session=holder["session"])
                tenant_log.append((net.sim.now, int(reply["value"])))
                # Track where the instance lives now: a drain retargets
                # the session, and the director must never crash the
                # tenant's box itself (its faults are the tenant
                # director's job).
                moved_to = fp_to_node.get(holder["session"].box.identity_fp)
                if moved_to:
                    shared["tenant_node"] = moved_to
            except RETRYABLE_ERRORS:
                # Cold recovery: the instance (and its state) is gone for
                # good — redeploy from scratch on a surviving box, then
                # retry the op immediately so the log's gap measures the
                # real outage.
                crashed_fps = {fp for fp, node in fp_to_node.items()
                               if node in shared["crashed"]}
                say("tenant redeploying from scratch")
                try:
                    box2 = client.pick_box(exclude=tuple(sorted(crashed_fps)))
                    fresh = yield from client.connect_direct(thread, box2)
                    yield from fresh.request_image(thread, "python")
                    yield from fresh.load_function(
                        thread, KvStoreFunction.SOURCE,
                        KvStoreFunction.manifest())
                    KvStoreFunction.start(fresh)
                    holder["session"] = fresh
                    shared["tenant_node"] = fp_to_node[box2.identity_fp]
                    tenant_state["redeploys"] += 1
                except RETRYABLE_ERRORS:
                    yield Sleep(5.0)    # redeploy itself failed; try again
                continue
            yield Sleep(5.0)
        shared["tenant_done"] = True

    def tenant_director(thread: Actor):
        # Let the tenant accumulate some state first, then hit its box.
        while len(tenant_log) < 4:
            yield Sleep(2.0)
        node = shared.get("tenant_node")
        if node is None:
            return
        if recovery_mode == "migrate":
            server = next(s for s in net.servers if s.node.name == node)
            instance = next(
                (i for i in server._by_invocation.values()
                 if i.manifest is not None and i.manifest.name == "kvstore"),
                None)
            if instance is not None and server.migrate is not None:
                say(f"draining tenant off {node}")
                server.migrate.request_drain(instance)
        else:
            say(f"crashing tenant box {node} (permanent)")
            plane.crash_node(node)
            shared["crashed"].add(node)

    # -- the director: where the faults come from --------------------------

    def live_replica_nodes() -> list[str]:
        nodes = []
        for server in net.servers:
            if not server.node.alive:
                continue
            for instance in server._by_invocation.values():
                if (instance.manifest is not None
                        and instance.manifest.name == "lb-replica"
                        and instance.runtime is not None
                        and instance.runtime.running):
                    nodes.append(server.node.name)
        return nodes

    def director(thread: Actor):
        while "metadata" not in shared or "onion" not in shared:
            yield Sleep(1.0)
        placement_nodes = [fp_to_node[p["box_fp"]]
                           for p in shared["metadata"]["placements"]]
        # Background noise: one plain-relay crash (it restarts), plus a
        # seeded batch of link cuts and latency spikes.
        plain = [r.node.name for r in net.relays if r.bento_port is None]
        noisy = plane.rng.choice(plain)
        plane.crash_node(noisy, down_for_s=60.0)
        say(f"crashed middle relay {noisy} (restarts in 60s)")
        plane.schedule_random(
            node_names=[r.node.name for r in net.relays],
            start_s=net.sim.now + 10.0, end_s=net.sim.now + 150.0,
            n_link_cuts=3, n_latency_spikes=4, mean_downtime_s=30.0,
            spike_extra_s=0.2)
        # Wait for the LB to scale up, then kill a replica's box for good.
        deadline = net.sim.now + 200.0
        while not live_replica_nodes() and net.sim.now < deadline:
            yield Sleep(2.0)
        victims = [n for n in live_replica_nodes()
                   if n != shared.get("tenant_node")]
        if victims:
            victim = victims[0]
            plane.crash_node(victim)
            shared["crashed"].add(victim)
            say(f"crashed replica box {victim} (permanent)")
            # Wait for the respawn to land somewhere else.
            deadline = net.sim.now + 120.0
            while net.sim.now < deadline and not [
                    n for n in live_replica_nodes()
                    if n not in shared["crashed"]]:
                yield Sleep(2.0)
            say("replicas now on " + ",".join(live_replica_nodes()))
        # Finally, kill shard placement boxes — at most n-k of them, and
        # never the LB box or a box currently hosting a replica.
        for target in placement_nodes:
            if len(shared["crashed"] & set(placement_nodes)) >= 2:
                break
            if target in shared["crashed"] or target == shared["lb_node"] \
                    or target == shared.get("tenant_node") \
                    or target in live_replica_nodes():
                continue
            plane.crash_node(target)
            shared["crashed"].add(target)
            say(f"crashed shard placement box {target} (permanent)")

    shard_thread = net.sim.spawn(shard_owner, name="shard-owner")
    net.sim.spawn(lb_operator, name="lb-operator")
    tenant_thread = None
    if tenant_enabled:
        tenant_thread = net.sim.spawn(tenant_owner, name="tenant",
                                      delay=15.0)
        net.sim.spawn(tenant_director, name="tenant-director", delay=40.0)
    for index in range(n_visitors):
        # Two waves: a tight burst (pushes the LB past high_water so it
        # scales up) and a trailing wave that keeps load on the service
        # while the director is crashing boxes.
        if index < (n_visitors + 1) // 2:
            delay = 20.0 + 3.0 * index
        else:
            delay = 110.0 + 12.0 * index
        net.sim.spawn(functools.partial(visitor, index=index),
                      name=f"visitor{index}", delay=delay)
    net.sim.spawn(director, name="director", delay=30.0)

    net.sim.run_until_done(shard_thread, until=SOAK_DEADLINE_S)
    if tenant_thread is not None:
        net.sim.run_until_done(tenant_thread, until=SOAK_DEADLINE_S)
    net.sim.check_failures()

    stats = shared["lb_stats"]

    # Recovery-time samples per mode.  LoadBalancer losses pair with the
    # next recovery event in its (authoritative) events list; the tenant
    # contributes its longest op-to-op gap — the client-visible pause its
    # recovery mode produced.
    recovery_samples: dict[str, list] = {}
    pending_lost: list = []
    for event_t, kind, _detail in stats["events"]:
        if kind == "replica-lost":
            pending_lost.append(float(event_t))
        elif kind in ("respawn", "standby-promoted") and pending_lost:
            mode = "cold" if kind == "respawn" else "standby"
            recovery_samples.setdefault(mode, []).append(
                float(event_t) - pending_lost.pop(0))
    tenant_summary = None
    if tenant_enabled and len(tenant_log) >= 2:
        gaps = [t2 - t1 for (t1, _v1), (t2, _v2)
                in zip(tenant_log, tenant_log[1:])]
        values = [v for _t, v in tenant_log]
        tenant_summary = {
            "mode": recovery_mode,
            "ops_ok": len(tenant_log),
            "recovery_s": round(max(gaps), 3),
            "state_preserved": all(b > a for a, b in zip(values, values[1:])),
            "redeploys": tenant_state["redeploys"],
        }
        key = "migrate" if recovery_mode == "migrate" else "cold-redeploy"
        recovery_samples.setdefault(key, []).append(max(gaps))
    snap = _perf.snapshot()
    result = {
        "seed": seed,
        "recovery_mode": recovery_mode,
        "n_relays": n_relays,
        "requests_attempted": shared["attempted"],
        "requests_recovered": shared["recovered"],
        "shard_ok": bool(shared.get("shard_ok")),
        "faults_injected": snap["faults_injected"],
        "fault_log": dict(sorted(Counter(
            kind for _t, kind, _detail in plane.log).items())),
        "lb_events": dict(sorted(Counter(
            e[1] for e in stats["events"]).items())),
        "replicas_lost": stats["replicas_lost"],
        "announcements": len(shared["announced"]),
        # Every chaos- and migrate-plane field but the fault total, which
        # is reported one level up.
        "counters": {field.name: snap[field.name] for field in FIELDS
                     if field.plane in ("chaos", "migrate")
                     and field.name != "faults_injected"},
        "recovery": {
            mode: {"count": len(samples),
                   "p50_s": _percentile(samples, 0.5),
                   "p99_s": _percentile(samples, 0.99)}
            for mode, samples in sorted(recovery_samples.items())},
        "tenant": tenant_summary,
        "sim_time": round(net.sim.now, 3),
    }
    return result


def check_soak(result: dict) -> list[str]:
    """The acceptance predicates; returns the list of violations (empty
    when the soak passed)."""
    problems = []
    if result["faults_injected"] < 10:
        problems.append(
            f"only {result['faults_injected']} faults injected (<10)")
    if result["requests_recovered"] != result["requests_attempted"]:
        problems.append(
            f"{result['requests_recovered']}/{result['requests_attempted']}"
            " client requests recovered")
    if not result["shard_ok"]:
        problems.append("shard gather was not bit-identical")
    if result["counters"]["replicas_respawned"] < 1:
        problems.append("no LoadBalancer replica was respawned")
    return problems

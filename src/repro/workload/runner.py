"""Execute a generated workload against a full Bento deployment.

:func:`run_workload` builds a Tor testnet at the spec's scale, enables
exactly the planes the spec asks for (qos admission on every box, a
seeded fault schedule, the migration plane), deploys one service per
tenant, and then plays the generated event program: every arrival becomes
a client actor doing real work — admission-gated kvstore sessions, bulk
hidden-service downloads, shard gathers, proof-of-work (or not)
introductions against the DDoS defense.

The run records one outcome per event — ``ok`` / ``refused`` /
``gave_up`` / ``failed`` / ``rejected`` / ``leaked`` — plus per-op
latencies and recovery samples, and returns a plain-data result dict
:func:`repro.workload.slo.build_report` rolls into the SLO report.

Determinism contract: everything below draws from the simulator's seeded
RNG tree, so a fixed spec replays bit-identically — same outcomes, same
counters, and (with ``trace_log``) a byte-identical ``events.jsonl``.
"""

from __future__ import annotations

import functools
from collections import Counter as _TallyCounter
from typing import Optional

from repro import chaos
from repro.core.client import RETRYABLE_ERRORS, BentoClient
from repro.core.errors import BentoError, ServerBusy
from repro.core.manifest import FunctionManifest
from repro.core.server import BentoServer
from repro.enclave.attestation import IntelAttestationService
from repro.functions.ddos_defense import DdosDefenseFunction, solve_pow
from repro.functions.kvstore import KvStoreFunction
from repro.functions.loadbalancer import LoadBalancerFunction
from repro.functions.shard import ShardFunction
from repro.netsim.faults import FaultPlane
from repro.netsim.simulator import Actor, Sleep
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import EventLog, TRACER as _obs
from repro.perf.counters import FIELDS, counters as _perf
from repro.tor.testnet import TorTestNetwork
from repro.util.errors import ReproError
from repro.workload.generator import Workload, WorkloadEvent, generate
from repro.workload.spec import TenantSpec, WorkloadSpec

__all__ = ["run_workload", "GRACE_S"]

MB = 1024 * 1024

#: Simulated seconds granted past ``duration_s`` for stragglers to drain.
#: The LoadBalancer alone can legitimately use ~640 of these: it serves
#: 30s past the spec duration, then its drain loop waits up to 600s for
#: replicas to go idle before tearing down.
GRACE_S = 900.0

def run_workload(spec: WorkloadSpec,
                 trace_log: Optional[EventLog] = None,
                 workload: Optional[Workload] = None) -> dict:
    """Run one scenario; returns the deterministic raw-result dict.

    Pass ``trace_log`` to capture the whole run as obs-plane spans and
    events (attached for the duration, previous sink restored after) —
    the exported ``events.jsonl`` is the replay-identity artifact.
    ``workload`` short-circuits generation when the caller already
    expanded the spec (it must come from this exact spec).
    """
    if workload is None:
        workload = generate(spec)
    elif workload.spec != spec:
        raise ReproError("workload was generated from a different spec")
    _metrics.reset()
    previous = _obs.log
    if trace_log is not None:
        _obs.attach(trace_log)
    try:
        return _run(spec, workload)
    finally:
        if trace_log is not None:
            _obs.log = previous


def _kv_manifest(tenant: TenantSpec) -> FunctionManifest:
    return FunctionManifest.create(
        "kvstore", "kvstore", KvStoreFunction.API_CALLS, image="python",
        memory_bytes=2 * MB)


def _count_lb_events(events: list, recovery_samples: list) -> None:
    """Surface what a LoadBalancer did, from its DONE events list.

    The sandboxed balancer cannot reach host counters or the tracer, so
    its respawns and standby promotions are counted here, each respawn is
    an instant stamped with the event's own simulated time, and each
    lost replica's gap to the next replacement joins the recovery samples.
    """
    lost: list[float] = []
    for event_t, kind, detail in events:
        if kind == "replica-lost":
            lost.append(float(event_t))
            continue
        if kind == "respawn":
            _metrics.counter("lb_respawns").value += 1
            _obs.event("functions.lb_respawn", float(event_t),
                       track="loadbalancer", replicas=detail)
        elif kind == "standby-promoted":
            _metrics.counter("standby_promotions").value += 1
        else:
            continue
        if lost:
            recovery_samples.append(float(event_t) - lost.pop(0))


def _run(spec: WorkloadSpec, workload: Workload) -> dict:
    planes = spec.planes
    net = TorTestNetwork(n_relays=spec.n_relays, seed=spec.seed,
                         bento_fraction=spec.bento_fraction)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    net.ias = ias
    qos_cfg = None
    if planes.qos:
        from repro.qos import QosConfig
        qos_cfg = QosConfig(slots=planes.qos_slots,
                            queue_depth=planes.qos_queue_depth,
                            queue_timeout_s=planes.qos_queue_timeout_s,
                            base_retry_after_s=1.0)
    net.servers = [BentoServer(r, net.authority, ias=ias,
                               orphan_grace_s=60.0, qos=qos_cfg,
                               migrate=planes.migrate)
                   for r in net.bento_boxes()]
    fault_plane = FaultPlane(net.network) if planes.chaos else None
    fp_to_node = {r.fingerprint: r.node.name for r in net.relays}

    per_tenant_events = workload.per_tenant()
    operators = [t for t in spec.tenants
                 if t.function in ("loadbalancer", "shard", "ddos_defense",
                                   "chain")]

    shared: dict = {
        "busy_fps": set(),      # boxes hosting tenant services: do not crash
        "operators_ready": 0,
        "crashed": set(),       # node names crashed permanently
        "fp_to_node": fp_to_node,
        "shards": {},           # tenant -> scatter metadata
        "chains": {},           # tenant -> ChainDeployment
        "onions": {},           # tenant -> onion address
        "contents": {},         # tenant -> served payload
        "stats": {},            # tenant -> function DONE result
        "probe_ready": False,
    }
    records: dict[str, list[dict]] = {}
    for tenant in spec.tenants:
        records[tenant.name] = [
            {"index": e.index, "t": round(e.t, 6), "kind": e.kind,
             "done": None, "outcome": "pending", "retried": False}
            for e in per_tenant_events[tenant.name]]
    # Client-visible outage lengths: a probe op's disrupted wait, and a
    # LoadBalancer's lost-replica-to-replacement gap.
    recovery_samples: list[float] = []
    probe_state = {"values": [], "redeploys": 0}

    def crashed_fps() -> set:
        return {fp for fp, node in fp_to_node.items()
                if node in shared["crashed"]}

    # -- session tenants: every arrival is a full admission-gated session --

    def session_flow(task: Actor, tenant: TenantSpec, event: WorkloadEvent,
                     record: dict):
        client = BentoClient(
            net.create_client(f"{tenant.name}-{event.index}"), ias=ias)
        arrived = net.sim.now
        manifest = _kv_manifest(tenant)
        lifetime = event.attr("lifetime_s")
        op_gap = (lifetime / tenant.ops_per_session
                  if lifetime else 0.0)
        failed_fps: set = set()
        while True:
            session = None
            try:
                exclude = tuple(sorted(failed_fps | crashed_fps()))
                try:
                    box = client.pick_box(exclude=exclude)
                except BentoError:
                    failed_fps.clear()   # every box excluded: start over
                    box = client.pick_box(
                        exclude=tuple(sorted(crashed_fps())))
                session = yield from client.connect_direct(task, box)
                yield from session.request_image(task, "python",
                                                 verify="none",
                                                 priority=tenant.priority)
                yield from session.load_function(
                    task, KvStoreFunction.SOURCE, manifest)
                KvStoreFunction.start(session)
                for op_i in range(tenant.ops_per_session):
                    yield from KvStoreFunction.op(
                        task, session,
                        {"op": "incr", "key": f"s{event.index}"},
                        timeout=30.0)
                    if op_gap > 0.0 and op_i + 1 < tenant.ops_per_session:
                        yield Sleep(op_gap)
                if tenant.hold_s > 0.0:
                    # Occupy the admission slot like a real session would.
                    yield Sleep(tenant.hold_s)
                session.send_message(b'{"op": "stop"}')
                yield from session.shutdown(task)
                record["done"] = round(net.sim.now, 6)
                record["outcome"] = "ok"
                return
            except RETRYABLE_ERRORS as exc:
                record["retried"] = True
                if session is not None and session.box is not None:
                    failed_fps.add(session.box.identity_fp)
                waited = net.sim.now - arrived
                if waited >= tenant.deadline_s:
                    record["outcome"] = ("refused"
                                         if isinstance(exc, ServerBusy)
                                         else "gave_up")
                    return
                if isinstance(exc, ServerBusy) and exc.retry_after > 0:
                    delay = exc.retry_after
                else:
                    delay = 0.5 + client.rng.random()
                yield Sleep(min(delay, tenant.deadline_s - waited))
            finally:
                if session is not None:
                    session.close()

    # -- the shared kvstore probe: the chaos/migrate target ----------------

    def probe_owner(task: Actor, tenant: TenantSpec,
                    events: list[WorkloadEvent]):
        client = BentoClient(net.create_client(tenant.name), ias=ias)
        manifest = _kv_manifest(tenant)
        while shared["operators_ready"] < len(operators):
            yield Sleep(1.0)
        holder: dict = {}

        def deploy():
            exclude = tuple(sorted(shared["busy_fps"] | crashed_fps()))
            box = client.pick_box(exclude=exclude)
            session = yield from client.connect_direct(task, box)
            yield from session.request_image(task, "python", verify="none",
                                             priority=tenant.priority)
            yield from session.load_function(task, KvStoreFunction.SOURCE,
                                             manifest)
            KvStoreFunction.start(session)
            holder["session"] = session
            shared["probe_node"] = fp_to_node[box.identity_fp]
            shared.setdefault("probe_home", shared["probe_node"])

        yield from client.retrying(task, deploy, attempts=5, backoff_s=2.0)
        shared["probe_ready"] = True
        for event, record in zip(events, records[tenant.name]):
            while net.sim.now < event.t:
                yield Sleep(min(2.0, event.t - net.sim.now))
            started = net.sim.now
            disrupted = False
            ops_done = 0
            while ops_done < tenant.ops_per_session:
                def one_op():
                    return KvStoreFunction.op(
                        task, holder["session"],
                        {"op": "incr", "key": "hits"}, timeout=20.0)

                try:
                    reply = yield from client.retrying(
                        task, one_op, attempts=3, backoff_s=2.0,
                        session=holder["session"])
                except RETRYABLE_ERRORS:
                    # The instance (and its state) is gone: cold redeploy
                    # on a surviving box, then retry the op so the gap
                    # measures the real outage.
                    disrupted = True
                    record["retried"] = True
                    try:
                        yield from deploy()
                        probe_state["redeploys"] += 1
                    except RETRYABLE_ERRORS:
                        yield Sleep(5.0)
                    continue
                probe_state["values"].append(int(reply["value"]))
                ops_done += 1
                moved_to = fp_to_node.get(
                    holder["session"].box.identity_fp)
                if moved_to and moved_to != shared.get("probe_node"):
                    shared["probe_node"] = moved_to
            record["done"] = round(net.sim.now, 6)
            record["outcome"] = "ok"
            if disrupted:
                recovery_samples.append(net.sim.now - started)
        session = holder.get("session")
        if session is not None:
            try:
                session.send_message(b'{"op": "stop"}')
                yield from session.shutdown(task)
            except RETRYABLE_ERRORS:
                pass
            session.close()

    # -- operated services: one operator deploys, arrivals use it ----------

    def deploy_service(task: Actor, tenant: TenantSpec, source: str,
                       manifest: FunctionManifest):
        """Draw the tenant's content, then load its service on a box that
        holds no other tenant's service: (content, box, session)."""
        content = bytes(net.sim.rng.fork(
            f"content:{tenant.name}").randbytes(tenant.payload_bytes))
        shared["contents"][tenant.name] = content
        client = BentoClient(net.create_client(f"{tenant.name}-op"),
                             ias=ias)

        def setup():
            box = client.pick_box(
                exclude=tuple(sorted(shared["busy_fps"])))
            session = yield from client.connect_direct(task, box)
            yield from session.request_image(task, "python", verify="none")
            yield from session.load_function(task, source, manifest)
            return box, session

        box, session = yield from client.retrying(task, setup, attempts=5,
                                                  backoff_s=2.0)
        return content, box, session

    def service_up(tenant: TenantSpec, table: str, record: dict):
        """Wait for the tenant's service to appear in ``shared[table]``;
        False, with the arrival failed, if it never came up."""
        while tenant.name not in shared[table]:
            if net.sim.now > spec.duration_s + 120.0:
                record["outcome"] = "failed"
                return False
            yield Sleep(1.0)
        return True

    # -- loadbalancer tenants: bulk hidden-service downloads ----------------

    def lb_operator(task: Actor, tenant: TenantSpec):
        content, box, session = yield from deploy_service(
            task, tenant, LoadBalancerFunction.SOURCE,
            LoadBalancerFunction.manifest(image="python"))
        shared["busy_fps"].add(box.identity_fp)
        shared["operators_ready"] += 1
        onion = yield from LoadBalancerFunction.start(
            task, session, content, high_water=2, low_water=1,
            max_replicas=2, duration_s=spec.duration_s + 30.0,
            poll_interval=2.0, replica_image="python", announce=False,
            standbys=tenant.standbys)
        shared["onions"][tenant.name] = onion
        stats = yield from session.await_result(
            task, timeout=spec.duration_s + GRACE_S)
        _count_lb_events(stats["events"], recovery_samples)
        shared["stats"][tenant.name] = {
            "served_local": stats["served_local"],
            "replicas_lost": stats["replicas_lost"],
            "events": dict(sorted(_TallyCounter(
                e[1] for e in stats["events"]).items())),
        }
        session.close()

    def lb_visitor(task: Actor, tenant: TenantSpec, event: WorkloadEvent,
                   record: dict):
        if not (yield from service_up(tenant, "onions", record)):
            return
        client = BentoClient(
            net.create_client(f"{tenant.name}-{event.index}"), ias=ias)
        onion = shared["onions"][tenant.name]
        content = shared["contents"][tenant.name]

        def download():
            body, _elapsed = yield from LoadBalancerFunction.download(
                task, client.tor, onion, timeout=60.0)
            if body != content:
                raise ConnectionError("content mismatch")

        try:
            yield from client.retrying(task, download, attempts=4,
                                       backoff_s=2.0)
            record["done"] = round(net.sim.now, 6)
            record["outcome"] = "ok"
        except RETRYABLE_ERRORS:
            record["outcome"] = "gave_up"

    # -- shard tenants: scatter once, arrivals gather ----------------------

    def shard_operator(task: Actor, tenant: TenantSpec):
        payload, _box, session = yield from deploy_service(
            task, tenant, ShardFunction.SOURCE, ShardFunction.manifest())
        metadata = yield from ShardFunction.scatter(
            task, session, payload, n=tenant.shard_n, k=tenant.shard_k,
            name=tenant.name)
        session.close()
        shared["shards"][tenant.name] = metadata
        shared["busy_fps"].update(p["box_fp"]
                                  for p in metadata["placements"])
        shared["operators_ready"] += 1

    def shard_visitor(task: Actor, tenant: TenantSpec,
                      event: WorkloadEvent, record: dict):
        if not (yield from service_up(tenant, "shards", record)):
            return
        client = BentoClient(
            net.create_client(f"{tenant.name}-{event.index}"), ias=ias)
        try:
            restored = yield from ShardFunction.gather(
                task, client, shared["shards"][tenant.name], timeout=60.0)
        except RETRYABLE_ERRORS:
            record["outcome"] = "gave_up"
            return
        record["done"] = round(net.sim.now, 6)
        record["outcome"] = ("ok" if restored ==
                             shared["contents"][tenant.name] else "failed")

    # -- ddos tenants: the §9.4 puzzle-guarded service under a burst -------

    def ddos_operator(task: Actor, tenant: TenantSpec):
        content, box, session = yield from deploy_service(
            task, tenant, DdosDefenseFunction.SOURCE,
            DdosDefenseFunction.manifest(image="python"))
        shared["busy_fps"].add(box.identity_fp)
        shared["operators_ready"] += 1
        info = yield from DdosDefenseFunction.start(
            task, session, content,
            difficulty_bits=tenant.pow_difficulty,
            duration_s=spec.duration_s + 30.0, poll_interval=2.0)
        shared["onions"][tenant.name] = info["onion"]
        stats = yield from session.await_result(
            task, timeout=spec.duration_s + GRACE_S)
        shared["stats"][tenant.name] = dict(stats)
        session.close()

    def ddos_arrival(task: Actor, tenant: TenantSpec,
                     event: WorkloadEvent, record: dict):
        if not (yield from service_up(tenant, "onions", record)):
            return
        onion = shared["onions"][tenant.name]
        tor = net.create_client(f"{tenant.name}-{event.index}")
        if event.kind == "attack":
            # No proof of work: the defense must burn the introduction
            # without completing rendezvous.  "Getting in" is the failure.
            try:
                circuit = yield from tor.connect_to_hidden_service(
                    task, onion, timeout=20.0, intro_extra={})
            except ReproError:
                record["done"] = round(net.sim.now, 6)
                record["outcome"] = "rejected"
            else:
                circuit.close()
                record["outcome"] = "leaked"
            return
        difficulty = tenant.pow_difficulty
        try:
            circuit = yield from tor.connect_to_hidden_service(
                task, onion, timeout=60.0,
                intro_extra=lambda cookie: {
                    "pow_nonce": solve_pow(cookie, difficulty)})
            stream = yield from circuit.open_stream(task, "", 80,
                                                    timeout=30.0)
            stream.send(b"GET")
            body = yield from LoadBalancerFunction.receive_body(
                task, stream, 60.0)
            circuit.close()
        except RETRYABLE_ERRORS:
            record["outcome"] = "gave_up"
            return
        record["done"] = round(net.sim.now, 6)
        record["outcome"] = ("ok" if body == shared["contents"][tenant.name]
                             else "failed")

    # -- chain tenants: a service graph embedded and driven end to end ------

    def chain_operator(task: Actor, tenant: TenantSpec):
        from repro.chain import ChainDeployment, pipeline_chain

        client = BentoClient(net.create_client(f"{tenant.name}-op"),
                             ias=ias)
        template = pipeline_chain(name=f"{tenant.name}-chain", pad_bytes=64)
        dep = ChainDeployment(client, template)
        yield from client.retrying(task, lambda: dep.deploy(task),
                                   attempts=5, backoff_s=2.0)
        shared["busy_fps"].update(dep.overlay.boxes_used())
        shared["chains"][tenant.name] = dep
        shared["operators_ready"] += 1
        while net.sim.now < spec.duration_s + 30.0:
            yield Sleep(5.0)
        try:
            stage_stats = yield from dep.shutdown(task)
        except RETRYABLE_ERRORS:
            stage_stats = {}
        shared["stats"][tenant.name] = {
            "engine": dep.overlay.engine,
            "replicas": len(dep.overlay.replicas),
            "boxes_used": len(dep.overlay.boxes_used()),
            "units_delivered": dep.units_delivered,
            "processed": {label: (s or {}).get("processed")
                          for label, s in sorted(stage_stats.items())},
        }

    def chain_arrival(task: Actor, tenant: TenantSpec,
                      event: WorkloadEvent, record: dict):
        from repro.chain import ChainDeployError

        if not (yield from service_up(tenant, "chains", record)):
            return
        dep = shared["chains"][tenant.name]
        payload = bytes(net.sim.rng.fork(
            f"unit:{tenant.name}:{event.index}").randbytes(
                min(tenant.payload_bytes, 4096)))
        expect = dep.expected_outputs(payload)
        try:
            out = yield from dep.push(task, payload,
                                      deadline_s=tenant.deadline_s)
        except ServerBusy:
            record["outcome"] = "refused"
            return
        except (ChainDeployError,) + RETRYABLE_ERRORS:
            record["outcome"] = "gave_up"
            return
        record["done"] = round(net.sim.now, 6)
        record["outcome"] = "ok" if out == expect else "failed"

    # -- plane directors ---------------------------------------------------

    def migrate_director(task: Actor):
        while not shared["probe_ready"] \
                or net.sim.now < planes.migrate_drain_at_s:
            yield Sleep(1.0)
        node = shared.get("probe_node")
        if node is None:
            return
        server = next((s for s in net.servers if s.node.name == node), None)
        if server is None or server.migrate is None:
            return
        instance = next(
            (i for i in server._by_invocation.values()
             if i.manifest is not None and i.manifest.name == "kvstore"
             and not i.terminated),
            None)
        if instance is not None:
            server.migrate.request_drain(instance)

    # -- spawn everything --------------------------------------------------

    actors = []
    probe = spec.shared_probe()
    for tenant in spec.tenants:
        events = per_tenant_events[tenant.name]
        if tenant.function == "kvstore" and tenant.shared:
            actors.append(net.sim.spawn(
                functools.partial(probe_owner, tenant=tenant, events=events),
                name=f"probe:{tenant.name}"))
            continue
        if tenant.function == "loadbalancer":
            actors.append(net.sim.spawn(
                functools.partial(lb_operator, tenant=tenant),
                name=f"op:{tenant.name}"))
            per_event = lb_visitor
        elif tenant.function == "shard":
            actors.append(net.sim.spawn(
                functools.partial(shard_operator, tenant=tenant),
                name=f"op:{tenant.name}"))
            per_event = shard_visitor
        elif tenant.function == "ddos_defense":
            actors.append(net.sim.spawn(
                functools.partial(ddos_operator, tenant=tenant),
                name=f"op:{tenant.name}"))
            per_event = ddos_arrival
        elif tenant.function == "chain":
            actors.append(net.sim.spawn(
                functools.partial(chain_operator, tenant=tenant),
                name=f"op:{tenant.name}"))
            per_event = chain_arrival
        else:
            per_event = session_flow
        for event, record in zip(events, records[tenant.name]):
            actors.append(net.sim.spawn(
                functools.partial(per_event, tenant=tenant, event=event,
                                  record=record),
                name=f"{tenant.name}:{event.index}", delay=event.t))
    if fault_plane is not None:
        actors.append(net.sim.spawn(
            functools.partial(chaos.direct, spec=spec, net=net,
                              plane=fault_plane, shared=shared),
            name="chaos-director"))
    if planes.migrate and planes.migrate_drain_at_s > 0.0 \
            and probe is not None:
        actors.append(net.sim.spawn(migrate_director,
                                    name="migrate-director"))

    horizon = spec.duration_s + GRACE_S
    for actor in actors:
        net.sim.run_until_done(actor, until=horizon)
    # Let shutdowns, orphan reaping, and LB teardown drain fully so
    # end-of-run counter/gauge invariants (slots back to free, queues
    # empty) are meaningful.
    net.sim.run(until=horizon)
    net.sim.check_failures()

    unfinished = sorted(a.name for a in actors if not a.finished)
    snap = _perf.snapshot()
    counters_out = {field.name: snap[field.name] for field in FIELDS
                    if field.plane in ("qos", "chaos", "migrate", "chain")}
    probe_out = None
    if probe is not None:
        values = probe_state["values"]
        probe_out = {
            "tenant": probe.name,
            "ops_ok": len(values),
            "redeploys": probe_state["redeploys"],
            "state_preserved": (len(values) > 1 and all(
                b > a for a, b in zip(values, values[1:]))),
            "home": shared.get("probe_home"),
            "final_node": shared.get("probe_node"),
        }
    return {
        "scenario": spec.name,
        "seed": spec.seed,
        "spec_digest": spec.digest(),
        "workload_digest": workload.digest(),
        "boxes": sorted(r.node.name for r in net.bento_boxes()),
        "n_events": len(workload.events),
        "tenants": {name: {"records": recs}
                    for name, recs in records.items()},
        "service_stats": dict(sorted(shared["stats"].items())),
        "probe": probe_out,
        "recovery_samples": [round(s, 6) for s in recovery_samples],
        "counters": counters_out,
        "fault_log": (dict(sorted(_TallyCounter(
            kind for _t, kind, _detail in fault_plane.log).items()))
            if fault_plane is not None else {}),
        "sim_time": round(net.sim.now, 3),
        "all_finished": not unfinished,
        "unfinished": unfinished,
    }

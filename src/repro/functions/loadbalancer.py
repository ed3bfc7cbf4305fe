"""LoadBalancer: autoscaling hidden-service replicas (§8).

    "LoadBalancer establishes introduction points and listens for clients'
    incoming requests to join them at a rendezvous point.  However, rather
    than connect to the rendezvous point itself, LoadBalancer chooses from
    a set of replicas (or spins up a new replica) and instructs the
    replica to connect to the rendezvous point on its behalf.  To create a
    replica, the LoadBalancer copies all files (including the hostname and
    private key) to the new instance ... LoadBalancer receives periodic
    messages from replicas describing their load, and uses high- and
    low-watermark thresholds to determine when to create or remove a
    replica."

Two uploaded artifacts: the balancer and the replica it clones itself
into.  Content is served over hidden-service streams with a tiny
length-prefixed GET protocol; clients hold their stream open (ending with
``DONE``) so "active" counts reflect live downloads.
"""

from __future__ import annotations

import json

from repro.core.manifest import FunctionManifest
from repro.netsim.simulator import Actor
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import TRACER as _obs
from repro.tor.client import TorClient

MB = 1024 * 1024

# The serving logic both the balancer (locally) and every replica run.
_SERVE_SNIPPET = r'''
def _make_handler(content, state):
    def handler(stream, host, port):
        state["active"] += 1
        try:
            request = yield from stream.recv(timeout=300.0)
            if request[:3] == b"GET":
                yield from stream.send(len(content).to_bytes(8, "big") + content)
                while True:
                    mark = yield from stream.recv(timeout=3600.0)
                    if mark == b"" or mark[:4] == b"DONE":
                        break
                state["served"] += 1
        except api.Error:
            pass
        state["active"] -= 1
        stream.close()
    return handler
'''

REPLICA_SOURCE = r'''
import json
''' + _SERVE_SNIPPET + r'''

def replica(key_material, expected_bytes):
    content = yield from api.recv(timeout=300.0)
    yield from api.log("replica: holding %d bytes" % len(content))
    state = {"active": 0, "served": 0}
    service = yield from api.stem.create_hidden_service(
        _make_handler(content, state),
        key_material=key_material, establish=False)
    yield from api.send(b'{"ready": true}')
    while True:
        raw = yield from api.recv()
        try:
            request = json.loads(raw.decode("utf-8"))
        except ValueError:
            continue
        op = request.get("op")
        if op == "load":
            yield from api.send(json.dumps(state).encode("utf-8"))
        elif op == "rendezvous":
            wire = request["req"]
            yield from api.stem.complete_rendezvous(service, {
                "cookie": bytes.fromhex(wire["cookie"]),
                "rp_address": wire["rp_address"],
                "rp_port": int(wire["rp_port"]),
                "onionskin": bytes.fromhex(wire["onionskin"]),
            }, wait=False)
            yield from api.send(b'{"ok": true}')
        elif op == "stop":
            break
    return state
'''

LOADBALANCER_SOURCE = r'''
import json
''' + _SERVE_SNIPPET + r'''

def loadbalancer(replica_source, replica_manifest, high_water, low_water,
                 max_replicas, duration_s, poll_interval, announce=False,
                 standbys=0):
    content = yield from api.recv(timeout=300.0)
    # An instance's load is max(active, assigned - served): dispatches
    # count at once, "served" from the handler or a replica's report.
    state = {"active": 0, "served": 0, "assigned": 0}
    service = yield from api.stem.create_hidden_service(
        _make_handler(content, state),
        n_intro=3, manual_introductions=True)
    yield from api.send(
        json.dumps({"onion": str(service.onion_address)}).encode("utf-8"))
    key_material = service.export_key_material()
    replicas = []       # provisioning or ready: what dispatch may pick
    standby = []        # provisioned, never dispatched to until promoted
    dead_boxes = []
    events = [[(yield from api.time()), "start", 1]]

    # The replica state table: event -> (state a replica enters, the key
    # the operator hears it under).  A standby is provisioned up front; a
    # replica is provisioning until its {"ready": true} is read, and ends
    # lost (its box or the path there died) or stopping.
    MOVES = {"scale-up": ("provisioning", "replica_box"),
             "respawn": ("provisioning", "replica_box"),
             "standby-up": ("standby", "standby_box"),
             "standby-promoted": ("provisioning", "standby_promoted"),
             "ready": ("ready", None), "standby-lost": ("lost", None),
             "replica-lost": ("lost", "replica_lost"),
             "scale-down": ("stopping", None),
             "dispatch": (None, None), "spawn-failed": (None, None)}
    HOLDS = {"provisioning": replicas, "ready": replicas, "standby": standby}

    def move(rep, event):
        # Every state change, events entry and announcement; rep is None
        # for a dispatch to the local instance and for spawn-failed.
        entered, told = MOVES[event]
        was = rep and rep["state"]
        if entered:
            held, holds = HOLDS.get(was, []), HOLDS.get(entered, [])
            if held is not holds:
                if rep in held:
                    held.remove(rep)
                holds.append(rep)
            rep["state"] = entered
        if event in ("ready", "standby-lost"):
            return
        if event == "dispatch":
            detail = "replica" if rep else "local"
        else:
            detail = len(standby) if entered == "standby" else 1 + len(replicas)
        events.append([(yield from api.time()), event, detail])
        if announce and told:
            said = {told: rep["box_fp"]}
            if was is None:
                said["event"] = event     # a new replica names its event
            yield from api.send(json.dumps(said).encode("utf-8"))

    def estimate(instance):
        return max(instance["active"],
                   instance["assigned"] - instance["served"])

    def poll_loads():
        for rep in list(replicas):
            if rep["state"] != "ready":
                continue     # the only pending output would be "ready"
            try:
                yield from api.remote_send(rep["handle"], b'{"op": "load"}')
                raw = yield from api.remote_recv(rep["handle"], timeout=60.0)
            except api.Error:
                yield from lose(rep)
                continue
            info = json.loads(raw.decode("utf-8"))
            rep["active"] = info["active"]
            rep["served"] = info["served"]

    def spawn(event):
        # Push code, key and content without waiting for the replica: the
        # first dispatch to it waits.  The copy goes direct (the paper's
        # LB copied between its own EC2 hosts), off boxes that already
        # lost one, onto the box reporting the most slack if any does.
        for _attempt in range(4):
            try:
                handle = yield from api.deploy(replica_source, replica_manifest,
                                               direct=True,
                                               exclude_fingerprints=dead_boxes,
                                               prefer_slack=True)
                info = yield from api.remote_info(handle)
                yield from api.remote_invoke_nowait(
                    handle, [key_material, len(content)])
                yield from api.remote_send(handle, content)
            except api.Error:
                continue
            yield from move({"handle": handle, "box_fp": info["box_fp"],
                             "state": None, "active": 0, "served": 0,
                             "assigned": 0}, event)
            return
        if event != "standby-up":
            yield from move(None, "spawn-failed")

    def lose(rep):
        # Avoid the dead box from now on, then promote a warm standby
        # (instant) or respawn cold, the paper's LB behavior.
        if rep not in replicas:
            return
        dead_boxes.append(rep["box_fp"])
        yield from move(rep, "replica-lost")
        if len(replicas) < max_replicas:
            while standby and standby[0]["box_fp"] in dead_boxes:
                yield from move(standby[0], "standby-lost")
            if standby:
                yield from move(standby[0], "standby-promoted")
                yield from spawn("standby-up")      # refill the pool
            else:
                yield from spawn("respawn")

    def ensure_ready(rep, timeout=300.0):
        # With a tiny timeout, a non-blocking readiness poll.
        if rep["state"] == "provisioning":
            try:
                yield from api.remote_recv(rep["handle"], timeout=timeout)
            except api.Timeout:
                pass
            except api.Error:
                yield from lose(rep)
            else:
                yield from move(rep, "ready")
        return rep["state"] == "ready"

    def stop(rep):
        try:
            yield from api.remote_send(rep["handle"], b'{"op": "stop"}')
            yield from api.remote_shutdown(rep["handle"])
        except api.Error:
            pass       # a replica that is gone is stopped

    def dispatch(request):
        # Only ready instances are candidates: waiting for one still
        # provisioning would stall every queued client.
        instances = [state]
        for rep in list(replicas):
            if (yield from ensure_ready(rep, timeout=0.05)):
                instances.append(rep)
        least = min(instances, key=estimate)
        if estimate(least) >= high_water and len(replicas) < max_replicas:
            # Start one for future load; this request is served from
            # existing capacity while the new one copies its content.
            yield from spawn("scale-up")
        if least is not state:
            least["assigned"] += 1
            try:
                yield from ensure_ready(least)
                yield from api.remote_send(least["handle"], json.dumps(
                    {"op": "rendezvous", "req": {
                        "cookie": request["cookie"].hex(),
                        "rp_address": request["rp_address"],
                        "rp_port": int(request["rp_port"]),
                        "onionskin": request["onionskin"].hex(),
                    }}).encode("utf-8"))
                yield from api.remote_recv(least["handle"], timeout=120.0)
            except api.Error:
                yield from lose(least)      # and serve this one locally
            else:
                yield from move(least, "dispatch")
                return
        state["assigned"] += 1
        yield from api.stem.complete_rendezvous(service, request, wait=False)
        yield from move(None, "dispatch")

    for _n in range(standbys):
        yield from spawn("standby-up")

    end = (yield from api.time()) + duration_s
    while (yield from api.time()) < end:
        remaining = end - (yield from api.time())
        try:
            request = yield from api.stem.wait_introduction(
                service, timeout=min(poll_interval, remaining))
        except api.Timeout:
            request = None
        if request is not None:
            yield from dispatch(request)
            continue
        # Idle tick: refresh real loads and consider scaling down.
        for rep in replicas:
            yield from ensure_ready(rep, timeout=0.05)
        yield from poll_loads()
        idle = [r for r in replicas
                if r["state"] == "ready" and r["active"] == 0
                and r["assigned"] <= r["served"]]
        if idle and sum(i["active"] for i in [state] + replicas) <= low_water:
            yield from stop(idle[-1])
            yield from move(idle[-1], "scale-down")

    # Drain: in-flight downloads finish before any instance goes.
    drain_deadline = (yield from api.time()) + 600.0
    while (yield from api.time()) < drain_deadline:
        for rep in replicas:
            yield from ensure_ready(rep, timeout=1.0)
        yield from poll_loads()
        busy = sum(i["active"] for i in [state] + replicas)
        waiting = sum(i["assigned"] - i["served"] for i in [state] + replicas)
        if (all(r["state"] == "ready" for r in replicas)
                and busy <= 0 and waiting <= 0):
            break
        yield from api.sleep(poll_interval)

    for rep in replicas + standby:
        yield from stop(rep)
    return {"events": events, "served_local": state["served"],
            "replicas_at_end": len(replicas),
            "replicas_lost": sum(e[1] == "replica-lost" for e in events)}
'''


class LoadBalancerFunction:
    """Host-side helper: manifests, startup, and the client download."""

    SOURCE = LOADBALANCER_SOURCE
    REPLICA_SOURCE = REPLICA_SOURCE

    LB_API_CALLS = frozenset({
        "send", "recv", "log", "time", "sleep",
        "deploy", "remote_invoke", "remote_send", "remote_recv",
        "remote_shutdown",
        "stem.create_hidden_service", "stem.hs_wait_introduction",
        "stem.hs_complete_rendezvous",
    })
    REPLICA_API_CALLS = frozenset({
        "send", "recv", "log",
        "stem.create_hidden_service", "stem.hs_complete_rendezvous",
    })

    @classmethod
    def manifest(cls, image: str = "python-op-sgx",
                 memory_bytes: int = 24 * MB) -> FunctionManifest:
        """The balancer holds the content and the service key: it is the
        case §5.4 motivates conclaves for."""
        return FunctionManifest.create(
            name="loadbalancer", entry="loadbalancer",
            api_calls=cls.LB_API_CALLS, image=image,
            memory_bytes=memory_bytes)

    @classmethod
    def replica_manifest(cls, image: str = "python-op-sgx",
                         memory_bytes: int = 24 * MB) -> FunctionManifest:
        """Manifest for the cloned replica function."""
        return FunctionManifest.create(
            name="lb-replica", entry="replica",
            api_calls=cls.REPLICA_API_CALLS, image=image,
            memory_bytes=memory_bytes)

    @classmethod
    def start(cls, thread: Actor, session, content: bytes,
              high_water: int = 2, low_water: int = 1, max_replicas: int = 3,
              duration_s: float = 120.0, poll_interval: float = 2.0,
              replica_image: str = "python-op-sgx",
              timeout: float = 600.0, announce: bool = False,
              standbys: int = 0) -> str:
        """Launch the balancer on a loaded session; returns the onion
        address it is serving.

        With ``announce=True`` the balancer reports replica placements and
        losses as extra OUTPUT frames (JSON with ``replica_box`` /
        ``replica_lost`` keys) so an operator can watch re-replication.

        ``standbys`` pre-provisions that many warm replicas (content and
        key material already pushed, never dispatched to); a lost replica
        promotes one instantly instead of respawning cold.
        """
        with _obs.span("functions.lb_start", session.client.sim,
                       track=session.box.nickname, box=session.box.nickname,
                       content_bytes=len(content)) as span:
            args = [cls.REPLICA_SOURCE,
                    cls.replica_manifest(image=replica_image).to_wire(),
                    high_water, low_water, max_replicas, duration_s,
                    poll_interval, announce]
            if standbys:
                # Appended only when used: the default invoke frame keeps
                # its pre-standby wire bytes, so fixed-seed replays stay
                # identical.
                args.append(int(standbys))
            session.invoke_nowait(args)
            session.send_message(content)
            ready = yield from session.next_output(thread, timeout=timeout)
            onion = json.loads(ready.decode("utf-8"))["onion"]
            span.annotate(onion=onion)
        return onion

    @staticmethod
    def receive_body(thread: Actor, stream, timeout: float) -> bytes:
        """A served body, after its 8-byte length, gathered in one buffer
        (not ``bytes +=``, a whole copy per cell); EOF: ConnectionError."""
        data = bytearray()
        while len(data) < 8 or len(data) < 8 + int.from_bytes(data[:8], "big"):
            chunk = yield from stream.recv(thread, timeout=timeout)
            if chunk == b"":
                raise ConnectionError("service hung up mid-response")
            data += chunk
        return bytes(memoryview(data)[8:])

    @staticmethod
    def download(thread: Actor, tor_client: TorClient, onion: str,
                 timeout: float = 1200.0) -> tuple[bytes, float]:
        """One client's full download from the (possibly balanced) service.

        Returns (content, elapsed_seconds).  Matches the serving protocol:
        GET, length-prefixed body, DONE.
        """
        started = tor_client.sim.now
        with _obs.span("functions.lb_download", tor_client.sim,
                       seconds=_metrics.histogram("lb_download_s"),
                       track=tor_client.node.name,
                       client=tor_client.node.name) as span:
            circuit = yield from tor_client.connect_to_hidden_service(
                thread, onion, timeout=timeout)
            stream = yield from circuit.open_stream(thread, "", 80,
                                                    timeout=timeout)
            stream.send(b"GET")
            body = yield from LoadBalancerFunction.receive_body(
                thread, stream, timeout)
            stream.send(b"DONE")
            stream.close()
            circuit.close()
            span.annotate(bytes=len(body))
        return body, tor_client.sim.now - started

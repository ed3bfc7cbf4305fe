"""The ``api`` object: everything a Bento function can do.

Functions are arbitrary Python, but their *only* capability is this object
(§5.1: "they are constrained to a limited API, and run in a restricted
sandbox").  Every method:

1. checks the call is in the function's **manifest** (the sandbox is
   constrained to the manifest even when the operator's policy allows
   more, §5.5),
2. checks the syscalls it maps to against the container's **seccomp**
   filter,
3. checks destinations against the container's **iptables** rules,
4. charges the container's **cgroup**, and
5. pays the **enclave transition cost** when running in a conclave.

A function killed by the sandbox (or shut down by its owner) sees
:class:`FunctionKilled` from its next API call.

Every gated API method is a generator function: function code delegates
to it with ``yield from api.recv()``.  Sandboxed code passes no actor
argument, so the api resolves the executing actor itself — it is the
simulator's current :class:`SimTask`.
"""

from __future__ import annotations

import inspect
from typing import Any, Optional

from repro.core.apispec import API_SYSCALLS
from repro.core.errors import BentoError
from repro.netsim.bytestream import DirectByteStream
from repro.netsim.http import HttpResponse, http_get
from repro.netsim.simulator import (
    Actor,
    Future,
    Join,
    Sleep,
    SimTask,
    Wait,
)
from repro.obs.span import TRACER as _obs
from repro.sandbox.seccomp import SeccompViolation
from repro.util.errors import ReproError


class ApiError(BentoError):
    """Misuse of the function API (bad arguments, unknown handle, ...)."""


#: Nominal cpu milliseconds metered per gated API call when the serving
#: plane is on; the weighted-fair cpu queue paces flows by this currency.
_QOS_CALL_COST_MS = 1.0


class FunctionKilled(ReproError):
    """The sandbox or the owner terminated this function."""


class SandboxedStream:
    """A byte stream handed to a function, gated and byte-accounted.

    Wraps direct connections (gate ``connect``) and hidden-service streams
    (gate ``stem.create_hidden_service``) alike.
    """

    def __init__(self, api: "FunctionApi", stream,
                 gate: str = "connect") -> None:
        self._api = api
        self._stream = stream
        self._gate_name = gate

    def send(self, data: bytes) -> None:
        """Send bytes to the peer."""
        yield from self._api._gate(self._gate_name)
        yield from self._api._charge_network(len(data))
        self._stream.send(data)

    def recv(self, timeout: Optional[float] = None) -> bytes:
        """Block until the next chunk arrives; b'' at EOF."""
        yield from self._api._gate(self._gate_name)
        data = yield from self._stream.recv(self._api._thread, timeout=timeout)
        yield from self._api._charge_network(len(data))
        return data

    def close(self) -> None:
        """Close the stream/connection."""
        self._stream.close()


class HttpSessionApi:
    """``api.http_session(...)``: keep-alive GETs over one connection."""

    def __init__(self, api: "FunctionApi", framed) -> None:
        self._api = api
        self._framed = framed

    def get(self, path: str, timeout: float = 600.0) -> HttpResponse:
        """One GET on the persistent connection."""
        yield from self._api._gate("http_get")
        from repro.netsim.http import fetch

        response = yield from fetch(self._api._thread, self._framed, path,
                                    timeout=timeout)
        yield from self._api._charge_network(len(response.body))
        return response

    def close(self) -> None:
        """Close the stream/connection."""
        self._framed.close()


class StorageApi:
    """``api.storage``: the chrooted (and, in a conclave, encrypted) store."""

    def __init__(self, api: "FunctionApi") -> None:
        self._api = api

    def _fs(self):
        instance = self._api._instance
        if instance.conclave is not None:
            return instance.conclave.fs
        return instance.container.fs

    def put(self, path: str, data: bytes) -> None:
        """Write a file (charged against the disk quota)."""
        yield from self._api._gate("storage.put")
        instance = self._api._instance
        fs = self._fs()
        current = 0
        if fs.exists(path):
            current = fs.file_size(path)
        delta = len(data) - current
        if delta > 0:
            instance.container.cgroup.charge("disk", delta)
        fs.write_file(path, bytes(data))
        if delta < 0:
            instance.container.cgroup.charge("disk", delta)

    def get(self, path: str) -> bytes:
        """Read a file."""
        yield from self._api._gate("storage.get")
        return self._fs().read_file(path)

    def list(self, path: str = "/") -> list[str]:
        """All file paths under ``path``."""
        yield from self._api._gate("storage.list")
        return self._fs().walk_files(path)

    def delete(self, path: str) -> None:
        """Remove a file (releases quota)."""
        yield from self._api._gate("storage.delete")
        instance = self._api._instance
        fs = self._fs()
        size = fs.file_size(path) if fs.exists(path) else 0
        fs.delete(path)
        if size:
            instance.container.cgroup.charge("disk", -size)

    def exists(self, path: str) -> bool:
        """Does a file exist?  (Gated as a read.)"""
        yield from self._api._gate("storage.get")
        return self._fs().exists(path)


class StemApi:
    """``api.stem``: the firewall-mediated controller (§5.3)."""

    def __init__(self, api: "FunctionApi") -> None:
        self._api = api

    def _firewall(self):
        return self._api._instance.firewall

    def new_circuit(self, **kwargs) -> str:
        """Mediated :meth:`Controller.new_circuit`."""
        yield from self._api._gate("stem.new_circuit")
        return (yield from self._firewall().new_circuit(
            self._api._thread, **kwargs))

    def close_circuit(self, circuit_id: str) -> None:
        """Mediated circuit teardown (ownership enforced)."""
        yield from self._api._gate("stem.close_circuit")
        self._firewall().close_circuit(circuit_id)

    def attach_stream(self, circuit_id: str, host: str, port: int):
        """Mediated stream attach (ownership enforced)."""
        yield from self._api._gate("stem.attach_stream")
        return (yield from self._firewall().attach_stream(
            self._api._thread, circuit_id, host, port))

    def get_network_statuses(self):
        """Mediated consensus listing."""
        yield from self._api._gate("stem.get_network_statuses")
        return self._firewall().get_network_statuses()

    def get_info(self, key: str):
        """Mediated GETINFO."""
        yield from self._api._gate("stem.get_info")
        return self._firewall().get_info(key)

    def create_hidden_service(self, handler, n_intro: int = 3,
                              key_material: Optional[dict] = None,
                              establish: bool = True,
                              manual_introductions: bool = False):
        """Host a hidden service.  ``handler(stream, host, port)`` runs in
        its own actor per accepted stream, with the stream gated and
        byte-accounted like any other function I/O.

        ``key_material`` (from ``service.export_key_material()``) clones an
        existing service identity; ``establish=False`` makes a detached
        replica endpoint; ``manual_introductions=True`` queues
        introductions for :meth:`wait_introduction`.
        """
        yield from self._api._gate("stem.create_hidden_service")
        api = self._api
        sim = api._instance.server.sim

        wrapped = None
        if handler is not None:
            if not inspect.isgeneratorfunction(handler):
                raise ApiError("hidden-service handler must be a generator "
                               "function (its stream calls are `yield from`)")

            def wrapped(stream, host, port):  # noqa: ANN001 - duck-typed
                """Per-stream wrapper: serve each accepted stream in an actor."""
                sandboxed = SandboxedStream(
                    api, stream, gate="stem.create_hidden_service")

                def _serve(task):
                    api._bind(task, None)
                    try:
                        yield from handler(sandboxed, host, port)
                    finally:
                        api._unbind(task)
                sim.spawn(_serve, name=f"fn-hs:{api._instance.instance_id}")

        keypair = None
        if key_material is not None:
            from repro.crypto.rsa import RsaKeyPair
            keypair = RsaKeyPair.from_parts(key_material)
        return (yield from self._firewall().create_hidden_service(
            self._api._thread, wrapped, n_intro=n_intro, keypair=keypair,
            establish=establish, manual_introductions=manual_introductions))

    def wait_introduction(self, service, timeout: Optional[float] = None) -> dict:
        """Next queued introduction on a manual-mode service."""
        yield from self._api._gate("stem.hs_wait_introduction")
        return (yield from self._firewall().hs_wait_introduction(
            self._api._thread, service, timeout=timeout))

    def complete_rendezvous(self, service, request: dict, wait: bool = True):
        """Answer one introduction from this node (LoadBalancer replicas).

        ``wait=False`` runs the rendezvous-circuit construction in its own
        actor so a dispatcher can keep serving other clients — the same
        concurrency an unmodified hidden service gets for free.
        """
        yield from self._api._gate("stem.hs_complete_rendezvous")
        if wait:
            return (yield from self._firewall().hs_complete_rendezvous(
                self._api._thread, service, request))
        api = self._api
        firewall = self._firewall()
        sim = api._instance.server.sim

        def _worker(task):
            from repro.netsim.connection import ConnectionClosed
            from repro.netsim.network import NetworkError
            from repro.netsim.simulator import SimTimeoutError
            from repro.tor.circuit import CircuitDestroyed
            from repro.tor.client import TorError

            api._bind(task, None)
            try:
                yield from firewall.hs_complete_rendezvous(task, service,
                                                           request)
            except (TorError, NetworkError, SimTimeoutError,
                    CircuitDestroyed, ConnectionClosed) as exc:
                # Fire-and-forget: the client retries through a fresh
                # rendezvous; a dead relay here must not kill the host.
                api._instance.logs.append(
                    f"rendezvous abandoned: {exc}")
            finally:
                api._unbind(task)

        sim.spawn(_worker, name=f"rend:{api._instance.instance_id}")
        return None

    def remove_hidden_service(self, onion_address: str) -> None:
        """Mediated hidden-service removal (ownership enforced)."""
        yield from self._api._gate("stem.remove_hidden_service")
        self._firewall().remove_hidden_service(onion_address)

    def connect_to_hidden_service(self, onion_address: str):
        """Mediated client-side rendezvous."""
        yield from self._api._gate("stem.connect_to_hidden_service")
        return (yield from self._firewall().connect_to_hidden_service(
            self._api._thread, onion_address))

    def send_padding(self, circuit_id: str, hop_index: Optional[int] = None,
                     payload: bytes = b"") -> None:
        """Mediated RELAY_DROP injection (ownership enforced)."""
        yield from self._api._gate("stem.send_padding")
        self._firewall().send_padding(circuit_id, hop_index=hop_index,
                                      payload=payload)

    def fetch(self, circuit_id: str, url: str, offset: Optional[int] = None,
              length: Optional[int] = None, timeout: float = 600.0) -> dict:
        """An HTTP(S) GET (optionally ranged) through an owned circuit."""
        yield from self._api._gate("stem.fetch")
        return (yield from self._firewall().fetch(
            self._api._thread, circuit_id, url, offset=offset, length=length,
            timeout=timeout))

    def fetch_begin(self, circuit_id: str, url: str,
                    offset: Optional[int] = None,
                    length: Optional[int] = None,
                    timeout: float = 600.0):
        """Start a fetch without blocking; join with :meth:`fetch_join`.

        This is how the multipath function overlaps transfers on several
        circuits from single-threaded function code.
        """
        yield from self._api._gate("stem.fetch")
        api = self._api
        firewall = self._firewall()
        sim = api._instance.server.sim

        def _worker(task):
            api._bind(task, None)
            try:
                return (yield from firewall.fetch(
                    task, circuit_id, url, offset=offset, length=length,
                    timeout=timeout))
            finally:
                api._unbind(task)

        return sim.spawn(_worker, name=f"fetch:{api._instance.instance_id}")

    def fetch_join(self, handle, timeout: float = 600.0) -> dict:
        """Wait for a :meth:`fetch_begin` transfer and return its result."""
        yield from self._api._gate("stem.fetch")
        return (yield Join(handle, timeout))


class FunctionApi:
    """The capability object injected into every function's namespace."""

    def __init__(self, instance) -> None:
        self._instance = instance
        # Per-actor state: which client each of this function's tasks is
        # answering, populated by _bind and cleared by _unbind.
        self._task_peer: dict[SimTask, Any] = {}
        self._inbox: list[tuple[bytes, Any]] = []
        self._recv_waiter: Optional[Future] = None
        self._undelivered: list[bytes] = []
        self._killed = False
        self._kill_reason = ""
        self.call_log: list[str] = []
        self.storage = StorageApi(self)
        self.stem = StemApi(self)
        self._remote_sessions: dict[str, Any] = {}
        self._remote_ids = 0

    # -- runtime plumbing (not callable by functions through the namespace,
    #    but Python has no private: "we are all responsible users") ----------

    @property
    def _thread(self) -> Optional[Actor]:
        return self._instance.server.sim._current_task

    @property
    def _current_peer(self):
        return self._task_peer.get(self._thread)

    @_current_peer.setter
    def _current_peer(self, peer) -> None:
        self._task_peer[self._thread] = peer

    def _bind(self, actor: Actor, peer) -> None:
        self._task_peer[actor] = peer

    def _unbind(self, actor: Actor) -> None:
        """Release a task's context entry (the dict must not grow with
        every hidden-service stream and background fetch ever served)."""
        self._task_peer.pop(actor, None)

    def _push_message(self, payload: bytes, peer) -> None:
        self._inbox.append((payload, peer))
        if self._instance.draining:
            # Quiesce: queue the message but leave recv() parked so the
            # function's state stays frozen for the checkpoint.  Queued
            # messages ship with (or chase) the checkpoint to the new box.
            return
        if self._recv_waiter is not None and not self._recv_waiter.done:
            self._recv_waiter.resolve(None)

    def _kill(self, reason: str) -> None:
        self._killed = True
        self._kill_reason = reason
        if self._recv_waiter is not None and not self._recv_waiter.done:
            self._recv_waiter.reject(FunctionKilled(reason))

    def _gate(self, call_name: str):
        """The enforcement choke point every API call passes through."""
        if self._killed:
            raise FunctionKilled(self._kill_reason or "function terminated")
        instance = self._instance
        self.call_log.append(call_name)
        if call_name not in instance.manifest.api_calls:
            instance.kill(f"api call {call_name!r} not in manifest")
            raise FunctionKilled(f"api call {call_name!r} not in manifest")
        try:
            instance.container.seccomp.check_all(
                API_SYSCALLS[call_name], context=call_name)
        except SeccompViolation as exc:
            instance.kill(str(exc))
            raise FunctionKilled(str(exc)) from exc
        if instance.conclave is not None:
            cost = instance.conclave.invoke_cost()
            if cost > 0:
                yield Sleep(cost)
        plane = instance.server.qos
        if plane is not None:
            # Meter this call against the instance's weighted-fair cpu
            # share; the plane sleeps out any pacing delay right here, at
            # the gate — never on the per-byte transfer path.
            yield from plane.charge_cpu(self._thread, instance,
                                        _QOS_CALL_COST_MS)

    def _charge_network(self, nbytes: int):
        """Byte-account one transfer: cgroup charge plus fair-share pacing."""
        instance = self._instance
        instance.container.charge_network(nbytes)
        plane = instance.server.qos
        if plane is not None:
            yield from plane.charge_net(self._thread, instance, nbytes)

    # -- talking to the client ----------------------------------------------

    def send(self, payload: bytes) -> None:
        """Deliver bytes to the client who sent the message being handled."""
        yield from self._gate("send")
        from repro.core import messages  # late import avoids a cycle

        peer = self._current_peer
        if peer is None:
            raise ApiError("no client attached to send to")
        yield from self._charge_network(len(payload))
        frame = messages.encode_message(
            messages.OUTPUT, payload=bytes(payload))
        try:
            peer.send_frame(frame)
        except Exception:
            # Client went away; outputs are best-effort — but keep a
            # bounded tail so a graceful drain can flush them to the
            # owner's live connection instead of dropping them.
            self._undelivered.append(frame)
            del self._undelivered[:-64]

    def _flush_undelivered(self, peer) -> int:
        """Replay queued outputs to a (live) peer; returns how many landed."""
        flushed = 0
        while self._undelivered:
            frame = self._undelivered[0]
            try:
                peer.send_frame(frame)
            except Exception:
                break
            self._undelivered.pop(0)
            flushed += 1
        return flushed

    def recv(self, timeout: Optional[float] = None) -> bytes:
        """Block until the next client message arrives."""
        yield from self._gate("recv")
        while not self._inbox:
            self._recv_waiter = Future(self._instance.server.sim)
            yield Wait(self._recv_waiter, timeout)
            self._recv_waiter = None
        payload, peer = self._inbox.pop(0)
        self._current_peer = peer
        return payload

    def log(self, message: str) -> None:
        """Append to the function's log (visible to the function owner)."""
        yield from self._gate("log")
        self._instance.logs.append(f"[{self._instance.server.sim.now:.3f}] {message}")

    # -- time and randomness -----------------------------------------------------

    def sleep(self, duration: float) -> None:
        """Sleep in simulated time."""
        yield from self._gate("sleep")
        yield Sleep(duration)

    def time(self) -> float:
        """The current simulated time."""
        yield from self._gate("time")
        return self._instance.server.sim.now

    def random_bytes(self, n: int) -> bytes:
        """Cryptographically-styled random bytes (deterministic per run)."""
        yield from self._gate("random")
        return self._instance.rng.randbytes(n)

    # -- direct network access (the exit path) ---------------------------------------

    def http_get(self, url: str, timeout: float = 600.0) -> HttpResponse:
        """Fetch a URL directly from this Bento box (like ``requests.get``)."""
        yield from self._gate("http_get")
        instance = self._instance
        from repro.netsim.http import parse_url

        parsed = parse_url(url)
        address = instance.server.network.resolve(parsed.host)
        instance.container.iptables.check(address, parsed.port)
        response = yield from http_get(self._thread, instance.server.network,
                                       instance.server.node, url,
                                       timeout=timeout)
        yield from self._charge_network(len(response.body))
        return response

    def http_session(self, host: str, port: int = 443,
                     timeout: float = 60.0) -> "HttpSessionApi":
        """A keep-alive HTTP session to one origin (like requests.Session).

        One connection, many GETs — what a real web client does when
        crawling a page's subresources.
        """
        yield from self._gate("http_get")
        instance = self._instance
        address = instance.server.network.resolve(host)
        instance.container.iptables.check(address, port)
        conn = yield from instance.server.network.connect_blocking(
            self._thread, instance.server.node, address, port,
            handshake_rtts=2.0 if port == 443 else 1.0, timeout=timeout)
        from repro.netsim.bytestream import FramedStream

        framed = FramedStream(DirectByteStream(conn, instance.server.node))
        return HttpSessionApi(self, framed)

    def connect(self, host: str, port: int,
                timeout: float = 60.0) -> SandboxedStream:
        """Open a raw (direct) connection, subject to iptables rules."""
        yield from self._gate("connect")
        instance = self._instance
        address = instance.server.network.resolve(host)
        instance.container.iptables.check(address, port)
        conn = yield from instance.server.network.connect_blocking(
            self._thread, instance.server.node, address, port,
            timeout=timeout)
        return SandboxedStream(self, DirectByteStream(conn, instance.server.node))

    # -- composition: deploying functions on other Bento boxes (§3) --------------------

    def deploy(self, code: str, manifest_wire: dict,
               target_fingerprint: Optional[str] = None,
               exclude_fingerprints: Optional[list] = None,
               direct: bool = False,
               prefer_slack: bool = False,
               timeout: float = 240.0) -> str:
        """Install a function on *another* Bento box; returns a handle.

        This is the primitive behind Figure 2 (Browser deploying Dropbox).
        The connection to the remote box runs over a fresh Tor circuit by
        default; ``direct=True`` dials the box's Bento port straight over
        the network — no anonymity, but full bandwidth — for deployments
        onto infrastructure the function's owner already controls (the
        LoadBalancer pushing content to its own replicas, as the paper's
        EC2 deployment did).

        ``prefer_slack=True`` consults the directory's serving-plane load
        reports and places on the box advertising the most room, falling
        back to the uniform random pick when no box has advertised yet
        (which also keeps the RNG stream — and thus fixed-seed replays —
        unchanged on networks without the plane).
        """
        yield from self._gate("deploy")
        from repro.core.client import BentoClient
        from repro.core.manifest import FunctionManifest

        instance = self._instance
        client = BentoClient(instance.server.tor_client, instance.server.ias,
                             rng=instance.rng.fork(f"deploy{self._remote_ids}"))
        boxes = client.discover_boxes()
        boxes = [b for b in boxes
                 if b.identity_fp != instance.server.relay.fingerprint]
        if target_fingerprint is not None:
            boxes = [b for b in boxes if b.identity_fp == target_fingerprint]
        elif exclude_fingerprints:
            spread = [b for b in boxes
                      if b.identity_fp not in exclude_fingerprints]
            if spread:        # prefer unused boxes, fall back if exhausted
                boxes = spread
        if not boxes:
            raise ApiError("no eligible Bento box to deploy to")
        if target_fingerprint:
            box = boxes[0]
        else:
            box = None
            if prefer_slack:
                load_table = instance.server.directory.load_table()
                if load_table:
                    from repro.qos.placement import pick_box_by_slack
                    box = pick_box_by_slack(boxes, load_table)
            if box is None:
                box = instance.rng.choice(boxes)
        manifest = FunctionManifest.from_wire(manifest_wire)
        sim = instance.server.sim
        log = _obs.log
        span = log.begin_span(
            "functions.deploy", sim.now,
            track=instance.server.relay.nickname,
            source=instance.instance_id, target=box.nickname,
            function=manifest.name, direct=direct) if log is not None else None
        try:
            if direct:
                session = yield from client.connect_direct(self._thread, box,
                                                           timeout=timeout)
            else:
                session = yield from client.connect(self._thread, box,
                                                    timeout=timeout)
            yield from session.request_image(self._thread, manifest.image,
                                             timeout=timeout)
            yield from session.load_function(self._thread, code, manifest,
                                             timeout=timeout)
        except BaseException as exc:
            if span is not None:
                span.end(sim.now, ok=False, error=type(exc).__name__)
            raise
        self._remote_ids += 1
        handle = f"remote-{self._remote_ids}"
        self._remote_sessions[handle] = session
        if span is not None:
            span.end(sim.now, ok=True, handle=handle)
        return handle

    def _session(self, handle: str):
        try:
            return self._remote_sessions[handle]
        except KeyError:
            raise ApiError(f"unknown remote handle: {handle}") from None

    def remote_invoke(self, handle: str, args: list,
                      timeout: float = 600.0) -> Any:
        """Invoke a deployed function and wait for its result."""
        yield from self._gate("remote_invoke")
        session = self._session(handle)
        return (yield from session.invoke(self._thread, args, timeout=timeout))

    def remote_invoke_nowait(self, handle: str, args: list) -> None:
        """Start a deployed function without waiting for it to finish
        (for long-running loops like Dropbox)."""
        yield from self._gate("remote_invoke")
        self._session(handle).invoke_nowait(args)

    def remote_send(self, handle: str, payload: bytes) -> None:
        """Send an in-band message to a deployed (running) function."""
        yield from self._gate("remote_send")
        self._session(handle).send_message(payload)

    def remote_recv(self, handle: str, timeout: float = 600.0) -> bytes:
        """Receive the next output from a deployed function."""
        yield from self._gate("remote_recv")
        return (yield from self._session(handle).next_output(
            self._thread, timeout=timeout))

    def remote_info(self, handle: str) -> dict:
        """Where a deployed function lives and how to reach it.

        The invocation token is a shareable capability (§5.3), so a
        function can hand these out — Shard returns them so the owner can
        fetch pieces directly from each Dropbox later.
        """
        yield from self._gate("deploy")
        session = self._session(handle)
        return {
            "box_fp": session.box.identity_fp if session.box else "",
            "box_nickname": session.box.nickname if session.box else "",
            "invocation": session.invocation_token,
        }

    def remote_shutdown(self, handle: str, timeout: float = 120.0) -> None:
        """Shut a deployed function down (we hold its shutdown token)."""
        yield from self._gate("remote_shutdown")
        session = self._remote_sessions.pop(handle, None)
        if session is not None:
            yield from session.shutdown(self._thread, timeout=timeout)

    # -- introspection for the function itself ------------------------------------

    @property
    def invocation_token(self) -> str:
        """This function's own invocation token (shareable capability)."""
        return self._instance.tokens.invocation

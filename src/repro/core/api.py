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

A failure a function may survive reaches it as ``api.Error`` or one of
its members, ``api.Timeout``, ``api.PeerGone`` and ``api.NotFound``.

Every gated API method is a generator function: function code delegates
to it with ``yield from api.recv()``.  Sandboxed code passes no actor
argument, so the api resolves the executing actor itself — it is the
simulator's current :class:`SimTask`.
"""

from __future__ import annotations

import functools
import inspect
from typing import TYPE_CHECKING, Any, Optional

from repro.core.apispec import API_SYSCALLS
from repro.core.errors import BentoError
from repro.netsim.bytestream import DirectByteStream, FramedStream
from repro.netsim.connection import ConnectionClosed
from repro.netsim.network import NetworkError
from repro.netsim.simulator import (
    Actor,
    Future,
    Sleep,
    SimTask,
    SimTimeoutError,
    Wait,
)
from repro.obs.span import TRACER as _obs
from repro.sandbox.seccomp import SeccompViolation
from repro.stemlib.firewall import StemFirewall
from repro.tor.circuit import CircuitDestroyed
from repro.tor.client import TorError
from repro.util.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.http import HttpResponse


class ApiError(BentoError):
    """Misuse of the function API (bad arguments, unknown handle, ...)."""


class FunctionKilled(ReproError):
    """The sandbox or the owner terminated this function."""


class Error(BentoError):
    """``api.Error``: a failure a function may catch, by one of its names."""


class Timeout(Error):
    """``api.Timeout``: a wait ran out."""


class PeerGone(Error):
    """``api.PeerGone``: the connection, circuit, stream or box is gone."""


class NotFound(Error):
    """``api.NotFound``: no such remote handle, or no box to deploy to."""


#: Internal class -> the name a function catches it by.  Anything else
#: (``FunctionKilled`` above all) passes through unchanged.
_VOCABULARY = {SimTimeoutError: Timeout, NetworkError: PeerGone,
               ConnectionClosed: PeerGone, CircuitDestroyed: PeerGone,
               TorError: PeerGone}


def speaks_vocabulary(cls):
    """Re-raise what each public generator routine of ``cls`` raises under
    its vocabulary name, the internal error as its cause (in place)."""
    def renamed(routine):
        @functools.wraps(routine)
        def call(*args, **kwargs):
            try:
                return (yield from routine(*args, **kwargs))
            except tuple(_VOCABULARY) as exc:
                raise next(_VOCABULARY[kind] for kind in type(exc).__mro__
                           if kind in _VOCABULARY)(str(exc)) from exc
        return call

    for name, routine in list(vars(cls).items()):
        if not name.startswith("_") and inspect.isgeneratorfunction(routine):
            setattr(cls, name, renamed(routine))
    return cls


@speaks_vocabulary
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
        self._api._charge_network(len(data))
        self._stream.send(data)

    def recv(self, timeout: Optional[float] = None) -> bytes:
        """Block until the next chunk arrives; b'' at EOF."""
        yield from self._api._gate(self._gate_name)
        data = yield from self._stream.recv(self._api._thread, timeout=timeout)
        self._api._charge_network(len(data))
        return data

    def close(self) -> None:
        """Close the stream/connection."""
        self._stream.close()


@speaks_vocabulary
class HttpSessionApi:
    """``api.http_session(...)``: keep-alive GETs over one connection."""

    def __init__(self, api: "FunctionApi", framed) -> None:
        self._api = api
        self._framed = framed

    def get(self, path: str, timeout: float = 600.0) -> HttpResponse:
        """One GET on the persistent connection."""
        # Imported on use: most processes never speak HTTP.
        from repro.netsim.http import fetch

        yield from self._api._gate("http_get")
        response = yield from fetch(self._api._thread, self._framed, path,
                                    timeout=timeout)
        self._api._charge_network(len(response.body))
        return response

    def close(self) -> None:
        """Close the stream/connection."""
        self._framed.close()


@speaks_vocabulary
class StorageApi:
    """``api.storage``: the chrooted (and, in a conclave, encrypted) store."""

    def __init__(self, api: "FunctionApi") -> None:
        self._api = api

    def put(self, path: str, data: bytes) -> None:
        """Write a file (charged against the disk quota)."""
        yield from self._api._gate("storage.put")
        self._api._instance.fs.write_file(path, bytes(data))

    def get(self, path: str) -> bytes:
        """Read a file."""
        yield from self._api._gate("storage.get")
        return self._api._instance.fs.read_file(path)

    def list(self, path: str = "/") -> list[str]:
        """All file paths under ``path``."""
        yield from self._api._gate("storage.list")
        return self._api._instance.fs.walk_files(path)

    def delete(self, path: str) -> None:
        """Remove a file (releases quota)."""
        yield from self._api._gate("storage.delete")
        self._api._instance.fs.delete(path)

    def exists(self, path: str) -> bool:
        """Does a file exist?  (Gated as a read.)"""
        yield from self._api._gate("storage.get")
        return self._api._instance.fs.exists(path)


@speaks_vocabulary
class FunctionApi:
    """The capability object injected into every function's namespace."""

    # The error vocabulary, as function code names it: ``api.Timeout``.
    Error, Timeout, PeerGone, NotFound = Error, Timeout, PeerGone, NotFound

    def __init__(self, instance) -> None:
        self._instance = instance
        # Per-actor state: the route (client transport and request id) each
        # task answers, set by _bind and recv() and cleared by _unbind.
        self._task_route: dict[SimTask, Any] = {}
        self._inbox: list[tuple[bytes, Any]] = []
        self._recv_waiter: Optional[Future] = None
        self._undelivered: list[list] = []   # message pieces
        self._killed = False
        self._kill_reason = ""
        self.storage = StorageApi(self)
        self.stem = StemFirewall(self)
        self._remote_sessions: dict[str, Any] = {}
        self._remote_ids = 0

    # -- runtime plumbing (not callable by functions through the namespace,
    #    but Python has no private: "we are all responsible users") ----------

    @property
    def _thread(self) -> Optional[Actor]:
        return self._instance.server.sim._current_task

    def _bind(self, actor: Actor, route) -> None:
        self._task_route[actor] = route

    def _unbind(self, actor: Actor) -> None:
        """Release a task's context entry (the dict must not grow with
        every hidden-service stream and background fetch ever served)."""
        self._task_route.pop(actor, None)

    def _push_message(self, payload: bytes, route) -> None:
        self._inbox.append((payload, route))
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

    def _alive(self) -> None:
        """A killed function (its container terminated) is told so."""
        if self._killed:
            raise FunctionKilled(self._kill_reason or "function terminated")

    def _gate(self, call_name: str):
        """The enforcement choke point every API call passes through."""
        self._alive()
        instance = self._instance
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

    def _charge_network(self, nbytes: int) -> None:
        """Byte-account one transfer against the container's cgroup."""
        self._alive()    # a transfer that outlived its box crash
        self._instance.container.charge_network(nbytes)

    # -- talking to the client ----------------------------------------------

    def send(self, payload: bytes) -> None:
        """Answer the client message being handled with ``payload``."""
        yield from self._gate("send")
        from repro.core import messages  # late import avoids a cycle

        route = self._task_route.get(self._thread)
        if route is None:
            raise ApiError("no client attached to send to")
        self._charge_network(len(payload))
        frame = messages.message_pieces(
            messages.Output, rid=route.rid, payload=bytes(payload))
        try:
            route.framed.send_frame(*frame)
        except (ConnectionClosed, CircuitDestroyed):
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
                peer.send_frame(*frame)
            except (ConnectionClosed, CircuitDestroyed):
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
        payload, self._task_route[self._thread] = self._inbox.pop(0)
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
        # Imported on use: most processes never speak HTTP.
        from repro.netsim.http import http_get, parse_url

        yield from self._gate("http_get")
        instance = self._instance
        parsed = parse_url(url)
        address = instance.server.network.resolve(parsed.host)
        instance.container.iptables.check(address, parsed.port)
        response = yield from http_get(self._thread, instance.server.network,
                                       instance.server.node, url,
                                       timeout=timeout)
        self._charge_network(len(response.body))
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
            raise NotFound("no eligible Bento box to deploy to")
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
        with _obs.span("functions.deploy", sim,
                       track=instance.server.relay.nickname,
                       source=instance.instance_id, target=box.nickname,
                       function=manifest.name, direct=direct) as span:
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
            self._remote_ids += 1
            handle = f"remote-{self._remote_ids}"
            self._remote_sessions[handle] = session
            span.annotate(handle=handle)
        return handle

    def _session(self, handle: str):
        try:
            return self._remote_sessions[handle]
        except KeyError:
            raise NotFound(f"unknown remote handle: {handle}") from None

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


speaks_vocabulary(StemFirewall)     # api.stem: it cannot import this module

"""The Bento server (§5.2).

Runs beside an unmodified Tor relay as a separate service on its own port.
Spawns one container per client function, mediates every resource the
function touches, issues invocation/shutdown tokens, and (for the SGX
image) hosts the function inside a conclave with stapled remote
attestation.

Clients reach the server through Tor: a circuit whose final hop is the
companion relay, then a stream to the relay's own address on the Bento
port (the "localhost" exception), or — via
:meth:`BentoServer.serve_via_hidden_service` — as a hidden service.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from repro.core import messages
from repro.core.api import FunctionApi
from repro.core.errors import (
    BentoError,
    FunctionCrashed,
    FunctionMoved,
    ImageUnavailable,
    ManifestRejected,
    TokenInvalid,
)
from repro.core.messages import Route
from repro.core.images import ContainerImage, image_by_name
from repro.core.loader import FunctionRuntime, LoaderError
from repro.core.manifest import FunctionManifest
from repro.core.policy import MiddleboxNodePolicy
from repro.core.tokens import TokenIssuer, TokenPair
from repro.enclave.attestation import IntelAttestationService
from repro.enclave.conclave import Conclave
from repro.enclave.sgx import EnclaveHost
from repro.netsim.bytestream import DirectByteStream, FramedStream
from repro.netsim.connection import Connection, ConnectionClosed
from repro.netsim.simulator import Actor, SimTimeoutError, Sleep
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import TRACER as _obs
from repro.sandbox.cgroups import CGroup, ResourceExceeded
from repro.sandbox.container import Container
from repro.sandbox.iptables import IptablesRuleset
from repro.sandbox.memfs import MemFS
from repro.sandbox.seccomp import SeccompPolicy
from repro.tor.client import TorClient
from repro.tor.descriptor import BENTO_PORT
from repro.tor.directory import DirectoryAuthority
from repro.tor.hidden_service import HiddenService
from repro.tor.relay import Relay
from repro.util.serialization import (UNENCODABLE, canonical_decode,
                                      canonical_encode)

if TYPE_CHECKING:
    from repro.migrate import Checkpoint
    from repro.qos import QosConfig

# Cached registry handle (the registry resets values in place).
_ORPHANS_REAPED = _metrics.counter("perf_orphans_reaped")
# bento_requests handles by frame class, filled on first dispatch of each
# type — the per-frame hot path skips the registry's label interning.
_REQ_COUNTERS: dict = {}


class FunctionInstance:
    """One loaded function: container + (optional) conclave + runtime."""

    def __init__(self, server: "BentoServer", image: ContainerImage,
                 container: Container, conclave: Optional[Conclave],
                 tokens: TokenPair) -> None:
        self.server = server
        # Numbered per server, not via a class-level counter: the id seeds
        # this instance's RNG fork, and a process-global counter would
        # make a second same-seed run draw different randomness.
        self.instance_id = f"fn-{next(server._instance_ids)}"
        self.image = image
        self.container = container
        self.conclave = conclave
        self.tokens = tokens
        self.manifest: Optional[FunctionManifest] = None
        self.runtime: Optional[FunctionRuntime] = None
        self.api = FunctionApi(self)
        self.rng = server.rng.fork(self.instance_id)
        self.logs: list[str] = []
        self.terminated = False
        # Set when the shutdown token is spent: the FunctionKilled that
        # ends a running invocation then goes unreported.
        self.shut_down_by_owner = False
        self.qos_key = None     # admission slot, set by the serving plane
        # Set by the migration plane while this instance quiesces: recv()
        # stays parked and the inbox accumulates until the drain resolves.
        self.draining = False
        # Client transports that have referenced this instance, and the
        # last time one did — the inputs to orphan reaping.  ``peers`` is
        # a set (membership checks); ``_peer_order`` remembers arrival
        # order so a drain flush can pick the newest live transport
        # deterministically.
        self.peers: set[FramedStream] = set()
        self._peer_order: list[FramedStream] = []
        self.last_activity: float = server.sim.now

    def note_peer(self, peer: FramedStream) -> None:
        """Record a client transport touching this instance."""
        if peer not in self.peers:
            self._peer_order.append(peer)
        self.peers.add(peer)
        self.last_activity = self.server.sim.now

    @property
    def orphaned(self) -> bool:
        """True when every client transport that ever touched this
        instance has died and no invocation is running."""
        if not self.peers:
            return False
        if any(not peer.closed for peer in self.peers):
            return False
        return self.runtime is None or not self.runtime.running

    @property
    def fs(self):
        """Where this instance's files live: the conclave's FS Protect
        store inside an enclave, else the container's chroot."""
        if self.conclave is not None:
            return self.conclave.fs
        return self.container.fs

    @property
    def checkpointable(self) -> bool:
        """Does the loaded function implement the checkpoint protocol?"""
        return self.runtime is not None and self.runtime.checkpointable

    # -- lifecycle -------------------------------------------------------

    def load(self, code: str, manifest: FunctionManifest) -> None:
        """Accept a function after the policy check has passed."""
        self.manifest = manifest
        self.container.charge_memory(manifest.memory_bytes)
        # Manifest ∩ policy: the policy check kept the ask under its cap.
        self.container.cgroup.limits["disk"] = manifest.disk_bytes
        if self.conclave is not None:
            self.conclave.enclave.grow(manifest.memory_bytes)
        self.runtime = FunctionRuntime(self, code, manifest)
        self.runtime.load()

    def restore(self, cp: "Checkpoint", route: Optional[Route],
                start: bool = False) -> None:
        """Apply a drained instance's checkpoint to this freshly loaded
        one: its files, state and queued messages (answered along
        ``route``).  ``start=True`` restarts the entry with its args."""
        from repro.migrate import MigrationError, NotCheckpointable

        if not self.checkpointable:
            raise NotCheckpointable(
                "loaded function does not export checkpoint()/restore(state)")
        if (cp.name, cp.entry) != (self.manifest.name, self.manifest.entry):
            raise MigrationError(
                f"checkpoint is for {cp.name!r}/{cp.entry!r}, "
                f"not {self.manifest.name!r}/{self.manifest.entry!r}")
        for path, data in cp.files.items():
            self.fs.write_file(path, bytes(data))
        self.runtime.restore_state(cp.state)
        self.runtime.last_args = list(cp.args)
        for payload in cp.inbox:
            self.api._push_message(payload, route)
        if start and not self.runtime.running:
            self.runtime.start(list(cp.args), route)

    def invoke(self, args: list, route: Route) -> None:
        """Start the entry function for one invocation."""
        if self.terminated:
            raise TokenInvalid("function already shut down")
        if self.runtime is None:
            raise BentoError("no function loaded")
        if self.runtime.running:
            # A second invoke while running becomes an in-band message.
            self.api._push_message(canonical_encode({"args": args}), route)
            return
        self.runtime.start(args, route)

    def deliver(self, payload: bytes, route: Route) -> None:
        """Route an in-band client message to the function's inbox."""
        if self.terminated:
            raise TokenInvalid("function already shut down")
        self.api._push_message(payload, route)

    def on_done(self, result, route: Route) -> None:
        """The entry function returned; report its result to the client."""
        try:
            canonical_encode(result)
        except UNENCODABLE:
            try:
                result = repr(result)
            except UNENCODABLE:  # repr refuses a huge int, deep nesting too
                result = f"<unprintable {type(result).__name__}>"
        self._safe_send(route, messages.Done, result=result)

    def on_error(self, error: FunctionCrashed, route: Route) -> None:
        """The entry function crashed; report it to the client."""
        self._safe_send(route, messages.Error, **messages.error_fields(error))

    def _safe_send(self, route: Route, kind, **fields) -> None:
        try:
            route.send(kind, **fields)
        except ConnectionClosed:
            pass  # the client has gone; fate-sharing is explicit in §5.3

    def kill(self, reason: str, graceful: bool = True) -> None:
        """Terminate (sandbox violation, resource overrun, or shutdown).

        ``graceful=False`` models a host crash: only local state is torn
        down.  A dead box cannot send DESTROY cells or withdraw directory
        entries — its circuits die with its connections, and any
        descriptor it published stays up until it expires or is
        republished (clients must survive the stale entry).
        """
        if self.terminated:
            return
        self.terminated = True
        if graceful and self.api._undelivered:
            # Drain flush: outputs that missed a dead transport get one
            # last chance on the newest live client connection before the
            # function is torn down.
            peer = next((p for p in reversed(self._peer_order)
                         if not p.closed), None)
            if peer is not None:
                self.api._flush_undelivered(peer)
        _obs.event("core.instance_kill", self.server.sim.now,
                   track=self.server.relay.nickname,
                   instance=self.instance_id, reason=reason,
                   graceful=graceful)
        self.api._kill(reason)
        if graceful:
            self.api.stem.release_all()
        if self.conclave is not None:
            self.conclave.terminate()
        self.container.kill(reason)
        self.server._forget(self)

    @property
    def memory_footprint(self) -> int:
        """Total memory charged for this function (§7.3's metric)."""
        return self.container.memory_used


class BentoServer:
    """The middlebox service co-resident with a Tor relay."""

    def __init__(self, relay: Relay, directory: DirectoryAuthority,
                 policy: Optional[MiddleboxNodePolicy] = None,
                 ias: Optional[IntelAttestationService] = None,
                 enclave_host: Optional[EnclaveHost] = None,
                 port: int = BENTO_PORT,
                 orphan_grace_s: Optional[float] = None,
                 qos: Optional[QosConfig] = None,
                 migrate: bool = False) -> None:
        self.relay = relay
        self.node = relay.node
        self.sim = relay.sim
        self.network = relay.network
        self.directory = directory
        self.port = port
        self.policy = policy or MiddleboxNodePolicy.open_policy()
        self.ias = ias
        self.rng = self.sim.rng.fork(f"bento:{relay.nickname}")
        if ias is not None and enclave_host is None:
            enclave_host = EnclaveHost(self.sim, ias,
                                       rng=self.rng.fork("sgx-host"))
        self.enclave_host = enclave_host
        self.host_fs = MemFS()
        self.root_cgroup = CGroup(
            f"bento:{relay.nickname}",
            memory=self.policy.max_total_memory,
            disk=self.policy.max_total_disk)
        self.tor_client = TorClient(self.network, self.node, directory)
        self._tokens = TokenIssuer(seed=f"{relay.nickname}:{relay.fingerprint}")
        self._by_invocation: dict[str, FunctionInstance] = {}
        self._by_shutdown: dict[str, FunctionInstance] = {}
        self._container_ids = itertools.count(1)
        self._instance_ids = itertools.count(1)
        self.onion_address: Optional[str] = None
        # Orphan reaping is opt-in: with a grace period set, instances
        # whose every client transport has died (and which are not mid-
        # invocation) are killed that many seconds after the last peer
        # drops.  Default None preserves pure §5.3 box fate-sharing.
        self.orphan_grace_s = orphan_grace_s
        # The serving plane is opt-in: pass a QosConfig to enable
        # admission control, load shedding, and slack advertisement.  With
        # qos=None (the default) no plane code runs at all, so existing
        # fixed-seed runs replay bit-identically.  Imported lazily —
        # repro.qos pulls in repro.core submodules, and a top-level
        # import here would cycle through the package __init__.
        self.qos = None
        if qos is not None:
            from repro.qos import ServingPlane
            self.qos = ServingPlane(self, qos)
        # The migration plane is equally opt-in (and equally lazily
        # imported): migrate=True enables drain-then-migrate.  The default
        # keeps fixed-seed runs bit-identical.
        self.migrate = None
        if migrate:
            from repro.migrate import MigrationPlane
            self.migrate = MigrationPlane(self)
        # Tokens of instances that drained away, mapped to the destination
        # box fingerprint — requests against them get a structured "moved"
        # answer instead of "unknown token".
        self._moved: dict[str, str] = {}
        self._reaper_armed = False
        # Host death kills every hosted function with it (fate-sharing
        # with the box); a restart comes back empty.
        self.node.add_crash_listener(self._on_node_crash)

        # Advertise: the relay's descriptor carries the Bento port (§5.5's
        # "disseminated as part of the Tor directory").
        if relay.bento_port != port:
            relay.bento_port = port
            relay.register_with(directory)
        self.node.listen(port, self._accept)

    # -- transport ---------------------------------------------------------

    def _accept(self, conn: Connection) -> None:
        framed = messages.framed(DirectByteStream(conn, self.node))
        self.sim.spawn(self._serve, framed, name=f"bento:{self.relay.nickname}")

    def serve_via_hidden_service(self, thread: Actor,
                                 n_intro: int = 3) -> str:
        """Also expose this server as a hidden service; returns the onion
        address (the paper's alternative access path, §5)."""
        def _handler(stream, _host, _port) -> None:
            framed = messages.framed(stream)
            self.sim.spawn(self._serve, framed,
                           name=f"bento-hs:{self.relay.nickname}")

        service = HiddenService(self.tor_client, _handler)
        yield from service.establish(thread, n_intro=n_intro)
        self.onion_address = str(service.onion_address)
        return self.onion_address

    def _serve(self, thread: Actor, framed: FramedStream):
        # A lifetime, not an operation: under _obs.span a session still open
        # at the end of a run would be ended failed whenever the garbage
        # collector closes its actor, before or after the trace is written.
        span = _obs.begin("core.session", self.sim.now,
                          track=self.relay.nickname, relay=self.relay.nickname)
        frames_served = 0
        while True:
            try:
                frame = yield from framed.recv_frame(thread, timeout=3600.0)
            except (SimTimeoutError, ValueError):  # idle; frame > MAX_FRAME
                break
            if frame is None:
                break
            frames_served += 1
            try:
                message = messages.decode_message(frame)
                reply = Route(framed, message.rid)
                yield from self._dispatch(thread, reply, message)
            except messages.FrameError as exc:  # the frame, or a dict in it
                Route(framed, exc.rid).send(messages.Error,
                                            reason="bad-message",
                                            detail=str(exc))
            except (BentoError, ResourceExceeded, LoaderError) as exc:
                # A refusal keeps its structure, e.g. ServerBusy.retry_after.
                reply.send(messages.Error, **messages.error_fields(exc))
            # Dispatched: let go before waiting up to an hour for the next.
            frame = message = None
        if span is not None:
            span.end(self.sim.now, frames=frames_served)
        if self.qos is not None:
            self.qos.session_ended(framed)
        # This client is gone; sweep for orphans once the grace expires.
        self._arm_reaper()

    def _arm_reaper(self) -> None:
        """Schedule one orphan sweep ``orphan_grace_s`` from now.

        Deduplicated: only one sweep is ever pending, and each sweep
        re-arms itself while instances remain — a long-running server
        keeps reaping instead of sweeping exactly once per dead client."""
        if self.orphan_grace_s is None or self._reaper_armed:
            return
        self._reaper_armed = True
        self.sim.schedule(self.orphan_grace_s, self._reaper_sweep)

    def _reaper_sweep(self) -> None:
        self._reaper_armed = False
        self.reap_orphans()
        if self._by_invocation and self.node.alive:
            self._arm_reaper()

    def _dispatch(self, thread: Actor, reply: Route, message: messages.Frame):
        kind = type(message)
        counter = _REQ_COUNTERS.get(kind)
        if counter is None:
            counter = _REQ_COUNTERS[kind] = _metrics.counter(
                "bento_requests", {"type": kind.TYPE})
        counter.value += 1
        handler = self._HANDLERS.get(kind)
        if handler is None:
            reply.send(messages.Error, reason="unexpected-type",
                       detail=kind.TYPE)
            return
        # request_image waits (a generator); the rest answer at once.
        step = handler(self, thread, reply, message)
        if step is not None:
            yield from step

    # -- handlers: (thread, reply, typed frame) -----------------------------------

    def _handle_policy_query(self, _thread, reply: Route, _message) -> None:
        reply.send(messages.Policy, policy=self.policy.to_wire())

    def _handle_invoke(self, _thread, reply: Route, message) -> None:
        instance = self._instance_for(message.token, reply.framed)
        _obs.event("core.invoke", self.sim.now, track=self.relay.nickname,
                   instance=instance.instance_id, n_args=len(message.args))
        instance.invoke(message.args, reply)

    def _handle_msg(self, _thread, reply: Route, message) -> None:
        self._instance_for(message.token, reply.framed).deliver(
            message.payload, reply)

    def _handle_attach(self, _thread, reply: Route, message) -> None:
        instance = self._instance_for(message.token, reply.framed)
        _obs.event("core.attach", self.sim.now, track=self.relay.nickname,
                   instance=instance.instance_id)
        reply.send(messages.Loaded)

    def _handle_request_image(self, thread: Actor, reply: Route,
                              message: messages.RequestImage):
        with _obs.span("core.request_image", self.sim,
                       track=self.relay.nickname, image=message.image) as span:
            image = image_by_name(message.image)
            if image.name not in self.policy.images:
                raise ImageUnavailable(f"operator does not offer {image.name}")
            qos_key = None
            if self.qos is not None:
                # The serving plane replaces the blunt container-limit
                # error: it queues, or refuses with a structured
                # retry_after (and may demand a puzzle under shed pressure).
                qos_key = yield from self.qos.admit_request(
                    thread, reply.framed, message)
            elif len(self._by_invocation) >= self.policy.max_containers:
                raise BentoError("container limit reached")
            try:
                yield from self._start_instance(thread, reply, image,
                                                qos_key, span)
            except BaseException:
                # Give the slot back unless a registered instance already
                # owns it (setup got as far as registration and failed on
                # the reply; the instance's own teardown will release it).
                if qos_key is not None and not any(
                        inst.qos_key == qos_key
                        for inst in self._by_invocation.values()):
                    self.qos.release(qos_key)
                raise

    def _start_instance(self, thread: Actor, reply: Route,
                        image: ContainerImage, qos_key, span):
        container = Container(
            container_id=f"c{next(self._container_ids)}",
            host_fs=self.host_fs,
            parent_cgroup=self.root_cgroup,
            seccomp=SeccompPolicy(self.policy.syscalls),
            iptables=IptablesRuleset.from_exit_policy(
                self.relay.exit_policy, self.node.address,
                loopback_ports=(self.port,)),
            memory_limit=self.policy.max_function_memory + image.base_memory,
            disk_limit=self.policy.max_function_disk,
        )
        container.start(base_memory=image.base_memory)

        conclave = None
        reply_fields: dict = {}
        if image.uses_enclave:
            if self.enclave_host is None or self.ias is None:
                container.kill("no SGX support")
                raise ImageUnavailable("operator lacks SGX support")
            conclave = Conclave(self.enclave_host, image.enclave_image,
                                container.fs, self.rng.fork("conclave"),
                                heap_bytes=image.base_memory)
            enclave_pub = conclave.begin_channel()
            quote = conclave.quote_for_channel(enclave_pub)
            # Staple the IAS report, like OCSP stapling (§5.4): one WAN
            # round trip to Intel, paid by the server, not the client.
            yield Sleep(2.0 * self.ias.latency_s)
            report = self.ias.verify_quote(quote, now=self.sim.now)
            reply_fields.update({
                "quote": quote.to_wire(),
                "report": report.to_wire(),
                "enclave_pub": enclave_pub,
                "measurement": conclave.measurement,
            })

        tokens = self._tokens.issue()
        instance = FunctionInstance(self, image, container, conclave, tokens)
        instance.note_peer(reply.framed)
        instance.qos_key = qos_key
        self._by_invocation[tokens.invocation] = instance
        self._by_shutdown[tokens.shutdown] = instance
        span.end(self.sim.now, ok=True, instance=instance.instance_id,
                 enclave=image.uses_enclave)
        reply.send(messages.ImageReady, container_id=instance.instance_id,
                   invocation=tokens.invocation, shutdown=tokens.shutdown,
                   image=image.name, **reply_fields)

    def _handle_load(self, _thread, reply: Route,
                     message: messages.LoadFunction) -> None:
        with _obs.span("core.load_function", self.sim,
                       track=self.relay.nickname) as span:
            instance = self._instance_for(message.token, reply.framed)
            try:
                manifest = FunctionManifest.from_wire(message.manifest)
            except (TypeError, ValueError) as exc:
                raise messages.FrameError(
                    f"bad load_function manifest: {exc}", message.rid) from None
            reason = self.policy.rejection_reason(manifest)
            if reason is None and manifest.image != instance.image.name:
                reason = (f"manifest image {manifest.image!r} does not match "
                          f"container image {instance.image.name!r}")
            if reason is not None:
                _metrics.counter("manifests_rejected").value += 1
                _obs.event("core.manifest_rejected", self.sim.now,
                           track=self.relay.nickname, reason=reason)
                raise ManifestRejected(reason)
            if self.qos is not None:
                # Price the declared ask against the capacity ledger before
                # any real resources are committed.
                self.qos.price_manifest(instance, manifest)

            if message.sealed_code:
                if instance.conclave is None:
                    raise BentoError("sealed upload requires the enclave image")
                channel = instance.conclave.complete_channel(message.client_pub)
                code = channel.open(message.sealed_code).decode("utf-8")
            else:
                code = message.code

            instance.load(code, manifest)
            for path, data in (message.data or {}).items():
                # Initial data files ride along with the upload (§5.4: "the
                # Bento client then uploads the function, and any associated
                # data to copy to FS Protect").
                instance.fs.write_file(path, data)
            span.end(self.sim.now, ok=True, instance=instance.instance_id,
                     name=manifest.name)
            reply.send(messages.Loaded)

    def _handle_shutdown(self, _thread, reply: Route, message) -> None:
        instance = self._instance_for(message.token, reply.framed,
                                      shutdown=True)
        instance.shut_down_by_owner = True
        instance.kill("shutdown by owner")
        reply.send(messages.ShutdownOk)

    def _handle_restore(self, _thread, reply: Route, message) -> None:
        """Apply a checkpoint to a freshly loaded instance.

        Sent by the migration plane right after ``load_function`` on the
        destination box.  May also adopt the source instance's token pair
        so existing capability holders keep working after the move."""
        from repro.migrate import Checkpoint

        instance = self._instance_for(message.token, reply.framed)
        wire = message.checkpoint
        if message.sealed_checkpoint:
            if instance.conclave is None or instance.conclave.channel is None:
                raise BentoError(
                    "sealed restore requires an attested enclave channel")
            wire = canonical_decode(
                instance.conclave.channel.open(message.sealed_checkpoint))
        instance.restore(Checkpoint.from_wire(wire), reply,
                         start=message.start)
        if message.adopt_invocation or message.adopt_shutdown:
            self._adopt_tokens(instance, message.adopt_invocation,
                               message.adopt_shutdown)
        reply.send(messages.Restored, invocation=instance.tokens.invocation,
                   shutdown=instance.tokens.shutdown)

    def _adopt_tokens(self, instance: FunctionInstance, invocation: str,
                      shutdown: str) -> None:
        """Re-key an instance under tokens minted by another box.

        Existing holders of the source instance's capabilities (sessions,
        shared invocation tokens) keep working against the destination
        without redistribution.  Refuses tokens already registered here —
        adoption must never hijack a live instance."""
        for token in (invocation, shutdown):
            if token in self._by_invocation or token in self._by_shutdown:
                raise TokenInvalid("adopted token collides with a live one")
        self._by_invocation.pop(instance.tokens.invocation, None)
        self._by_shutdown.pop(instance.tokens.shutdown, None)
        instance.tokens = TokenPair(
            invocation=invocation or instance.tokens.invocation,
            shutdown=shutdown or instance.tokens.shutdown)
        self._by_invocation[instance.tokens.invocation] = instance
        self._by_shutdown[instance.tokens.shutdown] = instance

    # -- registry -----------------------------------------------------------------

    def _instance_for(self, token: str, peer: FramedStream,
                      shutdown: bool = False) -> FunctionInstance:
        """The live instance ``token`` names (an invocation token, or with
        ``shutdown`` the owner's shutdown token), now touched by ``peer``.
        A token whose instance migrated away raises :class:`FunctionMoved`
        naming the new box."""
        table = self._by_shutdown if shutdown else self._by_invocation
        instance = table.get(token)
        if instance is not None:
            instance.note_peer(peer)
            return instance
        moved_to = self._moved.get(token)
        if moved_to is not None:
            raise FunctionMoved("function migrated to another box",
                                box_fp=moved_to)
        kind = "shutdown" if shutdown else "invocation"
        raise TokenInvalid(f"unknown {kind} token")

    def _forget(self, instance: FunctionInstance) -> None:
        self._by_invocation.pop(instance.tokens.invocation, None)
        self._by_shutdown.pop(instance.tokens.shutdown, None)
        if self.qos is not None and instance.qos_key is not None:
            # Free the admission slot (waking the best queued waiter) and
            # return the priced reservation to the capacity ledger.
            self.qos.release(instance.qos_key)
            instance.qos_key = None

    # -- failure handling -------------------------------------------------------

    def reap_orphans(self, grace_s: Optional[float] = None) -> int:
        """Kill instances whose every client transport died (§5.3 allows a
        function to outlive its connection, but a box need not host
        abandoned ones forever).  ``grace_s`` defaults to the server's
        ``orphan_grace_s`` (or 0): instances touched more recently than
        that are spared.  Returns how many were reaped."""
        if grace_s is None:
            grace_s = self.orphan_grace_s or 0.0
        horizon = self.sim.now - grace_s
        reaped = 0
        for instance in list(self._by_invocation.values()):
            if instance.orphaned and instance.last_activity <= horizon:
                instance.kill("orphaned: all client connections died")
                reaped += 1
        _ORPHANS_REAPED.value += reaped
        return reaped

    def _on_node_crash(self, _node) -> None:
        """The host died: every hosted function dies with it.

        No graceful cleanup — a crashed box gets no dying gasp on the
        network."""
        for instance in list(self._by_invocation.values()):
            instance.kill("box crashed", graceful=False)
        self._moved.clear()
        if self.qos is not None:
            # A dead box cannot serve; stop advertising room it no longer
            # has (a stale report would just make it look busy anyway).
            self.directory.withdraw_load(self.relay.fingerprint)

    # -- introspection ----------------------------------------------------------------

    @property
    def active_function_count(self) -> int:
        """Live function instances on this server."""
        return len(self._by_invocation)

    _HANDLERS = {messages.PolicyQuery: _handle_policy_query,
                 messages.RequestImage: _handle_request_image,
                 messages.LoadFunction: _handle_load,
                 messages.Invoke: _handle_invoke,
                 messages.Msg: _handle_msg,
                 messages.Attach: _handle_attach,
                 messages.Shutdown: _handle_shutdown,
                 messages.Restore: _handle_restore}

"""The Bento client: discovery, attestation, upload, invocation.

The flow of Figure 1: find a willing Bento box in the Tor directory, build
a circuit terminating at it, verify the box's attestation (stapled or by
asking the IAS directly), upload the function over the attested channel,
invoke it, and — eventually — spend the shutdown token.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.core import messages
from repro.core.errors import (
    AttestationRejected,
    BentoError,
    FunctionMoved,
    PuzzleRequired,
    ServerBusy,
)
from repro.core.images import image_by_name, known_measurement
from repro.core.manifest import FunctionManifest
from repro.core.policy import MiddleboxNodePolicy
from repro.enclave.attestation import AttestationReport, Quote
from repro.enclave.conclave import Conclave, SecureChannel
from repro.enclave.attestation import IntelAttestationService
from repro.netsim.bytestream import FramedStream
from repro.netsim.connection import ConnectionClosed
from repro.netsim.network import NetworkError
from repro.netsim.simulator import Actor, Sleep, SimTimeoutError
from repro.obs.metrics import REGISTRY as _metrics
from repro.obs.span import TRACER as _obs
from repro.tor.circuit import Circuit, CircuitDestroyed
from repro.tor.client import TorClient, TorError
from repro.tor.descriptor import RelayDescriptor
from repro.util.errors import ProtocolError
from repro.util.rng import DeterministicRandom
from repro.util.serialization import canonical_decode, canonical_encode

#: Failures worth retrying: transport death, timeouts, circuit teardown,
#: refused dials, and server-reported errors.  ``ConnectionError`` covers
#: application-level helpers (e.g. LoadBalancer downloads) that surface
#: mid-transfer hangups as the builtin.
RETRYABLE_ERRORS = (BentoError, ConnectionClosed, SimTimeoutError,
                    CircuitDestroyed, TorError, NetworkError, ProtocolError,
                    ConnectionError)

# Cached registry handles (the registry resets values in place).
_HIT_CIRCUIT = _metrics.counter("cache_hits", {"layer": "circuit"})
_MISS_CIRCUIT = _metrics.counter("cache_misses", {"layer": "circuit"})


class BentoClient:
    """A user's handle for dealing with Bento boxes."""

    def __init__(self, tor_client: TorClient,
                 ias: Optional[IntelAttestationService] = None,
                 rng: Optional[DeterministicRandom] = None,
                 reuse_circuits: bool = False) -> None:
        self.tor = tor_client
        self.sim = tor_client.sim
        self.ias = ias
        self.rng = rng or tor_client.sim.rng.fork(
            f"bentoclient:{tor_client.node.name}")
        # Opt-in circuit pooling: keep one live circuit per box and open
        # new streams on it instead of paying a fresh three-hop build
        # (three ntor handshakes) per session.  Off by default — pooling
        # changes the event schedule, and fixed-seed reproductions of the
        # one-circuit-per-session flow must stay bit-identical.
        self.reuse_circuits = reuse_circuits
        self._circuit_pool: dict[str, Circuit] = {}

    # -- discovery ----------------------------------------------------------

    def discover_boxes(self) -> list[RelayDescriptor]:
        """Bento boxes advertised in the (verified) consensus."""
        return [router for router in self.tor.consensus().routers
                if router.bento_port is not None]

    def pick_box(self, exclude: tuple[str, ...] = ()) -> RelayDescriptor:
        """A uniformly random Bento box ("chooses one at random", §3)."""
        boxes = [b for b in self.discover_boxes()
                 if b.identity_fp not in exclude]
        if not boxes:
            raise BentoError("no Bento boxes in the consensus")
        return self.rng.choice(boxes)

    def pick_box_by_slack(self, exclude: tuple[str, ...] = ()) -> RelayDescriptor:
        """The box advertising the most serving-plane slack.

        Consults the directory's load-report side-table and picks
        greedily: non-shedding boxes first, then most free admission
        slots, then shortest queue.  Boxes that have never advertised
        rank first (nothing known against them).  Falls back to the
        uniform :meth:`pick_box` draw when *no* box has advertised — that
        path consumes the same RNG draw as before, so fixed-seed runs on
        plane-less networks replay bit-identically.
        """
        boxes = [b for b in self.discover_boxes()
                 if b.identity_fp not in exclude]
        if not boxes:
            raise BentoError("no Bento boxes in the consensus")
        load_table = self.tor.directory.load_table()
        if not load_table:
            return self.rng.choice(boxes)
        from repro.qos.placement import pick_box_by_slack

        return pick_box_by_slack(boxes, load_table)

    # -- connection -------------------------------------------------------------

    def connect(self, thread: Actor, box: RelayDescriptor,
                circuit: Optional[Circuit] = None,
                timeout: float = 240.0) -> "BentoSession":
        """Open a session over Tor: circuit ending at the box, stream to
        its Bento port via the localhost exception."""
        own_circuit = circuit is None
        if circuit is None and self.reuse_circuits:
            pooled = self._circuit_pool.get(box.identity_fp)
            if pooled is not None and not pooled.destroyed:
                _HIT_CIRCUIT.value += 1
                try:
                    stream = yield from pooled.open_stream(
                        thread, box.address, box.bento_port, timeout=timeout)
                except RETRYABLE_ERRORS:
                    # The pooled circuit died under us; evict and fall
                    # through to a fresh build.
                    self._circuit_pool.pop(box.identity_fp, None)
                else:
                    # Pooled circuits are owned by the pool, not the
                    # session: close() drops only the stream.
                    return BentoSession(self, messages.framed(stream),
                                        pooled, close_circuit=False, box=box)
            else:
                _MISS_CIRCUIT.value += 1
        if circuit is None:
            circuit = yield from self.tor.build_circuit(thread, final_hop=box,
                                                        timeout=timeout)
            if self.reuse_circuits:
                self._circuit_pool[box.identity_fp] = circuit
                own_circuit = False
        stream = yield from circuit.open_stream(thread, box.address,
                                                box.bento_port,
                                                timeout=timeout)
        return BentoSession(self, messages.framed(stream), circuit,
                            close_circuit=own_circuit, box=box)

    def connect_direct(self, thread: Actor, box: RelayDescriptor,
                       timeout: float = 120.0) -> "BentoSession":
        """A session over a *direct* connection (no Tor circuit).

        For operators managing their own infrastructure — e.g. a
        LoadBalancer pushing content to its replicas, the way the paper's
        deployment copied files between its own EC2 instances.  Offers no
        anonymity toward the box; never use it for someone else's box.
        """
        from repro.netsim.bytestream import DirectByteStream

        conn = yield from self.tor.network.connect_blocking(
            thread, self.tor.node, box.address, box.bento_port,
            timeout=timeout)
        framed = messages.framed(DirectByteStream(conn, self.tor.node))
        return BentoSession(self, framed, circuit=None, close_circuit=False,
                            box=box)

    def connect_via_onion(self, thread: Actor, onion_address: str,
                          timeout: float = 240.0) -> "BentoSession":
        """Reach a Bento server that runs as a hidden service."""
        circuit = yield from self.tor.connect_to_hidden_service(
            thread, onion_address, timeout=timeout)
        stream = yield from circuit.open_stream(thread, "", 0, timeout=timeout)
        return BentoSession(self, messages.framed(stream), circuit,
                            close_circuit=True, box=None)

    # -- retry ------------------------------------------------------------------

    def retrying(self, thread: Actor, op, *, attempts: int = 5,
                 backoff_s: float = 1.0, max_backoff_s: float = 30.0,
                 session: Optional["BentoSession"] = None):
        """Run ``op()`` with seeded exponential-backoff retry.

        Retries on :data:`RETRYABLE_ERRORS` with a backoff of
        ``backoff_s * 2**attempt`` jittered by this client's deterministic
        RNG.  A :class:`ServerBusy` refusal carrying a ``retry_after``
        hint overrides the exponential schedule: the box quoted exactly
        how long to stay away (scaled to its queue depth), so the client
        sleeps that instead.  If ``session`` is given, each retry first
        reconnects and reattaches it (see :meth:`BentoSession.reconnect`);
        a reconnect failure consumes the attempt and backs off again.
        """
        last: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt > 0:
                _metrics.counter("client_retries").value += 1
                _obs.event("core.retry", self.sim.now,
                           track=self.tor.node.name, attempt=attempt,
                           error=type(last).__name__ if last else "")
                if isinstance(last, ServerBusy) and last.retry_after > 0:
                    yield Sleep(last.retry_after)
                else:
                    delay = min(backoff_s * (2 ** (attempt - 1)), max_backoff_s)
                    yield Sleep(delay * (0.5 + self.rng.random()))
                if session is not None:
                    try:
                        if isinstance(last, FunctionMoved) and last.box_fp:
                            # The box told us where the function went:
                            # chase it instead of hammering the tombstone.
                            session.retarget(last.box_fp)
                        yield from session.reconnect(thread)
                    except RETRYABLE_ERRORS as exc:
                        last = exc
                        continue
            try:
                return (yield from op())
            except RETRYABLE_ERRORS as exc:
                last = exc
        raise BentoError(
            f"operation failed after {attempts} attempts: {last}") from last


class BentoSession:
    """One client's connection to one Bento box."""

    def __init__(self, client: BentoClient, framed: FramedStream,
                 circuit: Optional[Circuit], close_circuit: bool,
                 box: Optional[RelayDescriptor]) -> None:
        self.client = client
        self.framed = framed
        self.circuit = circuit
        self.box = box
        self._close_circuit = close_circuit
        self.invocation_token: Optional[str] = None
        self.shutdown_token: Optional[str] = None
        self.image_name: Optional[str] = None
        self.channel: Optional[SecureChannel] = None
        self._client_pub: Optional[bytes] = None
        self.report: Optional[AttestationReport] = None
        self._rid = 0                       # the latest request's id
        self._pending: list[messages.Frame] = []   # read before asked for
        self._abandoned: set[int] = set()   # requests a read gave up on

    # -- low-level framing ------------------------------------------------

    def _send(self, kind: type[messages.Frame], **fields: Any) -> int:
        """Number one request and send it; returns its ``rid``."""
        self._rid += 1
        self.framed.send_frame(*messages.message_pieces(kind, rid=self._rid,
                                                        **fields))
        return self._rid

    def await_message(self, thread: Actor, expect, timeout: float = 600.0,
                      rid: Optional[int] = None) -> messages.Frame:
        """Block until an ``expect`` frame (a class, or a tuple of them)
        answers request ``rid``, or without ``rid`` any request not given up.

        Other frames queue for later calls; an ERROR frame raises the
        :class:`BentoError` it carries.  A read for ``rid`` that times out
        gives that request up: its frames, queued or late, are dropped,
        never handed to a later caller."""
        for index, queued in enumerate(self._pending):
            if isinstance(queued, expect) and rid in (None, queued.rid):
                return self._pending.pop(index)
        while True:
            try:
                raw = yield from self.framed.recv_frame(thread, timeout=timeout)
            except SimTimeoutError:
                if rid is not None:
                    self._abandoned.add(rid)
                    self._pending = [f for f in self._pending if f.rid != rid]
                raise
            if raw is None:
                raise ConnectionClosed("Bento server closed the connection")
            message = messages.decode_message(raw)
            if message.rid in self._abandoned:
                continue
            if isinstance(message, expect) and rid in (None, message.rid):
                return message
            if isinstance(message, messages.Error):
                raise messages.error_from(message)
            self._pending.append(message)

    # -- protocol steps -----------------------------------------------------------

    def query_policy(self, thread: Actor,
                     timeout: float = 120.0) -> MiddleboxNodePolicy:
        """Fetch the box's middlebox node policy (§5.5)."""
        reply = yield from self.await_message(
            thread, messages.Policy, timeout, self._send(messages.PolicyQuery))
        return MiddleboxNodePolicy.from_wire(reply.policy)

    def request_image(self, thread: Actor, image: str = "python",
                      verify: str = "stapled",
                      timeout: float = 240.0,
                      priority: Optional[str] = None,
                      solve_puzzles: bool = True) -> None:
        """Provision a container; attest it if it is the enclave image.

        ``verify`` is ``"stapled"`` (trust the server-fetched IAS report),
        ``"ias"`` (submit the quote to the IAS ourselves — one more WAN
        round trip but uncorrelated with the later function upload), or
        ``"none"`` (explicitly skip verification).

        ``priority`` (``"interactive"``/``"bulk"``) rides along for the
        box's admission queue; the default None omits the field entirely,
        keeping pre-serving-plane wire bytes.  A box shedding load may
        answer with a proof-of-work demand; ``solve_puzzles`` makes this
        client solve it and resubmit (up to three rounds) instead of
        surfacing :class:`PuzzleRequired`.
        """
        fields: dict[str, Any] = {"image": image}
        if priority is not None:
            fields["priority"] = priority
        for puzzle_round in range(3):
            try:
                reply = yield from self.await_message(
                    thread, messages.ImageReady, timeout,
                    self._send(messages.RequestImage, **fields))
                break
            except PuzzleRequired as exc:
                if not solve_puzzles or puzzle_round == 2:
                    raise
                from repro.functions.ddos_defense import solve_pow

                fields["pow_challenge"] = exc.challenge
                fields["pow_nonce"] = solve_pow(exc.challenge, exc.difficulty)
        self.invocation_token = reply.invocation
        self.shutdown_token = reply.shutdown
        self.image_name = reply.image

        if image_by_name(image).uses_enclave:
            expected = known_measurement(image)
            if verify == "none":
                report = AttestationReport.from_wire(reply.report)
            elif verify == "stapled":
                report = AttestationReport.from_wire(reply.report)
                if self.client.ias is None:
                    raise AttestationRejected("no IAS key to verify against")
                if not report.verify(self.client.ias.public_key,
                                     expected_measurement=expected):
                    raise AttestationRejected("stapled report failed verification")
            elif verify == "ias":
                if self.client.ias is None:
                    raise AttestationRejected("no IAS to verify with")
                quote = Quote.from_wire(reply.quote)
                report = yield from self.client.ias.verify_quote_blocking(
                    thread, quote)
                if not report.verify(self.client.ias.public_key,
                                     expected_measurement=expected):
                    raise AttestationRejected("IAS report failed verification")
            else:
                raise ValueError(f"unknown verify mode: {verify}")
            self.report = report
            if verify != "none":
                self.channel, self._client_pub = Conclave.client_channel(
                    self.client.rng, report, self.client.ias.public_key,
                    expected)

    def load_function(self, thread: Actor, code: str,
                      manifest: FunctionManifest,
                      data: Optional[dict[str, bytes]] = None,
                      timeout: float = 240.0) -> None:
        """Upload the function (sealed end-to-end when attested)."""
        if self.invocation_token is None:
            raise BentoError("request_image must succeed before load_function")
        fields: dict[str, Any] = {
            "token": self.invocation_token,
            "manifest": manifest.to_wire(),
        }
        if self.channel is not None:
            fields["sealed_code"] = self.channel.seal(code.encode("utf-8"))
            fields["client_pub"] = self._client_pub
        else:
            fields["code"] = code
        if data:
            fields["data"] = dict(data)
        yield from self.await_message(
            thread, messages.Loaded, timeout,
            self._send(messages.LoadFunction, **fields))

    def attach(self, thread: Actor, invocation_token: str,
               timeout: float = 120.0) -> None:
        """Adopt a shared invocation token on a fresh session (§5.3:
        "a client [can] share the invocation token ... with other users")."""
        self.invocation_token = invocation_token
        yield from self.await_message(
            thread, messages.Loaded, timeout,
            self._send(messages.Attach, token=invocation_token))

    def invoke(self, thread: Actor, args: list,
               timeout: float = 600.0) -> Any:
        """Run the function and wait for its return value.

        Outputs the function emits before returning are queued and remain
        readable via :meth:`next_output`.
        """
        rid = self.invoke_nowait(args)
        return (yield from self.await_result(thread, timeout, rid))

    def invoke_nowait(self, args: Optional[list] = None) -> int:
        """Fire an invocation without waiting; returns its ``rid``."""
        return self._send(messages.Invoke, token=self.invocation_token,
                          args=list(args or []))

    def await_result(self, thread: Actor, timeout: float = 600.0,
                     rid: Optional[int] = None) -> Any:
        """The entry function's return value: the next DONE (for ``rid``)."""
        done = yield from self.await_message(thread, messages.Done, timeout,
                                             rid)
        return done.result

    def send_message(self, payload: bytes) -> int:
        """A message to the running function's api.recv(); returns its rid."""
        return self._send(messages.Msg, token=self.invocation_token,
                          payload=bytes(payload))

    def next_output(self, thread: Actor, timeout: float = 600.0,
                    rid: Optional[int] = None) -> bytes:
        """The function's next api.send() payload (answering ``rid``)."""
        reply = yield from self.await_message(thread, messages.Output,
                                              timeout, rid)
        return reply.payload

    def reconnect(self, thread: Actor, timeout: float = 240.0,
                  circuit_attempts: int = 3) -> None:
        """Re-establish the transport and reattach via the invocation token.

        The function instance on the box survives a dropped client
        connection (§5.3 fate-shares with the *box*), so after a circuit
        or link failure the session can come back: build a fresh circuit
        to the same box — avoiding relays implicated in recent failures —
        open a new stream, and ATTACH with the held invocation token.
        Direct (no-Tor) sessions simply redial the box.
        """
        if self.box is None:
            raise BentoError("cannot reconnect an onion session")
        if self.invocation_token is None:
            raise BentoError("no invocation token to reattach with")
        try:
            self.framed.close()
        except ConnectionClosed:
            pass  # a Tor stream's END had no live link to go out on
        if (self._close_circuit and self.circuit is not None
                and not self.circuit.destroyed):
            self.circuit.close()
        self._pending.clear()
        if self.circuit is None:
            # Direct session (connect_direct): redial the box.
            from repro.netsim.bytestream import DirectByteStream

            conn = yield from self.client.tor.network.connect_blocking(
                thread, self.client.tor.node, self.box.address,
                self.box.bento_port, timeout=timeout)
            self.framed = messages.framed(
                DirectByteStream(conn, self.client.tor.node))
        else:
            circuit = yield from self.client.tor.build_circuit_with_retry(
                thread, attempts=circuit_attempts, final_hop=self.box,
                timeout=timeout)
            stream = yield from circuit.open_stream(
                thread, self.box.address, self.box.bento_port,
                timeout=timeout)
            self.circuit = circuit
            self._close_circuit = True
            self.framed = messages.framed(stream)
        yield from self.attach(thread, self.invocation_token,
                               timeout=timeout)
        _metrics.counter("session_reconnects").value += 1
        _obs.event("core.session_reconnect", self.client.sim.now,
                   track=self.client.tor.node.name, box=self.box.nickname)

    def retarget(self, box_fp: str) -> None:
        """Repoint this session at another box (after a migration).

        The next :meth:`reconnect` dials the new box and reattaches with
        the held invocation token — which the destination adopted during
        the drain, so the capability keeps working unmodified.
        """
        for router in self.client.tor.consensus().routers:
            if (router.identity_fp == box_fp
                    and router.bento_port is not None):
                self.box = router
                self._pending.clear()
                _obs.event("core.session_retarget", self.client.sim.now,
                           track=self.client.tor.node.name,
                           box=router.nickname)
                return
        raise BentoError(f"moved-to box {box_fp} not in the consensus")

    def checkpoint_function(self, thread: Actor, seq: int = 0,
                            timeout: float = 240.0) -> dict:
        """Snapshot the function's migratable state (owner-only).

        Returns the checkpoint's wire dict.  On an attested session the
        server seals the reply under the secure channel, so the state
        never transits (or rests) in host-visible plaintext.
        """
        if self.shutdown_token is None:
            raise BentoError("no shutdown token held to checkpoint with")
        reply = yield from self.await_message(
            thread, messages.CheckpointData, timeout, self._send(
                messages.Checkpoint, token=self.shutdown_token, seq=int(seq)))
        if reply.sealed_checkpoint:
            if self.channel is None:
                raise BentoError("sealed checkpoint on an unattested session")
            return canonical_decode(self.channel.open(reply.sealed_checkpoint))
        return reply.checkpoint

    def restore_function(self, thread: Actor, checkpoint: Optional[dict],
                         start: bool = False,
                         adopt_invocation: Optional[str] = None,
                         adopt_shutdown: Optional[str] = None,
                         timeout: float = 240.0) -> None:
        """Apply a checkpoint to the function loaded on this session.

        ``checkpoint`` is the wire dict from :meth:`checkpoint_function`
        (or None to promote previously staged state).  ``start=True``
        (re)starts the entry with the checkpointed args.  The ``adopt_*``
        tokens re-key the destination instance under the source's
        capabilities, so existing holders follow the function across the
        move; this session's own tokens are updated to match.
        """
        if self.invocation_token is None:
            raise BentoError("load_function must succeed before restore")
        fields: dict[str, Any] = {"token": self.invocation_token,
                                  "start": bool(start)}
        if checkpoint is not None:
            if self.channel is not None:
                fields["sealed_checkpoint"] = self.channel.seal(
                    canonical_encode(checkpoint))
            else:
                fields["checkpoint"] = dict(checkpoint)
        if adopt_invocation:
            fields["adopt_invocation"] = adopt_invocation
        if adopt_shutdown:
            fields["adopt_shutdown"] = adopt_shutdown
        reply = yield from self.await_message(
            thread, messages.Restored, timeout,
            self._send(messages.Restore, **fields))
        self.invocation_token = reply.invocation
        self.shutdown_token = reply.shutdown

    def shutdown(self, thread: Actor, timeout: float = 120.0) -> None:
        """Spend the shutdown token; the container is reclaimed."""
        if self.shutdown_token is None:
            raise BentoError("no shutdown token held")
        yield from self.await_message(
            thread, messages.ShutdownOk, timeout,
            self._send(messages.Shutdown, token=self.shutdown_token))

    def close(self) -> None:
        """Drop the transport (the function keeps running; §5.3
        fate-sharing is with the *box*, not this connection)."""
        self.framed.close()
        if (self._close_circuit and self.circuit is not None
                and not self.circuit.destroyed):
            self.circuit.close()

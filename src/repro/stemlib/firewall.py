"""The Stem firewall (§5.3): ``api.stem``, one per function.

    "To permit safe, shared access to Stem, Bento includes as part of its
    policy enforcement layer a Stem 'firewall' to which functions must
    connect to issue all Stem invocations.  The firewall maintains state
    about the circuits each function is allowed to access, and the Stem
    routines the function may invoke."

:class:`StemFirewall` is the only path from a function to its box's
:class:`~repro.tor.client.TorClient`.  Each function gets its own, so its
circuit and hidden-service tables are that function's alone: circuit ids
count from 1 per function, a function names only what it built, and
``get_info("circuit-status")`` lists only its own live circuits.  Which
routines a function may invoke is the API gate's decision: every routine
passes ``api._gate("stem.<routine>")``, which kills a function that calls
outside its manifest (and the manifest was held to the middlebox policy
at load).  Its routines raise the api's error vocabulary.
"""

from __future__ import annotations

import inspect
import itertools
from typing import Optional

from repro.netsim.bytestream import FramedStream
from repro.netsim.connection import ConnectionClosed
from repro.netsim.network import NetworkError
from repro.netsim.simulator import Actor, Join, SimTimeoutError
from repro.tor.circuit import Circuit, CircuitDestroyed
from repro.tor.client import TorError
from repro.tor.descriptor import RelayDescriptor
from repro.tor.hidden_service import HiddenService
from repro.util.errors import ReproError

# The complete set of Stem routines Bento can expose; middlebox node
# policies and manifests are expressed over these names (prefixed "stem.").
STEM_ROUTINES = (
    "new_circuit",
    "close_circuit",
    "attach_stream",
    "get_network_statuses",
    "get_info",
    "create_hidden_service",
    "remove_hidden_service",
    "connect_to_hidden_service",
    "send_padding",
    "hs_wait_introduction",
    "hs_complete_rendezvous",
    "fetch",
)


class StemPolicyViolation(ReproError):
    """A function touched a circuit or hidden service it does not own."""


class StemFirewall:
    """``api.stem``: one function's Stem routines over its own tables."""

    def __init__(self, api) -> None:
        self._api = api
        self._circuits: dict[str, Circuit] = {}
        self._services: dict[str, HiddenService] = {}
        self._ids = itertools.count(1)

    def _tor(self):
        return self._api._instance.server.tor_client

    def _circuit(self, circuit_id: str) -> Circuit:
        try:
            return self._circuits[circuit_id]
        except KeyError:
            raise StemPolicyViolation(
                f"function {self._api._instance.instance_id} does not own "
                f"circuit {circuit_id}") from None

    def _service(self, onion_address: str) -> HiddenService:
        try:
            return self._services[onion_address]
        except KeyError:
            raise StemPolicyViolation(
                f"function {self._api._instance.instance_id} does not own "
                f"{onion_address}") from None

    def _spawn(self, kind: str, body):
        """Run ``body(task)`` in its own actor that may use this api; the
        function's kill ends it quietly (the main invocation reports it)."""
        from repro.core.api import FunctionKilled  # repro.core imports us

        api = self._api

        def _run(task):
            api._bind(task, None)
            try:
                return (yield from body(task))
            except FunctionKilled:
                return None
            finally:
                api._unbind(task)

        return api._instance.server.sim.spawn(
            _run, name=f"{kind}:{api._instance.instance_id}")

    # -- circuits -----------------------------------------------------------

    def new_circuit(self, *, path: Optional[list[RelayDescriptor]] = None,
                    length: int = 3,
                    exit_to: Optional[tuple[str, int]] = None,
                    final_hop: Optional[RelayDescriptor] = None) -> str:
        """Build a circuit; returns this function's id for it."""
        yield from self._api._gate("stem.new_circuit")
        circuit = yield from self._tor().build_circuit(
            self._api._thread, path=path, length=length, exit_to=exit_to,
            final_hop=final_hop)
        circuit_id = str(next(self._ids))
        self._circuits[circuit_id] = circuit
        return circuit_id

    def close_circuit(self, circuit_id: str) -> None:
        """Destroy an owned circuit."""
        yield from self._api._gate("stem.close_circuit")
        self._circuit(circuit_id).close()
        del self._circuits[circuit_id]

    def attach_stream(self, circuit_id: str, host: str, port: int):
        """Open a stream on an owned circuit (stem's ATTACHSTREAM)."""
        yield from self._api._gate("stem.attach_stream")
        return (yield from self._circuit(circuit_id).open_stream(
            self._api._thread, host, port))

    def send_padding(self, circuit_id: str, hop_index: Optional[int] = None,
                     payload: bytes = b"") -> None:
        """Inject one RELAY_DROP cell on an owned circuit (Cover's primitive)."""
        yield from self._api._gate("stem.send_padding")
        self._tor().send_drop(self._circuit(circuit_id), hop_index=hop_index,
                              payload=payload)

    def fetch(self, circuit_id: str, url: str, offset: Optional[int] = None,
              length: Optional[int] = None, timeout: float = 600.0) -> dict:
        """An HTTP(S) GET (optionally ranged) through an owned circuit.

        Returns ``{"status", "body", "total", "elapsed"}``.
        """
        yield from self._api._gate("stem.fetch")
        return (yield from self._fetch(self._api._thread,
                                       self._circuit(circuit_id), url,
                                       offset, length, timeout))

    def fetch_begin(self, circuit_id: str, url: str,
                    offset: Optional[int] = None,
                    length: Optional[int] = None,
                    timeout: float = 600.0):
        """Start a fetch without blocking; join with :meth:`fetch_join`.

        This is how the multipath function overlaps transfers on several
        circuits from single-threaded function code.
        """
        yield from self._api._gate("stem.fetch")
        circuit = self._circuit(circuit_id)
        return self._spawn("fetch", lambda task: self._fetch(
            task, circuit, url, offset, length, timeout))

    def fetch_join(self, handle, timeout: float = 600.0) -> dict:
        """Wait for a :meth:`fetch_begin` transfer and return its result."""
        yield from self._api._gate("stem.fetch")
        return (yield Join(handle, timeout))

    def _fetch(self, thread: Actor, circuit: Circuit, url: str,
               offset: Optional[int], length: Optional[int],
               timeout: float) -> dict:
        # Imported on use: most processes never speak HTTP.
        from repro.netsim.http import fetch, parse_url

        parsed = parse_url(url)
        stream = yield from circuit.open_stream(thread, parsed.host,
                                                parsed.port)
        framed = FramedStream(stream)
        try:
            response = yield from fetch(thread, framed, parsed.path, url=url,
                                        timeout=timeout, offset=offset,
                                        length=length)
        finally:
            framed.close()
        return {"status": response.status, "body": response.body,
                "total": response.total, "elapsed": response.elapsed}

    # -- directory ------------------------------------------------------------

    def get_network_statuses(self):
        """All relays in the verified consensus."""
        yield from self._api._gate("stem.get_network_statuses")
        return list(self._tor().consensus().routers)

    def get_info(self, key: str):
        """A few of stem's GETINFO keys."""
        yield from self._api._gate("stem.get_info")
        if key == "address":
            return self._tor().node.address
        if key == "circuit-status":
            return [circuit_id for circuit_id, circuit
                    in self._circuits.items() if not circuit.destroyed]
        if key == "version":
            return "repro-tor-1.0"
        from repro.core.api import ApiError   # repro.core imports this module
        raise ApiError(f"unsupported GETINFO key: {key}")

    # -- hidden services ----------------------------------------------------------

    def create_hidden_service(self, handler, n_intro: int = 3,
                              key_material: Optional[dict] = None,
                              establish: bool = True,
                              manual_introductions: bool = False):
        """Host a hidden service (stem's create_ephemeral_hidden_service).

        ``handler(stream, host, port)`` runs in its own actor per accepted
        stream, with the stream gated and byte-accounted like any other
        function I/O.  ``key_material`` (from
        ``service.export_key_material()``) clones an existing service
        identity; ``establish=False`` makes a detached replica endpoint
        that never publishes a descriptor; ``manual_introductions=True``
        queues introductions for :meth:`wait_introduction`.
        """
        yield from self._api._gate("stem.create_hidden_service")
        from repro.core.api import ApiError, SandboxedStream

        wrapped = None
        if handler is not None:
            if not inspect.isgeneratorfunction(handler):
                raise ApiError("hidden-service handler must be a generator "
                               "function (its stream calls are `yield from`)")

            def wrapped(stream, host, port):  # noqa: ANN001 - duck-typed
                """Per-stream wrapper: serve each accepted stream in an actor."""
                sandboxed = SandboxedStream(
                    self._api, stream, gate="stem.create_hidden_service")
                self._spawn("fn-hs",
                            lambda _task: handler(sandboxed, host, port))

        keypair = None
        if key_material is not None:
            from repro.crypto.rsa import RsaKeyPair
            keypair = RsaKeyPair.from_parts(key_material)
        service = HiddenService(self._tor(), wrapped, keypair=keypair)
        service.manual_introductions = manual_introductions
        if establish:
            yield from service.establish(self._api._thread, n_intro=n_intro)
        self._services[str(service.onion_address)] = service
        return service

    def wait_introduction(self, service,
                          timeout: Optional[float] = None) -> dict:
        """Next queued introduction on an owned manual-mode service."""
        yield from self._api._gate("stem.hs_wait_introduction")
        service = self._service(str(service.onion_address))
        return (yield from service.wait_introduction(self._api._thread,
                                                     timeout=timeout))

    def complete_rendezvous(self, service, request: dict, wait: bool = True):
        """Answer one introduction from this node (LoadBalancer replicas).

        ``wait=False`` runs the rendezvous-circuit construction in its own
        actor so a dispatcher can keep serving other clients — the same
        concurrency an unmodified hidden service gets for free.
        """
        yield from self._api._gate("stem.hs_complete_rendezvous")
        owned = self._service(str(service.onion_address))
        if wait:
            return (yield from owned.complete_rendezvous(self._api._thread,
                                                         request))

        def _worker(task):
            try:
                yield from owned.complete_rendezvous(task, request)
            except (TorError, NetworkError, SimTimeoutError,
                    CircuitDestroyed, ConnectionClosed) as exc:
                # Fire-and-forget: the client retries through a fresh
                # rendezvous; a dead relay here must not kill the host.
                self._api._instance.logs.append(
                    f"rendezvous abandoned: {exc}")

        self._spawn("rend", _worker)
        return None

    def remove_hidden_service(self, onion_address: str) -> None:
        """Shut an owned hidden service down."""
        yield from self._api._gate("stem.remove_hidden_service")
        self._service(onion_address).shut_down()
        del self._services[onion_address]

    def connect_to_hidden_service(self, onion_address: str) -> Circuit:
        """Client-side rendezvous to someone else's hidden service."""
        yield from self._api._gate("stem.connect_to_hidden_service")
        return (yield from self._tor().connect_to_hidden_service(
            self._api._thread, onion_address))

    # -- cleanup (the server calls this on a graceful kill) -----------------------

    def release_all(self) -> None:
        """Tear down everything this function created (graceful shutdown)."""
        for circuit in self._circuits.values():
            circuit.close()
        self._circuits.clear()
        for service in self._services.values():
            service.shut_down()
        self._services.clear()

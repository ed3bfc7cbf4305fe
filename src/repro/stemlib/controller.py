"""The controller: stem's surface area, bound to :mod:`repro.tor`.

Mirrors the subset of ``stem.control.Controller`` that the paper's
functions rely on: circuit creation/extension/teardown, stream attachment,
network status queries, and hidden-service management.  Circuits are
referred to by controller-assigned string ids, like stem's ``circuit_id``.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.netsim.simulator import Actor
from repro.tor.circuit import Circuit
from repro.tor.client import TorClient
from repro.tor.descriptor import RelayDescriptor
from repro.tor.hidden_service import HiddenService, StreamHandler
from repro.tor.stream import TorStream
from repro.util.errors import ReproError


class ControllerError(ReproError):
    """Raised for unknown circuit ids and failed controller operations."""


class Controller:
    """Programmatic control of one Tor client instance."""

    def __init__(self, tor_client: TorClient) -> None:
        self._client = tor_client
        self._circuits: dict[str, Circuit] = {}
        self._services: dict[str, HiddenService] = {}
        self._ids = itertools.count(1)

    # -- circuits -----------------------------------------------------------

    def new_circuit(self, thread: Actor,
                    path: Optional[list[RelayDescriptor]] = None,
                    length: int = 3,
                    exit_to: Optional[tuple[str, int]] = None,
                    final_hop: Optional[RelayDescriptor] = None) -> str:
        """Build a circuit; returns its controller id."""
        circuit = yield from self._client.build_circuit(
            thread, path=path, length=length, exit_to=exit_to,
            final_hop=final_hop)
        circuit_id = str(next(self._ids))
        self._circuits[circuit_id] = circuit
        return circuit_id

    def get_circuit(self, circuit_id: str) -> Circuit:
        """The circuit object behind an id."""
        try:
            return self._circuits[circuit_id]
        except KeyError:
            raise ControllerError(f"unknown circuit: {circuit_id}") from None

    def list_circuits(self) -> list[str]:
        """Ids of all live circuits."""
        return [cid for cid, circ in self._circuits.items() if not circ.destroyed]

    def close_circuit(self, circuit_id: str) -> None:
        """Destroy a circuit."""
        self.get_circuit(circuit_id).close()
        self._circuits.pop(circuit_id, None)

    def attach_stream(self, thread: Actor, circuit_id: str, host: str,
                      port: int) -> TorStream:
        """Open a stream on an existing circuit (stem's ATTACHSTREAM)."""
        return (yield from self.get_circuit(circuit_id).open_stream(
            thread, host, port))

    def fetch(self, thread: Actor, circuit_id: str, url: str,
              offset: Optional[int] = None, length: Optional[int] = None,
              timeout: float = 600.0) -> dict:
        """One HTTP(S) GET through an existing circuit.

        Returns ``{"status", "body", "total", "elapsed"}``.  The multipath
        function uses ranged fetches over several circuits at once.
        """
        from repro.netsim.bytestream import FramedStream
        from repro.netsim.http import fetch as http_fetch, parse_url

        parsed = parse_url(url)
        stream = yield from self.attach_stream(thread, circuit_id,
                                               parsed.host, parsed.port)
        framed = FramedStream(stream)
        try:
            response = yield from http_fetch(thread, framed, parsed.path,
                                             url=url, timeout=timeout,
                                             offset=offset, length=length)
        finally:
            framed.close()
        return {"status": response.status, "body": response.body,
                "total": response.total, "elapsed": response.elapsed}

    # -- directory ------------------------------------------------------------

    def get_network_statuses(self) -> list[RelayDescriptor]:
        """All relays in the verified consensus."""
        return list(self._client.consensus().routers)

    def get_info(self, key: str):
        """A few of stem's GETINFO keys."""
        if key == "address":
            return self._client.node.address
        if key == "circuit-status":
            return self.list_circuits()
        if key == "version":
            return "repro-tor-1.0"
        raise ControllerError(f"unsupported GETINFO key: {key}")

    # -- hidden services ----------------------------------------------------------

    def create_hidden_service(self, thread: Actor, handler: StreamHandler,
                              n_intro: int = 3, keypair=None,
                              establish: bool = True,
                              manual_introductions: bool = False) -> HiddenService:
        """Launch a hidden service (stem's create_ephemeral_hidden_service).

        ``establish=False`` creates a *detached* endpoint that never
        publishes a descriptor — a load-balancer replica that only answers
        rendezvous requests handed to it.  ``manual_introductions`` queues
        INTRODUCE2s for :meth:`wait_introduction` instead of answering
        them inline.
        """
        service = HiddenService(self._client, handler, keypair=keypair)
        service.manual_introductions = manual_introductions
        if establish:
            yield from service.establish(thread, n_intro=n_intro)
        self._services[str(service.onion_address)] = service
        return service

    def wait_introduction(self, thread: Actor, service: HiddenService,
                          timeout: Optional[float] = None) -> dict:
        """Next queued introduction for a manual-mode service."""
        return (yield from service.wait_introduction(thread, timeout=timeout))

    def complete_rendezvous(self, thread: Actor, service: HiddenService,
                            request: dict):
        """Answer one introduction: build the rendezvous circuit (§8.2's
        delegation seam — a replica can do this with copied key material)."""
        return (yield from service.complete_rendezvous(thread, request))

    def remove_hidden_service(self, onion_address: str) -> None:
        """Shut a hidden service down."""
        service = self._services.pop(onion_address, None)
        if service is None:
            raise ControllerError(f"unknown hidden service: {onion_address}")
        service.shut_down()

    def connect_to_hidden_service(self, thread: Actor,
                                  onion_address: str) -> Circuit:
        """Client-side rendezvous to someone else's hidden service."""
        return (yield from self._client.connect_to_hidden_service(
            thread, onion_address))

    # -- padding / raw cells ----------------------------------------------------------

    def send_padding(self, circuit_id: str, hop_index: Optional[int] = None,
                     payload: bytes = b"") -> None:
        """Inject one RELAY_DROP cell (the Cover function's primitive)."""
        self._client.send_drop(self.get_circuit(circuit_id), hop_index=hop_index,
                               payload=payload)

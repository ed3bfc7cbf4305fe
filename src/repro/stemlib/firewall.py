"""The Stem firewall (§5.3).

    "To permit safe, shared access to Stem, Bento includes as part of its
    policy enforcement layer a Stem 'firewall' to which functions must
    connect to issue all Stem invocations.  The firewall maintains state
    about the circuits each function is allowed to access, and the Stem
    routines the function may invoke."

:class:`StemFirewall` fronts one shared :class:`~repro.stemlib.controller.
Controller` for many functions.  Each function gets its own firewall
handle; a handle can only name circuits and hidden services it created,
and can only invoke routines its (manifest ∩ middlebox-policy) grant
allows.  Every invocation is recorded in an audit log.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.simulator import Actor
from repro.stemlib.controller import Controller, ControllerError
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
    """A function invoked a routine its grant does not allow, or touched
    a circuit it does not own."""


class StemFirewall:
    """One function's mediated view of the shared controller."""

    def __init__(self, controller: Controller, function_id: str,
                 allowed_routines: frozenset[str]) -> None:
        unknown = set(allowed_routines) - set(STEM_ROUTINES)
        if unknown:
            raise ValueError(f"unknown stem routines in grant: {sorted(unknown)}")
        self._controller = controller
        self.function_id = function_id
        self.allowed = frozenset(allowed_routines)
        self._owned_circuits: set[str] = set()
        self._owned_services: set[str] = set()
        self.audit_log: list[tuple[str, tuple]] = []

    def _check(self, routine: str, *args) -> None:
        self.audit_log.append((routine, args))
        if routine not in self.allowed:
            raise StemPolicyViolation(
                f"function {self.function_id} may not invoke stem.{routine}")

    def _check_circuit(self, circuit_id: str) -> None:
        if circuit_id not in self._owned_circuits:
            raise StemPolicyViolation(
                f"function {self.function_id} does not own circuit {circuit_id}")

    # -- mediated routines ----------------------------------------------------

    def new_circuit(self, thread: Actor, **kwargs) -> str:
        """Mediated :meth:`Controller.new_circuit`."""
        self._check("new_circuit")
        circuit_id = yield from self._controller.new_circuit(thread, **kwargs)
        self._owned_circuits.add(circuit_id)
        return circuit_id

    def close_circuit(self, circuit_id: str) -> None:
        """Mediated circuit teardown (ownership enforced)."""
        self._check("close_circuit", circuit_id)
        self._check_circuit(circuit_id)
        self._controller.close_circuit(circuit_id)
        self._owned_circuits.discard(circuit_id)

    def attach_stream(self, thread: Actor, circuit_id: str, host: str,
                      port: int):
        """Mediated stream attach (ownership enforced)."""
        self._check("attach_stream", circuit_id, host, port)
        self._check_circuit(circuit_id)
        return (yield from self._controller.attach_stream(
            thread, circuit_id, host, port))

    def get_network_statuses(self):
        """Mediated consensus listing."""
        self._check("get_network_statuses")
        return self._controller.get_network_statuses()

    def get_info(self, key: str):
        """Mediated GETINFO."""
        self._check("get_info", key)
        return self._controller.get_info(key)

    def create_hidden_service(self, thread: Actor, handler,
                              n_intro: int = 3, keypair=None,
                              establish: bool = True,
                              manual_introductions: bool = False):
        """Mediated hidden-service creation (ownership recorded)."""
        self._check("create_hidden_service")
        service = yield from self._controller.create_hidden_service(
            thread, handler, n_intro=n_intro, keypair=keypair,
            establish=establish, manual_introductions=manual_introductions)
        self._owned_services.add(str(service.onion_address))
        return service

    def hs_wait_introduction(self, thread: Actor, service,
                             timeout: Optional[float] = None) -> dict:
        """Mediated introduction wait (ownership enforced)."""
        self._check("hs_wait_introduction")
        self._check_service(str(service.onion_address))
        return (yield from self._controller.wait_introduction(
            thread, service, timeout=timeout))

    def hs_complete_rendezvous(self, thread: Actor, service, request: dict):
        """Mediated rendezvous completion (ownership enforced)."""
        self._check("hs_complete_rendezvous")
        self._check_service(str(service.onion_address))
        return (yield from self._controller.complete_rendezvous(
            thread, service, request))

    def fetch(self, thread: Actor, circuit_id: str, url: str,
              offset: Optional[int] = None, length: Optional[int] = None,
              timeout: float = 600.0) -> dict:
        """Mediated HTTP fetch through an owned circuit."""
        self._check("fetch", circuit_id, url)
        self._check_circuit(circuit_id)
        return (yield from self._controller.fetch(
            thread, circuit_id, url, offset=offset, length=length,
            timeout=timeout))

    def _check_service(self, onion_address: str) -> None:
        if onion_address not in self._owned_services:
            raise StemPolicyViolation(
                f"function {self.function_id} does not own {onion_address}")

    def remove_hidden_service(self, onion_address: str) -> None:
        """Mediated hidden-service removal (ownership enforced)."""
        self._check("remove_hidden_service", onion_address)
        if onion_address not in self._owned_services:
            raise StemPolicyViolation(
                f"function {self.function_id} does not own {onion_address}")
        self._controller.remove_hidden_service(onion_address)
        self._owned_services.discard(onion_address)

    def connect_to_hidden_service(self, thread: Actor, onion_address: str):
        """Mediated client-side rendezvous."""
        self._check("connect_to_hidden_service", onion_address)
        return (yield from self._controller.connect_to_hidden_service(
            thread, onion_address))

    def send_padding(self, circuit_id: str, hop_index: Optional[int] = None,
                     payload: bytes = b"") -> None:
        """Mediated RELAY_DROP injection (ownership enforced)."""
        self._check("send_padding", circuit_id)
        self._check_circuit(circuit_id)
        self._controller.send_padding(circuit_id, hop_index=hop_index,
                                      payload=payload)

    # -- cleanup (server side, not function-callable) -----------------------------

    def release_all(self) -> None:
        """Tear down everything this function created (on shutdown)."""
        for circuit_id in list(self._owned_circuits):
            try:
                self._controller.close_circuit(circuit_id)
            except ControllerError:
                pass
        self._owned_circuits.clear()
        for onion in list(self._owned_services):
            try:
                self._controller.remove_hidden_service(onion)
            except ControllerError:
                pass
        self._owned_services.clear()

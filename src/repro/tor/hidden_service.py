"""Hosting hidden services.

A :class:`HiddenService` owns a service key, establishes introduction
circuits, publishes its descriptor to the HSDir, and — on each INTRODUCE2 —
builds a fresh circuit to the client's rendezvous point, completes the
handshake, and hands accepted streams to the service's handler.

The LoadBalancer function (§8) subverts exactly one step of this flow:
instead of connecting to the rendezvous point itself, it instructs a
*replica* (which holds a copy of the service key material) to do so.
:meth:`HiddenService.complete_rendezvous` is that seam.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.crypto.aead import AeadKey
from repro.crypto.rsa import RsaKeyPair
from repro.netsim.simulator import Actor, Future, Wait
from repro.tor import ntor
from repro.tor.cell import RelayCommand
from repro.tor.circuit import HS_SERVICE, Circuit
from repro.tor.descriptor import (
    HiddenServiceDescriptor,
    RelayDescriptor,
    onion_address_for,
)
from repro.tor.layercrypto import HopCrypto
from repro.tor.stream import TorStream
from repro.util.bytesutil import int_from_bytes, int_to_bytes
from repro.util.errors import ProtocolError, ReproError
from repro.util.serialization import canonical_encode
from repro.util.spec import decode_request

# handler(stream, host, port) is invoked for every accepted stream.
StreamHandler = Callable[[TorStream, str, int], None]


class OnionAddress(str):
    """A ``.onion`` identifier (plain string subclass for clarity)."""


class HiddenServiceError(ReproError):
    """Raised for introduction/rendezvous failures on the service side."""


class HiddenService:
    """A hidden service hosted by a :class:`~repro.tor.client.TorClient`."""

    def __init__(self, client, handler: StreamHandler,
                 keypair: Optional[RsaKeyPair] = None) -> None:
        self.client = client
        self.sim = client.sim
        self.handler = handler
        # A fork depends only on its label: the n-th service a client
        # makes draws its own key, the first under the original label.
        n = next(client._services_made)
        self._rng = client._rng.fork(
            f"hidden-service:{n}" if n else "hidden-service")
        self.keypair = keypair or RsaKeyPair.generate(self._rng.fork("service-key"))
        self.onion_address = OnionAddress(onion_address_for(self.keypair.public))
        self.intro_circuits: list[Circuit] = []
        self.intro_points: list[RelayDescriptor] = []
        self.rendezvous_circuits: list[Circuit] = []
        self._descriptor_version = 0
        self.accepted_count = 0
        # Manual mode: introductions queue up for the owner to consume
        # (the LoadBalancer pattern) instead of being answered inline.
        self.manual_introductions = False
        self.introduction_queue: list[dict] = []
        self._intro_waiter = None
        self._published = False

    # -- setup -----------------------------------------------------------

    def establish(self, thread: Actor, n_intro: int = 3,
                  timeout: float = 240.0) -> None:
        """Create intro circuits and publish the first descriptor."""
        selector = self.client.path_selector()
        used: set[str] = set()
        for _ in range(n_intro):
            intro_relay = selector.pick_middle(exclude=used)
            used.add(intro_relay.identity_fp)
            circuit = yield from self.client.build_circuit(
                thread, final_hop=intro_relay, timeout=timeout)
            established = circuit.expect_control(RelayCommand.INTRO_ESTABLISHED)
            circuit.send_relay(RelayCommand.ESTABLISH_INTRO, 0,
                               canonical_encode({"auth": str(self.onion_address)}))
            yield Wait(established, timeout)
            circuit.on_introduce2 = self._on_introduce2
            self.intro_circuits.append(circuit)
            self.intro_points.append(intro_relay)
        self.publish_descriptor()

    def publish_descriptor(self) -> None:
        """(Re)publish the signed descriptor mapping onion -> intro points."""
        self._descriptor_version += 1
        descriptor = HiddenServiceDescriptor(
            onion=str(self.onion_address),
            intro_points=[r.identity_fp for r in self.intro_points],
            version=self._descriptor_version,
        )
        descriptor.sign(self.keypair)
        self.client.directory.publish_hs_descriptor(descriptor)
        self._published = True

    # -- introductions ----------------------------------------------------

    def decrypt_introduce_blob(self, blob: bytes) -> dict:
        """Unseal an INTRODUCE2 payload; a malformed one is a ProtocolError."""
        wrapped_key, sealed = decode_request(blob, c=bytes, sealed=bytes)
        ephemeral = self.keypair.decrypt_int(int_from_bytes(wrapped_key))
        plaintext = AeadKey(int_to_bytes(ephemeral)).open(b"intro", sealed)
        fields = {"cookie": bytes, "rp_address": str, "rp_port": int,
                  "onionskin": bytes, "extra": dict}
        return dict(zip(fields, decode_request(plaintext, **fields)))

    def _on_introduce2(self, blob: bytes) -> None:
        try:
            request = self.decrypt_introduce_blob(blob)
        except (ProtocolError, ValueError):  # RsaError, AeadError included
            return  # forged or corrupted introduction; ignore
        if self.manual_introductions:
            self.introduction_queue.append(request)
            if self._intro_waiter is not None and not self._intro_waiter.done:
                self._intro_waiter.resolve(None)
            return
        self.sim.spawn(self.complete_rendezvous, request,
                       name=f"hs-rend:{self.onion_address[:8]}")

    def wait_introduction(self, thread: Actor,
                          timeout: Optional[float] = None) -> dict:
        """Block until an introduction arrives (manual mode only)."""
        if not self.manual_introductions:
            raise HiddenServiceError("service is not in manual-introduction mode")
        while not self.introduction_queue:
            self._intro_waiter = Future(self.sim)
            yield Wait(self._intro_waiter, timeout)
            self._intro_waiter = None
        return self.introduction_queue.pop(0)

    def export_key_material(self) -> dict:
        """The service identity for replica cloning (§8.2)."""
        return self.keypair.export_parts()

    def complete_rendezvous(self, thread: Actor, request: dict,
                            timeout: float = 240.0) -> Circuit:
        """Build a circuit to the client's rendezvous point and join it.

        This is the step a LoadBalancer delegates to replicas; it only
        needs the decrypted introduction ``request`` and the service key.
        """
        consensus = self.client.consensus()
        rp_descriptor = None
        for router in consensus.routers:
            if router.address == request["rp_address"]:
                rp_descriptor = router
                break
        if rp_descriptor is None:
            raise HiddenServiceError("rendezvous point not in consensus")

        circuit = yield from self.client.build_circuit(
            thread, final_hop=rp_descriptor, timeout=timeout)
        keys, reply = ntor.server_respond(
            self._rng.fork(f"rend:{self.sim.now}"),
            str(self.onion_address),
            request["onionskin"],
        )
        circuit.send_relay(RelayCommand.RENDEZVOUS1, 0, canonical_encode({
            "cookie": request["cookie"],
            "blob": reply,
        }))
        circuit.attach_hs(HopCrypto(keys), HS_SERVICE)
        circuit.on_begin = self._on_begin
        self.rendezvous_circuits.append(circuit)
        return circuit

    def _on_begin(self, stream: TorStream, host: str, port: int) -> None:
        self.accepted_count += 1
        self.handler(stream, host, port)

    # -- teardown -----------------------------------------------------------

    def shut_down(self) -> None:
        """Close all circuits and withdraw the descriptor.

        Only a service handle that actually published a descriptor
        withdraws it: a replica holding shared key material (the
        LoadBalancer pattern) must not tear down the owner's directory
        entry when it retires."""
        for circuit in self.intro_circuits + self.rendezvous_circuits:
            circuit.close()
        self.intro_circuits.clear()
        self.rendezvous_circuits.clear()
        if self._published:
            self.client.directory.remove_hs_descriptor(str(self.onion_address))

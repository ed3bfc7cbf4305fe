"""The SGX model: enclaves, measurement, and the EPC memory budget.

§7.3: "SGX provides a limited amount of protected memory (128MB), with
only 93MB of this usable by applications ... SGX has support for paging;
enclaves could be paged out if they are not currently being invoked."
This module reproduces exactly that accounting: launching an enclave
charges the host's EPC; oversubscription is allowed (paging) but marks the
enclave so callers can apply a paging latency penalty.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.crypto.kdf import hkdf
from repro.crypto.rsa import RsaKeyPair
from repro.util.errors import ReproError
from repro.util.rng import DeterministicRandom

if TYPE_CHECKING:  # pragma: no cover
    from repro.enclave.attestation import IntelAttestationService, Quote

EPC_TOTAL_BYTES = 128 * 1024 * 1024
EPC_USABLE_BYTES = 93 * 1024 * 1024

# Latency cost of an EPC page fault round trip, applied per message handled
# by an enclave that is currently paged out (coarse, but the right shape).
PAGING_PENALTY_S = 0.002
# Cost of an enclave transition (ECALL/OCALL pair); [34] found these
# nominal relative to Tor circuit latency.
TRANSITION_COST_S = 0.00002


class EnclaveError(ReproError):
    """Launch failures, use-after-terminate, EPC exhaustion in strict mode."""


@dataclass(frozen=True)
class EnclaveImage:
    """Code plus configuration; identity is the measurement over both.

    Measurement covers the *execution environment* — the Bento server,
    loader and Python runtime — not individual user functions (§5.4:
    "the only code needing attestation is the Bento execution
    environment").
    """

    name: str
    code: bytes
    version: int = 1

    @property
    def measurement(self) -> str:
        """MRENCLAVE: the hash of the initial enclave contents.

        Memoized: the image is frozen, and this is read on every quote
        and conclave launch.
        """
        cached = self.__dict__.get("_measurement")
        if cached is None:
            material = (self.name.encode() + b"\x00"
                        + self.version.to_bytes(4, "big") + self.code)
            cached = hashlib.sha256(material).hexdigest()
            object.__setattr__(self, "_measurement", cached)
        return cached


class EnclaveHost:
    """One machine's SGX platform: EPC budget plus an attestation key."""

    def __init__(self, sim, ias: "IntelAttestationService",
                 rng: Optional[DeterministicRandom] = None,
                 tcb_level: int = 2,
                 epc_usable: int = EPC_USABLE_BYTES) -> None:
        self.sim = sim
        self.ias = ias
        # Numbered per IAS (i.e. per simulated world), NOT via a module
        # counter: a process-global counter would give different ids — and
        # different id *lengths* on the wire — on a second same-seed run.
        self.platform_id = f"platform-{len(ias._platforms) + 1}"
        self.tcb_level = tcb_level
        self.epc_usable = epc_usable
        self.epc_committed = 0
        self.enclaves: list[Enclave] = []
        rng = rng or sim.rng.fork(f"sgx:{self.platform_id}")
        self._attestation_key = RsaKeyPair.generate(rng.fork("attestation"))
        # The per-platform sealing root (fused into the CPU on real parts).
        self._sealing_secret = rng.randbytes(32)
        ias.register_platform(self.platform_id, self._attestation_key.public,
                              tcb_level)

    # -- launch / memory -----------------------------------------------------

    def launch(self, image: EnclaveImage, heap_bytes: int,
               strict: bool = False) -> "Enclave":
        """Create an enclave.

        ``strict=True`` refuses to oversubscribe the EPC; the default
        allows it and relies on paging, as §7.3 describes.
        """
        if heap_bytes < 0:
            raise EnclaveError("heap size must be non-negative")
        size = heap_bytes + len(image.code)
        if strict and self.epc_committed + size > self.epc_usable:
            raise EnclaveError(
                f"EPC exhausted: {self.epc_committed + size} > {self.epc_usable}")
        self.epc_committed += size
        enclave = Enclave(self, image, size)
        self.enclaves.append(enclave)
        return enclave

    def _release(self, enclave: "Enclave") -> None:
        if enclave in self.enclaves:
            self.enclaves.remove(enclave)
            self.epc_committed -= enclave.memory_size

    @property
    def oversubscribed(self) -> bool:
        """Is the EPC over budget (some enclaves paged out)?"""
        return self.epc_committed > self.epc_usable

    def paging_penalty(self) -> float:
        """Extra latency per enclave invocation under current pressure."""
        if not self.oversubscribed:
            return 0.0
        overcommit = self.epc_committed / self.epc_usable - 1.0
        return PAGING_PENALTY_S * (1.0 + overcommit)

    def sealing_key_for(self, measurement: str) -> bytes:
        """The MRENCLAVE-bound sealing key (same enclave, same platform)."""
        return hkdf(self._sealing_secret, info=measurement.encode(), length=32)


class Enclave:
    """A launched enclave: protected memory, quotes, sealing."""

    def __init__(self, host: EnclaveHost, image: EnclaveImage,
                 memory_size: int) -> None:
        self.host = host
        self.image = image
        self.memory_size = memory_size
        self.measurement = image.measurement
        self.terminated = False
        self.invocation_count = 0

    def quote(self, report_data: bytes) -> "Quote":
        """Produce an attestation quote binding ``report_data`` to this
        enclave's measurement and the platform's TCB level."""
        from repro.enclave.attestation import Quote  # cycle guard

        self._ensure_live()
        quote = Quote(
            platform=self.host.platform_id,
            measurement=self.measurement,
            tcb=self.host.tcb_level,
            report_data=report_data,
        )
        quote.signature = self.host._attestation_key.sign(quote.signed_body())
        return quote

    def grow(self, nbytes: int) -> None:
        """Add EPC pages post-launch (SGX2-style dynamic memory)."""
        self._ensure_live()
        if nbytes < 0:
            raise EnclaveError("cannot shrink an enclave")
        self.memory_size += nbytes
        self.host.epc_committed += nbytes

    def invoke_cost(self) -> float:
        """Simulated latency for one enter/exit of this enclave."""
        self._ensure_live()
        self.invocation_count += 1
        return TRANSITION_COST_S + self.host.paging_penalty()

    def sealing_key(self) -> bytes:
        """This enclave's sealing key (measurement + platform bound)."""
        self._ensure_live()
        return self.host.sealing_key_for(self.measurement)

    def terminate(self) -> None:
        """Destroy the enclave; its EPC pages return to the host."""
        if not self.terminated:
            self.terminated = True
            self.host._release(self)

    def _ensure_live(self) -> None:
        if self.terminated:
            raise EnclaveError("enclave is terminated")

"""Remote attestation: quotes and the (simulated) Intel Attestation Service.

The flow mirrors §5.4: an enclave produces a *quote* signed by its
platform's attestation key; the IAS verifies the platform signature,
checks the platform's TCB level against the currently required one
("check the current TCB version of the remote system to see if it has
been patched against known vulnerabilities"), and returns an
*attestation verification report* signed by Intel's key.

Two client verification paths are supported, as in the paper:

* **client-verified** — the client submits the quote to the IAS itself
  (one extra network round trip, but the load is uncorrelated with
  function upload), and
* **stapled** — the Bento server pre-fetches the report and returns it
  with its response, like OCSP stapling; the client checks only the IAS
  signature.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.netsim.simulator import Sleep
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey
from repro.util.errors import ReproError
from repro.util.rng import DeterministicRandom
from repro.util.spec import PeerRecord, field_table

TCB_STATUS_OK = "OK"
TCB_STATUS_OUT_OF_DATE = "GROUP_OUT_OF_DATE"

# One-way latency to Intel's attestation endpoint (WAN round trip).
IAS_LATENCY_S = 0.040


class AttestationError(ReproError):
    """Bad quotes, unknown platforms, forged reports."""


class Quote(PeerRecord):
    """An enclave's signed statement of its own identity."""

    WIRE = field_table(platform=str, measurement=str, tcb=int,
                       report_data=bytes, signature=(bytes, b""))


class AttestationReport(PeerRecord):
    """The IAS's signed verdict on a quote."""

    WIRE = field_table(quote=Quote, status=str, timestamp=float,
                       signature=(bytes, b""))

    def verify(self, ias_key: RsaPublicKey,
               expected_measurement: Optional[str] = None,
               require_ok: bool = True) -> bool:
        """Client-side report validation.

        Checks the IAS signature, optionally the enclave measurement, and
        (by default) that the platform TCB was up to date.
        """
        if not ias_key.verify(self.signed_body(), self.signature):
            return False
        if expected_measurement is not None and \
                self.quote.measurement != expected_measurement:
            return False
        if require_ok and self.status != TCB_STATUS_OK:
            return False
        return True


@dataclass
class _PlatformRecord:
    key: RsaPublicKey
    tcb_level: int
    revoked: bool = False


class IntelAttestationService:
    """The trusted third party that vouches for genuine platforms."""

    def __init__(self, rng: DeterministicRandom, required_tcb_level: int = 2,
                 latency_s: float = IAS_LATENCY_S) -> None:
        self._key = RsaKeyPair.generate(rng.fork("ias-key"))
        self._platforms: dict[str, _PlatformRecord] = {}
        self.required_tcb_level = required_tcb_level
        self.latency_s = latency_s
        self.reports_issued = 0

    @property
    def public_key(self) -> RsaPublicKey:
        """The verification key peers should pin."""
        return self._key.public

    # -- platform management (manufacturing / patching) -----------------------

    def register_platform(self, platform_id: str, key: RsaPublicKey,
                          tcb_level: int) -> None:
        """Record a genuine platform's attestation key and TCB level."""
        self._platforms[platform_id] = _PlatformRecord(key=key, tcb_level=tcb_level)

    def revoke_platform(self, platform_id: str) -> None:
        """EPID revocation (e.g., a compromised platform key)."""
        record = self._platforms.get(platform_id)
        if record is not None:
            record.revoked = True

    def patch_platform(self, platform_id: str, new_tcb_level: int) -> None:
        """A microcode update raised this platform's TCB level."""
        record = self._platforms.get(platform_id)
        if record is not None:
            record.tcb_level = new_tcb_level

    # -- verification ------------------------------------------------------------

    def verify_quote(self, quote: Quote, now: float = 0.0) -> AttestationReport:
        """Validate a quote and issue a signed report.

        Raises :class:`AttestationError` for unknown/revoked platforms or
        a bad platform signature; an out-of-date TCB yields a report whose
        ``status`` says so (clients decide whether to accept it).
        """
        record = self._platforms.get(quote.platform)
        if record is None:
            raise AttestationError(f"unknown platform: {quote.platform}")
        if record.revoked:
            raise AttestationError(f"platform revoked: {quote.platform}")
        if not record.key.verify(quote.signed_body(), quote.signature):
            raise AttestationError("quote signature invalid")
        if quote.tcb != record.tcb_level:
            raise AttestationError("quote TCB level does not match platform record")
        status = (TCB_STATUS_OK if record.tcb_level >= self.required_tcb_level
                  else TCB_STATUS_OUT_OF_DATE)
        report = AttestationReport(quote=quote, status=status, timestamp=now)
        report.signature = self._key.sign(report.signed_body())
        self.reports_issued += 1
        return report

    def verify_quote_blocking(self, thread, quote: Quote) -> AttestationReport:
        """Quote verification including the WAN round trip to Intel."""
        yield Sleep(2.0 * self.latency_s)
        return self.verify_quote(quote, now=thread.sim.now)

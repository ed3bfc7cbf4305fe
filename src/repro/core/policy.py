"""Middlebox node policies (§5.5).

    "Bento's middlebox node policies are boolean values over the set of
    API calls that Bento exposes to functions.  Every system call and Stem
    library function that can be exposed to functions is also specified in
    the middlebox node policy."

A policy is therefore: an API-call allowlist, a syscall allowlist, offered
images, and resource ceilings (per function and, per §5.3, in aggregate so
the co-resident Tor relay keeps a guaranteed share of the machine).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.apispec import ALL_API_CALLS
from repro.sandbox.seccomp import ALL_SYSCALLS
from repro.util.spec import PeerRecord, field_table

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manifest import FunctionManifest

MB = 1024 * 1024


class MiddleboxNodePolicy(PeerRecord, frozen=True):
    """One operator's statement of what they will do on others' behalf."""

    WIRE = field_table(
        api_calls=(frozenset, frozenset(ALL_API_CALLS)),     # allowed
        syscalls=(frozenset, frozenset(ALL_SYSCALLS - {"fork", "execve"})),
        images=(tuple, ("python", "python-op-sgx")),        # offered
        max_function_memory=(int, 64 * MB),
        max_function_disk=(int, 64 * MB),
        max_total_memory=(int, 512 * MB),
        max_total_disk=(int, 1024 * MB),
        max_containers=(int, 16),
        # The §5.5 "alternative design" hook: API calls that are only
        # permitted when the function runs inside an enclave image.
        enclave_only=(frozenset, frozenset()))

    def __post_init__(self) -> None:
        unknown_api = set(self.api_calls) - ALL_API_CALLS
        if unknown_api:
            raise ValueError(f"unknown api calls in policy: {sorted(unknown_api)}")
        unknown_sys = set(self.syscalls) - ALL_SYSCALLS
        if unknown_sys:
            raise ValueError(f"unknown syscalls in policy: {sorted(unknown_sys)}")

    # -- presets ------------------------------------------------------------

    @classmethod
    def open_policy(cls) -> "MiddleboxNodePolicy":
        """An operator willing to run anything (within resource caps)."""
        return cls()

    @classmethod
    def no_disk_policy(cls) -> "MiddleboxNodePolicy":
        """§6.2's most-protective stance: functions may never touch disk."""
        return cls(
            api_calls=frozenset(
                c for c in ALL_API_CALLS if not c.startswith("storage.")),
            syscalls=frozenset(
                self_call for self_call in ALL_SYSCALLS
                if self_call not in ("open", "unlink", "fork", "execve")),
            max_function_disk=0,
        )

    @classmethod
    def enclave_storage_policy(cls) -> "MiddleboxNodePolicy":
        """Disk writes allowed only inside the SGX image (encrypted by
        FS Protect), the middle-ground stance §6.2 describes."""
        return cls(enclave_only=frozenset(
            {"storage.put", "storage.get", "storage.list", "storage.delete"}))

    @classmethod
    def network_measurement_policy(cls) -> "MiddleboxNodePolicy":
        """Only passive measurement: no storage, no hidden services."""
        allowed = frozenset({
            "send", "recv", "log", "sleep", "time", "random",
            "http_get", "connect",
            "stem.new_circuit", "stem.close_circuit", "stem.attach_stream",
            "stem.get_network_statuses", "stem.get_info",
        })
        return cls(api_calls=allowed, max_function_disk=0)

    # -- evaluation ------------------------------------------------------------

    def rejection_reason(self, manifest: "FunctionManifest") -> Optional[str]:
        """Why this manifest is unacceptable, or ``None`` if it is fine.

        Mirrors §5.5: "if the manifest asks for more permissions than the
        node's policy permits, then the function is rejected."
        """
        if manifest.image not in self.images:
            return f"image {manifest.image!r} not offered"
        excess_api = set(manifest.api_calls) - set(self.api_calls)
        if excess_api:
            return f"api calls not permitted: {sorted(excess_api)}"
        if manifest.image != "python-op-sgx":
            needs_enclave = set(manifest.api_calls) & set(self.enclave_only)
            if needs_enclave:
                return (f"api calls permitted only inside an enclave image: "
                        f"{sorted(needs_enclave)}")
        excess_sys = set(manifest.syscalls) - set(self.syscalls)
        if excess_sys:
            return f"syscalls not permitted: {sorted(excess_sys)}"
        if manifest.memory_bytes > self.max_function_memory:
            return (f"memory request {manifest.memory_bytes} exceeds "
                    f"{self.max_function_memory}")
        if manifest.disk_bytes > self.max_function_disk:
            return (f"disk request {manifest.disk_bytes} exceeds "
                    f"{self.max_function_disk}")
        return None

    def permits(self, manifest: "FunctionManifest") -> bool:
        """Boolean form of :meth:`rejection_reason`."""
        return self.rejection_reason(manifest) is None

"""Function manifests (§5.5).

    "When a user sends a function to a Bento server, the user includes the
    function's manifest file, similar in spirit to an Android app manifest.
    ... the Bento server sets up the execution environment, and constrains
    the sandbox or conclave to permit only the specific API calls that the
    manifest file requested (even if the middlebox policy allowed for
    more)."

The syscall list is derived from the requested API calls by default, so a
manifest can only *narrow* from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.core.apispec import ALL_API_CALLS, syscalls_for
from repro.util.spec import field_table, read_fields, typed

MB = 1024 * 1024

#: Serving-plane priority classes a manifest may declare.  "bulk" is the
#: default and is shed first under overload; "interactive" gets a larger
#: weighted-fair share and survives shedding longest.
PRIORITY_CLASSES = ("bulk", "interactive")


@dataclass(frozen=True)
class FunctionManifest:
    """Everything a Bento server needs to know before accepting a function."""

    name: str
    entry: str                      # name of the function to call on invoke
    api_calls: frozenset
    image: str = "python"           # "python" or "python-op-sgx" (§5.4)
    memory_bytes: int = 4 * MB
    disk_bytes: int = 0
    syscalls: frozenset = frozenset()
    priority: str = "bulk"          # serving-plane class (see PRIORITY_CLASSES)

    def __post_init__(self) -> None:
        unknown = set(self.api_calls) - ALL_API_CALLS
        if unknown:
            raise ValueError(f"manifest requests unknown api calls: {sorted(unknown)}")
        if not self.name or not self.entry:
            raise ValueError("manifest needs a name and an entry point")
        if self.memory_bytes < 0 or self.disk_bytes < 0:
            raise ValueError("resource requests must be non-negative")
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(f"unknown priority class: {self.priority!r}")
        if not self.syscalls:
            object.__setattr__(self, "syscalls", syscalls_for(self.api_calls))

    @classmethod
    def create(cls, name: str, entry: str, api_calls: Iterable[str],
               image: str = "python", memory_bytes: int = 4 * MB,
               disk_bytes: int = 0,
               syscalls: Optional[Iterable[str]] = None,
               priority: str = "bulk") -> "FunctionManifest":
        """The ergonomic constructor (derives syscalls unless given)."""
        return cls(name=name, entry=entry, api_calls=frozenset(api_calls),
                   image=image, memory_bytes=memory_bytes,
                   disk_bytes=disk_bytes,
                   syscalls=frozenset(syscalls) if syscalls is not None
                   else frozenset(),
                   priority=priority)

    @property
    def wants_enclave(self) -> bool:
        """Does this manifest require the SGX image?"""
        return self.image == "python-op-sgx"

    def to_wire(self) -> dict:
        """A plain-dict form safe to canonically encode.

        ``priority`` is only encoded when it differs from the default so
        pre-serving-plane manifests keep byte-identical wire encodings
        (the golden transfer vectors and fixed-seed soaks depend on it).
        """
        wire = {
            "name": self.name,
            "entry": self.entry,
            "api_calls": sorted(self.api_calls),
            "image": self.image,
            "memory": self.memory_bytes,
            "disk": self.disk_bytes,
            "syscalls": sorted(self.syscalls),
        }
        if self.priority != "bulk":
            wire["priority"] = self.priority
        return wire

    @classmethod
    def from_wire(cls, wire: dict) -> "FunctionManifest":
        """Reconstruct from :meth:`to_wire` output.  A peer's dict that is
        not one raises TypeError (shape, by :func:`read_fields`) or
        ValueError (content, by ``__post_init__``)."""
        fields = read_fields(wire, _WIRE, exact=True)
        for name in ("api_calls", "syscalls"):
            for item in fields[name]:
                typed(str, item, name)
        return cls(
            name=fields["name"],
            entry=fields["entry"],
            api_calls=frozenset(fields["api_calls"]),
            image=fields["image"],
            memory_bytes=fields["memory"],
            disk_bytes=fields["disk"],
            syscalls=frozenset(fields["syscalls"]),
            priority=fields["priority"],
        )


#: The wire form :meth:`FunctionManifest.to_wire` writes.
_WIRE = field_table(name=str, entry=str, api_calls=list, image=str,
                    memory=int, disk=int, syscalls=list,
                    priority=(str, "bulk"))

"""The container runtime: namespaces + cgroup + seccomp + iptables.

"Bento servers spawn and manage a dedicated container for each client's
function" (§5.2).  A :class:`Container` owns a chrooted filesystem view,
a child cgroup under the Bento server's aggregate group, a seccomp policy
(the intersection of the operator's policy and the function's manifest),
and iptables rules compiled from the relay's exit policy.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.sandbox.cgroups import CGroup, ResourceExceeded
from repro.sandbox.iptables import IptablesRuleset
from repro.sandbox.memfs import ChrootView, MemFS
from repro.sandbox.seccomp import SeccompPolicy
from repro.util.errors import ReproError


class ContainerError(ReproError):
    """Lifecycle misuse (starting a terminated container, etc.)."""


class ContainerState(enum.Enum):
    """Lifecycle states of a container."""
    CREATED = "created"
    RUNNING = "running"
    TERMINATED = "terminated"


class Container:
    """One isolated execution environment for one client function."""

    def __init__(self, container_id: str, host_fs: MemFS, parent_cgroup: CGroup,
                 seccomp: SeccompPolicy, iptables: IptablesRuleset,
                 memory_limit: int, disk_limit: int) -> None:
        self.container_id = container_id
        self.state = ContainerState.CREATED
        self.seccomp = seccomp
        self.iptables = iptables
        self.cgroup = parent_cgroup.child(
            f"container:{container_id}",
            memory=memory_limit, disk=disk_limit)
        self.fs: ChrootView = host_fs.chroot(
            f"/containers/{container_id}",
            charge=self.cgroup.charge_hook("disk"))
        self._base_memory_charged = 0
        self.kill_reason: Optional[str] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self, base_memory: int) -> None:
        """Charge the image's baseline memory and mark the container live."""
        if self.state is not ContainerState.CREATED:
            raise ContainerError(f"cannot start container in state {self.state}")
        self.cgroup.charge("memory", base_memory)   # may raise ResourceExceeded
        self._base_memory_charged = base_memory
        self.state = ContainerState.RUNNING

    def kill(self, reason: str = "killed") -> None:
        """Terminate: release every resource, purge the chroot."""
        if self.state is ContainerState.TERMINATED:
            return
        self.state = ContainerState.TERMINATED
        self.kill_reason = reason
        self.fs.purge()
        self.cgroup.release_all()

    @property
    def running(self) -> bool:
        """Is the container currently live?"""
        return self.state is ContainerState.RUNNING

    # -- mediated resource use ------------------------------------------------

    def charge_memory(self, nbytes: int) -> None:
        """Account function memory; kills the container on overrun."""
        self._ensure_running()
        try:
            self.cgroup.charge("memory", nbytes)
        except ResourceExceeded:
            self.kill(reason="memory limit exceeded")
            raise

    def fs_write(self, path: str, data: bytes) -> None:
        """A disk write (the chroot charges it against the disk quota)."""
        self._ensure_running()
        self.fs.write_file(path, data)

    def fs_delete(self, path: str) -> None:
        """Delete a file (the chroot releases its disk quota)."""
        self._ensure_running()
        self.fs.delete(path)

    def charge_network(self, nbytes: int) -> None:
        """Account bytes a function puts on the wire."""
        self._ensure_running()
        self.cgroup.charge("net_bytes", nbytes)

    def _ensure_running(self) -> None:
        if self.state is not ContainerState.RUNNING:
            raise ContainerError(
                f"container {self.container_id} is {self.state.value}")

    # -- introspection -----------------------------------------------------------

    @property
    def memory_used(self) -> int:
        """Bytes of memory currently charged."""
        return self.cgroup.usage["memory"]

    @property
    def disk_used(self) -> int:
        """Bytes of disk currently charged."""
        return self.cgroup.usage["disk"]

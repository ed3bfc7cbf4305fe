"""Hierarchical resource accounting (the cgroup model).

Bento limits each container's memory and disk, *and* caps the aggregate
over all containers "ensuring that the co-resident Tor relay maintains a
set minimum portion of the machine's total resources" (§5.3, §6.2).  That
is exactly a two-level cgroup hierarchy: one parent group for the whole
Bento server, one child per container.  Charges propagate to ancestors; a
limit anywhere on the path rejects the charge.
"""

from __future__ import annotations

from typing import Optional

from repro.util.errors import ReproError


class ResourceExceeded(ReproError):
    """A charge would push some group past its limit."""

    def __init__(self, group: "CGroup", resource: str, requested: int) -> None:
        self.group = group
        self.resource = resource
        self.requested = requested
        super().__init__(
            f"cgroup {group.name!r}: {resource} charge of {requested} exceeds "
            f"limit {group.limits.get(resource)} "
            f"(used {group.usage.get(resource, 0)})"
        )


RESOURCES = ("memory", "disk", "cpu_ms", "net_bytes")


class CGroup:
    """One node in the accounting hierarchy."""

    def __init__(self, name: str, parent: Optional["CGroup"] = None,
                 **limits: int) -> None:
        unknown = set(limits) - set(RESOURCES)
        if unknown:
            raise ValueError(f"unknown resources: {sorted(unknown)}")
        self.name = name
        self.parent = parent
        self.limits: dict[str, int] = dict(limits)
        self.usage: dict[str, int] = {resource: 0 for resource in RESOURCES}
        self.peak: dict[str, int] = {resource: 0 for resource in RESOURCES}
        self.children: list[CGroup] = []
        if parent is not None:
            parent.children.append(self)

    def child(self, name: str, **limits: int) -> "CGroup":
        """Create a child group."""
        return CGroup(name, parent=self, **limits)

    # -- accounting -----------------------------------------------------------

    def _would_exceed(self, resource: str, amount: int) -> Optional["CGroup"]:
        group: Optional[CGroup] = self
        while group is not None:
            limit = group.limits.get(resource)
            if limit is not None and group.usage[resource] + amount > limit:
                return group
            group = group.parent
        return None

    def charge(self, resource: str, amount: int) -> None:
        """Add usage; raises :class:`ResourceExceeded` without side effects.

        Negative amounts release usage (floored at zero).
        """
        if resource not in RESOURCES:
            raise ValueError(f"unknown resource: {resource}")
        if amount > 0:
            blocker = self._would_exceed(resource, amount)
            if blocker is not None:
                raise ResourceExceeded(blocker, resource, amount)
        group: Optional[CGroup] = self
        while group is not None:
            group.usage[resource] = max(0, group.usage[resource] + amount)
            group.peak[resource] = max(group.peak[resource], group.usage[resource])
            group = group.parent

    def release_all(self) -> None:
        """Return this group's entire usage to its ancestors (teardown)."""
        for resource in RESOURCES:
            used = self.usage[resource]
            if used:
                group = self.parent
                while group is not None:
                    group.usage[resource] = max(0, group.usage[resource] - used)
                    group = group.parent
                self.usage[resource] = 0
        if self.parent is not None and self in self.parent.children:
            self.parent.children.remove(self)

    def charge_many(self, charges: dict) -> None:
        """Charge several resources as one atomic transaction.

        Either every charge lands or none does: all positive charges are
        checked against the whole ancestor path before anything mutates,
        and if an individual apply still fails (a concurrent limit change
        mid-path), the charges already applied are rolled back before the
        error propagates.  This is what admission pricing uses to reserve
        a manifest's full resource ask (memory *and* disk) without ever
        leaving a partial reservation behind.
        """
        unknown = set(charges) - set(RESOURCES)
        if unknown:
            raise ValueError(f"unknown resources: {sorted(unknown)}")
        for resource, amount in charges.items():
            if amount > 0:
                blocker = self._would_exceed(resource, amount)
                if blocker is not None:
                    raise ResourceExceeded(blocker, resource, amount)
        applied: list[tuple[str, int]] = []
        try:
            for resource, amount in charges.items():
                if amount:
                    self.charge(resource, amount)
                    applied.append((resource, amount))
        except BaseException:
            for resource, amount in reversed(applied):
                self.charge(resource, -amount)
            raise

    # -- queries ------------------------------------------------------------------

    def slack(self) -> dict:
        """Per-resource headroom along the ancestor path (None = unlimited).

        The serving plane advertises this through the directory so clients
        can place work on the box with the most room (B-JointSP-style
        joint placement) instead of picking blindly.
        """
        return {resource: self.headroom(resource) for resource in RESOURCES}

    def headroom(self, resource: str) -> Optional[int]:
        """Remaining capacity along the whole ancestor path (None = unlimited)."""
        remaining: Optional[int] = None
        group: Optional[CGroup] = self
        while group is not None:
            limit = group.limits.get(resource)
            if limit is not None:
                slack = limit - group.usage[resource]
                remaining = slack if remaining is None else min(remaining, slack)
            group = group.parent
        return remaining

    def charge_hook(self, resource: str):
        """``charge(resource, delta)`` as one callable, for a
        :class:`~repro.sandbox.memfs.ChrootView`'s ``charge``."""
        def _hook(delta: int) -> None:
            self.charge(resource, delta)
        return _hook

"""Expand a spec into the concrete, replayable event program.

:func:`generate` turns a :class:`~repro.workload.spec.WorkloadSpec` into a
:class:`Workload`: the full sorted list of client events the runner will
execute, with every stochastic choice (arrival times, attack flags,
session lifetimes) already made.  The expansion draws only from RNGs
forked off ``spec.seed`` — one independent stream per tenant, so adding a
tenant to a spec never perturbs another tenant's schedule — and is a pure
function: the same spec generates the byte-identical event list, which
:meth:`Workload.digest` pins.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.rng import DeterministicRandom
from repro.util.serialization import canonical_digest
from repro.workload.arrivals import generate_arrivals
from repro.workload.spec import WorkloadSpec

__all__ = ["WorkloadEvent", "Workload", "generate"]


@dataclass(frozen=True)
class WorkloadEvent:
    """One client action the runner will perform.

    ``kind`` is ``"session"`` for ordinary arrivals and ``"attack"`` for
    a ddos tenant's proof-of-work-less introductions.  ``attrs`` carries
    process-specific extras (``lifetime_s``/``generation`` for churn,
    ``flash`` for flash-crowd arrivals) as a sorted tuple of pairs so the
    event is hashable and canonically encodable.
    """

    t: float
    tenant: str
    index: int
    kind: str
    attrs: tuple = ()

    def to_dict(self) -> dict:
        return {"t": self.t, "tenant": self.tenant, "index": self.index,
                "kind": self.kind, "attrs": dict(self.attrs)}

    def attr(self, name: str, default=None):
        for key, value in self.attrs:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class Workload:
    """A spec plus its fully-expanded event program."""

    spec: WorkloadSpec
    events: tuple[WorkloadEvent, ...]

    def digest(self) -> str:
        """SHA-256 over spec digest + canonical events: the replay identity.

        Two runs of :func:`generate` on equal specs must produce equal
        digests (the property tests pin this); two different schedules
        can never collide into the same digest.
        """
        payload = {
            "spec": self.spec.digest(),
            "events": [e.to_dict() for e in self.events],
        }
        return canonical_digest(payload)

    def per_tenant(self) -> dict[str, list[WorkloadEvent]]:
        """Events grouped by tenant, preserving time order."""
        grouped: dict[str, list[WorkloadEvent]] = {
            t.name: [] for t in self.spec.tenants}
        for event in self.events:
            grouped[event.tenant].append(event)
        return grouped


def generate(spec: WorkloadSpec) -> Workload:
    """Expand ``spec`` into its deterministic event program."""
    root = DeterministicRandom(f"workload:{spec.seed}")
    events: list[WorkloadEvent] = []
    for tenant in spec.tenants:
        rng = root.fork(f"tenant:{tenant.name}")
        attack_rng = root.fork(f"attack:{tenant.name}")
        for index, record in enumerate(
                generate_arrivals(tenant.arrivals, rng, spec.duration_s)):
            kind = "session"
            if tenant.function == "ddos_defense" \
                    and attack_rng.random() < tenant.attack_fraction:
                kind = "attack"
            attrs = tuple(sorted((k, v) for k, v in record.items()
                                 if k != "t"))
            events.append(WorkloadEvent(t=record["t"], tenant=tenant.name,
                                        index=index, kind=kind, attrs=attrs))
    # Global order: time, then tenant name, then index — a total order
    # independent of dict/set iteration, so the program is reproducible.
    events.sort(key=lambda e: (e.t, e.tenant, e.index))
    return Workload(spec=spec, events=tuple(events))

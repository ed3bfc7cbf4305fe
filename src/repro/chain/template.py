"""Chain templates: a line of functions as the unit of deployment.

Bento deploys and attests *single* functions, but the paper's composite
scenario — Cover fronting a Browser defense in front of a store — is a
service *chain*: an ordered line of functions, as a service chain is an
ordered segment list.  A :class:`ChainSpec` is the declarative manifest
for one such chain, in the template/overlay style of B-JointSP: the
**template** says what the service is (components in visiting order,
with cpu/memory demand and statefulness, and one arc per hop with its
data rate); the **overlay** (:mod:`repro.chain.embed`) says how it is
realized right now (replica counts, box placement, arc routing).

Like :class:`~repro.workload.spec.WorkloadSpec`, templates are plain data
end to end (:mod:`repro.util.spec`: lossless dict/JSON round-trips, a
canonical digest that is the template's identity, strict parsing).  On
top of that, zero-rate arcs and arcs that are not exactly the hops
between consecutive components raise :class:`ChainSpecError` instead of
deploying a chain you did not mean to run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ReproError
from repro.util.spec import Spec

__all__ = [
    "TRANSFORMS", "ComponentSpec", "ArcSpec", "ChainSpec", "ChainSpecError",
    "apply_transform", "pipeline_chain",
]

MB = 1024 * 1024

#: Per-unit transforms a component may apply; parameterized forms carry
#: an integer argument after a colon (``pad:256``, ``strip:256``,
#: ``xor:90``).  ``relay`` forwards the unit untouched.
TRANSFORMS = ("relay", "pad", "strip", "xor")


class ChainSpecError(ReproError):
    """A chain template failed validation or could not be parsed."""


class ChainPart(Spec):
    """Every dataclass of a chain template or overlay raises the one
    error class."""

    Error = ChainSpecError


_require = ChainPart._require


def _parse_transform(transform: str) -> tuple[str, int]:
    """``("pad", 256)`` for ``"pad:256"``; raises on malformed forms."""
    kind, _sep, arg = transform.partition(":")
    _require(kind in TRANSFORMS,
             f"transform must be one of {TRANSFORMS}, got {transform!r}")
    if kind == "relay":
        _require(not arg, "relay takes no argument")
        return kind, 0
    _require(arg.isdigit(), f"transform {transform!r} needs an integer "
             f"argument (e.g. '{kind}:16')")
    value = int(arg)
    _require(value >= 1, f"transform {transform!r} argument must be >= 1")
    if kind == "xor":
        _require(value <= 255, "xor argument must fit one byte")
    return kind, value


def apply_transform(transform: str, unit: bytes) -> bytes:
    """What one component does to one traffic unit (host-side oracle).

    The deployed stage function applies exactly this, so end-to-end
    correctness of a chain is checkable: the last component's output must
    equal the payload with every component's transform folded in, in
    order.
    """
    kind, arg = _parse_transform(transform)
    if kind == "relay":
        return unit
    if kind == "pad":
        return unit + bytes(arg)
    if kind == "strip":
        if len(unit) < arg:
            raise ChainSpecError(f"strip:{arg} on a {len(unit)}-byte unit")
        return unit[:-arg]
    return bytes(b ^ arg for b in unit)   # xor


@dataclass(frozen=True)
class ComponentSpec(ChainPart):
    """One network function in the chain.

    ``capacity_units_per_s`` is what a single replica can drain — the
    embedding engine scales replicas out until the component's ingress
    rate fits.  ``cpu_ms_per_unit`` and ``memory_bytes`` are the declared
    per-unit/resident demand the capacity ledger prices.  ``stateful``
    pins the component to exactly one replica (its state cannot be
    sharded by the embedder; only the migrate plane may move it).
    """

    context = "component"

    name: str
    cpu_ms_per_unit: float = 1.0
    memory_bytes: int = 2 * MB
    capacity_units_per_s: float = 8.0
    stateful: bool = False
    max_replicas: int = 4
    transform: str = "relay"

    def __post_init__(self) -> None:
        _require(bool(self.name) and self.name.isidentifier(),
                 f"component name must be a non-empty identifier, "
                 f"got {self.name!r}")
        _require(self.cpu_ms_per_unit >= 0.0, "cpu_ms_per_unit must be >= 0")
        _require(self.memory_bytes >= 1, "memory_bytes must be >= 1")
        _require(self.capacity_units_per_s > 0.0,
                 "capacity_units_per_s must be > 0")
        _require(self.max_replicas >= 1, "max_replicas must be >= 1")
        if self.stateful:
            _require(self.max_replicas == 1,
                     "a stateful component is pinned to max_replicas=1")
        _parse_transform(self.transform)


@dataclass(frozen=True)
class ArcSpec(ChainPart):
    """One hop of the chain: traffic from ``src`` to ``dst``.

    ``rate_units_per_s`` is the offered rate the embedding sizes against
    (zero-rate arcs are rejected — an arc carrying nothing is a template
    bug, not a degenerate case).  ``bidirectional`` declares a reverse
    flow (acks, responses) riding the same hop; the embedder counts it
    against both endpoints' network budgets.
    """

    context = "arc"

    src: str
    dst: str
    rate_units_per_s: float
    unit_bytes: int = 4096
    bidirectional: bool = False

    def __post_init__(self) -> None:
        _require(bool(self.src) and bool(self.dst),
                 "arc endpoints must be non-empty")
        _require(self.src != self.dst,
                 f"arc {self.src}->{self.dst} is a self-loop")
        _require(self.rate_units_per_s > 0.0,
                 f"arc {self.src}->{self.dst} has zero rate "
                 f"(zero-rate arcs are rejected)")
        _require(self.unit_bytes >= 1, "unit_bytes must be >= 1")

    @property
    def key(self) -> str:
        """The arc's stable label (metrics, routing tables)."""
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True)
class ChainSpec(ChainPart):
    """A complete chain template: components in visiting order, and
    ``arcs[i]`` the hop from ``components[i]`` to ``components[i + 1]``."""

    context = "chain"

    name: str
    components: tuple[ComponentSpec, ...]
    arcs: tuple[ArcSpec, ...] = ()

    def __post_init__(self) -> None:
        _require(bool(self.name), "chain name must be non-empty")
        for attr in ("components", "arcs"):
            value = getattr(self, attr)
            if not isinstance(value, tuple):
                object.__setattr__(self, attr, tuple(value))
        _require(len(self.components) >= 1,
                 "chain needs at least one component")
        names = self.embed_order()
        _require(len(set(names)) == len(names),
                 f"component names must be unique, got {names}")
        hops = [f"{a}->{b}" for a, b in zip(names, names[1:])]
        got = [arc.key for arc in self.arcs]
        _require(got == hops, f"a chain's arcs are its hops in component "
                 f"order: expected {hops}, got {got}")

    def component(self, name: str) -> ComponentSpec:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise ChainSpecError(f"no component named {name!r}")

    def embed_order(self) -> list[str]:
        """The component names in visiting order."""
        return [comp.name for comp in self.components]

    def ingress_units_per_s(self, name: str) -> float:
        """The rate a component must drain: its incoming hop's rate (or,
        for the first component, the rate it emits downstream)."""
        if not self.arcs:
            return 0.0
        index = self.embed_order().index(name)
        return self.arcs[max(index - 1, 0)].rate_units_per_s


# -- stock templates -------------------------------------------------------

def pipeline_chain(name: str = "cover-browser-store",
                   rate_units_per_s: float = 4.0,
                   unit_bytes: int = 4096,
                   pad_bytes: int = 256,
                   capacity_units_per_s: float = 2.0,
                   max_replicas: int = 4) -> ChainSpec:
    """The paper's composite scenario as a linear chain.

    ``cover`` pads every unit to a fixed-looking size (Cover's
    traffic-shaping role), ``defense`` strips the padding back off and
    normalizes the stream (the Browser defense), and a stateful ``store``
    keeps the result (the Dropbox role — pinned, so only the migrate
    plane may move it).
    """
    return ChainSpec(
        name=name,
        components=(
            ComponentSpec(name="cover", transform=f"pad:{pad_bytes}",
                          capacity_units_per_s=capacity_units_per_s,
                          max_replicas=max_replicas),
            ComponentSpec(name="defense", transform=f"strip:{pad_bytes}",
                          cpu_ms_per_unit=2.0,
                          capacity_units_per_s=capacity_units_per_s,
                          max_replicas=max_replicas),
            ComponentSpec(name="store", transform="relay", stateful=True,
                          capacity_units_per_s=4 * capacity_units_per_s,
                          max_replicas=1),
        ),
        arcs=(
            ArcSpec(src="cover", dst="defense",
                    rate_units_per_s=rate_units_per_s,
                    unit_bytes=unit_bytes + pad_bytes),
            ArcSpec(src="defense", dst="store",
                    rate_units_per_s=rate_units_per_s,
                    unit_bytes=unit_bytes, bidirectional=True),
        ),
    )


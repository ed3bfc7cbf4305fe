"""Chain templates: the service graph as the unit of deployment.

Bento deploys and attests *single* functions, but the paper's composite
scenarios — Cover fronting a Browser defense, a LoadBalancer fanning out
to sharded Dropboxes — are service *chains*.  A :class:`ChainSpec` is the
declarative manifest for one such chain, in the template/overlay style of
B-JointSP: the **template** says what the service is (components with
cpu/memory demand and statefulness, directed arcs with per-arc data
rates, sources and sinks); the **overlay** (:mod:`repro.chain.embed`)
says how it is realized right now (replica counts, box placement, arc
routing).

Like :class:`~repro.workload.spec.WorkloadSpec`, templates are plain data
end to end (:mod:`repro.util.spec`: lossless dict/JSON round-trips, a
canonical digest that is the template's identity, strict parsing).  On
top of that, dangling arcs, zero-rate arcs, and (unless explicitly
allowed) cycles raise :class:`ChainSpecError` instead of deploying a
graph you did not mean to run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.errors import ReproError
from repro.util.spec import Spec

__all__ = [
    "ARC_MODES", "TRANSFORMS",
    "ComponentSpec", "ArcSpec", "ChainSpec", "ChainSpecError",
    "apply_transform", "pipeline_chain", "fanout_chain",
]

MB = 1024 * 1024

#: Fan-out semantics of a component's *outgoing* arcs: ``split``
#: partitions traffic units across the arcs by rate share (LoadBalancer
#: wiring), ``copy`` duplicates every unit down the arc (Shard-style
#: scatter wiring).
ARC_MODES = ("split", "copy")

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
    correctness of a chain is checkable: the sink's output must equal the
    source payload with every path component's transform folded in.
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
    """One directed edge: traffic from ``src`` to ``dst``.

    ``rate_units_per_s`` is the offered rate the embedding sizes against
    (zero-rate arcs are rejected — an arc carrying nothing is a template
    bug, not a degenerate case).  ``bidirectional`` declares a reverse
    flow (acks, responses) riding the same edge; the embedder counts it
    against both endpoints' network budgets.
    """

    context = "arc"

    src: str
    dst: str
    rate_units_per_s: float
    unit_bytes: int = 4096
    bidirectional: bool = False
    mode: str = "split"

    def __post_init__(self) -> None:
        _require(bool(self.src) and bool(self.dst),
                 "arc endpoints must be non-empty")
        _require(self.src != self.dst,
                 f"arc {self.src}->{self.dst} is a self-loop")
        _require(self.rate_units_per_s > 0.0,
                 f"arc {self.src}->{self.dst} has zero rate "
                 f"(zero-rate arcs are rejected)")
        _require(self.unit_bytes >= 1, "unit_bytes must be >= 1")
        _require(self.mode in ARC_MODES,
                 f"arc mode must be one of {ARC_MODES}, got {self.mode!r}")

    @property
    def key(self) -> str:
        """The arc's stable label (metrics, routing tables)."""
        return f"{self.src}->{self.dst}"


@dataclass(frozen=True)
class ChainSpec(ChainPart):
    """A complete service-graph template."""

    context = "chain"

    name: str
    components: tuple[ComponentSpec, ...]
    arcs: tuple[ArcSpec, ...] = ()
    sources: tuple[str, ...] = ()
    sinks: tuple[str, ...] = ()
    allow_cycles: bool = False

    def __post_init__(self) -> None:
        _require(bool(self.name), "chain name must be non-empty")
        for attr in ("components", "arcs", "sources", "sinks"):
            value = getattr(self, attr)
            if not isinstance(value, tuple):
                object.__setattr__(self, attr, tuple(value))
        _require(len(self.components) >= 1,
                 "chain needs at least one component")
        names = [c.name for c in self.components]
        _require(len(set(names)) == len(names),
                 f"component names must be unique, got {names}")
        known = set(names)
        seen_edges = set()
        for arc in self.arcs:
            _require(arc.src in known,
                     f"arc {arc.key} dangles: unknown component {arc.src!r}")
            _require(arc.dst in known,
                     f"arc {arc.key} dangles: unknown component {arc.dst!r}")
            _require((arc.src, arc.dst) not in seen_edges,
                     f"duplicate arc {arc.key}")
            seen_edges.add((arc.src, arc.dst))
        # Default sources/sinks to the graph's own degree structure.
        has_in = {a.dst for a in self.arcs}
        has_out = {a.src for a in self.arcs}
        if not self.sources:
            object.__setattr__(self, "sources",
                               tuple(n for n in names if n not in has_in))
        if not self.sinks:
            object.__setattr__(self, "sinks",
                               tuple(n for n in names if n not in has_out))
        _require(len(self.sources) >= 1, "chain needs at least one source")
        _require(len(self.sinks) >= 1, "chain needs at least one sink")
        for src in self.sources:
            _require(src in known, f"unknown source {src!r}")
            _require(src not in has_in,
                     f"source {src!r} has incoming arcs")
        for sink in self.sinks:
            _require(sink in known, f"unknown sink {sink!r}")
            _require(sink not in has_out,
                     f"sink {sink!r} has outgoing arcs")
        _require(not set(self.sources) & set(self.sinks)
                 or len(self.components) == 1,
                 "sources and sinks must be disjoint")
        order = self._topo_order()
        if not self.allow_cycles:
            _require(order is not None, "chain graph has a cycle "
                     "(set allow_cycles=True to permit it)")
        # Every component must lie on some source→sink path's closure:
        # unreachable components would deploy replicas no traffic visits.
        reachable = self._reachable_from(set(self.sources))
        dangling = sorted(set(names) - reachable)
        _require(not dangling,
                 f"components unreachable from any source: {dangling}")

    # -- graph views -------------------------------------------------------

    def component(self, name: str) -> ComponentSpec:
        for comp in self.components:
            if comp.name == name:
                return comp
        raise ChainSpecError(f"no component named {name!r}")

    def arcs_in(self, name: str) -> list[ArcSpec]:
        return [a for a in self.arcs if a.dst == name]

    def arcs_out(self, name: str) -> list[ArcSpec]:
        return [a for a in self.arcs if a.src == name]

    def ingress_units_per_s(self, name: str) -> float:
        """The rate a component must drain: its incoming arc rates (or,
        for a source, the rates it is declared to emit downstream)."""
        incoming = self.arcs_in(name)
        if incoming:
            return sum(a.rate_units_per_s for a in incoming)
        return sum(a.rate_units_per_s for a in self.arcs_out(name))

    def _reachable_from(self, seeds: set) -> set:
        out: dict[str, list[str]] = {}
        for arc in self.arcs:
            out.setdefault(arc.src, []).append(arc.dst)
        reached = set(seeds)
        frontier = list(seeds)
        while frontier:
            node = frontier.pop()
            for nxt in out.get(node, ()):
                if nxt not in reached:
                    reached.add(nxt)
                    frontier.append(nxt)
        return reached

    def _topo_order(self) -> list[str] | None:
        """Kahn's algorithm; None when the graph has a cycle."""
        indeg = {c.name: 0 for c in self.components}
        for arc in self.arcs:
            indeg[arc.dst] += 1
        ready = sorted(n for n, d in indeg.items() if d == 0)
        order: list[str] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for arc in self.arcs_out(node):
                indeg[arc.dst] -= 1
                if indeg[arc.dst] == 0:
                    # Insertion keeps `ready` sorted: deterministic order.
                    ready.append(arc.dst)
                    ready.sort()
        return order if len(order) == len(indeg) else None

    def embed_order(self) -> list[str]:
        """Components in deterministic processing order.

        Topological for DAGs; for ``allow_cycles`` graphs, BFS layers
        from the sources with back-arcs ignored (ties alphabetical), so
        the embedder still visits every component exactly once.
        """
        order = self._topo_order()
        if order is not None:
            return order
        seen: list[str] = []
        frontier = sorted(self.sources)
        while frontier:
            node = frontier.pop(0)
            if node in seen:
                continue
            seen.append(node)
            nxt = sorted(a.dst for a in self.arcs_out(node)
                         if a.dst not in seen)
            frontier.extend(n for n in nxt if n not in frontier)
        for comp in self.components:     # cycle-only stragglers
            if comp.name not in seen:
                seen.append(comp.name)
        return seen

    def path_transforms(self, sink: str) -> list[str]:
        """The transform pipeline along the (unique) path to ``sink``.

        Only defined for chains where each component has at most one
        incoming arc (true of every stock template); raises otherwise.
        """
        path = [sink]
        node = sink
        while True:
            incoming = self.arcs_in(node)
            if not incoming:
                break
            _require(len(incoming) == 1,
                     f"path to {sink!r} is not unique (fan-in at {node!r})")
            node = incoming[0].src
            path.append(node)
        return [self.component(n).transform for n in reversed(path)]


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
        sources=("cover",),
        sinks=("store",),
    )


def fanout_chain(name: str = "lb-dropboxes",
                 n_dropboxes: int = 3,
                 rate_units_per_s: float = 6.0,
                 unit_bytes: int = 4096) -> ChainSpec:
    """A LoadBalancer fanning out to sharded Dropboxes (copy wiring)."""
    components = [ComponentSpec(name="balancer", transform="relay",
                                capacity_units_per_s=2 * rate_units_per_s,
                                max_replicas=2)]
    arcs = []
    sinks = []
    for i in range(n_dropboxes):
        box = f"dropbox{i}"
        components.append(ComponentSpec(
            name=box, transform=f"xor:{(i % 255) + 1}", stateful=True,
            capacity_units_per_s=rate_units_per_s, max_replicas=1))
        # Copy wiring: every unit rides every arc, so each arc carries
        # the balancer's full emission rate on the wire.
        arcs.append(ArcSpec(src="balancer", dst=box,
                            rate_units_per_s=rate_units_per_s,
                            unit_bytes=unit_bytes, mode="copy"))
        sinks.append(box)
    return ChainSpec(name=name, components=tuple(components),
                     arcs=tuple(arcs), sources=("balancer",),
                     sinks=tuple(sinks))

"""Joint scaling-and-placement: turn a chain template into an overlay.

The embedding problem, after B-JointSP: given a :class:`ChainSpec`
template, the candidate Bento boxes, and the QoS directory's advertised
load reports, decide **jointly** (a) how many replicas each component
needs, (b) which box each replica runs on, and (c) how each template arc
routes between concrete replicas.  The result is an :class:`Overlay` —
plain data with a canonical digest, so the same inputs embed
bit-identically every time (no RNG anywhere below).

Two engines live here:

* :func:`embed` — the **joint** engine.  Replica counts come from the
  component's ingress rate against its per-replica capacity; placement
  walks the graph in deterministic embed order, spending a *capacity
  ledger* (admission slots and advertised memory debited as replicas
  land), with anti-affinity so a component's replicas spread across
  boxes.  Because the ledger is spent as the walk proceeds, the decision
  for a downstream component sees the load its upstream neighbors just
  created — the "joint" in joint placement.
* :func:`greedy_embed` — the **per-function baseline** kept as the
  ablation contrast: one replica per component, each placed
  independently by :func:`repro.qos.placement.pick_box_by_slack` against
  the *static* load table.  Every function sees the same emptiest box and
  piles onto it — exactly the collapse the benchmark measures.

The objective the joint engine minimizes (lexicographically): first the
peak per-box offered rate (the saturated box is where chain goodput
dies), then cross-box arc traffic, then fingerprint order for stability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.chain.template import ChainPart, ChainSpec, ChainSpecError
from repro.qos.placement import pick_box_by_slack

__all__ = ["Replica", "Flow", "Overlay", "EmbedError",
           "embed", "greedy_embed"]


class EmbedError(ChainSpecError):
    """No feasible overlay exists for this template on these boxes."""


#: What a box that has never advertised a load report (not running the
#: serving plane, or never busy) is assumed to have free.
DEFAULT_SLOTS = 8
DEFAULT_MEM_BYTES = 64 * 1024 * 1024


@dataclass(frozen=True)
class Replica(ChainPart):
    """One placed instance of a component."""

    component: str
    index: int
    box_fp: str


@dataclass(frozen=True)
class Flow(ChainPart):
    """One routed slice of a template arc between concrete replicas."""

    arc: str
    src_index: int
    dst_index: int
    rate_units_per_s: float


@dataclass(frozen=True)
class Overlay(ChainPart):
    """A realized chain: replicas, routes, and the placement score.

    Plain data like the template it realizes: ``digest()`` is its
    canonical identity — same inputs must reproduce these bytes.
    """

    chain: str
    chain_digest: str
    engine: str                       # "joint" | "greedy"
    replicas: tuple[Replica, ...]
    flows: tuple[Flow, ...]
    objective: dict

    def replicas_of(self, component: str) -> list[Replica]:
        return [r for r in self.replicas if r.component == component]

    def flows_of(self, arc_key: str) -> list[Flow]:
        return [f for f in self.flows if f.arc == arc_key]

    def boxes_used(self) -> list[str]:
        return sorted({r.box_fp for r in self.replicas})


def _box_budget(fp: str, load_table: Mapping[str, dict]) -> dict:
    """The ledger line for one box: what the directory says is free."""
    report = load_table.get(fp)
    if report is None:
        return {"slots": DEFAULT_SLOTS, "mem": DEFAULT_MEM_BYTES,
                "queue": 0, "shedding": False, "rate": 0.0}
    return {"slots": int(report.get("slots_free", 0)),
            "mem": int(report.get("mem_free", DEFAULT_MEM_BYTES)),
            "queue": int(report.get("queue_len", 0)),
            "shedding": bool(report.get("shedding", False)),
            "rate": 0.0}


def _replica_count(spec: ChainSpec, component: str) -> int:
    """Replicas sized exactly to the offered rate (no over-provisioning)."""
    comp = spec.component(component)
    if comp.stateful:
        return 1
    demand = spec.ingress_units_per_s(component)
    # Integer ceil over micro-units: float-division-free, so the count is
    # reproducible to the bit on any platform.
    denom = max(1, int(comp.capacity_units_per_s * 1_000_000))
    need = max(1, -(-int(demand * 1_000_000) // denom))
    return min(need, comp.max_replicas)


def embed(spec: ChainSpec, boxes: Sequence, load_table: Mapping[str, dict],
          exclude_fps: Sequence[str] = (),
          pinned: Optional[Mapping[tuple[str, int], str]] = None) -> Overlay:
    """The joint engine: scale out and place against a spent ledger.

    ``exclude_fps`` removes boxes (crashed, draining) from consideration.
    ``pinned`` maps ``(component, replica_index) -> box_fp`` assignments
    that must survive — re-embedding after a failure pins every replica
    on a still-healthy box so only the broken ones move.
    """
    pinned = dict(pinned or {})
    excluded = set(exclude_fps)
    candidates = sorted((b for b in boxes
                         if b.identity_fp not in excluded),
                        key=lambda b: b.identity_fp)
    if not candidates:
        raise EmbedError("no candidate boxes to embed on")
    ledger = {b.identity_fp: _box_budget(b.identity_fp, load_table)
              for b in candidates}
    for key, fp in pinned.items():
        if fp in excluded or fp not in ledger:
            raise EmbedError(f"pinned replica {key} sits on an excluded "
                             f"or unknown box {fp}")

    order = spec.embed_order()
    counts = {name: _replica_count(spec, name) for name in order}
    placements: dict[tuple[str, int], str] = {}
    replicas: list[Replica] = []

    for name in order:
        comp = spec.component(name)
        n = counts[name]
        share = spec.ingress_units_per_s(name) / n
        for index in range(n):
            fp = pinned.get((name, index))
            if fp is None:
                fp = _pick(ledger, name, comp, placements)
            line = ledger[fp]
            line["slots"] -= 1
            line["mem"] -= comp.memory_bytes
            line["rate"] += share
            placements[(name, index)] = fp
            replicas.append(Replica(component=name, index=index, box_fp=fp))

    flows = _route(spec, counts)
    objective = _score(spec, counts, placements, ledger)
    return Overlay(chain=spec.name, chain_digest=spec.digest(),
                   engine="joint", replicas=tuple(replicas),
                   flows=tuple(flows), objective=objective)


def _pick(ledger: dict, name: str, comp, placements: dict) -> str:
    """The most attractive box for the next replica of ``name``.

    Ranking (ascending = better): non-shedding first, then boxes not
    already hosting this component (spread replicas for availability),
    then the lowest offered rate so far, then the most remaining slots,
    then the shortest queue, then fingerprint — every key is derived
    from the ledger this embedding is itself spending, never from dict
    iteration order.
    """
    sibling_boxes = {fp for (cname, _i), fp in placements.items()
                     if cname == name}

    def key(item):
        fp, line = item
        return (1 if line["shedding"] else 0,
                1 if fp in sibling_boxes else 0,
                line["rate"],
                -line["slots"],
                line["queue"],
                fp)

    usable = [(fp, line) for fp, line in sorted(ledger.items())
              if line["slots"] >= 1 and line["mem"] >= comp.memory_bytes]
    if not usable:
        # Capacity exhausted everywhere: fall back to least-loaded
        # overcommit rather than failing the whole chain.
        usable = list(sorted(ledger.items()))
        if not usable:
            raise EmbedError(f"no box can host component {name!r}")
    return min(usable, key=key)[0]


def greedy_embed(spec: ChainSpec, boxes: Sequence,
                 load_table: Mapping[str, dict]) -> Overlay:
    """The per-function baseline: no ledger, no scaling, no jointness.

    Each component independently asks "which box has the most advertised
    slack **right now**?" — the same static answer for all of them — and
    deploys a single replica there.  This is what deploying the chain as
    N unrelated Bento functions does today, and the ablation the joint
    engine is benchmarked against.
    """
    candidates = sorted(boxes, key=lambda b: b.identity_fp)
    if not candidates:
        raise EmbedError("no candidate boxes to embed on")
    replicas = []
    placements: dict[tuple[str, int], str] = {}
    order = spec.embed_order()
    for name in order:
        box = pick_box_by_slack(candidates, dict(load_table))
        placements[(name, 0)] = box.identity_fp
        replicas.append(Replica(component=name, index=0,
                                box_fp=box.identity_fp))
    counts = {name: 1 for name in order}
    flows = _route(spec, counts)
    ledger = {b.identity_fp: _box_budget(b.identity_fp, load_table)
              for b in candidates}
    for (name, _i), fp in placements.items():
        ledger[fp]["rate"] += spec.ingress_units_per_s(name)
    objective = _score(spec, counts, placements, ledger)
    return Overlay(chain=spec.name, chain_digest=spec.digest(),
                   engine="greedy", replicas=tuple(replicas),
                   flows=tuple(flows), objective=objective)


def _route(spec: ChainSpec, counts: Mapping[str, int]) -> list[Flow]:
    """Split every arc across replica pairs, deterministically.

    A ``split`` arc divides its rate evenly over (src, dst) replica
    pairs; a ``copy`` arc delivers each unit to one dst replica per
    source unit but every unit traverses the arc, so the rate divides
    over source replicas only.
    """
    flows: list[Flow] = []
    for arc in spec.arcs:
        n_src = counts[arc.src]
        n_dst = counts[arc.dst]
        per_pair = arc.rate_units_per_s / (n_src * n_dst)
        for i in range(n_src):
            for j in range(n_dst):
                flows.append(Flow(arc=arc.key, src_index=i, dst_index=j,
                                  rate_units_per_s=round(per_pair, 9)))
    return flows


def _score(spec: ChainSpec, counts: Mapping[str, int],
           placements: Mapping[tuple[str, int], str],
           ledger: Mapping[str, dict]) -> dict:
    """The objective line the benchmark reports as placement quality."""
    per_box: dict[str, float] = {}
    for (name, _i), fp in placements.items():
        share = spec.ingress_units_per_s(name) / counts[name]
        per_box[fp] = per_box.get(fp, 0.0) + share
    cross = 0.0
    for arc in spec.arcs:
        n_src, n_dst = counts[arc.src], counts[arc.dst]
        per_pair = arc.rate_units_per_s / (n_src * n_dst)
        factor = 2.0 if arc.bidirectional else 1.0
        for i in range(n_src):
            for j in range(n_dst):
                if placements[(arc.src, i)] != placements[(arc.dst, j)]:
                    cross += per_pair * arc.unit_bytes * factor
    total_replicas = sum(counts.values())
    return {
        "replicas": total_replicas,
        "boxes_used": len(per_box),
        "peak_box_units_per_s": round(max(per_box.values()), 9)
        if per_box else 0.0,
        "cross_box_bytes_per_s": round(cross, 6),
        "replica_counts": {name: counts[name] for name in sorted(counts)},
    }

"""Seeded, topology-aware node partitioning for the sharded kernel.

The sharded simulator (:mod:`repro.netsim.shard`) owes its speedup to a
good partition: nodes that talk a lot must land on the same shard so
cross-shard traffic — which can only move at epoch barriers — stays
rare, and the *lookahead* (the minimum latency of any cross-shard edge)
stays large so epochs are long.

:func:`partition_nodes` is deterministic for a fixed seed.  It first
*coarsens* the graph: a union-find sweep over edges in descending weight
merges nodes into communities as long as the merged community still fits
one shard's ideal load, so tightly-coupled clusters (racks, groups,
cliques) become indivisible units instead of being scattered by
placement order.  Communities are then placed largest-first on the shard
where they have the most already-placed edge weight (ties broken by load
then shard id; a community that fits no shard within the slack is split
back into per-node greedy placement), followed by a bounded number of
refinement passes that move single nodes when doing so reduces the cut
without unbalancing the shards.  No randomness survives into the result
beyond the seeded tie-order of zero-degree nodes, so the same inputs
always produce the same assignment — a prerequisite for replaying
sharded runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from repro.util.rng import DeterministicRandom

__all__ = ["Partition", "partition_nodes", "lookahead_s"]

#: Allowed load imbalance: a shard may carry up to this multiple of the
#: ideal (total / n_shards) node weight.
_BALANCE_SLACK = 1.2

#: Refinement passes over every node; two passes recover nearly all of
#: the locality a single greedy sweep leaves on the table.
_REFINE_PASSES = 2


@dataclass(frozen=True)
class Partition:
    """An assignment of node names to shards, plus its cut edges."""

    n_shards: int
    assignment: dict[str, int]
    #: Edges crossing shards, as ``(a, b, weight)``; subset of the input.
    cut_edges: tuple = field(default=())

    def shard_of(self, name: str) -> int:
        """The shard owning ``name`` (KeyError for unknown nodes)."""
        return self.assignment[name]

    def nodes_of(self, shard: int) -> tuple[str, ...]:
        """Every node assigned to ``shard``, in input order."""
        return tuple(name for name, s in self.assignment.items()
                     if s == shard)

    def __repr__(self) -> str:
        return (f"<Partition shards={self.n_shards} "
                f"nodes={len(self.assignment)} cut={len(self.cut_edges)}>")


def partition_nodes(
    names: Sequence[str],
    n_shards: int,
    edges: Iterable[tuple[str, str, float]] = (),
    weights: Optional[dict[str, float]] = None,
    seed: int | str = 0,
) -> Partition:
    """Deterministically split ``names`` into ``n_shards`` balanced shards.

    ``edges`` are undirected ``(a, b, weight)`` affinity hints — expected
    traffic between the pair; the partitioner minimizes the total weight
    crossing shards.  ``weights`` is per-node load (defaults to 1 each);
    shard loads stay within :data:`_BALANCE_SLACK` of ideal.
    """
    names = list(names)
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if len(set(names)) != len(names):
        raise ValueError("duplicate node names")
    if n_shards == 1 or len(names) <= n_shards:
        # Degenerate cases: everything on shard 0, or one node per shard.
        assignment = {name: (0 if n_shards == 1 else index % n_shards)
                      for index, name in enumerate(names)}
        return Partition(n_shards, assignment,
                         _cut(edges, assignment) if n_shards > 1 else ())

    load = {name: (weights or {}).get(name, 1.0) for name in names}
    adjacency: dict[str, dict[str, float]] = {name: {} for name in names}
    edge_list = []
    for a, b, weight in edges:
        if a == b or a not in adjacency or b not in adjacency:
            continue
        adjacency[a][b] = adjacency[a].get(b, 0.0) + weight
        adjacency[b][a] = adjacency[b].get(a, 0.0) + weight
        edge_list.append((a, b, weight))

    total = sum(load.values())
    ideal = total / n_shards
    cap = _BALANCE_SLACK * ideal
    rng = DeterministicRandom(seed).fork("partition")

    # Coarsen: union-find over edges in descending weight, merging while
    # the community still fits one shard's ideal load.  Heavy clusters
    # become indivisible so placement can never scatter them — which is
    # what keeps intra-cluster edges off the cut and the lookahead at the
    # (large) inter-cluster latency floor.
    root = {name: name for name in names}

    def _find(name: str) -> str:
        while root[name] != name:
            root[name] = root[root[name]]
            name = root[name]
        return name

    comm_load = dict(load)
    for a, b, _weight in sorted(edge_list,
                                key=lambda e: (-e[2], e[0], e[1])):
        ra, rb = _find(a), _find(b)
        if ra != rb and comm_load[ra] + comm_load[rb] <= ideal:
            root[rb] = ra
            comm_load[ra] += comm_load.pop(rb)
    members: dict[str, list[str]] = {}
    for name in names:
        members.setdefault(_find(name), []).append(name)

    assignment: dict[str, int] = {}
    shard_load = [0.0] * n_shards

    def _place_node(name: str) -> None:
        affinity = [0.0] * n_shards
        for peer, weight in adjacency[name].items():
            shard = assignment.get(peer)
            if shard is not None:
                affinity[shard] += weight
        best = min(
            range(n_shards),
            key=lambda s: (-affinity[s],
                           math.inf if shard_load[s] + load[name] > cap
                           else shard_load[s], s))
        if shard_load[best] + load[name] > cap:
            best = min(range(n_shards), key=lambda s: (shard_load[s], s))
        assignment[name] = best
        shard_load[best] += load[name]

    # Largest communities first (LPT keeps the packing balanced), then
    # external edge weight; seeded jitter breaks zero-degree ties so
    # unconnected nodes spread instead of clumping by name order.
    external: dict[str, float] = {r: 0.0 for r in members}
    for a, b, weight in edge_list:
        ra, rb = _find(a), _find(b)
        if ra != rb:
            external[ra] += weight
            external[rb] += weight
    order = sorted(
        members,
        key=lambda r: (-comm_load[r], -external[r], rng.random(), r))
    for r in order:
        group = members[r]
        group_load = comm_load[r]
        affinity = [0.0] * n_shards
        for member in group:
            for peer, weight in adjacency[member].items():
                shard = assignment.get(peer)
                if shard is not None:
                    affinity[shard] += weight
        best = min(
            range(n_shards),
            key=lambda s: (-affinity[s],
                           math.inf if shard_load[s] + group_load > cap
                           else shard_load[s], s))
        if shard_load[best] + group_load > cap:
            fits = [s for s in range(n_shards)
                    if shard_load[s] + group_load <= cap]
            if fits:
                best = min(fits, key=lambda s: (shard_load[s], s))
            else:
                # No shard can take the community whole without blowing
                # the balance slack: split it back into per-node greedy.
                for member in sorted(
                        group,
                        key=lambda n: (-sum(adjacency[n].values()), n)):
                    _place_node(member)
                continue
        for member in group:
            assignment[member] = best
        shard_load[best] += group_load

    for _ in range(_REFINE_PASSES):
        moved = False
        for name in names:
            current = assignment[name]
            affinity = [0.0] * n_shards
            for peer, weight in adjacency[name].items():
                affinity[assignment[peer]] += weight
            best = max(range(n_shards),
                       key=lambda s: (affinity[s], s == current, -s))
            if best != current and affinity[best] > affinity[current] \
                    and shard_load[best] + load[name] <= cap:
                shard_load[current] -= load[name]
                shard_load[best] += load[name]
                assignment[name] = best
                moved = True
        if not moved:
            break

    ordered = {name: assignment[name] for name in names}
    return Partition(n_shards, ordered, _cut(edge_list, ordered))


def _cut(edges: Iterable[tuple[str, str, float]],
         assignment: dict[str, int]) -> tuple:
    return tuple((a, b, w) for a, b, w in edges
                 if assignment.get(a) != assignment.get(b))


def lookahead_s(partition: Partition,
                latency_of: Callable[[str, str], float]) -> float:
    """Conservative lookahead: the minimum cross-shard one-way latency.

    An event generated during an epoch of this length can only affect
    another shard in a *later* epoch, which is what lets every shard run
    one epoch without hearing from its peers.  With no cut edges the
    lookahead is infinite — shards are fully independent and run to
    completion in a single epoch.
    """
    horizon = math.inf
    for a, b, _weight in partition.cut_edges:
        horizon = min(horizon, latency_of(a, b))
    if horizon <= 0.0:
        raise ValueError("cross-shard edges need positive latency for "
                         "conservative parallel simulation")
    return horizon

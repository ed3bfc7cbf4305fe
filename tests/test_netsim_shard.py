"""The one-process mesh runner, and the partitioner the suite still maps.

``ShardedSimulator`` runs a :class:`MeshScenario` on one simulator; its
byte trace is pinned to what the partitioned kernel's one-worker path
produced before that kernel was deleted.  ``repro.netsim.partition`` is
kept only because the benchmark suite's layer map names it.
"""

from __future__ import annotations

import hashlib
import math

import pytest

from repro.netsim.partition import lookahead_s, partition_nodes
from repro.netsim.scenarios import MeshScenario
from repro.netsim.shard import ShardedSimulator
from repro.netsim.simulator import Simulator


def run_plain(scenario, seed):
    """The scenario on a bare Simulator: its events and sorted records."""
    sim = Simulator(seed)
    records = scenario.build(sim)
    processed = sim.run()
    sim.check_failures()
    return processed, sorted(records, key=lambda r: (r[0], r[1], r[2]))


class TestPartition:
    def test_deterministic_for_fixed_seed(self):
        names = [f"n{i}" for i in range(40)]
        edges = [(f"n{i}", f"n{(i * 7 + 1) % 40}", float(i % 5 + 1))
                 for i in range(40)]
        a = partition_nodes(names, 4, edges, seed=3)
        b = partition_nodes(names, 4, edges, seed=3)
        assert a.assignment == b.assignment
        assert a.cut_edges == b.cut_edges

    def test_balanced_within_slack(self):
        names = [f"n{i}" for i in range(30)]
        part = partition_nodes(names, 3, seed=0)
        sizes = [len(part.nodes_of(s)) for s in range(3)]
        assert sum(sizes) == 30
        assert max(sizes) <= 1.2 * 30 / 3 + 1

    def test_affinity_groups_stay_together(self):
        # Two 10-node cliques joined by one light edge: the partitioner
        # must cut the bridge, not a clique.
        names = [f"a{i}" for i in range(10)] + [f"b{i}" for i in range(10)]
        edges = [(f"a{i}", f"a{j}", 5.0) for i in range(10)
                 for j in range(i + 1, 10)]
        edges += [(f"b{i}", f"b{j}", 5.0) for i in range(10)
                  for j in range(i + 1, 10)]
        edges.append(("a0", "b0", 0.5))
        part = partition_nodes(names, 2, edges, seed=1)
        assert len({part.shard_of(f"a{i}") for i in range(10)}) == 1
        assert len({part.shard_of(f"b{i}") for i in range(10)}) == 1
        assert part.cut_edges == (("a0", "b0", 0.5),)

    def test_single_shard_degenerate(self):
        part = partition_nodes(["x", "y"], 1)
        assert part.assignment == {"x": 0, "y": 0}
        assert part.cut_edges == ()

    def test_lookahead_is_min_cut_latency(self):
        part = partition_nodes(["a", "b"], 2, [("a", "b", 1.0)], seed=0)
        assert lookahead_s(part, lambda a, b: 0.05) == 0.05

    def test_lookahead_infinite_without_cut_edges(self):
        part = partition_nodes(["a", "b"], 1)
        assert lookahead_s(part, lambda a, b: 0.05) == math.inf

    def test_lookahead_rejects_zero_latency_cut(self):
        part = partition_nodes(["a", "b"], 2, [("a", "b", 1.0)], seed=0)
        with pytest.raises(ValueError):
            lookahead_s(part, lambda a, b: 0.0)


SMALL = dict(n_sessions=30, n_groups=3, nodes_per_group=3,
             messages_per_session=2, start_window_s=20.0)

PINNED = dict(seed=5, n_sessions=400, n_groups=4, nodes_per_group=8,
              messages_per_session=3)
FAULTS = {"start_s": 5.0, "end_s": 50.0, "n_crashes": 2, "n_link_cuts": 2,
          "n_latency_spikes": 2}


class TestShardedParity:
    def test_workers1_equals_plain_simulator(self):
        scenario = MeshScenario(seed=5, **SMALL)
        _processed, plain = run_plain(scenario, 5)
        result = ShardedSimulator(scenario, workers=1, seed=5).run()
        assert result["records"] == plain
        assert len(plain) == scenario.n_sessions


class TestEngineSemantics:
    def test_events_processed_matches_plain_run(self):
        scenario = MeshScenario(seed=5, **SMALL)
        result = ShardedSimulator(scenario, workers=1, seed=5).run()
        processed, _records = run_plain(scenario, 5)
        assert processed == result["events_processed"]


class TestOneProcessRunner:
    """The trace bytes the partitioned kernel's one-worker path wrote."""

    def test_trace_is_pinned(self):
        result = ShardedSimulator(MeshScenario(**PINNED), workers=1,
                                  seed=5).run()
        assert hashlib.sha256(result["trace"]).hexdigest() == (
            "4bc16283f2c7265bffb97bb8b87d08ee0c347a89b3e0fc8b180cd009c081b3ad")
        assert all(record[3] == "done" for record in result["records"])

    def test_trace_under_faults_is_pinned(self):
        result = ShardedSimulator(MeshScenario(**PINNED, faults=FAULTS),
                                  workers=1, seed=5).run()
        assert hashlib.sha256(result["trace"]).hexdigest() == (
            "15d0335814f4996036f6577375012abe87de0cda0710e8016261d95322526b18")
        kinds = [record[3] for record in result["records"]]
        assert len(kinds) == 400 and kinds.count("fail") == 7

    @pytest.mark.parametrize("workers", [0, 2])
    def test_more_than_one_worker_is_refused(self, workers):
        with pytest.raises(ValueError, match="ROADMAP item 5"):
            ShardedSimulator(MeshScenario(seed=5, **SMALL), workers=workers)

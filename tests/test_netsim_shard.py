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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.partition import lookahead_s, partition_nodes
from repro.netsim.scenarios import _RELEASE_SPACING_S, MeshScenario
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


class TestGroupNames:
    def test_a_three_digit_group_is_read_whole(self):
        # Group 100 once read as group 10, and g10-g100 passed for an
        # intra-group pair.
        scenario = MeshScenario(n_groups=101, nodes_per_group=2)
        assert scenario.group_of("g100n000") == 100
        assert scenario.group_of("g07n001") == 7
        lo, hi = scenario.inter_latency_s
        assert lo <= scenario.latency_of("g10n000", "g100n000") <= hi


@st.composite
def _plans(draw):
    """``(build time, starts)``: the starts a release could get wrong."""
    build_time = draw(st.sampled_from([0.0, 2**-53, 0.3, 1.0, 7.25,
                                       1000.1])
                      | st.floats(0.0, 50.0))
    instants = [build_time + _RELEASE_SPACING_S]
    while len(instants) < 6:
        instants.append(instants[-1] + _RELEASE_SPACING_S)
    start = st.one_of(
        st.sampled_from([5e-324, 2**-53, 1 + 2**-52, 1.0, 2.0]),
        st.sampled_from([instant - build_time for instant in instants]),
        st.floats(0.0, 8.0, exclude_min=True))
    starts = draw(st.lists(start, min_size=1, max_size=12))
    duplicates = draw(st.lists(st.sampled_from(starts), max_size=4))
    return build_time, starts + duplicates


class TestRelease:
    """Sessions are spawned a window ahead of their start, not at build."""

    def test_pending_sessions_stay_a_window_deep(self):
        scenario = MeshScenario(n_sessions=2000, n_groups=4,
                                nodes_per_group=4, seed=5)
        sim = Simulator(5)
        records = scenario.build(sim)
        depths = [sim.queued]

        def probe():
            depths.append(sim.queued)
            if sim.now < scenario.start_window_s:
                sim.post_at(sim.now + 0.5, probe)

        sim.post_at(0.5, probe)
        sim.run()
        assert len(records) == 2000
        assert len(depths) > 100
        assert max(depths) < 2000 // 10

    @settings(deadline=None)    # max_examples: the profile in conftest.py
    @given(_plans())
    def test_a_session_starts_on_the_float_it_was_planned_for(self, plan):
        build_time, starts = plan
        ids = [f"s{i:06d}" for i in range(len(starts))]
        scenario = MeshScenario(n_groups=1, nodes_per_group=2, seed=3)
        scenario.sessions = lambda: [(sid, "g00n000", "g00n001", start)
                                     for sid, start in zip(ids, starts)]
        started, delays = [], []

        def client(task, _network, _record, session_id, _client, _server):
            started.append((session_id, task.sim.now))
            return
            yield

        scenario._client = client
        sim = Simulator(3)
        sim.run(until=build_time)
        spawn = sim.spawn

        def spawning(fn, *args, name="actor", delay=0.0):
            delays.append(delay)
            return spawn(fn, *args, name=name, delay=delay)

        sim.spawn = spawning
        scenario.build(sim)
        sim.run()
        assert 0.0 not in delays
        due = {sid: build_time + start for sid, start in zip(ids, starts)}
        # Bit for bit, and in the order all-at-build spawning gave:
        # by due time, ties in session order.
        assert [(sid, when.hex()) for sid, when in started] == sorted(
            ((sid, when.hex()) for sid, when in due.items()),
            key=lambda item: (due[item[0]], item[0]))

"""Run a :class:`~repro.netsim.scenarios.MeshScenario` on one simulator.

:class:`ShardedSimulator` builds the scenario on one
:class:`~repro.netsim.simulator.Simulator`, runs it to completion and
returns the records its sessions left, sorted, with their byte trace.
The name is kept for the benchmark suite that imports it; the
partitioned kernel that once ran a scenario across worker processes is
gone (ROADMAP item 5), so ``workers`` must be 1.
"""

from __future__ import annotations

import json
from operator import itemgetter

from repro.netsim.simulator import Simulator
from repro.obs.metrics import REGISTRY as _metrics

__all__ = ["ShardedSimulator"]

# The shard_* perf fields' counters: a one-process run crosses no epoch
# barrier, so they stay 0; benchmarks/suite/rep.py reads the fields.
_metrics.counter("perf_shard_epochs_completed")
_metrics.counter("perf_shard_cross_events")
_metrics.counter("perf_shard_barrier_wait_us")

#: One encoder for every trace line: sorted keys, no spaces.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
#: A record's place in the trace: ``(time, node, node_seq)``.
_ORDER = itemgetter(0, 1, 2)


class ShardedSimulator:
    """Run ``scenario`` on one ``Simulator(seed)``.

    ``scenario.build(sim)`` constructs the world and returns the list its
    actors append ``(time, node, node_seq, kind, attrs)`` records to.
    """

    def __init__(self, scenario, workers: int = 1,
                 seed: int | str = 0) -> None:
        if workers != 1:
            raise ValueError(
                f"workers={workers}: a scenario runs on one simulator; the "
                f"partitioned kernel was deleted (ROADMAP item 5)")
        self.scenario = scenario
        self.seed = seed

    def run(self) -> dict:
        """Build, run to completion, and return the sorted records.

        ``trace`` is one JSON line per record in ``(time, node,
        node_seq)`` order, written once into a ``bytearray``; a failed
        actor re-raises its exception.
        """
        sim = Simulator(self.seed)
        records = self.scenario.build(sim)
        processed = sim.run()
        sim.check_failures()
        records.sort(key=_ORDER)
        trace = bytearray()
        for record in records:
            trace += (_ENCODER.encode(record) + "\n").encode()
        return {
            "records": records,
            "trace": trace,
            "sim_time": sim.now,
            "events_processed": processed,
        }

"""One repetition of one workload, in this process.

``run.py`` starts this file as a fresh subprocess for every repetition
(a repetition repeated inside one process drifts upward as the heap
grows) and reads the JSON object it prints last.  Run by hand it is the
quickest way to look at a single repetition::

    python benchmarks/suite/rep.py --workload put-real --smoke
    python benchmarks/suite/rep.py --workload cross-plane --seed 2021
"""

from __future__ import annotations

import time

_IMPORTED_AT = time.perf_counter()

import argparse
import hashlib
import json
import os
import pathlib
import resource
import sys
import traceback

SUITE_ROOT = pathlib.Path(__file__).resolve().parent
SRC = SUITE_ROOT.parents[1] / "src"
for _path in (str(SUITE_ROOT), str(SRC)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.perf.counters import counters

from metrics import DEFAULT_SEED
from tracing import LayerProfile, Spans


class Region:
    """The timed region: ``with region:`` starts and stops every clock.

    The readings are raw ``perf_counter`` seconds; ``run.py`` converts
    ``setup_s`` and ``wall_s`` to nominal seconds with the timestamps
    kept here (:mod:`speed`).
    """

    def __init__(self, spawned_at: float, traced: bool) -> None:
        self.spawned_at = spawned_at
        self.profile = LayerProfile() if traced else None
        self.measured: dict = {}

    def __enter__(self) -> "Region":
        counters.reset()
        self.measured["loadavg"] = os.getloadavg()[0]
        self._cpu_start = time.process_time()
        self._started = time.perf_counter()
        if self.profile is not None:
            self.profile.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.profile is not None:
            self.profile.disable()
        ended = time.perf_counter()
        self.measured.update(
            region_started_at=self._started,
            setup_s=self._started - self.spawned_at,
            wall_s=ended - self._started,
            cpu_s=time.process_time() - self._cpu_start,
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            counters=counters.snapshot())


def run_rep(workload: str, seed: int, smoke: bool = False,
            traced: bool = False, spawned_at: float = _IMPORTED_AT) -> dict:
    """Set up, time and verify one repetition; never raises.

    A repetition that raises anywhere reports every op it planned as
    failed and carries the error string, so one broken workload cannot
    take the harness down with it.
    """
    spans = Spans(enabled=traced)
    region = Region(spawned_at, traced)
    rep: dict = {"workload": workload, "seed": seed, "smoke": smoke,
                 "traced": traced, "error": None, "spawned_at": spawned_at}
    attempted = 1
    try:
        # Imported here: a program that no longer imports is a failed
        # repetition like any other.
        from workloads import WORKLOADS

        instance = WORKLOADS[workload](seed, smoke, spans)
        rep["loop"] = instance.loop
        attempted = instance.planned_ops()
        instance.run(region)
        # Every counter is counted live and was read when the region
        # closed, but the kernel's two event counts: those it publishes
        # only when Simulator.run() returns, and a Bento workload's
        # region closes inside its one run.
        finished = counters.snapshot()
        for late in ("events_processed", "events_scheduled"):
            region.measured["counters"][late] = finished[late]
        rep["events_host_s"] = instance.events_host_s \
            or region.measured["wall_s"]
        outcome = instance.verify()
        # Everything deterministic about the repetition: its results and
        # the program's counters, minus the one that holds wall-clock µs.
        exact = dict(region.measured["counters"])
        del exact["shard_barrier_wait_us"]
        rep.update(attempted=outcome.attempted, ok=outcome.ok,
                   payload_bytes=outcome.payload_bytes,
                   latencies=sorted(outcome.latencies),
                   sim_digest=hashlib.sha256(
                       (outcome.digest + json.dumps(exact)).encode()
                   ).hexdigest())
        if region.profile is not None:
            rep["layers"] = region.profile.aggregate(
                region.measured["wall_s"])
            rep["spans"] = spans.spans
    except Exception as exc:    # the boundary that must keep running
        traceback.print_exc(file=sys.stderr)
        rep.update(error=f"{type(exc).__name__}: {exc}"[:500],
                   attempted=attempted, ok=0, payload_bytes=0,
                   latencies=[], sim_digest=None)
    rep.update(region.measured)
    return rep


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 of the sized dimension")
    parser.add_argument("--trace", action="store_true",
                        help="profile the timed region and record spans")
    parser.add_argument("--spawned-at", type=float, default=_IMPORTED_AT,
                        help="perf_counter() of the parent at spawn")
    args = parser.parse_args(argv)
    rep = run_rep(args.workload, args.seed, smoke=args.smoke,
                  traced=args.trace, spawned_at=args.spawned_at)
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Metric definitions: names, units, directions, bounds, and the maths.

One place says what each number means, so ``run.py``, ``compare.py``,
the self-tests and ``BENCHMARK.json`` cannot drift apart.
"""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Optional

from layers import LAYERS
from tracing import PHASES


#: The seed every entry point defaults to.
DEFAULT_SEED = 80805


class Metric(NamedTuple):
    name: str
    unit: str
    better: str          # "lower" | "higher"
    bound: float         # relative worsening that counts as a regression


#: The eight end-to-end metrics; each is defined on every workload.  The
#: three with bound 0 are simulated or counted, repeat bit for bit at a
#: fixed seed, and so any movement in them is real.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.20),
    Metric("ops_per_s", "1/s", "higher", 0.20),
    Metric("payload_mb_per_s", "MB/s", "higher", 0.20),
    Metric("peak_rss_mb", "MiB", "lower", 0.10),
    Metric("failed_share", "ratio", "lower", 0.0),
    Metric("sim_latency_p50_s", "sim_s", "lower", 0.0),
    Metric("sim_latency_p95_s", "sim_s", "lower", 0.0),
)
EXACT = tuple(m.name for m in END_TO_END if m.bound == 0.0)
#: The host-time metrics: what ``BENCHMARK.json`` lists as end-to-end.
#: Its contract wants metrics that are never 0 and whose spread across
#: *different* seeds stays inside their bound; ``failed_share`` is 0 when
#: all is well and the simulated latencies are a function of the seed,
#: so the gate carries the exact three as per-layer ``exact.*`` entries.
GATED = tuple(m for m in END_TO_END if m.bound > 0.0)

#: Counter-family metric -> the program's public counter it reads
#: (``repro.perf.counters``); ``us_per_event`` is derived from two.
COUNTERS = {
    "netsim.kernel.events": "events_processed",
    "netsim.kernel.task_switches": "task_switches",
    "netsim.kernel.timers_cancelled": "timers_cancelled",
    "netsim.kernel.heap_compactions": "heap_compactions",
    "netsim.link.chunks_transmitted": "chunks_transmitted",
    "netsim.link.chunks_coalesced": "chunks_coalesced",
    "netsim.link.bulk_preemptions": "bulk_preemptions",
    "netsim.link.bytes_zero_copied": "bytes_zero_copied",
    "crypto.stream.hash_calls": "hash_calls",
    "crypto.stream.keystream_bytes": "keystream_bytes",
    "tor.cell.cells_crypted": "cells_crypted",
    "tor.circuit.circuits_rebuilt": "circuits_rebuilt",
    "core.retries": "retries",
    "core.session_reconnects": "session_reconnects",
    "qos.admitted": "qos_admitted",
    "qos.rejected": "qos_rejected",
    "qos.shed": "qos_shed",
    "migrate.completed": "migrations_completed",
    "migrate.failed": "migrations_failed",
    "chaos.faults_injected": "faults_injected",
    "functions.replicas_respawned": "replicas_respawned",
}

LADDER = ("netsim_direct", "tor_circuit", "bento_python", "bento_sgx",
          "bento_sgx_qos")


#: Per-layer metrics where a larger number is the better one: work taken
#: off the slow path, or useful outcomes.  Everywhere else less is better
#: (time, calls, events, retries, failures for the same verified output).
HIGHER_IS_BETTER = frozenset({
    "netsim.link.chunks_coalesced", "netsim.link.bytes_zero_copied",
    "qos.admitted", "migrate.completed",
})


def traced_layer_metrics() -> list:
    """(name, unit, better) of every per-layer metric a traced run reports.

    ``exact.*`` are the three exact end-to-end metrics, carried here for
    the gate (see :data:`GATED`).
    """
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.self_s", "s"), (f"{layer}.calls_in", "count")]
    for phase in PHASES:
        out += [(f"phase.{phase}.host_ms", "ms"),
                (f"phase.{phase}.sim_s", "sim_s")]
    out += [(name, "count") for name in COUNTERS]
    out += [("netsim.kernel.us_per_event", "us"),
            ("trace_overhead_ratio", "ratio"),
            ("trace_unprofiled_share", "ratio")]
    out += [(f"exact.{m.name}", m.unit) for m in END_TO_END
            if m.name in EXACT]
    return [(name, unit, "higher" if name in HIGHER_IS_BETTER else "lower")
            for name, unit in out]


# -- statistics ---------------------------------------------------------------


def percentile(ordered: list, pct: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty list."""
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_latency(ordered: list) -> float:
    """p95 where at least ten samples lie beyond it, else the maximum."""
    rank = max(1, math.ceil(0.95 * len(ordered)))
    return ordered[rank - 1] if len(ordered) - rank >= 10 else ordered[-1]


def summarize(values: list) -> dict:
    """Median, quartiles, count and values of the repetitions that have one."""
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0, "values": []}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _mid, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def end_to_end_of(rep: dict) -> dict:
    """The eight end-to-end values of one repetition.

    A repetition that failed its checks counts every op as failed; its
    rates are zero and its times and latencies are absent (None), so
    they drop out of the medians instead of flattering them.
    """
    attempted = max(rep["attempted"], 1)
    values: dict = dict.fromkeys((m.name for m in END_TO_END))
    values["failed_share"] = (attempted - rep["ok"]) / attempted
    values["setup_s"] = rep.get("setup_s")
    values["peak_rss_mb"] = rep.get("peak_rss_mb")
    if rep["error"] is not None:
        values["ops_per_s"] = values["payload_mb_per_s"] = 0.0
        return values
    wall = rep["wall_s"]
    values["wall_s"] = wall
    values["ops_per_s"] = rep["ok"] / wall
    values["payload_mb_per_s"] = rep["payload_bytes"] / 1e6 / wall
    latencies = rep["latencies"]
    if latencies:
        values["sim_latency_p50_s"] = percentile(latencies, 50.0)
        values["sim_latency_p95_s"] = tail_latency(latencies)
    return values


def worsening(metric: Metric, base: Optional[float],
              new: Optional[float]) -> Optional[float]:
    """How much worse ``new`` is than ``base``, as a share of ``base``.

    Positive is worse, whatever the metric's direction.  None when
    either side is missing; 0 -> 0 is no change, 0 -> x is infinitely
    worse (or better).
    """
    if base is None or new is None:
        return None
    delta = new - base if metric.better == "lower" else base - new
    if base == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(base)

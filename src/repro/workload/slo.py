"""Roll a raw workload run into a per-scenario SLO report.

:func:`build_report` turns :func:`~repro.workload.runner.run_workload`'s
raw result dict into the report schema DESIGN.md §13 documents — latency
percentiles, goodput, shed/refusal/recovery rates, per-plane sections —
and evaluates the spec's declared SLOs against it.  Reports are plain
data and deterministically ordered, so a fixed-seed run produces a
byte-identical report (the bench pins this alongside the events.jsonl
digest).

SLO semantics: each :class:`~repro.workload.spec.SloSpec` names a dotted
path into the report's ``metrics`` mapping.  A path that resolves to
``None`` (plane not enabled, no samples) is **skipped** — the SLO is not
applicable to this scenario.  A path that does not exist at all is a
**failure**: a typo in a spec must not pass silently.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.workload.spec import WorkloadSpec

__all__ = ["build_report", "evaluate_slos", "resolve_metric",
           "render_report", "percentile"]

#: Outcomes that count toward goodput (the client got what it came for).
GOOD_OUTCOMES = ("ok", "rejected")
# "rejected" is good for exactly one population: a ddos tenant's attack
# arrivals, where the defense turning the client away IS the service
# working.  build_report only credits it there.


def percentile(values: list[float], pct: float) -> Optional[float]:
    """Nearest-rank percentile; ``None`` on an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _latency_stats(latencies: list[float]) -> Optional[dict]:
    if not latencies:
        return None
    return {
        "n": len(latencies),
        "mean": round(sum(latencies) / len(latencies), 6),
        "p50": round(percentile(latencies, 50.0), 6),
        "p99": round(percentile(latencies, 99.0), 6),
        "max": round(max(latencies), 6),
    }


def build_report(spec: WorkloadSpec, result: dict) -> dict:
    """The SLO report for one scenario run (plain, ordered data)."""
    planes = spec.planes
    tenants_by_name = {t.name: t for t in spec.tenants}

    outcome_totals: dict[str, int] = {}
    per_tenant: dict[str, dict] = {}
    good_total = 0
    n_total = 0
    interactive_lat: list[float] = []
    bulk_lat: list[float] = []
    ddos_section: dict[str, dict] = {}

    for name in sorted(result["tenants"]):
        tenant = tenants_by_name[name]
        records = result["tenants"][name]["records"]
        outcomes: dict[str, int] = {}
        latencies: list[float] = []
        attack_records = []
        for record in records:
            outcomes[record["outcome"]] = \
                outcomes.get(record["outcome"], 0) + 1
            outcome_totals[record["outcome"]] = \
                outcome_totals.get(record["outcome"], 0) + 1
            if record["kind"] == "attack":
                attack_records.append(record)
            if record["done"] is not None and record["outcome"] == "ok":
                latencies.append(record["done"] - record["t"])
        good = outcomes.get("ok", 0)
        if tenant.function == "ddos_defense":
            # Attack arrivals succeed by being turned away.
            good += sum(1 for r in attack_records
                        if r["outcome"] == "rejected")
        n_total += len(records)
        good_total += good
        stats = _latency_stats(latencies)
        per_tenant[name] = {
            "function": tenant.function,
            "priority": tenant.priority,
            "arrivals": len(records),
            "outcomes": dict(sorted(outcomes.items())),
            "goodput": (round(good / len(records), 6)
                        if records else None),
            "latency": stats,
        }
        if stats is not None:
            bucket = (interactive_lat if tenant.priority == "interactive"
                      else bulk_lat)
            bucket.extend(latencies)
        if tenant.function == "ddos_defense":
            honest = [r for r in records if r["kind"] != "attack"]
            honest_ok = sum(1 for r in honest if r["outcome"] == "ok")
            rejected = sum(1 for r in attack_records
                           if r["outcome"] == "rejected")
            leaked = sum(1 for r in attack_records
                         if r["outcome"] == "leaked")
            ddos_section[name] = {
                "honest_arrivals": len(honest),
                "honest_ok": honest_ok,
                "honest_goodput": (round(honest_ok / len(honest), 6)
                                   if honest else None),
                "attack_arrivals": len(attack_records),
                "attacks_rejected": rejected,
                "attacks_leaked": leaked,
                "rejection_rate": (round(rejected / len(attack_records), 6)
                                   if attack_records else None),
                "service_stats": result["service_stats"].get(name),
            }

    counters = result["counters"]

    qos_section = None
    if planes.qos:
        attempts = counters["qos_admitted"] + counters["qos_rejected"]
        qos_section = {
            "admitted": counters["qos_admitted"],
            "rejected": counters["qos_rejected"],
            "shed": counters["qos_shed"],
            "refusals": outcome_totals.get("refused", 0),
            "refusal_rate": (round(outcome_totals.get("refused", 0)
                                   / n_total, 6) if n_total else None),
            "admission_rate": (round(counters["qos_admitted"] / attempts, 6)
                               if attempts else None),
        }

    chaos_section = None
    if planes.chaos:
        samples = result["recovery_samples"]
        chaos_section = {
            "faults_injected": counters["faults_injected"],
            "fault_log": result["fault_log"],
            "conns_torn_down": counters["conns_torn_down"],
            "standby_promotions": counters["standby_promotions"],
            "recoveries": len(samples),
            "recovery_p50": (round(percentile(samples, 50.0), 6)
                             if samples else None),
            "recovery_p99": (round(percentile(samples, 99.0), 6)
                             if samples else None),
        }

    chain_section = None
    if any(t.function == "chain" for t in spec.tenants):
        chain_section = {
            "embeds": counters["chain_embeds"],
            "arc_bytes": counters["chain_arc_bytes"],
            "units_delivered": counters["chain_units_delivered"],
            "service_stats": {
                name: result["service_stats"].get(name)
                for name, t in sorted(tenants_by_name.items())
                if t.function == "chain"},
        }

    migrate_section = None
    if planes.migrate:
        migrate_section = {
            "started": counters["migrations_started"],
            "completed": counters["migrations_completed"],
            "failed": counters["migrations_failed"],
            "checkpoints": counters["checkpoints_taken"],
        }

    probe = result["probe"]
    probe_section = None
    if probe is not None:
        probe_section = dict(probe)
        probe_section["state_preserved"] = int(probe["state_preserved"])

    metrics = {
        "sessions": {
            "total": n_total,
            "ok": outcome_totals.get("ok", 0),
            "outcomes": dict(sorted(outcome_totals.items())),
            "goodput": (round(good_total / n_total, 6)
                        if n_total else None),
        },
        "latency": {
            "interactive": _latency_stats(interactive_lat),
            "bulk": _latency_stats(bulk_lat),
        },
        "tenants": per_tenant,
        "qos": qos_section,
        "chaos": chaos_section,
        "migrate": migrate_section,
        "chain": chain_section,
        "probe": probe_section,
        "ddos": ddos_section or None,
        "counters": dict(counters),
        "sim": {
            "time": result["sim_time"],
            "all_finished": int(result["all_finished"]),
        },
    }
    slos, passed = evaluate_slos(spec, metrics)
    return {
        "scenario": result["scenario"],
        "seed": result["seed"],
        "spec_digest": result["spec_digest"],
        "workload_digest": result["workload_digest"],
        "n_events": result["n_events"],
        "metrics": metrics,
        "slos": slos,
        "passed": passed,
        "unfinished": result["unfinished"],
    }


def resolve_metric(metrics: dict, dotted: str) -> tuple[bool, object]:
    """Walk ``dotted`` into the metrics tree: (found, value).

    A path whose prefix resolves to ``None`` is *found with value None*
    (plane off / no samples → the SLO is skipped); a key that simply
    isn't there is *not found* (the SLO fails — typos must surface).
    """
    node: object = metrics
    for part in dotted.split("."):
        if node is None:
            return True, None
        if not isinstance(node, dict) or part not in node:
            return False, None
        node = node[part]
    return True, node


_OPS = {
    "<=": lambda value, threshold: value <= threshold,
    ">=": lambda value, threshold: value >= threshold,
    "==": lambda value, threshold: value == threshold,
}


def evaluate_slos(spec: WorkloadSpec, metrics: dict) -> tuple[list, bool]:
    """Evaluate every declared SLO; returns (results, all_passed)."""
    results = []
    passed = True
    for slo in spec.slos:
        found, value = resolve_metric(metrics, slo.metric)
        if not found:
            status = "fail"
            detail = "metric path not found"
        elif value is None:
            status = "skipped"
            detail = "metric is None (plane off or no samples)"
        else:
            ok = _OPS[slo.op](float(value), slo.threshold)
            status = "pass" if ok else "fail"
            detail = f"{value} {slo.op} {slo.threshold}"
        if status == "fail":
            passed = False
        results.append({"name": slo.name, "metric": slo.metric,
                        "op": slo.op, "threshold": slo.threshold,
                        "value": value, "status": status,
                        "detail": detail})
    return results, passed


def render_report(report: dict) -> str:
    """Human-readable text rendering for the CLI."""
    lines = [
        f"scenario       : {report['scenario']} (seed={report['seed']})",
        f"events         : {report['n_events']}",
        f"workload digest: {report['workload_digest'][:16]}…",
        f"sim time       : {report['metrics']['sim']['time']:.1f}s "
        f"(all actors finished: "
        f"{bool(report['metrics']['sim']['all_finished'])})",
    ]
    sessions = report["metrics"]["sessions"]
    lines.append(f"sessions       : {sessions['total']} total, "
                 f"goodput {sessions['goodput']}")
    lines.append("  outcomes     : " + ", ".join(
        f"{k}={v}" for k, v in sessions["outcomes"].items()))
    for cls in ("interactive", "bulk"):
        stats = report["metrics"]["latency"][cls]
        if stats:
            lines.append(f"  {cls:<12} : p50 {stats['p50']:.2f}s  "
                         f"p99 {stats['p99']:.2f}s  (n={stats['n']})")
    for plane in ("qos", "chaos", "migrate", "chain"):
        section = report["metrics"][plane]
        if section:
            body = ", ".join(f"{k}={v}" for k, v in section.items()
                             if not isinstance(v, dict))
            lines.append(f"  {plane:<12} : {body}")
    probe = report["metrics"]["probe"]
    if probe:
        lines.append(f"  probe        : ops={probe['ops_ok']} "
                     f"redeploys={probe['redeploys']} "
                     f"state_preserved={bool(probe['state_preserved'])}")
    if report["slos"]:
        lines.append("SLOs:")
        for slo in report["slos"]:
            mark = {"pass": "PASS", "fail": "FAIL",
                    "skipped": "skip"}[slo["status"]]
            lines.append(f"  [{mark}] {slo['name']}: {slo['metric']} "
                         f"{slo['op']} {slo['threshold']} "
                         f"({slo['detail']})")
    lines.append("verdict        : "
                 + ("PASS" if report["passed"] else "FAIL"))
    return "\n".join(lines)

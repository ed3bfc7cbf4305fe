"""Workload sweep: the stock scenario matrix with enforced SLO reports.

Runs the preset scenarios (one per plane story — qos flash crowd, chaos
recovery, migrate handoff, the two chaos soaks, plus the ddos burst and
the everything-on cross-plane mix), rolls each into its SLO report, and
enforces the acceptance criteria as hard checks:

1. every scenario's declared SLOs pass — including at least one per
   plane: qos goodput under the flash crowd, chaos recovery p99, migrate
   state-preservation, the soak's LoadBalancer replacing a lost replica
   (a warm standby faster than a cold respawn) and Shard surviving two
   lost placements;
2. a fixed-seed scenario replays bit-identically — the events.jsonl
   export of two runs has the identical sha256;
3. the migrate ablation: the same handoff scenario with the migration
   plane off *loses* the probe's state (the plane, not luck, preserves
   it).

Results land in ``BENCH_workload.json``.  ``--smoke`` (CI) runs the
six-scenario smoke sweep at smoke scale; the default runs the full
matrix; ``--full`` additionally scales durations and rates up for the
nightly job.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.export import events_to_jsonl  # noqa: E402
from repro.obs.span import EventLog  # noqa: E402
from repro.workload import build_report, run_workload  # noqa: E402
from repro.workload.presets import (preset, smoke_names,  # noqa: E402
                                    sweep_names)

#: The per-plane assertions the tentpole promises, stated explicitly so a
#: preset edit cannot silently drop them (check() enforces these even if
#: someone deletes the SLO from the spec).
PLANE_ASSERTIONS = {
    "qos-flash": [("sessions.goodput", ">=", 0.75),
                  ("qos.rejected", ">=", 1.0)],
    "chaos-recovery": [("chaos.recovery_p99", "<=", 120.0)],
    "migrate-handoff": [("probe.state_preserved", "==", 1.0)],
    "chaos-soak": [("counters.replicas_respawned", ">=", 1.0),
                   ("tenants.vault.goodput", "==", 1.0)],
    "chaos-soak-standby": [("counters.standby_promotions", ">=", 1.0),
                           ("chaos.recovery_p50", "<=", 0.1)],
}


def run_scenario(name: str, full: bool) -> dict:
    spec = preset(name, full=full)
    log = EventLog()
    start = time.perf_counter()
    result = run_workload(spec, trace_log=log)
    wall = time.perf_counter() - start
    report = build_report(spec, result)
    jsonl = events_to_jsonl(log)
    return {
        "scenario": name,
        "passed": report["passed"],
        "slos": report["slos"],
        "n_events": report["n_events"],
        "workload_digest": report["workload_digest"],
        "events_jsonl_sha256": hashlib.sha256(
            jsonl.encode("utf-8")).hexdigest(),
        "wall_s": round(wall, 3),
        "report": report,
    }


def replay_check(name: str, full: bool) -> dict:
    """Run ``name`` twice; the events.jsonl digests must match exactly."""
    first = run_scenario(name, full)
    second = run_scenario(name, full)
    return {
        "scenario": name,
        "first": first["events_jsonl_sha256"],
        "second": second["events_jsonl_sha256"],
        "identical": (first["events_jsonl_sha256"]
                      == second["events_jsonl_sha256"]),
    }


def ablation_no_migrate(full: bool) -> dict:
    """The handoff scenario with the migration plane off loses the state."""
    spec = preset("migrate-handoff", full=full)
    planes = dataclasses.replace(spec.planes, migrate=False,
                                 migrate_drain_at_s=0.0)
    spec = dataclasses.replace(spec, name="migrate-handoff-ablated",
                               planes=planes, slos=())
    report = build_report(spec, run_workload(spec))
    probe = report["metrics"]["probe"]
    return {
        "state_preserved": probe["state_preserved"],
        "redeploys": probe["redeploys"],
        "migrations": report["metrics"]["migrate"],
    }


def _resolve(report: dict, dotted: str):
    from repro.workload.slo import resolve_metric

    return resolve_metric(report["metrics"], dotted)


def check(report: dict) -> list[str]:
    """Hard acceptance checks; returns human-readable violations."""
    problems: list[str] = []
    ops = {"<=": lambda a, b: a <= b, ">=": lambda a, b: a >= b,
           "==": lambda a, b: a == b}
    for run in report["runs"]:
        if not run["passed"]:
            failed = [s["name"] for s in run["slos"]
                      if s["status"] == "fail"]
            problems.append(f"{run['scenario']}: SLOs failed: {failed}")
        for dotted, op, threshold in PLANE_ASSERTIONS.get(
                run["scenario"], []):
            found, value = _resolve(run["report"], dotted)
            if not found or value is None:
                problems.append(f"{run['scenario']}: plane assertion "
                                f"metric {dotted} missing")
            elif not ops[op](float(value), threshold):
                problems.append(f"{run['scenario']}: {dotted} = {value} "
                                f"violates {op} {threshold}")
    replay = report["replay"]
    if not replay["identical"]:
        problems.append(
            f"replay of {replay['scenario']} is not bit-identical: "
            f"{replay['first'][:16]} vs {replay['second'][:16]}")
    ablation = report.get("ablation_no_migrate")
    if ablation is not None:
        if ablation["state_preserved"]:
            problems.append("ablation: probe state survived with the "
                            "migration plane off — the handoff scenario "
                            "does not actually depend on the plane")
        if ablation["redeploys"] < 1:
            problems.append("ablation: plane-off run never redeployed — "
                            "the crash did not land on the probe")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI smoke sweep: one scenario per plane story")
    parser.add_argument("--full", action="store_true",
                        help="nightly scale: longer durations, more load")
    parser.add_argument("--out", default=str(Path(__file__).parent
                                             / "BENCH_workload.json"))
    args = parser.parse_args()

    names = smoke_names() if args.smoke else sweep_names()
    runs = []
    for name in names:
        print(f"running {name} ...", flush=True)
        run = run_scenario(name, args.full)
        verdict = "PASS" if run["passed"] else "FAIL"
        print(f"  {verdict} ({run['n_events']} events, "
              f"{run['wall_s']}s wall, "
              f"events.jsonl {run['events_jsonl_sha256'][:16]})")
        runs.append(run)

    print("replay bit-identity check (migrate-handoff x2) ...", flush=True)
    replay = replay_check("migrate-handoff", args.full)
    print(f"  identical: {replay['identical']}")
    print("migrate ablation (plane off) ...", flush=True)
    ablation = ablation_no_migrate(args.full)
    print(f"  state_preserved={bool(ablation['state_preserved'])} "
          f"redeploys={ablation['redeploys']}")

    report = {
        "mode": "smoke" if args.smoke else ("full" if args.full
                                            else "default"),
        "scenarios": names,
        "runs": runs,
        "replay": replay,
        "ablation_no_migrate": ablation,
    }
    problems = check(report)
    report["problems"] = problems
    out_path = Path(args.out)
    out_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_path}")
    for problem in problems:
        print(f"VIOLATION: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

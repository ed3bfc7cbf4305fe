"""Seeded, spec-driven workload generation over the Bento planes.

The workload plane closes ROADMAP item 5: instead of one bespoke script
per plane, a compact declarative :class:`~repro.workload.spec.WorkloadSpec`
composes heterogeneous tenant fleets (kvstore / loadbalancer / shard /
ddos_defense, interactive and bulk) with arrival processes (Poisson,
diurnal, flash crowd, DDoS burst, churn), drives them through any
combination of the qos/chaos/migrate planes, and rolls the run up into a
machine-checkable SLO report.  Everything downstream of the spec's seed
is deterministic: the same spec file replays bit-identically, which makes
the same matrix double as the cross-plane integration suite.

    spec   = presets.preset("qos-flash")        # or WorkloadSpec.from_file
    load   = generate(spec)                     # the frozen event program
    result = run_workload(spec)                 # drive it through the planes
    report = build_report(spec, result)         # SLOs evaluated inside
"""

from repro.workload.generator import Workload, WorkloadEvent, generate
from repro.workload.runner import run_workload
from repro.workload.slo import build_report, render_report
from repro.workload.spec import (ArrivalSpec, PlanesSpec, SloSpec,
                                 TenantSpec, WorkloadSpec,
                                 WorkloadSpecError)

__all__ = [
    "ArrivalSpec", "PlanesSpec", "SloSpec", "TenantSpec", "WorkloadSpec",
    "WorkloadSpecError", "Workload", "WorkloadEvent", "generate",
    "run_workload", "build_report", "render_report",
]

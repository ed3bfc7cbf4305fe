"""The stock scenario matrix: one preset per plane story, plus the sweep.

Each preset is a factory returning a fully-validated
:class:`~repro.workload.spec.WorkloadSpec` with its SLOs declared inline.
``full=True`` scales duration and arrival rates up for the nightly sweep;
the default smoke shape keeps every scenario CI-sized.

The thresholds are enforced, not decorative: the whole pipeline is
deterministic for a fixed seed, so a threshold that passes once passes
every run — the margin built into each one is headroom for future code
changes (a scheduler tweak shifting latencies), not for noise.
"""

from __future__ import annotations

import functools

from repro.workload.spec import (ArrivalSpec, CrashSpec, PlanesSpec,
                                 SloSpec, TenantSpec, WorkloadSpec)

__all__ = ["PRESETS", "preset", "sweep_names"]


def _scaled(full: bool, smoke_value: float, full_value: float) -> float:
    return full_value if full else smoke_value


def _slos(*rows: tuple) -> tuple[SloSpec, ...]:
    """SLOs from ``(name, metric, op, threshold)`` rows, then the one every
    preset declares: every actor ran to its end."""
    return tuple(SloSpec(*row) for row in rows + (
        ("no-deadlock", "sim.all_finished", "==", 1.0),))


def qos_flash(full: bool = False) -> WorkloadSpec:
    """Flash crowd of interactive sessions against a bulk base load.

    The admission plane's story: slots fill during the flash window,
    interactive arrivals ride the priority queue, the bulk tenant absorbs
    the refusals.  The goodput SLO is the tentpole's per-plane qos
    assertion.
    """
    duration = _scaled(full, 240.0, 900.0)
    return WorkloadSpec(
        name="qos-flash",
        seed=80801,
        duration_s=duration,
        n_relays=10,
        bento_fraction=0.5,
        tenants=(
            TenantSpec(name="api", function="kvstore",
                       priority="interactive", ops_per_session=2,
                       deadline_s=60.0, hold_s=12.0,
                       arrivals=ArrivalSpec(
                           kind="flash",
                           rate_per_s=_scaled(full, 0.05, 0.1),
                           burst_at_s=duration * 0.3,
                           burst_duration_s=duration * 0.2,
                           burst_rate_per_s=_scaled(full, 0.5, 1.0))),
            TenantSpec(name="batch", function="kvstore", priority="bulk",
                       ops_per_session=3, deadline_s=90.0, hold_s=20.0,
                       arrivals=ArrivalSpec(
                           kind="poisson",
                           rate_per_s=_scaled(full, 0.05, 0.1))),
        ),
        planes=PlanesSpec(qos=True, qos_slots=2, qos_queue_depth=2,
                          qos_queue_timeout_s=8.0),
        slos=_slos(
            ("qos-goodput", "sessions.goodput", ">=", 0.75),
            ("qos-engaged", "qos.rejected", ">=", 1.0),
            # Completion latency bounds at admission deadline (60s) plus
            # the session's own work and 12s slot hold, with margin.
            ("interactive-p99", "latency.interactive.p99", "<=", 90.0),
        ),
    )


def chaos_recovery(full: bool = False) -> WorkloadSpec:
    """A stateful probe and a diurnal session load under injected faults.

    Link cuts and latency spikes land mid-run, then the probe's home box
    crashes for good — the owner must redeploy and keep serving.  The
    recovery-p99 SLO is the tentpole's per-plane chaos assertion.
    """
    duration = _scaled(full, 300.0, 1200.0)
    return WorkloadSpec(
        name="chaos-recovery",
        seed=80802,
        duration_s=duration,
        n_relays=12,
        bento_fraction=0.5,
        tenants=(
            TenantSpec(name="probe", function="kvstore", shared=True,
                       priority="interactive", ops_per_session=1,
                       arrivals=ArrivalSpec(
                           kind="poisson",
                           rate_per_s=_scaled(full, 0.06, 0.12))),
            TenantSpec(name="web", function="kvstore", priority="bulk",
                       ops_per_session=2, deadline_s=120.0,
                       arrivals=ArrivalSpec(
                           kind="diurnal",
                           rate_per_s=_scaled(full, 0.03, 0.06),
                           peak_ratio=3.0, period_s=duration / 2.0)),
        ),
        planes=PlanesSpec(chaos=True, chaos_link_cuts=2,
                          chaos_latency_spikes=2,
                          chaos_mean_downtime_s=12.0,
                          chaos_crashes=(
                              CrashSpec("probe-home", duration * 0.55),)),
        slos=_slos(
            ("recovery-p99", "chaos.recovery_p99", "<=", 120.0),
            ("probe-serves-on", "probe.ops_ok", ">=",
             _scaled(full, 8.0, 60.0)),
        ),
    )


def migrate_handoff(full: bool = False) -> WorkloadSpec:
    """Drain the probe off its home box *before* chaos crashes it.

    The cross-plane story from the spec docs: the migration plane moves
    the probe's state out of the blast radius, so the permanent crash of
    its home box costs nothing.  ``state_preserved == 1`` is the
    tentpole's per-plane migrate assertion — with migration off this
    same scenario loses the counter state (the no-migrate ablation in
    ``tests/test_workload_runner.py`` checks exactly that contrast).
    """
    duration = _scaled(full, 300.0, 1200.0)
    return WorkloadSpec(
        name="migrate-handoff",
        seed=80803,
        duration_s=duration,
        n_relays=12,
        bento_fraction=0.5,
        tenants=(
            TenantSpec(name="probe", function="kvstore", shared=True,
                       priority="interactive", ops_per_session=1,
                       arrivals=ArrivalSpec(
                           kind="poisson",
                           rate_per_s=_scaled(full, 0.08, 0.15))),
        ),
        planes=PlanesSpec(chaos=True, migrate=True,
                          chaos_link_cuts=0, chaos_latency_spikes=1,
                          chaos_mean_downtime_s=10.0,
                          migrate_drain_at_s=duration * 0.35,
                          chaos_crashes=(
                              CrashSpec("probe-home", duration * 0.6),)),
        slos=_slos(
            ("state-preserved", "probe.state_preserved", "==", 1.0),
            ("migration-completed", "migrate.completed", ">=", 1.0),
            ("no-failed-migrations", "migrate.failed", "==", 0.0),
            ("no-redeploys", "probe.redeploys", "==", 0.0),
        ),
    )


def ddos_burst(full: bool = False) -> WorkloadSpec:
    """The §9.4 defense under a generated burst, half without proof of work.

    A burst process slams the guarded hidden service with a mixed crowd;
    the attack fraction carries no PoW and must be turned away at the
    introduction point while honest clients still get the content.
    """
    duration = _scaled(full, 240.0, 600.0)
    return WorkloadSpec(
        name="ddos-burst",
        seed=80804,
        duration_s=duration,
        n_relays=10,
        bento_fraction=0.5,
        tenants=(
            TenantSpec(name="guard", function="ddos_defense",
                       priority="bulk", payload_bytes=20_000,
                       attack_fraction=0.5, pow_difficulty=6,
                       deadline_s=120.0,
                       arrivals=ArrivalSpec(
                           kind="burst",
                           burst_at_s=duration * 0.25,
                           burst_duration_s=duration * 0.4,
                           burst_arrivals=int(_scaled(full, 12, 40)))),
        ),
        planes=PlanesSpec(),
        slos=_slos(
            ("attacks-rejected", "ddos.guard.rejection_rate", ">=", 1.0),
            ("honest-served", "ddos.guard.honest_goodput", ">=", 0.9),
        ),
    )


def cross_plane(full: bool = False) -> WorkloadSpec:
    """All three planes at once over the full function mix.

    qos admission in front of every box, a seeded fault schedule, and a
    probe drain racing a crash — plus churn, a flash crowd, a
    load-balanced bulk service, scattered shards, and the puzzle-guarded
    hidden service.  This is the repo's first everything-on integration
    scenario; the regression test asserts no plane-interaction deadlocks
    or counter leaks on top of these SLOs.
    """
    duration = _scaled(full, 360.0, 1200.0)
    return WorkloadSpec(
        name="cross-plane",
        seed=80805,
        duration_s=duration,
        n_relays=14,
        bento_fraction=0.7,
        tenants=(
            TenantSpec(name="probe", function="kvstore", shared=True,
                       priority="interactive", ops_per_session=1,
                       arrivals=ArrivalSpec(
                           kind="poisson",
                           rate_per_s=_scaled(full, 0.05, 0.1))),
            TenantSpec(name="api", function="kvstore",
                       priority="interactive", ops_per_session=2,
                       deadline_s=60.0,
                       arrivals=ArrivalSpec(
                           kind="flash",
                           rate_per_s=_scaled(full, 0.02, 0.05),
                           burst_at_s=duration * 0.4,
                           burst_duration_s=duration * 0.15,
                           burst_rate_per_s=_scaled(full, 0.25, 0.6))),
            TenantSpec(name="swarm", function="kvstore", priority="bulk",
                       ops_per_session=2, deadline_s=120.0,
                       arrivals=ArrivalSpec(
                           kind="churn",
                           rate_per_s=_scaled(full, 0.02, 0.04),
                           churn_lifetime_s=30.0,
                           churn_rejoin_prob=0.4)),
            TenantSpec(name="cdn", function="loadbalancer",
                       priority="bulk", payload_bytes=30_000,
                       deadline_s=120.0,
                       arrivals=ArrivalSpec(
                           kind="poisson",
                           rate_per_s=_scaled(full, 0.015, 0.04))),
            TenantSpec(name="vault", function="shard", priority="bulk",
                       payload_bytes=20_000, shard_n=3, shard_k=2,
                       deadline_s=120.0,
                       arrivals=ArrivalSpec(
                           kind="poisson",
                           rate_per_s=_scaled(full, 0.01, 0.03))),
            TenantSpec(name="guard", function="ddos_defense",
                       priority="bulk", payload_bytes=10_000,
                       attack_fraction=0.4, pow_difficulty=5,
                       deadline_s=120.0,
                       arrivals=ArrivalSpec(
                           kind="burst",
                           burst_at_s=duration * 0.5,
                           burst_duration_s=duration * 0.25,
                           burst_arrivals=int(_scaled(full, 8, 24)))),
        ),
        planes=PlanesSpec(qos=True, qos_slots=10, qos_queue_depth=8,
                          qos_queue_timeout_s=8.0,
                          chaos=True, chaos_link_cuts=2,
                          chaos_latency_spikes=2,
                          chaos_mean_downtime_s=10.0,
                          chaos_crashes=(
                              CrashSpec("probe-home", duration * 0.7),),
                          migrate=True,
                          migrate_drain_at_s=duration * 0.3),
        slos=_slos(
            ("overall-goodput", "sessions.goodput", ">=", 0.6),
            ("state-preserved", "probe.state_preserved", "==", 1.0),
            ("attacks-rejected", "ddos.guard.rejection_rate", ">=", 1.0),
        ),
    )


def chain_pipeline(full: bool = False) -> WorkloadSpec:
    """The chain plane's story: a Cover→Browser-defense→Store graph.

    An operator embeds the stock pipeline template against the qos
    directory's advertised slack (qos is on so boxes actually advertise)
    and deploys every replica as a real attested session; arrivals are
    traffic units pushed through the whole graph, good only if the sink's
    bytes match the template's transform oracle.  The goodput SLO is the
    chain plane's per-plane assertion.
    """
    duration = _scaled(full, 240.0, 900.0)
    return WorkloadSpec(
        name="chain-pipeline",
        seed=80806,
        duration_s=duration,
        n_relays=12,
        bento_fraction=0.5,
        tenants=(
            TenantSpec(name="pipeline", function="chain",
                       priority="interactive", payload_bytes=2048,
                       deadline_s=90.0,
                       arrivals=ArrivalSpec(
                           kind="poisson",
                           rate_per_s=_scaled(full, 0.05, 0.12))),
        ),
        planes=PlanesSpec(qos=True, qos_slots=8, qos_queue_depth=8,
                          qos_queue_timeout_s=8.0),
        slos=_slos(
            ("chain-goodput", "tenants.pipeline.goodput", ">=", 0.9),
            ("chain-deployed", "chain.embeds", ">=", 1.0),
            ("chain-units", "chain.units_delivered", ">=", 1.0),
        ),
    )


def chaos_soak(name: str, standbys: int, full: bool = False) -> WorkloadSpec:
    """The chaos soak: a LoadBalancer and a Shard tenant under faults.

    A burst of bulk downloads pushes the LoadBalancer into scaling up,
    and the box of a replica in service then dies for good; the balancer
    must replace it (a cold respawn, or with ``standbys`` a warm-standby
    promotion) while every download completes.  A plain relay crash and
    seeded link cuts and latency spikes land on top, then two Shard
    placement boxes die for good, and the file must still be gathered
    bit-identical from the three survivors afterwards.  Each check comes
    with a count that cannot be zero when it passes, so none passes by
    being skipped.  The fault script is timed to this load, so ``full``
    runs the same scenario.
    """
    if standbys:
        # A promotion is instant; the cold preset's respawn reads 0.47 s.
        recovery = (("standby-promoted", "counters.standby_promotions",
                     ">=", 1.0),
                    ("recoveries", "chaos.recoveries", ">=", 1.0),
                    ("recovery-p50", "chaos.recovery_p50", "<=", 0.1))
    else:
        recovery = (("replica-respawned", "counters.replicas_respawned",
                     ">=", 1.0),)
    duration = 300.0
    return WorkloadSpec(
        name=name,
        seed=2021,
        duration_s=duration,
        n_relays=14,
        bento_fraction=0.6,
        tenants=(
            TenantSpec(name="cdn", function="loadbalancer",
                       priority="bulk", payload_bytes=1_000_000,
                       standbys=standbys,
                       arrivals=ArrivalSpec(
                           kind="burst", burst_at_s=30.0,
                           burst_duration_s=40.0, burst_arrivals=8)),
            TenantSpec(name="vault", function="shard", priority="bulk",
                       payload_bytes=60_000, shard_n=5, shard_k=3,
                       arrivals=ArrivalSpec(
                           kind="burst", burst_at_s=duration * 0.8,
                           burst_duration_s=duration * 0.1,
                           burst_arrivals=2)),
        ),
        planes=PlanesSpec(chaos=True, chaos_link_cuts=3,
                          chaos_latency_spikes=4,
                          chaos_mean_downtime_s=30.0,
                          chaos_crashes=(
                              CrashSpec("lb-replica", 40.0),
                              CrashSpec("relay", duration * 0.5),
                              CrashSpec("shard-placement", duration * 0.6),
                              CrashSpec("shard-placement", duration * 0.6),
                          )),
        slos=_slos(
            ("faults", "chaos.faults_injected", ">=", 10.0),
            ("crashes", "counters.node_crashes", ">=", 3.0),
            ("cuts", "counters.links_cut", ">=", 1.0),
            ("spikes", "counters.latency_spikes", ">=", 1.0),
            ("lb-visitors", "tenants.cdn.arrivals", ">=", 1.0),
            ("lb-goodput", "tenants.cdn.goodput", "==", 1.0),
            ("shard-gathers", "tenants.vault.arrivals", ">=", 1.0),
            ("shard-goodput", "tenants.vault.goodput", "==", 1.0),
            ("conns-torn-down", "counters.conns_torn_down", ">=", 1.0),
            ("retries", "counters.retries", ">=", 1.0),
            ("orphans-reaped", "counters.orphans_reaped", ">=", 1.0),
            ("migrate-plane-silent", "counters.migrations_started",
             "==", 0.0),
            *recovery),
    )


PRESETS = {
    "qos-flash": qos_flash,
    "chaos-recovery": chaos_recovery,
    "migrate-handoff": migrate_handoff,
    "ddos-burst": ddos_burst,
    "cross-plane": cross_plane,
    "chain-pipeline": chain_pipeline,
    "chaos-soak": functools.partial(chaos_soak, "chaos-soak", standbys=0),
    "chaos-soak-standby": functools.partial(chaos_soak, "chaos-soak-standby",
                                            standbys=1),
}


def preset(name: str, full: bool = False) -> WorkloadSpec:
    """Build a stock scenario by name (raises KeyError on unknown)."""
    return PRESETS[name](full=full)


def sweep_names() -> list[str]:
    """The full nightly matrix: every stock scenario."""
    return list(PRESETS)

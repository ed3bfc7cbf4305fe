"""Declarative workload specs: the scenario matrix's unit of exchange.

A :class:`WorkloadSpec` is a compact, serializable description of one
scenario: which tenants exist (function mix, priority class), how their
clients arrive (Poisson, diurnal cycles, flash crowds, DDoS bursts,
churn), which planes are enabled (qos/chaos/migrate), at what scale
(relays, duration), and which SLOs the run must meet.  Specs are plain
data end to end (:mod:`repro.util.spec`: lossless dict/JSON round-trips,
a canonical digest that is the scenario's identity, strict parsing that
raises :class:`WorkloadSpecError`), and every stochastic choice
downstream (arrival times, attack flags, payload bytes) derives from
``seed`` alone — the same spec file replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import ReproError
from repro.util.spec import Spec

__all__ = [
    "ARRIVAL_KINDS", "CRASH_ROLES", "TENANT_FUNCTIONS", "SLO_OPS",
    "ArrivalSpec", "CrashSpec", "TenantSpec", "PlanesSpec", "SloSpec",
    "WorkloadSpec", "WorkloadSpecError",
]

#: Supported arrival processes (see :mod:`repro.workload.arrivals`).
ARRIVAL_KINDS = ("poisson", "diurnal", "flash", "burst", "churn")

#: Functions a tenant may deploy (the paper's evaluation mix, plus the
#: chain plane's service graphs).
TENANT_FUNCTIONS = ("kvstore", "loadbalancer", "shard", "ddos_defense",
                    "chain")

#: What a scheduled crash takes down, by the role the box plays in the run
#: (see :mod:`repro.chaos`, which resolves each role to a node).
CRASH_ROLES = ("probe-home", "lb-replica", "shard-placement", "relay")

#: The tenant a crash role needs in the spec: (function, its description).
_ROLE_NEEDS = {"probe-home": ("probe", "a shared kvstore probe"),
               "lb-replica": ("loadbalancer", "a loadbalancer tenant"),
               "shard-placement": ("shard", "a shard tenant")}

#: Comparison operators an SLO assertion may use.
SLO_OPS = ("<=", ">=", "==")

_PRIORITIES = ("interactive", "bulk")


class WorkloadSpecError(ReproError):
    """A spec failed validation or could not be parsed."""


class _WorkloadPart(Spec):
    """Every dataclass of a workload spec raises the one error class."""

    Error = WorkloadSpecError


_require = _WorkloadPart._require


@dataclass(frozen=True)
class ArrivalSpec(_WorkloadPart):
    """How one tenant's client sessions arrive over the run.

    ``kind`` selects the process; the other fields parameterize it (each
    kind reads only its own fields, the rest must stay at their defaults
    — validation enforces this so a spec cannot carry dead knobs):

    * ``poisson`` — open-loop Poisson at ``rate_per_s``;
    * ``diurnal`` — inhomogeneous Poisson whose rate swings sinusoidally
      between ``rate_per_s`` and ``rate_per_s * peak_ratio`` with period
      ``period_s`` (a compressed day);
    * ``flash`` — Poisson base load plus a flash crowd: an extra
      ``burst_rate_per_s`` inside ``[burst_at_s, burst_at_s +
      burst_duration_s)``;
    * ``burst`` — exactly ``burst_arrivals`` arrivals packed uniformly
      into the burst window (the DDoS shape: no base load, one slam);
    * ``churn`` — Poisson arrivals where each session lives
      ``~Exp(churn_lifetime_s)`` and rejoins with probability
      ``churn_rejoin_prob``, so the active population turns over.
    """

    context = "tenant.arrivals"

    kind: str
    rate_per_s: float = 0.0
    peak_ratio: float = 1.0
    period_s: float = 0.0
    burst_at_s: float = 0.0
    burst_duration_s: float = 0.0
    burst_arrivals: int = 0
    burst_rate_per_s: float = 0.0
    churn_lifetime_s: float = 0.0
    churn_rejoin_prob: float = 0.0

    def __post_init__(self) -> None:
        _require(self.kind in ARRIVAL_KINDS,
                 f"arrival kind must be one of {ARRIVAL_KINDS}, "
                 f"got {self.kind!r}")
        _require(self.rate_per_s >= 0.0, "rate_per_s must be >= 0")
        if self.kind in ("poisson", "diurnal", "flash", "churn"):
            _require(self.rate_per_s > 0.0,
                     f"{self.kind} arrivals need rate_per_s > 0")
        if self.kind == "diurnal":
            _require(self.peak_ratio >= 1.0, "peak_ratio must be >= 1")
            _require(self.period_s > 0.0, "diurnal needs period_s > 0")
        else:
            _require(self.peak_ratio == 1.0 and self.period_s == 0.0,
                     f"{self.kind} arrivals must not set diurnal fields")
        if self.kind in ("flash", "burst"):
            _require(self.burst_duration_s > 0.0,
                     f"{self.kind} needs burst_duration_s > 0")
            _require(self.burst_at_s >= 0.0, "burst_at_s must be >= 0")
        else:
            _require(self.burst_at_s == 0.0 and self.burst_duration_s == 0.0,
                     f"{self.kind} arrivals must not set burst window fields")
        if self.kind == "flash":
            _require(self.burst_rate_per_s > 0.0,
                     "flash needs burst_rate_per_s > 0")
        else:
            _require(self.burst_rate_per_s == 0.0,
                     f"{self.kind} must not set burst_rate_per_s")
        if self.kind == "burst":
            _require(self.burst_arrivals > 0, "burst needs burst_arrivals > 0")
        else:
            _require(self.burst_arrivals == 0,
                     f"{self.kind} must not set burst_arrivals")
        if self.kind == "churn":
            _require(self.churn_lifetime_s > 0.0,
                     "churn needs churn_lifetime_s > 0")
            _require(0.0 <= self.churn_rejoin_prob < 1.0,
                     "churn_rejoin_prob must be in [0, 1)")
        else:
            _require(self.churn_lifetime_s == 0.0
                     and self.churn_rejoin_prob == 0.0,
                     f"{self.kind} arrivals must not set churn fields")


@dataclass(frozen=True)
class TenantSpec(_WorkloadPart):
    """One tenant: a function deployment plus its client population.

    ``function`` picks the workload shape:

    * ``kvstore`` with ``shared=False`` (default) — every arrival is a
      full Bento session (connect → admission → load → ops → shutdown):
      the admission-plane stressor.  ``ops_per_session`` requests run
      inside each session; churn arrivals spread them over the session
      lifetime.
    * ``kvstore`` with ``shared=True`` — one long-lived stateful instance
      owned by an operator; arrivals become operations against it.  This
      is the probe the chaos/migrate planes act on (crash its box, drain
      it), and its counter values prove whether state survived.
    * ``loadbalancer`` — an operator serves ``payload_bytes`` of content
      behind a hidden-service LoadBalancer; arrivals are bulk downloads.
      ``standbys`` warm replicas are provisioned up front, and a lost
      replica promotes one instead of respawning cold.
    * ``shard`` — an operator scatters ``payload_bytes`` across
      ``shard_n`` dropboxes (any ``shard_k`` reconstruct); arrivals are
      gathers that must be bit-identical.
    * ``ddos_defense`` — an operator runs the §9.4 puzzle-guarded hidden
      service at ``pow_difficulty`` bits; a generated ``attack_fraction``
      of arrivals carry no proof of work and must be rejected.
    * ``chain`` — an operator embeds and deploys the stock
      Cover→Browser-defense→Store service graph through the chain plane
      (:mod:`repro.chain`); arrivals are traffic units pushed end to end
      whose sink output must match the template's transform oracle.

    ``deadline_s`` is the per-session SLO: a completion later than this
    counts against goodput.  ``hold_s`` keeps a session's container alive
    that many seconds after its last op before shutting down — the knob
    that makes sessions occupy admission slots long enough for the qos
    plane to have something to arbitrate (a zero-hold session releases
    its slot in well under a second).
    """

    context = "tenant"

    name: str
    function: str
    arrivals: ArrivalSpec
    priority: str = "bulk"
    ops_per_session: int = 1
    payload_bytes: int = 65536
    shared: bool = False
    deadline_s: float = 30.0
    hold_s: float = 0.0
    attack_fraction: float = 0.0
    pow_difficulty: int = 6
    shard_n: int = 4
    shard_k: int = 2
    standbys: int = 0

    def __post_init__(self) -> None:
        _require(bool(self.name) and self.name.isidentifier(),
                 f"tenant name must be a non-empty identifier, "
                 f"got {self.name!r}")
        _require(self.function in TENANT_FUNCTIONS,
                 f"tenant function must be one of {TENANT_FUNCTIONS}, "
                 f"got {self.function!r}")
        _require(self.priority in _PRIORITIES,
                 f"priority must be one of {_PRIORITIES}")
        _require(self.ops_per_session >= 1, "ops_per_session must be >= 1")
        _require(self.payload_bytes >= 1, "payload_bytes must be >= 1")
        _require(self.deadline_s > 0.0, "deadline_s must be > 0")
        _require(self.hold_s >= 0.0, "hold_s must be >= 0")
        _require(0.0 <= self.attack_fraction <= 1.0,
                 "attack_fraction must be in [0, 1]")
        if self.function != "ddos_defense":
            _require(self.attack_fraction == 0.0,
                     "attack_fraction only applies to ddos_defense tenants")
        _require(1 <= self.pow_difficulty <= 20,
                 "pow_difficulty must be in [1, 20]")
        if self.function == "shard":
            _require(2 <= self.shard_k <= self.shard_n <= 10,
                     "shard needs 2 <= shard_k <= shard_n <= 10")
        if self.shared:
            _require(self.function == "kvstore",
                     "only kvstore tenants can be shared")
        _require(0 <= self.standbys <= 4, "standbys must be in [0, 4]")
        if self.function != "loadbalancer":
            _require(self.standbys == 0,
                     "standbys only applies to loadbalancer tenants")


@dataclass(frozen=True)
class CrashSpec(_WorkloadPart):
    """One scheduled crash: the box playing ``role`` (one of
    :data:`CRASH_ROLES`) goes down at ``at_s``.  :mod:`repro.chaos` says
    which box plays each role and whether it comes back."""

    context = "planes.chaos_crashes"

    role: str
    at_s: float

    def __post_init__(self) -> None:
        _require(self.role in CRASH_ROLES,
                 f"crash role must be one of {CRASH_ROLES}, "
                 f"got {self.role!r}")
        _require(self.at_s >= 0.0, "crash at_s must be >= 0")


@dataclass(frozen=True)
class PlanesSpec(_WorkloadPart):
    """Which planes the scenario enables, and their scenario-level knobs.

    With a plane off, its config never reaches the servers and the run is
    bit-identical to one where the plane's code does not exist (the same
    opt-in contract every plane has honored since PR 5).

    ``chaos_crashes`` lists the crashes the chaos plane schedules on top
    of its random link cuts and latency spikes (:class:`CrashSpec`).
    ``migrate_drain_at_s`` drains the probe to a slack-rich box at that
    time (0 disables).  Scheduling the drain before a ``probe-home``
    crash is the cross-plane story: the migration plane moves the state
    out of the blast radius before chaos lands.
    """

    context = "planes"

    qos: bool = False
    chaos: bool = False
    migrate: bool = False
    qos_slots: int = 8
    qos_queue_depth: int = 8
    qos_queue_timeout_s: float = 5.0
    chaos_link_cuts: int = 2
    chaos_latency_spikes: int = 2
    chaos_mean_downtime_s: float = 15.0
    chaos_crashes: tuple[CrashSpec, ...] = ()
    migrate_drain_at_s: float = 0.0

    def __post_init__(self) -> None:
        _require(self.qos_slots >= 1, "qos_slots must be >= 1")
        _require(self.qos_queue_depth >= 0, "qos_queue_depth must be >= 0")
        _require(self.qos_queue_timeout_s > 0.0,
                 "qos_queue_timeout_s must be > 0")
        _require(self.chaos_link_cuts >= 0 and self.chaos_latency_spikes >= 0,
                 "chaos fault counts must be >= 0")
        _require(self.chaos_mean_downtime_s > 0.0,
                 "chaos_mean_downtime_s must be > 0")
        if not isinstance(self.chaos_crashes, tuple):
            object.__setattr__(self, "chaos_crashes",
                               tuple(self.chaos_crashes))
        _require(self.migrate_drain_at_s >= 0.0,
                 "migrate_drain_at_s must be >= 0")
        if not self.chaos:
            _require(not self.chaos_crashes,
                     "chaos_crashes needs the chaos plane enabled")
        if not self.migrate:
            _require(self.migrate_drain_at_s == 0.0,
                     "migrate_drain_at_s needs the migrate plane enabled")


@dataclass(frozen=True)
class SloSpec(_WorkloadPart):
    """One machine-checkable assertion over the scenario's SLO report.

    ``metric`` is a dotted path into the report's ``metrics`` (e.g.
    ``tenants.api.latency.p99`` or ``qos.admission_rate``); booleans read
    as 0/1.  A path whose *final* value is ``None`` (the plane was off,
    or no samples exist) is **skipped**, not violated; a path that does
    not exist at all is a violation — typos must not pass silently.
    """

    context = "slo"

    name: str
    metric: str
    op: str
    threshold: float

    def __post_init__(self) -> None:
        _require(bool(self.name), "SLO name must be non-empty")
        _require(bool(self.metric), "SLO metric path must be non-empty")
        _require(self.op in SLO_OPS, f"SLO op must be one of {SLO_OPS}")
        _require(isinstance(self.threshold, (int, float))
                 and not isinstance(self.threshold, bool),
                 "SLO threshold must be a number")


@dataclass(frozen=True)
class WorkloadSpec(_WorkloadPart):
    """A complete scenario: tenants x arrivals x planes x scale x SLOs."""

    name: str
    seed: int
    duration_s: float
    tenants: tuple[TenantSpec, ...]
    planes: PlanesSpec = field(default_factory=PlanesSpec)
    slos: tuple[SloSpec, ...] = ()
    n_relays: int = 10
    bento_fraction: float = 0.5

    def __post_init__(self) -> None:
        _require(bool(self.name), "spec name must be non-empty")
        _require(isinstance(self.seed, int) and not isinstance(self.seed, bool),
                 "seed must be an int")
        _require(self.duration_s > 0.0, "duration_s must be > 0")
        if not isinstance(self.tenants, tuple):
            object.__setattr__(self, "tenants", tuple(self.tenants))
        if not isinstance(self.slos, tuple):
            object.__setattr__(self, "slos", tuple(self.slos))
        _require(len(self.tenants) >= 1, "spec needs at least one tenant")
        names = [t.name for t in self.tenants]
        _require(len(set(names)) == len(names),
                 f"tenant names must be unique, got {names}")
        _require(sum(1 for t in self.tenants if t.shared) <= 1,
                 "at most one shared kvstore tenant per spec")
        _require(4 <= self.n_relays <= 64, "n_relays must be in [4, 64]")
        _require(0.0 < self.bento_fraction <= 1.0,
                 "bento_fraction must be in (0, 1]")
        for t_s in (self.planes.migrate_drain_at_s,
                    *(c.at_s for c in self.planes.chaos_crashes)):
            _require(t_s < self.duration_s,
                     f"plane action at t={t_s} lies past duration_s")
        functions = {t.function for t in self.tenants}
        if self.shared_probe() is not None:
            functions.add("probe")
        for crash in self.planes.chaos_crashes:
            function, tenant = _ROLE_NEEDS.get(crash.role, (None, ""))
            _require(function is None or function in functions,
                     f"a {crash.role} crash needs {tenant}")

    # -- tenant views ------------------------------------------------------

    def shared_probe(self) -> TenantSpec | None:
        """The shared kvstore tenant (the chaos/migrate probe), if any."""
        for tenant in self.tenants:
            if tenant.shared:
                return tenant
        return None

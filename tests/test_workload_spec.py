"""Workload spec and generator properties: round-trips, determinism,
strictness.

The hypothesis properties pin the two contracts the whole workload plane
rests on: any valid spec survives serialize → parse unchanged, and the
same seed expands to the byte-identical event program.  The plain tests
nail the strict-parsing edges (unknown keys, dead knobs, plane knobs
without the plane) that make a spec file trustworthy.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.util.rng import DeterministicRandom
from repro.util.serialization import canonical_encode
from repro.workload import (ArrivalSpec, PlanesSpec, SloSpec, TenantSpec,
                            Workload, WorkloadSpec, WorkloadSpecError,
                            generate)
from repro.workload.arrivals import MAX_ARRIVALS, generate_arrivals
from repro.workload.spec import ARRIVAL_KINDS

# -- strategies -------------------------------------------------------------

_rate = st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False)
_name = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)


@st.composite
def arrival_specs(draw) -> ArrivalSpec:
    kind = draw(st.sampled_from(ARRIVAL_KINDS))
    if kind == "poisson":
        return ArrivalSpec(kind="poisson", rate_per_s=draw(_rate))
    if kind == "diurnal":
        return ArrivalSpec(
            kind="diurnal", rate_per_s=draw(_rate),
            peak_ratio=draw(st.floats(1.0, 5.0, allow_nan=False)),
            period_s=draw(st.floats(5.0, 300.0, allow_nan=False)))
    if kind == "flash":
        return ArrivalSpec(
            kind="flash", rate_per_s=draw(_rate),
            burst_at_s=draw(st.floats(0.0, 40.0, allow_nan=False)),
            burst_duration_s=draw(st.floats(1.0, 40.0, allow_nan=False)),
            burst_rate_per_s=draw(st.floats(0.05, 1.5, allow_nan=False)))
    if kind == "burst":
        return ArrivalSpec(
            kind="burst",
            burst_at_s=draw(st.floats(0.0, 40.0, allow_nan=False)),
            burst_duration_s=draw(st.floats(1.0, 40.0, allow_nan=False)),
            burst_arrivals=draw(st.integers(1, 40)))
    return ArrivalSpec(
        kind="churn", rate_per_s=draw(_rate),
        churn_lifetime_s=draw(st.floats(1.0, 60.0, allow_nan=False)),
        churn_rejoin_prob=draw(st.floats(0.0, 0.89, allow_nan=False)))


@st.composite
def tenant_specs(draw, name: str, shared: bool = False) -> TenantSpec:
    function = ("kvstore" if shared
                else draw(st.sampled_from(
                    ("kvstore", "loadbalancer", "shard", "ddos_defense"))))
    kwargs = dict(
        name=name, function=function,
        arrivals=draw(arrival_specs()),
        priority=draw(st.sampled_from(("interactive", "bulk"))),
        ops_per_session=draw(st.integers(1, 4)),
        payload_bytes=draw(st.integers(1, 100_000)),
        deadline_s=draw(st.floats(1.0, 120.0, allow_nan=False)),
        hold_s=draw(st.floats(0.0, 30.0, allow_nan=False)),
        shared=shared,
    )
    if function == "ddos_defense":
        kwargs["attack_fraction"] = draw(
            st.floats(0.0, 1.0, allow_nan=False))
        kwargs["pow_difficulty"] = draw(st.integers(1, 12))
    if function == "shard":
        n = draw(st.integers(2, 8))
        kwargs["shard_n"] = n
        kwargs["shard_k"] = draw(st.integers(2, n))
    return TenantSpec(**kwargs)


@st.composite
def workload_specs(draw) -> WorkloadSpec:
    duration = draw(st.floats(10.0, 120.0, allow_nan=False))
    chaos = draw(st.booleans())
    migrate = draw(st.booleans())
    planes = PlanesSpec(
        qos=draw(st.booleans()), chaos=chaos, migrate=migrate,
        qos_slots=draw(st.integers(1, 12)),
        qos_queue_depth=draw(st.integers(0, 8)),
        chaos_crash_at_s=(draw(st.floats(1.0, 0.9 * duration,
                                         allow_nan=False))
                          if chaos and draw(st.booleans()) else 0.0),
        migrate_drain_at_s=(draw(st.floats(1.0, 0.9 * duration,
                                           allow_nan=False))
                            if migrate and draw(st.booleans()) else 0.0),
    )
    names = draw(st.lists(_name, min_size=1, max_size=4, unique=True))
    with_probe = draw(st.booleans())
    tenants = [draw(tenant_specs(name=n)) for n in names]
    if with_probe:
        tenants.append(draw(tenant_specs(name="zprobe", shared=True)))
    slos = tuple(
        SloSpec(name=f"slo{i}",
                metric=draw(st.sampled_from(
                    ("sessions.goodput", "latency.interactive.p99",
                     "qos.rejected", "chaos.recovery_p99",
                     "probe.state_preserved", "sim.all_finished"))),
                op=draw(st.sampled_from(("<=", ">=", "=="))),
                threshold=draw(st.floats(0.0, 100.0, allow_nan=False)))
        for i in range(draw(st.integers(0, 3))))
    return WorkloadSpec(
        name=draw(_name), seed=draw(st.integers(0, 2**31)),
        duration_s=duration, tenants=tuple(tenants), planes=planes,
        slos=slos, n_relays=draw(st.integers(4, 16)),
        bento_fraction=draw(st.floats(0.25, 1.0, allow_nan=False)))


_settings = settings(max_examples=30, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


# -- properties -------------------------------------------------------------

class TestSpecRoundTrip:
    @_settings
    @given(spec=workload_specs())
    def test_json_round_trip_is_lossless(self, spec):
        restored = WorkloadSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.digest() == spec.digest()

    @_settings
    @given(spec=workload_specs())
    def test_dict_round_trip_and_canonical_bytes(self, spec):
        restored = WorkloadSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert canonical_encode(restored.to_dict()) \
            == canonical_encode(spec.to_dict())

    @_settings
    @given(spec=workload_specs())
    def test_json_ints_parse_back_to_floats(self, spec):
        # A hand-written spec file may say "duration_s": 60 — the parser
        # must normalize, and the round-trip must still be exact.
        data = json.loads(spec.to_json())
        restored = WorkloadSpec.from_dict(data)
        assert restored == spec

    @_settings
    @given(spec=workload_specs())
    def test_unknown_key_rejected(self, spec):
        data = spec.to_dict()
        data["turbo_mode"] = True
        with pytest.raises(WorkloadSpecError, match="unknown keys"):
            WorkloadSpec.from_dict(data)


class TestMistypedValues:
    """A wrongly typed scalar must not parse into a scenario nobody meant."""

    @pytest.mark.parametrize("path, value, message", [
        (("tenants", 0, "ops_per_session"), 1.5,
         "'ops_per_session' must be int"),
        (("tenants", 0, "payload_bytes"), True, "'payload_bytes' must be int"),
        (("tenants", 0, "shared"), 0, "'shared' must be bool"),
        (("tenants", 0, "arrivals", "rate_per_s"), "0.5", "must be float"),
        (("tenants", 0, "name"), 7, "'name' must be str"),
        (("planes", "qos"), "yes", "'qos' must be bool"),
        (("seed",), 1.0, "'seed' must be int"),
        (("tenants",), {"a": 1}, "'tenants' must be a list"),
        (("planes",), [], "planes: expected a mapping"),
    ])
    def test_rejected_with_the_specs_own_error(self, path, value, message):
        data = WorkloadSpec(
            name="s", seed=1, duration_s=60.0,
            tenants=(TenantSpec(name="a", function="kvstore",
                                arrivals=ArrivalSpec(kind="poisson",
                                                     rate_per_s=0.5)),)
        ).to_dict()
        target = data
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        with pytest.raises(WorkloadSpecError, match=message):
            WorkloadSpec.from_dict(data)


class TestNonStandardJsonConstants:
    """``json.loads`` accepts NaN and ±Infinity; a spec file must not."""

    @pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
    def test_rejected_with_the_specs_own_error(self, constant, tmp_path):
        text = WorkloadSpec(
            name="s", seed=1, duration_s=60.0,
            tenants=(TenantSpec(name="a", function="kvstore",
                                arrivals=ArrivalSpec(kind="poisson",
                                                     rate_per_s=0.5)),)
        ).to_json().replace('"duration_s": 60.0', f'"duration_s": {constant}')
        path = tmp_path / "spec.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(WorkloadSpecError, match=f"{constant} is not a"):
            WorkloadSpec.from_file(str(path))


class TestGenerationDeterminism:
    @_settings
    @given(spec=workload_specs())
    def test_same_seed_generates_byte_identical_workloads(self, spec):
        first = generate(spec)
        second = generate(spec)
        assert first.digest() == second.digest()
        assert canonical_encode([e.to_dict() for e in first.events]) \
            == canonical_encode([e.to_dict() for e in second.events])

    @_settings
    @given(spec=workload_specs())
    def test_events_sorted_and_inside_duration(self, spec):
        load = generate(spec)
        keys = [(e.t, e.tenant, e.index) for e in load.events]
        assert keys == sorted(keys)
        for event in load.events:
            assert 0.0 <= event.t < spec.duration_s

    def test_different_seeds_differ(self):
        base = WorkloadSpec(
            name="s", seed=1, duration_s=60.0,
            tenants=(TenantSpec(name="a", function="kvstore",
                                arrivals=ArrivalSpec(kind="poisson",
                                                     rate_per_s=0.5)),))
        other = WorkloadSpec.from_dict({**base.to_dict(), "seed": 2})
        assert generate(base).digest() != generate(other).digest()
        assert base.digest() != other.digest()

    def test_adding_a_tenant_does_not_perturb_existing_streams(self):
        a = TenantSpec(name="a", function="kvstore",
                       arrivals=ArrivalSpec(kind="poisson", rate_per_s=0.4))
        b = TenantSpec(name="b", function="kvstore",
                       arrivals=ArrivalSpec(kind="poisson", rate_per_s=0.4))
        solo = generate(WorkloadSpec(name="s", seed=7, duration_s=60.0,
                                     tenants=(a,)))
        duo = generate(WorkloadSpec(name="s", seed=7, duration_s=60.0,
                                    tenants=(a, b)))
        solo_a = [e.t for e in solo.events if e.tenant == "a"]
        duo_a = [e.t for e in duo.events if e.tenant == "a"]
        assert solo_a == duo_a


class TestArrivalProcesses:
    @_settings
    @given(arrival=arrival_specs(),
           duration=st.floats(10.0, 120.0, allow_nan=False),
           seed=st.integers(0, 1000))
    def test_records_sorted_in_window_and_deterministic(
            self, arrival, duration, seed):
        first = generate_arrivals(
            arrival, DeterministicRandom(f"t:{seed}"), duration)
        second = generate_arrivals(
            arrival, DeterministicRandom(f"t:{seed}"), duration)
        assert first == second
        times = [r["t"] for r in first]
        assert times == sorted(times)
        assert all(0.0 <= t < duration for t in times)

    def test_burst_count_is_exact(self):
        arrival = ArrivalSpec(kind="burst", burst_at_s=10.0,
                              burst_duration_s=20.0, burst_arrivals=17)
        records = generate_arrivals(arrival, DeterministicRandom("b"), 60.0)
        assert len(records) == 17
        assert all(10.0 <= r["t"] <= 30.0 for r in records)

    def test_churn_records_carry_lifetime_and_generation(self):
        arrival = ArrivalSpec(kind="churn", rate_per_s=0.5,
                              churn_lifetime_s=10.0, churn_rejoin_prob=0.8)
        records = generate_arrivals(arrival, DeterministicRandom("c"), 120.0)
        assert records
        assert all(r["lifetime_s"] > 0.0 for r in records)
        assert any(r["generation"] > 0 for r in records)

    def test_flash_marks_burst_window_arrivals(self):
        arrival = ArrivalSpec(kind="flash", rate_per_s=0.05,
                              burst_at_s=20.0, burst_duration_s=20.0,
                              burst_rate_per_s=2.0)
        records = generate_arrivals(arrival, DeterministicRandom("f"), 80.0)
        flash = [r for r in records if r.get("flash")]
        assert flash
        assert all(20.0 <= r["t"] <= 40.0 for r in flash)

    def test_runaway_spec_raises_instead_of_truncating(self):
        arrival = ArrivalSpec(kind="burst", burst_at_s=0.0,
                              burst_duration_s=10.0,
                              burst_arrivals=MAX_ARRIVALS + 1)
        with pytest.raises(WorkloadSpecError, match="lower the rate"):
            generate_arrivals(arrival, DeterministicRandom("x"), 60.0)


class TestStrictValidation:
    def test_dead_knobs_rejected(self):
        with pytest.raises(WorkloadSpecError, match="burst window"):
            ArrivalSpec(kind="poisson", rate_per_s=1.0, burst_at_s=5.0,
                        burst_duration_s=1.0)
        with pytest.raises(WorkloadSpecError, match="diurnal"):
            ArrivalSpec(kind="burst", burst_at_s=0.0, burst_duration_s=1.0,
                        burst_arrivals=3, peak_ratio=2.0, period_s=10.0)

    def test_attack_fraction_needs_ddos_tenant(self):
        with pytest.raises(WorkloadSpecError, match="attack_fraction"):
            TenantSpec(name="t", function="kvstore",
                       arrivals=ArrivalSpec(kind="poisson", rate_per_s=1.0),
                       attack_fraction=0.5)

    def test_shared_needs_kvstore(self):
        with pytest.raises(WorkloadSpecError, match="shared"):
            TenantSpec(name="t", function="shard", shared=True,
                       arrivals=ArrivalSpec(kind="poisson", rate_per_s=1.0))

    def test_plane_knobs_need_their_plane(self):
        with pytest.raises(WorkloadSpecError, match="chaos plane"):
            PlanesSpec(chaos=False, chaos_crash_at_s=10.0)
        with pytest.raises(WorkloadSpecError, match="migrate plane"):
            PlanesSpec(migrate=False, migrate_drain_at_s=10.0)

    def test_plane_action_must_precede_end(self):
        tenant = TenantSpec(name="t", function="kvstore",
                            arrivals=ArrivalSpec(kind="poisson",
                                                 rate_per_s=1.0))
        with pytest.raises(WorkloadSpecError, match="past duration"):
            WorkloadSpec(name="s", seed=1, duration_s=30.0,
                         tenants=(tenant,),
                         planes=PlanesSpec(chaos=True,
                                           chaos_crash_at_s=45.0))

    def test_duplicate_tenant_names_rejected(self):
        tenant = TenantSpec(name="t", function="kvstore",
                            arrivals=ArrivalSpec(kind="poisson",
                                                 rate_per_s=1.0))
        with pytest.raises(WorkloadSpecError, match="unique"):
            WorkloadSpec(name="s", seed=1, duration_s=30.0,
                         tenants=(tenant, tenant))

    def test_at_most_one_shared_probe(self):
        def probe(name):
            return TenantSpec(name=name, function="kvstore", shared=True,
                              arrivals=ArrivalSpec(kind="poisson",
                                                   rate_per_s=1.0))
        with pytest.raises(WorkloadSpecError, match="shared"):
            WorkloadSpec(name="s", seed=1, duration_s=30.0,
                         tenants=(probe("a"), probe("b")))

    def test_bad_slo_op_rejected(self):
        with pytest.raises(WorkloadSpecError, match="op"):
            SloSpec(name="x", metric="sessions.goodput", op="!=",
                    threshold=1.0)


class TestWorkloadView:
    def test_per_tenant_partitions_all_events(self):
        spec = WorkloadSpec(
            name="s", seed=3, duration_s=60.0,
            tenants=(
                TenantSpec(name="a", function="kvstore",
                           arrivals=ArrivalSpec(kind="poisson",
                                                rate_per_s=0.5)),
                TenantSpec(name="b", function="ddos_defense",
                           attack_fraction=1.0,
                           arrivals=ArrivalSpec(kind="burst",
                                                burst_at_s=5.0,
                                                burst_duration_s=10.0,
                                                burst_arrivals=6)),
            ))
        load = generate(spec)
        grouped = load.per_tenant()
        assert sorted(grouped) == ["a", "b"]
        assert sum(len(v) for v in grouped.values()) == len(load.events)
        assert all(e.kind == "attack" for e in grouped["b"])
        assert isinstance(load, Workload)

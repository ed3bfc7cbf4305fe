"""The chaos-soak presets: end-to-end recovery under faults, checked as
SLOs, bit-for-bit determinism of the whole run, each check shown failing
under a deliberate break of what it guards, plus coherence of the
client's consensus cache across directory churn."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import BentoClient, BentoServer, FunctionManifest
from repro.enclave.attestation import IntelAttestationService
from repro.tor import TorTestNetwork
from repro.util.serialization import canonical_encode
from repro.workload import build_report, run_workload
from repro.workload.presets import preset
from repro.workload.slo import evaluate_slos


def _run(spec):
    result = run_workload(spec)
    return result, build_report(spec, result)


@pytest.fixture(scope="module")
def soak_results():
    """Two full runs of the same preset (module-scoped: the soak is among
    the most expensive tests in the suite)."""
    spec = preset("chaos-soak")
    return _run(spec), _run(spec)


def _statuses(report, *names):
    by_name = {slo["name"]: slo["status"] for slo in report["slos"]}
    return {name: by_name[name] for name in names}


def _passes(report, *names):
    return _statuses(report, *names) == dict.fromkeys(names, "pass")


class TestChaosSoak:
    def test_deterministic_across_runs(self, soak_results):
        (first, first_report), (second, second_report) = soak_results
        assert canonical_encode(first) == canonical_encode(second)
        assert canonical_encode(first_report) == \
            canonical_encode(second_report)

    def test_all_invariants_hold(self, soak_results):
        _result, report = soak_results[0]
        # Passed, and none of them by being skipped.
        assert report["passed"]
        assert {slo["status"] for slo in report["slos"]} == {"pass"}

    def test_enough_faults_were_injected(self, soak_results):
        _result, report = soak_results[0]
        assert _passes(report, "faults", "crashes", "cuts", "spikes")

    def test_every_client_request_recovered(self, soak_results):
        result, report = soak_results[0]
        assert _passes(report, "lb-visitors", "lb-goodput")
        assert len(result["tenants"]["cdn"]["records"]) >= 6

    def test_shard_reconstruction_bit_identical(self, soak_results):
        _result, report = soak_results[0]
        assert _passes(report, "shard-gathers", "shard-goodput")

    def test_loadbalancer_replica_respawned(self, soak_results):
        result, report = soak_results[0]
        assert _passes(report, "replica-respawned")
        stats = result["service_stats"]["cdn"]
        assert stats["replicas_lost"] >= 1
        assert stats["events"].get("respawn", 0) >= 1
        # The lost-to-respawned gap is the soak's recovery sample.
        assert report["metrics"]["chaos"]["recoveries"] >= 1

    def test_recovery_machinery_was_exercised(self, soak_results):
        _result, report = soak_results[0]
        assert _passes(report, "conns-torn-down", "retries",
                       "orphans-reaped", "migrate-plane-silent")

    def test_check_soak_flags_violations(self, soak_results):
        # The soak's SLOs, evaluated over a run that went wrong four ways.
        _result, report = soak_results[0]
        metrics = dict(report["metrics"])
        metrics["chaos"] = dict(metrics["chaos"], faults_injected=3)
        metrics["tenants"] = {
            "cdn": dict(metrics["tenants"]["cdn"], goodput=4 / 6),
            "vault": dict(metrics["tenants"]["vault"], goodput=0.0)}
        metrics["counters"] = dict(metrics["counters"],
                                   replicas_respawned=0)
        slos, passed = evaluate_slos(preset("chaos-soak"), metrics)
        assert not passed
        assert sorted(s["name"] for s in slos if s["status"] == "fail") == \
            ["faults", "lb-goodput", "replica-respawned", "shard-goodput"]


def _without_lb_crash(spec):
    return dataclasses.replace(spec, planes=dataclasses.replace(
        spec.planes, chaos_crashes=tuple(
            c for c in spec.planes.chaos_crashes if c.role != "lb-replica")))


def _tenant(function, **changes):
    def edit(spec):
        return dataclasses.replace(spec, tenants=tuple(
            dataclasses.replace(t, **changes) if t.function == function
            else t for t in spec.tenants))
    return edit


def _no_drain(spec):
    return dataclasses.replace(spec, planes=dataclasses.replace(
        spec.planes, migrate_drain_at_s=0.0))


@pytest.mark.parametrize("name, break_it, fails", [
    ("chaos-soak", _without_lb_crash, {"replica-respawned"}),
    ("chaos-soak", _tenant("shard", shard_k=4), {"shard-goodput"}),
    ("migrate-handoff", _no_drain, {"state-preserved", "no-redeploys"}),
    ("chaos-soak-standby", _tenant("loadbalancer", standbys=0),
     {"standby-promoted", "recovery-p50"}),
], ids=["lb-respawn-off", "shard-k-above-survivors",
        "migrate-drain-skipped", "no-standby"])
def test_a_deliberate_break_fails_its_slo(name, break_it, fails):
    """Each ported check fails when what it guards is taken away (the
    preset as shipped passes: test_determinism runs every stock preset)."""
    spec = preset(name)
    _result, broken = _run(break_it(spec))
    assert _statuses(broken, *fails) == dict.fromkeys(fails, "fail")


CODE = "def noop():\n    return 'ok'\n    yield\n"


class TestCacheInvalidationUnderChaos:
    """Churning the directory mid-run must never let a stale verified
    consensus leak into the post-churn world."""

    def _run_session(self, thread, client, box_descriptor, manifest):
        session = yield from client.connect(thread, box_descriptor)
        yield from session.request_image(thread, "python", verify="none")
        yield from session.load_function(thread, CODE, manifest)
        assert (yield from session.invoke(thread, [])) == "ok"
        yield from session.shutdown(thread)
        session.close()

    def test_directory_churn_mid_run_invalidates_client_consensus(self):
        net = TorTestNetwork(n_relays=6, seed="cache-churn",
                             bento_fraction=0.34)
        ias = IntelAttestationService(net.sim.rng.fork("ias"))
        box = net.bento_boxes()[0]
        BentoServer(box, net.authority, ias=ias)
        client = BentoClient(net.create_client("user"), ias=ias)
        manifest = FunctionManifest.create("noop", "noop", set())

        def flow(thread):
            descriptor = client.discover_boxes()[0]
            yield from self._run_session(thread, client, descriptor, manifest)
            before = client.tor.consensus()
            # Mid-run churn: a (non-Bento) relay drops out of the
            # directory, as after an unrecovered crash.
            gone = net.relays[0].fingerprint
            net.authority.unregister_relay(gone)
            after = client.tor.consensus()
            assert after is not before
            assert all(r.identity_fp != gone for r in after.routers)
            # Sessions keep working against the post-churn consensus.
            descriptor = client.discover_boxes()[0]
            yield from self._run_session(thread, client, descriptor, manifest)

        net.sim.run_until_done(net.sim.spawn(flow))

"""Command-line interface: run the demo scenarios without writing code.

    python -m repro <scenario> [--seed N]
    python -m repro list
"""

from __future__ import annotations

import argparse
import sys

from repro.version import __version__


def _scenario_quickstart(seed: int) -> None:
    """Deploy one attested hello-world function on a Bento box and invoke
    it over Tor — the paper's core loop, end to end."""
    from repro.core import BentoClient, BentoServer, FunctionManifest
    from repro.enclave.attestation import IntelAttestationService
    from repro.tor import TorTestNetwork

    net = TorTestNetwork(n_relays=9, seed=seed, bento_fraction=0.34)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    for relay in net.bento_boxes():
        BentoServer(relay, net.authority, ias=ias)
    client = BentoClient(net.create_client("you"), ias=ias)
    code = ("def hello(who):\n"
            "    yield from api.send(('hello, ' + who).encode())\n"
            "    return len(who)\n")

    def flow(thread):
        """The scripted Bento session this scenario runs."""
        session = yield from client.connect(thread, client.pick_box())
        yield from session.request_image(thread, "python-op-sgx")
        yield from session.load_function(thread, code, FunctionManifest.create(
            "hello", "hello", {"send"}, image="python-op-sgx"))
        result = yield from session.invoke(thread, ["bento"])
        output = yield from session.next_output(thread)
        print(f"function said: {output.decode()!r} "
              f"(returned {result})")
        yield from session.shutdown(thread)
        session.close()

    net.sim.run_until_done(net.sim.spawn(flow))
    print(f"done at simulated t={net.sim.now:.2f}s")


def _scenario_fingerprint(seed: int) -> None:
    """Measure website-fingerprinting attack accuracy with and without
    the Browser defense (§9.2's traffic-analysis evaluation)."""
    from repro.fingerprint import FingerprintLab, KnnClassifier, evaluate_split

    lab = FingerprintLab(n_sites=10, n_relays=10, seed=seed)
    for label, defense, padding in [("unmodified tor", "none", 0),
                                    ("browser 0MB", "browser", 0),
                                    ("browser 2MB", "browser", 2_000_000)]:
        samples = lab.collect(defense, visits_per_site=4, padding=padding)
        X, y = lab.dataset(samples)
        accuracy = evaluate_split(KnnClassifier(k=3), X, y)
        print(f"{label:16s} attack accuracy {accuracy * 100:5.1f}%")


def _scenario_perf_report(seed: int) -> None:
    """Run the quickstart scenario with the perf harness on, then report.

    Set ``REPRO_PROFILE=1`` to additionally capture a cProfile of the
    event loop (printed after the counter table).
    """
    from repro.perf import (
        active_profile,
        counters,
        profile_to_text,
        render_report,
        timed_section,
    )
    from repro.perf.timing import reset_sections

    counters.reset()
    reset_sections()
    with timed_section("quickstart"):
        _scenario_quickstart(seed)
    print()
    print(render_report())
    if active_profile() is not None:
        print()
        print(profile_to_text())


def _scenario_chaos_soak(seed: int) -> None:
    """Run the deterministic fault-injection soak and check its invariants.

    Exits nonzero if any acceptance predicate fails (insufficient faults,
    an unrecovered client request, a corrupted Shard reconstruction, or a
    LoadBalancer replica that was never respawned).
    """
    from repro.chaos import check_soak, run_chaos_soak

    result = run_chaos_soak(seed=seed, verbose=True)
    print(f"chaos soak (seed={result['seed']}, {result['n_relays']} relays) "
          f"finished at simulated t={result['sim_time']:.1f}s")
    print(f"  faults injected:   {result['faults_injected']} "
          f"{dict(result['fault_log'])}")
    print(f"  client requests:   {result['requests_recovered']}/"
          f"{result['requests_attempted']} recovered")
    print(f"  shard retrieval:   "
          f"{'bit-identical' if result['shard_ok'] else 'CORRUPTED'}")
    print(f"  replicas lost:     {result['replicas_lost']}")
    print(f"  lb events:         {dict(result['lb_events'])}")
    print("  counters:")
    for name, value in sorted(result["counters"].items()):
        print(f"    {name:22s} {value}")
    problems = check_soak(result)
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        raise SystemExit(1)
    print("all soak invariants hold")


def _scenario_trace_report(seed: int, out: str = "trace-report") -> None:
    """Run the quickstart flow with the observability plane attached and
    write the trace artifacts: a Perfetto-loadable Chrome trace, the raw
    span/event JSONL, and a plain-text metrics snapshot.

    All timestamps are simulated seconds — the same seed always produces
    byte-identical artifacts.
    """
    from repro.obs import REGISTRY, TRACER, write_trace_report
    from repro.perf.timing import reset_sections

    reset_sections()
    REGISTRY.reset()
    log = TRACER.attach()
    try:
        _scenario_quickstart(seed)
    finally:
        TRACER.detach()
    paths = write_trace_report(out, log)
    print()
    print(f"trace report: {len(log.spans)} spans, {len(log.events)} events")
    for artifact, path in sorted(paths.items()):
        print(f"  {artifact:12s} {path}")
    print("load trace.json at ui.perfetto.dev (or chrome://tracing)")


def _scenario_scale_report(seed: int, workers: int = 1) -> None:
    """Run one in-process N=100 session sweep from the scale benchmark
    and print wall-clock, event-throughput, and cache-hit-rate numbers.

    With ``--workers K`` (K > 1) it instead runs the sharded-kernel
    mesh quick look: the ``MeshScenario`` at N=10k sessions on K shard
    workers and on one, printing the parity check, epoch/cross-event
    counts, and speedup.

    The full subprocess sweep (N in {10, 100, 1000}, with peak-RSS
    attribution per N and the frozen pre-optimization baseline) lives in
    ``benchmarks/bench_scale.py``; this scenario is the quick look.
    """
    import importlib.util
    from pathlib import Path

    bench_path = (Path(__file__).resolve().parent.parent.parent
                  / "benchmarks" / "bench_scale.py")
    if not bench_path.exists():
        print("benchmarks/bench_scale.py not found (installed package?); "
              "run from a source checkout")
        raise SystemExit(1)
    spec = importlib.util.spec_from_file_location("bench_scale", bench_path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    if workers > 1:
        n_sessions = bench.PARALLEL_SMOKE_N
        base = bench.run_mesh(n_sessions, 1, seed)
        sharded = bench.run_mesh(n_sessions, workers, seed)
        parity = sharded["trace_sha256"] == base["trace_sha256"]
        print(f"scale report (seed={seed}): mesh N={n_sessions} "
              f"on {workers} shard workers "
              f"({'fork' if sharded['processes'] else 'inline'} driver)")
        print(f"  lookahead:         {sharded['lookahead_s'] * 1000:.1f}ms  "
              f"epochs={sharded['epochs_completed']}  "
              f"cross={sharded['cross_shard_events']}")
        print(f"  wall:              {sharded['wall_s']:.2f}s vs "
              f"{base['wall_s']:.2f}s single-process "
              f"({base['wall_s'] / sharded['wall_s']:.2f}x)")
        print(f"  critical path:     {sharded['critical_path_s']:.2f}s "
              f"(modeled "
              f"{base['critical_path_s'] / sharded['critical_path_s']:.2f}x "
              f"with a core per worker)")
        print(f"  peak rss/worker:   "
              f"{max(sharded['peak_rss_per_worker_kb'])}kB")
        print(f"  merged trace:      "
              f"{'byte-identical to single-process' if parity else 'MISMATCH'}")
        if not parity:
            raise SystemExit(1)
        return

    result = bench.run_scale(100, seed=seed)
    print(f"scale report (seed={seed}): {result['n_sessions']} sessions, "
          f"{result['n_clients']} clients")
    print(f"  wall:              {result['wall_s']:.3f}s "
          f"(simulated t={result['sim_now']:.1f}s)")
    print(f"  events:            {result['events_processed']} "
          f"({result['events_per_s']:.0f}/s)")
    print(f"  cells crypted:     {result['cells_crypted']}")
    print(f"  timers cancelled:  {result['timers_cancelled']}")
    print(f"  bytes zero-copied: {result['bytes_zero_copied']}")
    for layer, stats in sorted(result["cache_hit_rates"].items()):
        print(f"  cache[{layer}]: {stats['hits']}/"
              f"{stats['hits'] + stats['misses']} hit rate "
              f"{stats['rate'] * 100:.1f}%")


def _scenario_qos_report(seed: int) -> None:
    """Run one in-process 4x-overload cell from the qos benchmark, plane
    off then on, and print the goodput/latency/shedding contrast.

    The full subprocess sweep (0.5x-4x offered load, with peak-RSS
    attribution per cell) lives in ``benchmarks/bench_qos.py``; this
    scenario is the quick look.
    """
    import importlib.util
    from pathlib import Path

    bench_path = (Path(__file__).resolve().parent.parent.parent
                  / "benchmarks" / "bench_qos.py")
    if not bench_path.exists():
        print("benchmarks/bench_qos.py not found (installed package?); "
              "run from a source checkout")
        raise SystemExit(1)
    spec = importlib.util.spec_from_file_location("bench_qos", bench_path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    print(f"qos report (seed={seed}): one starved box at 4x offered load, "
          f"{bench.DEADLINE_S:.0f}s session deadline")
    for mode in ("off", "on"):
        result = bench.run_overload(mode, 4.0, seed, duration=10.0)
        print(f"  plane {mode}:")
        print(f"    goodput:   {result['goodput_per_s']:.2f}/s "
              f"({result['goodput_vs_attainable'] * 100:.1f}% of "
              f"attainable, capacity {result['capacity_per_s']:.2f}/s)")
        print(f"    sessions:  {result['good']} good / "
              f"{result['completed']} completed / "
              f"{result['n_sessions']} offered "
              f"(gave up: {result['gave_up']})")
        print(f"    latency:   p50 {result['p50_s']:.2f}s  "
              f"p99 {result['p99_s']:.2f}s")
        print(f"    plane:     admitted={result['qos_admitted']} "
              f"rejected={result['qos_rejected']} "
              f"shed={result['qos_shed']}")


def _scenario_chain_report(seed: int) -> None:
    """Embed the stock Cover→Browser-defense→Store chain jointly against
    the directory's load table, deploy it over attested sessions, push
    traffic units end to end, and print the joint-vs-greedy placement
    contrast.

    The full overload sweep (0.5x-4x offered load, with the gated
    joint-vs-greedy goodput margin) lives in
    ``benchmarks/bench_chain.py``; this scenario is the quick look.
    """
    from repro.chain import ChainDeployment, greedy_embed, pipeline_chain
    from repro.core import BentoClient, BentoServer
    from repro.enclave.attestation import IntelAttestationService
    from repro.migrate import MigrationConfig
    from repro.perf.counters import counters
    from repro.tor import TorTestNetwork

    net = TorTestNetwork(n_relays=12, seed=seed, bento_fraction=0.5)
    ias = IntelAttestationService(net.sim.rng.fork("ias"))
    servers = [BentoServer(relay, net.authority, ias=ias,
                           migrate=MigrationConfig(quiesce_poll_s=0.05))
               for relay in net.bento_boxes()]
    client = BentoClient(net.create_client("chain-op"), ias=ias)
    spec = pipeline_chain()
    dep = ChainDeployment(client, spec,
                          servers={s.relay.fingerprint: s for s in servers})
    counters.reset()
    verified = []

    def flow(thread):
        """Deploy the chain, stream five units through it, tear down."""
        yield from dep.deploy(thread)
        for i in range(5):
            payload = f"unit-{i}".encode()
            out = yield from dep.push(thread, payload)
            verified.append(out == dep.expected_outputs(payload))
        yield from dep.shutdown(thread)

    net.sim.run_until_done(net.sim.spawn(flow))
    greedy = greedy_embed(spec, client.discover_boxes(),
                          client.tor.directory.load_table())
    print(f"chain report (seed={seed}): template {spec.name!r}, "
          f"digest {spec.digest()[:16]}…")
    print(f"  units pushed : {len(verified)} "
          f"(outputs verified: {sum(verified)}/{len(verified)})")
    for label, overlay in (("joint", dep.overlay), ("greedy", greedy)):
        obj = overlay.objective
        print(f"  {label:6s} embed : {obj['replicas']} replicas on "
              f"{obj['boxes_used']} boxes, peak box load "
              f"{obj['peak_box_units_per_s']:.1f} units/s, "
              f"cross-box {obj['cross_box_bytes_per_s']:.0f} B/s")
    print(f"  counters     : embeds={counters.chain_embeds} "
          f"reembeds={counters.chain_reembeds} "
          f"arc_bytes={counters.chain_arc_bytes} "
          f"delivered={counters.chain_units_delivered}")
    print(f"done at simulated t={net.sim.now:.2f}s")


def _scenario_migrate_report(seed: int) -> None:
    """Run the chaos soak once per recovery mode and print how the same
    losses recover: cold respawn vs warm-standby promotion for the
    LoadBalancer, cold redeploy vs drain-then-migrate for a stateful
    kvstore tenant.

    The full comparison (with the plane-off bit-identity re-run and the
    hard acceptance checks) lives in ``benchmarks/bench_migrate.py``;
    this scenario is the quick look.
    """
    from repro.chaos import run_chaos_soak

    print(f"migrate report (seed={seed}): chaos soak per recovery mode")
    for mode in ("cold", "standby", "migrate", "tenant-cold"):
        result = run_chaos_soak(seed=seed, recovery_mode=mode)
        print(f"  {mode}:")
        for kind, stats in sorted(result["recovery"].items()):
            print(f"    {kind:14s} n={stats['count']}  "
                  f"p50 {stats['p50_s']}s  p99 {stats['p99_s']}s")
        tenant = result["tenant"]
        if tenant is not None:
            print(f"    tenant         recovery {tenant['recovery_s']}s, "
                  f"state {'preserved' if tenant['state_preserved'] else 'LOST'}, "
                  f"{tenant['redeploys']} redeploys, "
                  f"{tenant['ops_ok']} ops ok")
        interesting = {name: value
                       for name, value in result["counters"].items()
                       if value and ("migration" in name or "standby" in name
                                     or "checkpoint" in name)}
        if interesting:
            print(f"    counters       {interesting}")


def _scenario_workload_report(seed: int, spec_path: str | None = None,
                              preset_name: str | None = None,
                              out: str | None = None,
                              workers: int = 1) -> None:
    """Run one declarative workload scenario and print its SLO report.

    The scenario comes from ``--spec FILE`` (a WorkloadSpec JSON file) or
    ``--preset NAME`` (a stock scenario; default ``qos-flash``).  A spec
    is self-contained — it carries its own seed, tenants, planes, and SLO
    assertions — so ``--seed`` is ignored here; edit the spec to change
    it.  With ``--out DIR`` the run also writes ``spec.json``,
    ``report.json``, and the replay-identity ``events.jsonl``.

    ``--workers K`` runs the scenario as K tenant-partitioned replica
    fleets (forked processes where available; see
    :mod:`repro.workload.sharded`) and rolls the merged result into the
    same SLO report.  The per-run ``events.jsonl`` artifact is a
    single-fleet replay identity and is skipped for sharded runs.

    Exits nonzero when any declared SLO fails.
    """
    import hashlib
    import json
    import os

    from repro.obs.export import events_to_jsonl
    from repro.obs.span import EventLog
    from repro.workload import (WorkloadSpec, build_report, render_report,
                                run_workload, run_workload_sharded)
    from repro.workload.presets import PRESETS, preset

    if spec_path is not None:
        spec = WorkloadSpec.from_file(spec_path)
    else:
        name = preset_name or "qos-flash"
        if name not in PRESETS:
            print(f"unknown preset {name!r}; available: "
                  + ", ".join(sorted(PRESETS)))
            raise SystemExit(2)
        spec = preset(name)
    log = None
    if workers > 1:
        result = run_workload_sharded(spec, workers)
        print(f"[{len(result['fleets'])} tenant-partitioned fleets on "
              f"{workers} workers]")
    else:
        log = EventLog()
        result = run_workload(spec, trace_log=log)
    report = build_report(spec, result)
    print(render_report(report))
    if out is not None:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "spec.json"), "w",
                  encoding="utf-8") as fh:
            fh.write(spec.to_json())
        artifacts = {"report": report}
        if log is not None:
            jsonl = events_to_jsonl(log)
            digest = hashlib.sha256(jsonl.encode("utf-8")).hexdigest()
            with open(os.path.join(out, "events.jsonl"), "w",
                      encoding="utf-8") as fh:
                fh.write(jsonl)
            artifacts["events_jsonl_sha256"] = digest
        with open(os.path.join(out, "report.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(artifacts, fh, indent=2, sort_keys=True)
            fh.write("\n")
        if log is not None:
            print(f"artifacts in {out}/ "
                  f"(events.jsonl sha256 {digest[:16]}…)")
        else:
            print(f"artifacts in {out}/ (events.jsonl skipped: sharded "
                  f"runs have per-fleet logs)")
    if not report["passed"]:
        raise SystemExit(1)


SCENARIOS = {
    "quickstart": _scenario_quickstart,
    "workload-report": _scenario_workload_report,
    "migrate-report": _scenario_migrate_report,
    "scale-report": _scenario_scale_report,
    "qos-report": _scenario_qos_report,
    "chain-report": _scenario_chain_report,
    "fingerprint": _scenario_fingerprint,
    "perf-report": _scenario_perf_report,
    "chaos-soak": _scenario_chaos_soak,
    "trace-report": _scenario_trace_report,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bento (SIGCOMM 2021) reproduction — demo scenarios")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("scenario",
                        choices=sorted(SCENARIOS) + ["list"],
                        help="scenario to run (or 'list')")
    parser.add_argument("--seed", type=int, default=2021,
                        help="simulation seed (default: 2021)")
    parser.add_argument("--out", default="trace-report",
                        help="output directory for trace-report artifacts "
                             "(default: trace-report)")
    parser.add_argument("--spec", default=None, metavar="FILE",
                        help="workload-report: run this WorkloadSpec JSON "
                             "file instead of a preset")
    parser.add_argument("--preset", default=None, metavar="NAME",
                        help="workload-report: stock scenario to run "
                             "(default: qos-flash)")
    parser.add_argument("--workload-out", default=None, metavar="DIR",
                        help="workload-report: also write spec.json, "
                             "report.json, and events.jsonl here")
    parser.add_argument("--workers", type=int, default=1, metavar="K",
                        help="scale-report: shard the mesh sim across K "
                             "worker processes and print the parallel "
                             "quick-look; workload-report: run K "
                             "tenant-partitioned replica fleets "
                             "(default: 1)")
    args = parser.parse_args(argv)
    if args.scenario == "list":
        width = max(len(name) for name in SCENARIOS)
        for name in sorted(SCENARIOS):
            doc = (SCENARIOS[name].__doc__ or "").strip()
            summary = doc.splitlines()[0] if doc else ""
            print(f"{name:<{width}}  {summary}")
        return 0
    if args.scenario == "trace-report":
        SCENARIOS[args.scenario](args.seed, out=args.out)
    elif args.scenario == "workload-report":
        SCENARIOS[args.scenario](args.seed, spec_path=args.spec,
                                 preset_name=args.preset,
                                 out=args.workload_out,
                                 workers=args.workers)
    elif args.scenario == "scale-report":
        SCENARIOS[args.scenario](args.seed, workers=args.workers)
    else:
        SCENARIOS[args.scenario](args.seed)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

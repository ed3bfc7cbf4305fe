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
    """Run the quickstart scenario, then print its perf counter table.

    Where the wall-clock time went, layer by layer, is the benchmark
    suite's ``benchmarks/suite/run.py --trace``.
    """
    from repro.perf.counters import counters
    from repro.perf.report import render_report

    counters.reset()
    _scenario_quickstart(seed)
    print()
    print(render_report())


def _scenario_trace_report(seed: int, out: str = "trace-report") -> None:
    """Run the quickstart flow with the observability plane attached and
    write the trace artifacts: a Perfetto-loadable Chrome trace, the raw
    span/event JSONL, and a plain-text metrics snapshot.

    All timestamps are simulated seconds — the same seed always produces
    byte-identical artifacts.
    """
    from repro.obs.export import write_trace_report
    from repro.obs.metrics import REGISTRY
    from repro.obs.span import TRACER

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


def _scenario_workload_report(seed: int, spec_path: str | None = None,
                              preset_name: str | None = None,
                              out: str | None = None) -> None:
    """Run one declarative workload scenario and print its SLO report.

    The scenario comes from ``--spec FILE`` (a WorkloadSpec JSON file) or
    ``--preset NAME`` (a stock scenario; default ``qos-flash``).  A spec
    is self-contained — it carries its own seed, tenants, planes, and SLO
    assertions — so ``--seed`` is ignored here; edit the spec to change
    it.  With ``--workload-out DIR`` the run also writes ``spec.json``,
    ``report.json``, and the replay-identity ``events.jsonl``.

    Exits nonzero when any declared SLO fails.
    """
    import hashlib
    import json
    import os

    from repro.obs.export import events_to_jsonl
    from repro.obs.span import EventLog
    from repro.workload import (WorkloadSpec, build_report, render_report,
                                run_workload)
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
    log = EventLog()
    result = run_workload(spec, trace_log=log)
    report = build_report(spec, result)
    print(render_report(report))
    if out is not None:
        os.makedirs(out, exist_ok=True)
        jsonl = events_to_jsonl(log)
        digest = hashlib.sha256(jsonl.encode("utf-8")).hexdigest()
        summary = json.dumps({"report": report, "events_jsonl_sha256": digest},
                             indent=2, sort_keys=True) + "\n"
        for name, text in (("spec.json", spec.to_json()),
                           ("events.jsonl", jsonl), ("report.json", summary)):
            with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        print(f"artifacts in {out}/ (events.jsonl sha256 {digest[:16]}…)")
    if not report["passed"]:
        raise SystemExit(1)


SCENARIOS = {
    "quickstart": _scenario_quickstart,
    "workload-report": _scenario_workload_report,
    "fingerprint": _scenario_fingerprint,
    "perf-report": _scenario_perf_report,
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
                                 out=args.workload_out)
    else:
        SCENARIOS[args.scenario](args.seed)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

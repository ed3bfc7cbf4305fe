"""Self-tests of the benchmark suite (not part of tier-1).

    python -m pytest benchmarks/suite -q

They check the suite, not the program: that the layer table places
every source file, that every workload runs and verifies at smoke
scale, that a traced repetition accounts for its whole wall time, that
names and counts stay inside ``BENCHMARK.json``'s contract, and that a
workload that raises is reported as failed instead of taking the
harness down.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import time

import pytest

SUITE_ROOT = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(SUITE_ROOT))

import rep  # noqa: E402  (puts src/ on the path)
import compare  # noqa: E402
import drills  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS, REPO_ROOT, RULES, SRC_ROOT, layer_of_module  # noqa: E402
from metrics import (END_TO_END, GATED, LADDER, Metric,  # noqa: E402
                     end_to_end_of, summarize, traced_layer_metrics,
                     worsening)
from speed import KERNELS, Sidecar  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
PLANES = ("qos", "migrate", "chaos", "workload")
SEED = run.DEFAULT_SEED


@pytest.fixture(scope="module")
def smoke_reps():
    """One untraced and one traced smoke repetition of every workload."""
    return {name: (rep.run_rep(name, SEED, smoke=True),
                   rep.run_rep(name, SEED, smoke=True, traced=True))
            for name in workloads.WORKLOADS}


# -- the layer table --------------------------------------------------------


def test_every_source_file_has_a_layer():
    files = sorted(path.relative_to(SRC_ROOT).as_posix()
                   for path in SRC_ROOT.rglob("*.py"))
    assert files, "src/repro is empty?"
    unplaced = [f for f in files if layer_of_module(f) is None]
    assert not unplaced, f"add these to layers.RULES on purpose: {unplaced}"
    assert {layer_of_module(f) for f in files} == set(LAYERS)


def test_no_rule_is_stale_or_misnamed():
    files = [path.relative_to(SRC_ROOT).as_posix()
             for path in SRC_ROOT.rglob("*.py")]
    for prefix, layer in RULES.items():
        assert layer in LAYERS
        assert any(f == prefix or (prefix.endswith("/")
                                   and f.startswith(prefix))
                   for f in files), f"rule {prefix!r} matches no file"


# -- names, counts and BENCHMARK.json --------------------------------------


def _per_layer_names() -> list:
    return [name for name, _unit, _better in traced_layer_metrics()]


def test_names_and_counts_fit_the_contract():
    everything = ([m.name for m in END_TO_END] + _per_layer_names()
                  + list(drills.DRILLS)
                  + [f"ladder.{rung}.host_ms_per_mb" for rung in LADDER]
                  + list(run.WHY))
    assert all(NAME.match(name) for name in everything), everything
    assert len(set(everything)) == len(everything)
    assert len(END_TO_END) == 8 and len(END_TO_END) <= 16
    assert len(LAYERS) == 18
    assert len(drills.DRILLS) == 31
    assert len(_per_layer_names()) <= 128
    assert set(run.WHY) == set(workloads.WORKLOADS)


def test_benchmark_json_mirrors_the_suite():
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/suite"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WHY)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]] == [tuple(m) for m in GATED]
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == traced_layer_metrics()


# -- every workload, at smoke scale ----------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_verifies(smoke_reps, name):
    untraced, traced = smoke_reps[name]
    # cross-plane runs under a fault schedule; at this seed and scale it
    # costs one arrival (exact: the run is deterministic).
    lost = 1 if name == "cross-plane" else 0
    for one in (untraced, traced):
        assert one["error"] is None, one["error"]
        assert one["attempted"] >= 1
        assert one["attempted"] - one["ok"] == lost
        assert one["sim_digest"]
    values = end_to_end_of(untraced)
    assert all(values[m.name] is not None for m in END_TO_END)
    assert all(values[m.name] > 0 for m in GATED)
    assert values["failed_share"] == lost / untraced["attempted"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_two_reps_agree_on_the_digest(smoke_reps, name):
    again = rep.run_rep(name, SEED, smoke=True)
    assert again["sim_digest"] == smoke_reps[name][0]["sim_digest"]
    if name != "session-churn":     # its traced rep uses one client
        assert again["sim_digest"] == smoke_reps[name][1]["sim_digest"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_the_inputs(smoke_reps, name):
    other = rep.run_rep(name, 7, smoke=True)
    assert other["error"] is None
    assert other["sim_digest"] != smoke_reps[name][0]["sim_digest"]


# -- tracing ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_self_time_accounts_for_the_traced_wall(smoke_reps, name):
    traced = smoke_reps[name][1]
    layers, wall = traced["layers"], traced["wall_s"]
    assert set(layers["self_s"]) == set(LAYERS)
    # The remainder the profiler did not see is added to one layer, so
    # the sum can only miss the wall by overshooting; what makes the
    # attribution trustworthy is that the remainder is small.
    assert sum(layers["self_s"].values()) == pytest.approx(wall, rel=0.02)
    assert layers["profiled_s"] <= wall * 1.02
    assert layers["unprofiled_s"] / wall <= 0.10
    cells = run.layer_metrics([smoke_reps[name][0]], traced)
    assert cells["trace_unprofiled_share"]["value"] == pytest.approx(
        layers["unprofiled_s"] / wall)
    assert cells["trace_unprofiled_share"]["layer"] in LAYERS


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_events_are_counted_wherever_the_kernel_ran(smoke_reps, name):
    untraced, traced = smoke_reps[name]
    assert traced["layers"]["self_s"]["netsim.kernel"] > 0
    assert untraced["counters"]["events_processed"] > 0
    assert untraced["events_host_s"] >= untraced["wall_s"]
    cells = run.layer_metrics([untraced], traced)
    assert cells["netsim.kernel.events"]["value"] > 0
    assert cells["netsim.kernel.us_per_event"]["value"] > 0


def test_workloads_separate_the_layers(smoke_reps):
    share = {}
    for name, (_untraced, traced) in smoke_reps.items():
        self_s = traced["layers"]["self_s"]
        total = sum(self_s.values())
        share[name] = {layer: s / total for layer, s in self_s.items()}
        calls = traced["layers"]["calls_in"]
        for plane in PLANES:
            if name == "cross-plane":
                assert calls[plane] > 0, plane
            else:
                assert calls[plane] == 0, (name, plane)
    mesh = share["mesh-sessions"]
    assert mesh["netsim.kernel"] + mesh["netsim.link"] >= 0.80
    for bulk in ("put-real", "get-real"):
        ranked = sorted(share[bulk], key=share[bulk].get, reverse=True)
        assert ranked[0] == "crypto.stream"
        assert share[bulk]["crypto.stream"] + share[bulk]["tor.cell"] > 0.5
    assert max(share["session-churn"],
               key=share["session-churn"].get) == "crypto.pk"
    # Cell keystream is what real-crypto bulk pays for; the fast-crypto
    # workloads hash only for the attested channel's AEAD, per session.
    hashes = {name: reps[0]["counters"]["hash_calls"]
              for name, reps in smoke_reps.items()}
    assert hashes["mesh-sessions"] == 0
    assert hashes["session-churn"] * 20 < hashes["put-real"]


def test_phases_are_spanned_where_the_driver_makes_the_calls(smoke_reps):
    spans = smoke_reps["session-churn"][1]["spans"]
    sessions = smoke_reps["session-churn"][1]["attempted"]
    count = {}
    for span in spans:
        count[span["name"]] = count.get(span["name"], 0) + 1
        assert span["host_end"] >= span["host_start"]
        assert span["sim_end"] >= span["sim_start"]
        if span["name"] != "session":
            assert spans[span["parent"]]["session"] == span["session"]
    assert count["session"] == count["circuit_build"] == sessions
    assert count["invoke"] == 3 * sessions
    cells = run.layer_metrics([smoke_reps["session-churn"][0]],
                              smoke_reps["session-churn"][1])
    assert cells["phase.invoke.host_ms"]["n"] == 3 * sessions
    assert cells["phase.circuit_build.sim_s"]["value"] > 0
    assert cells["trace_overhead_ratio"]["value"] > 0
    assert not smoke_reps["mesh-sessions"][1]["spans"]
    trace = run.chrome_trace(spans)
    assert len(trace["traceEvents"]) == len(spans)
    assert all(event["ph"] == "X" for event in trace["traceEvents"])


# -- a workload that raises -------------------------------------------------


class _Boom(workloads.Workload):
    name = "put-real"
    loop = "never"

    def planned_ops(self) -> int:
        return 7

    def run(self, region) -> None:
        with region:
            raise RuntimeError("boom")


def test_raising_workload_is_reported_not_fatal(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "put-real", _Boom)
    broken = rep.run_rep("put-real", SEED, smoke=True)
    assert broken["error"] == "RuntimeError: boom"
    assert (broken["attempted"], broken["ok"]) == (7, 0)
    assert end_to_end_of(broken)["failed_share"] == 1.0
    row = run.reduce_workload("put-real", [broken, broken])
    assert not row["correct"] and row["failed"] == row["attempted"] == 14
    assert row["end_to_end"]["failed_share"]["median"] == 1.0
    line = json.loads(run.gate_line(row, None))
    assert line["correct"] is False and line["failed"] == 14


def test_disagreeing_digests_fail_the_run(smoke_reps):
    one = dict(smoke_reps["mesh-sessions"][0])
    other = dict(one, sim_digest="0" * 64)
    row = run.reduce_workload("mesh-sessions", [one, other])
    assert not row["correct"] and row["sim_digest"] is None


# -- speed normalisation ------------------------------------------------------


def test_nominal_seconds_divide_out_the_machine():
    probe = Sidecar(cpu=0)
    # A CPU at half speed for ten seconds: every sample takes twice its
    # nominal duration.
    probe.samples = tuple(
        [(float(t), 2 * nominal) for t in range(10)]
        for _kernel, nominal in KERNELS)
    probe_s = sum(10 * 2 * nominal for _kernel, nominal in KERNELS)
    got = probe.nominal_seconds(-0.5, 9.5)
    assert got["speed"] == pytest.approx(0.5)
    assert got["nominal_s"] == pytest.approx((10.0 - probe_s) * 0.5)
    rep_ = probe.normalise({"spawned_at": -0.5, "setup_s": 2.0,
                            "region_started_at": 1.5, "wall_s": 8.0})
    assert rep_["raw_wall_s"] == 8.0 and rep_["speed"] == pytest.approx(0.5)
    assert rep_["wall_s"] == pytest.approx(4.0, rel=0.01)
    assert rep_["setup_s"] == pytest.approx(1.0, rel=0.01)
    # A repetition that died before its region keeps what it has.
    assert "wall_s" not in probe.normalise({"spawned_at": 0.0})
    # One kernel at full speed, the other at half: the even blend.
    probe.samples = ([(0.0, KERNELS[0][1])], [(0.0, 2 * KERNELS[1][1])])
    assert probe.nominal_seconds(-1, 1)["speed"] == pytest.approx(0.75)


class _AtRegionExit:
    """A region that does ``extra`` work just before its clocks stop."""

    def __init__(self, region, extra) -> None:
        self.region, self.extra = region, extra

    def __enter__(self):
        return self.region.__enter__()

    def __exit__(self, *exc_info):
        self.extra()
        return self.region.__exit__(*exc_info)


class _ThriceTheWork(workloads.MeshSessions):
    """A slowdown on the program's side: the timed work, done three times."""

    def run(self, region) -> None:
        def again() -> None:
            for _ in range(2):
                workloads.ShardedSimulator(self.scenario, workers=1,
                                           seed=self.seed).run()
        super().run(_AtRegionExit(region, again))


def test_a_slowdown_in_the_program_is_not_normalised_away(monkeypatch):
    # (The subtler case, a program that slows its own interpreter by
    # growing the heap, is measured at full scale in the README.)
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    os.sched_setaffinity(0, {cpu})
    try:
        rep.run_rep("mesh-sessions", SEED, smoke=True)      # warm the code
        with Sidecar(cpu) as probe:
            plain = rep.run_rep("mesh-sessions", SEED, smoke=True,
                                spawned_at=time.perf_counter())
            monkeypatch.setitem(workloads.WORKLOADS, "mesh-sessions",
                                _ThriceTheWork)
            slowed = rep.run_rep("mesh-sessions", SEED, smoke=True,
                                 spawned_at=time.perf_counter())
    finally:
        os.sched_setaffinity(0, allowed)
    assert plain["error"] is None and slowed["error"] is None
    assert all(len(samples) > 10 for samples in probe.samples)
    plain, slowed = probe.normalise(plain), probe.normalise(slowed)
    assert 2.0 < slowed["wall_s"] / plain["wall_s"] < 4.0
    wall = next(m for m in GATED if m.name == "wall_s")
    assert worsening(wall, plain["wall_s"], slowed["wall_s"]) > wall.bound


# -- the gate and the empty checkout ----------------------------------------


def _gate(*args: str, cwd=REPO_ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "benchmarks/suite/run.py"),
         "--workload", "mesh-sessions", "--seed", "3", "--smoke", *args],
        capture_output=True, text=True, timeout=170, cwd=str(cwd))


@pytest.mark.parametrize("trace", ["0", "1"])
def test_gate_prints_the_contract_line_last(trace):
    done = _gate("--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    expected = [m.name for m in GATED] if trace == "0" else _per_layer_names()
    assert list(line["metrics"]) == expected
    assert all(set(cell) == {"value", "unit"}
               and isinstance(cell["value"], (int, float))
               for cell in line["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(SUITE_ROOT, tmp_path / "benchmarks" / "suite",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(REPO_ROOT / "BENCHMARK.json", tmp_path)
    done = _gate("--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


# -- compare.py and A/A -------------------------------------------------------


def test_compare_verdicts():
    wall = Metric("wall_s", "s", "lower", 0.10)
    steady = summarize([1.00, 1.01, 0.99, 1.00, 1.02])
    assert compare.verdict(wall, steady, steady) == "unchanged"
    assert compare.verdict(
        wall, steady, summarize([1.2, 1.21, 1.19, 1.2, 1.22])) == "regressed"
    assert compare.verdict(
        wall, steady, summarize([0.8, 0.81, 0.79, 0.8, 0.82])) == "improved"
    noisy = summarize([1.0, 1.3, 0.8, 1.2, 0.9])
    assert compare.verdict(wall, noisy, steady) == "unresolved"
    assert compare.verdict(
        wall, noisy, summarize([0.5, 0.51, 0.52, 0.5, 0.49])) == "improved"
    exact = Metric("failed_share", "ratio", "lower", 0.0)
    assert compare.verdict(exact, summarize([0.0]), summarize([0.0])) \
        == "unchanged"
    assert compare.verdict(exact, summarize([0.0]), summarize([0.1])) \
        == "regressed"


def test_aa_flags_only_real_disagreement(smoke_reps):
    reps = [smoke_reps["mesh-sessions"][0]] * 3
    first = {"workloads": [run.reduce_workload("mesh-sessions", reps)]}
    assert run.disagreements(first, first) == []
    slower = [dict(r, wall_s=r["wall_s"] * 1.5) for r in reps]
    second = {"workloads": [run.reduce_workload("mesh-sessions", slower)]}
    found = run.disagreements(first, second)
    assert any("wall_s" in line for line in found)
    assert not any("sim_latency" in line for line in found)

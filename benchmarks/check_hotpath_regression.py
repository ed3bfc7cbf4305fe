"""Regression guard for the hot-path benchmark's counters.

Compares a fresh ``bench_hotpath.py`` run (typically the ``--smoke``
variant CI just produced) against a reference ``BENCH_hotpath.json``
(the committed full run).  Counters that scale with transfer volume are
normalized per byte, so a 1 MB smoke run is comparable to the committed
10 MB run; fixed-overhead counters (circuit setup, timer slots) are
deliberately not guarded — they do not scale with size.

    python benchmarks/check_hotpath_regression.py \
        --reference /tmp/BENCH_hotpath_ref.json \
        --current benchmarks/BENCH_hotpath.json

Exits nonzero if any per-byte counter drifts past the tolerance or any
hard invariant (zero heap compactions, crypto-mode timing invariance,
zero-copy coverage of the payload) is violated.

Given a ``BENCH_scale.json`` via ``--scale``, the kernel's context-switch
cost per session must also stay under the frozen budget.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.perf.counters import FIELDS  # noqa: E402

#: Which fields are guarded, and how, is read from the one declaration in
#: ``repro.perf.counters`` (a field cannot be declared without a plane
#: and a kind, so none escapes this guard by omission).  ``volume`` fields
#: are proportional to bytes transferred and ratio-guarded per byte.
#: ``task_switches`` is deliberately ``fixed``: suspensions are a
#: per-actor overhead (~39 for the 10 MB macro and ~30 for the 1 MB
#: smoke), so a per-byte ratio between different transfer sizes is
#: meaningless — the switches-per-session budget in :func:`check_scale`
#: guards it.  ``plane-off-zero`` fields (qos, migrate, chain, and the
#: sharded kernel's barrier/IPC bookkeeping) must all read zero: the
#: hot-path benchmark is a one-process run that enables no plane, so a
#: nonzero count means plane code leaked into the per-byte path.

#: Upper bound on kernel context switches per completed Bento session in
#: the scale benchmark.  Measured 14.9 at N=1000 / 14.7 at N=10000 when
#: the coroutine kernel landed; drift past this means an actor started
#: bouncing through extra suspensions per session.
SWITCHES_PER_SESSION_BUDGET = 20.0

SECTIONS = ("macro_fast", "macro_real", "fanin")


def check(reference: dict, current: dict, tolerance: float) -> list[str]:
    """Return a list of human-readable regression descriptions."""
    problems: list[str] = []
    for section in SECTIONS:
        ref, cur = reference.get(section), current.get(section)
        if ref is None or cur is None:
            problems.append(f"{section}: missing from "
                            f"{'reference' if ref is None else 'current'}")
            continue
        for field in FIELDS:
            name, value = field.name, cur["counters"].get(field.name, 0)
            if field.kind == "plane-off-zero":
                if value != 0:
                    problems.append(
                        f"{section}: {name} = {value} — the {field.plane} "
                        f"plane ran in a benchmark that never enabled it; "
                        f"it must stay out of the hot path")
                continue
            if field.kind != "volume":
                continue
            ref_per_byte = ref["counters"].get(name, 0) / ref["bytes"]
            cur_per_byte = value / cur["bytes"]
            if ref_per_byte == 0:
                continue
            drift = cur_per_byte / ref_per_byte - 1.0
            if abs(drift) > tolerance:
                problems.append(
                    f"{section}.{name}: {cur_per_byte:.6f}/byte vs "
                    f"reference {ref_per_byte:.6f}/byte "
                    f"({drift:+.1%}, tolerance ±{tolerance:.0%})")
        if cur["counters"].get("heap_compactions", 0) != 0:
            problems.append(f"{section}: heap_compactions != 0 — timer "
                            f"slots are leaking tombstones again")
    fast, real = current.get("macro_fast"), current.get("macro_real")
    if fast and real:
        if (fast["elapsed"], fast["sim_now"]) != \
                (real["elapsed"], real["sim_now"]):
            problems.append("macro_fast and macro_real disagree on "
                            "simulated time — an optimization leaked "
                            "into the event schedule")
        if fast["counters"].get("bytes_zero_copied", 0) < fast["bytes"]:
            problems.append("macro_fast: zero-copy path covered less "
                            "than the payload")
    return problems


def check_scale(scale_report: dict) -> list[str]:
    """Kernel invariants for the scale benchmark's runs."""
    problems: list[str] = []
    for run in scale_report.get("runs", []):
        n = run.get("n_sessions", 0) or 1
        per_session = run.get("task_switches", 0) / n
        if per_session > SWITCHES_PER_SESSION_BUDGET:
            problems.append(
                f"scale N={n}: {per_session:.1f} task switches per session "
                f"exceeds the budget of {SWITCHES_PER_SESSION_BUDGET:.1f}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reference", type=Path, required=True,
                        help="committed BENCH_hotpath.json to compare against")
    parser.add_argument("--current", type=Path,
                        default=Path(__file__).parent / "BENCH_hotpath.json",
                        help="freshly produced BENCH_hotpath.json")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed per-byte drift (default: 25%%)")
    parser.add_argument("--scale", type=Path, default=None,
                        help="BENCH_scale.json to apply the switches-per-"
                             "session budget to")
    args = parser.parse_args(argv)

    reference = json.loads(args.reference.read_text())
    current = json.loads(args.current.read_text())
    problems = check(reference, current, args.tolerance)
    if args.scale is not None:
        problems += check_scale(json.loads(args.scale.read_text()))
    for problem in problems:
        print(f"REGRESSION: {problem}")
    if problems:
        return 1
    print(f"hot-path counters within ±{args.tolerance:.0%} of "
          f"{args.reference} across {', '.join(SECTIONS)}"
          + ("" if args.scale is None
             else "; switches-per-session budget holds"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

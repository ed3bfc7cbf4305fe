"""Table 1: website-fingerprinting attack accuracy vs. the Browser defense.

Paper (100 Alexa sites, >=10 visits, Deep Fingerprinting attack):

    93.9%   None (unmodified Tor)
    69.6%   Browser, 0MB padding
    8.25%   Browser, 1MB padding
    0.0%    Browser, 7MB padding

Reproduction notes (DESIGN.md §2): synthetic corpus, k-NN/CUMUL attacker.
Page weights are scaled ~4x down for simulation speed, so the paper's
"7MB = covers every page" tier maps to 2MB here; the trend (none > 0MB >>
1MB > full) is the claim under test.  REPRO_FULL=1 runs 60 sites x 8
visits; the default is 25 x 5.
"""

from __future__ import annotations

import pytest

from repro.fingerprint import FingerprintLab, KnnClassifier, evaluate_split

from conftest import FULL_SCALE, banner

N_SITES = 60 if FULL_SCALE else 25
VISITS = 8 if FULL_SCALE else 5

CONDITIONS = [
    ("None (unmodified Tor)", "none", 0, 93.9),
    ("Browser, 0MB padding", "browser", 0, 69.6),
    ("Browser, 1MB padding", "browser", 1_000_000, 8.25),
    ("Browser, full padding (2MB here / 7MB paper)", "browser",
     2_000_000, 0.0),
]


def run_table1() -> dict:
    lab = FingerprintLab(n_sites=N_SITES, n_relays=14, seed="table1")
    rows = []
    for label, defense, padding, paper in CONDITIONS:
        samples = lab.collect(defense, visits_per_site=VISITS,
                              padding=padding)
        X, y = lab.dataset(samples)
        accuracy = 100.0 * evaluate_split(KnnClassifier(k=3), X, y,
                                          train_fraction=0.8)
        rows.append({"defense": label, "accuracy": accuracy,
                     "paper": paper})
    return {"n_sites": N_SITES, "visits": VISITS, "rows": rows,
            "chance": 100.0 / N_SITES}


def test_table1_fingerprinting(benchmark, experiment_recorder):
    result = benchmark.pedantic(run_table1, rounds=1, iterations=1)

    banner(f"TABLE 1 — attack accuracy ({N_SITES} sites x {VISITS} visits; "
           f"chance = {result['chance']:.1f}%)")
    print(f"{'Defense':48s} {'k-NN':>8s} {'paper':>7s}")
    for row in result["rows"]:
        print(f"{row['defense']:48s} {row['accuracy']:7.1f}% "
              f"{row['paper']:6.1f}%")

    experiment_recorder("table1", result)

    none, zero, one, full = [row["accuracy"] for row in result["rows"]]
    assert none > 70.0, "attack should succeed against unmodified Tor"
    assert zero < none, "0MB padding should reduce accuracy"
    assert one < zero / 2, "1MB padding should collapse accuracy"
    assert full <= one + 3.0, "full padding should be at or below 1MB tier"
    assert full < 2.5 * result["chance"] + 3.0, \
        "full padding should approach chance"

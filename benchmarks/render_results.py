#!/usr/bin/env python3
"""Render benchmarks/results.json as the EXPERIMENTS.md summary tables.

Run after ``pytest benchmarks/ --benchmark-only`` to print the measured
rows in markdown, ready to paste into EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import pathlib

RESULTS = pathlib.Path(__file__).parent / "results.json"


def main() -> None:
    """Print every recorded experiment as a small markdown table."""
    data = json.loads(RESULTS.read_text())

    if "table1" in data:
        t1 = data["table1"]
        print(f"## Table 1  ({t1['n_sites']} sites x {t1['visits']} visits, "
              f"chance {t1['chance']:.1f}%)\n")
        print("| Defense | paper | k-NN |")
        print("|---|---|---|")
        for row in t1["rows"]:
            print(f"| {row['defense']} | {row['paper']:.1f}% "
                  f"| {row['accuracy']:.1f}% |")
        print()

    if "table2" in data:
        print("## Table 2  (seconds: Tor / 0MB / 1MB / 7MB)\n")
        print("| Domain | measured |")
        print("|---|---|")
        for domain, times in data["table2"]["rows"].items():
            cells = " / ".join(f"{t:.1f}" for t in times)
            print(f"| {domain} | {cells} |")
        print()

    if "figure5" in data:
        f5 = data["figure5"]
        print(f"## Figure 5  ({f5['n_clients']} clients, "
              f"{f5['file_size'] // 1_000_000}MB)\n")
        print(f"- baseline mean/max: {f5['baseline']['mean_s']:.1f}s / "
              f"{f5['baseline']['max_s']:.1f}s")
        print(f"- balanced mean/max: {f5['balanced']['mean_s']:.1f}s / "
              f"{f5['balanced']['max_s']:.1f}s")
        print(f"- peak instances: {f5['peak_instances']}")
        print()

    if "memory_scalability" in data:
        mem = data["memory_scalability"]
        print("## §7.3 memory\n")
        print(f"- Bento+Browser: {mem['bento_browser_mb']:.1f} MB "
              f"(paper 16-20)")
        print(f"- conclave overhead: {mem['conclave_overhead_mb']:.1f} MB "
              f"(paper 7.3)")
        print(f"- fit before paging: {mem['fit_before_paging']}")
        print()

    for key in sorted(data):
        if key.startswith("ablation_"):
            print(f"## {key}\n```json")
            print(json.dumps(data[key], indent=2)[:800])
            print("```")


if __name__ == "__main__":
    main()

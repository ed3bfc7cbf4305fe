"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit), B the change.  One row per workload
and end-to-end metric gives both medians with their quartiles, the ratio
B/A with its base, and a verdict by the choosing-metrics rules:

* ``regressed``  — B's median is worse than A's by more than the bound.
* ``improved``   — B is better in at least nine tenths of all (A, B)
  pairs of repetitions and the medians differ by more than the distance
  between A's own quartiles.
* ``unresolved`` — A's own interquartile spread exceeds the bound, so
  the metric cannot show "no regression"; it is still ``improved`` when
  every repetition of B beats every repetition of A.
* ``unchanged``  — none of the above.  An exact metric (bound 0) is
  ``unchanged`` only when the two medians are equal.

Then, for every workload traced in both files, the per-layer ``self_s``
deltas, so a claimed saving can be located.  Exit code 1 if anything
regressed.  A gain may be *claimed* only from ten alternating pairs of
runs (choosing-metrics §8); this table is how each pair is read.
"""

from __future__ import annotations

import json
import pathlib
import sys

SUITE_ROOT = pathlib.Path(__file__).resolve().parent
if str(SUITE_ROOT) not in sys.path:
    sys.path.insert(0, str(SUITE_ROOT))

from layers import LAYERS
from metrics import END_TO_END, Metric, worsening


def _better(metric: Metric, a: float, b: float) -> bool:
    """Is ``b`` strictly better than ``a``?"""
    return b < a if metric.better == "lower" else b > a


def verdict(metric: Metric, base: dict, change: dict) -> str:
    """One cell's verdict from the two ``summarize`` dicts."""
    a, b = base["median"], change["median"]
    worse = worsening(metric, a, b)
    if worse is None:
        return "unchanged" if a == b else "unresolved"
    if metric.bound == 0.0:
        return "unchanged" if worse == 0 else \
            "regressed" if worse > 0 else "improved"
    pairs = [(x, y) for x in base["values"] for y in change["values"]]
    wins = sum(_better(metric, x, y) for x, y in pairs)
    spread = base["q3"] - base["q1"]
    if a and spread / abs(a) > metric.bound:
        return "improved" if pairs and wins == len(pairs) else "unresolved"
    if worse > metric.bound:
        return "regressed"
    if pairs and wins >= 0.9 * len(pairs) and abs(b - a) > spread:
        return "improved"
    return "unchanged"


def _cell(summary: dict) -> str:
    if summary["median"] is None:
        return "-"
    return (f"{summary['median']:.5g} [{summary['q1']:.5g}, "
            f"{summary['q3']:.5g}]")


def compare(base: dict, change: dict) -> tuple:
    """(rows, layer_rows): the printable comparison of two documents."""
    theirs = {row["name"]: row for row in change["workloads"]}
    rows = []
    for row_a in base["workloads"]:
        row_b = theirs.get(row_a["name"])
        if row_b is None:
            continue
        for metric in END_TO_END:
            cell_a = row_a["end_to_end"][metric.name]
            cell_b = row_b["end_to_end"][metric.name]
            a, b = cell_a["median"], cell_b["median"]
            ratio = f"{b / a:.3f}x of {a:.5g} {metric.unit}" \
                if a and b is not None else "-"
            rows.append((row_a["name"], metric.name, _cell(cell_a),
                         _cell(cell_b), ratio,
                         verdict(metric, cell_a, cell_b)))
    layer_rows = []
    for name, cells_a in base.get("layers", {}).items():
        cells_b = change.get("layers", {}).get(name)
        if cells_b is None or f"{LAYERS[0]}.self_s" not in cells_a:
            continue
        for layer in LAYERS:
            a = cells_a[f"{layer}.self_s"]["value"]
            b = cells_b[f"{layer}.self_s"]["value"]
            if a or b:
                layer_rows.append((name, layer, a, b, b - a))
    return rows, layer_rows


def main(argv: list | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    base, change = (json.loads(pathlib.Path(path).read_text())
                    for path in argv)
    if base["env"].get("commit") == change["env"].get("commit"):
        print("note: both files were measured at the same commit")
    rows, layer_rows = compare(base, change)
    print(f"{'workload':<15}{'metric':<20}{'A median [q1, q3]':<34}"
          f"{'B median [q1, q3]':<34}{'B/A':<28}verdict")
    for row in rows:
        print(f"{row[0]:<15}{row[1]:<20}{row[2]:<34}{row[3]:<34}"
              f"{row[4]:<28}{row[5]}")
    if layer_rows:
        print(f"\n{'workload':<15}{'layer':<16}{'A self_s':>10}"
              f"{'B self_s':>10}{'B - A':>10}")
        for name, layer, a, b, delta in layer_rows:
            print(f"{name:<15}{layer:<16}{a:>10.4f}{b:>10.4f}{delta:>+10.4f}")
    return 1 if any(row[5] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())

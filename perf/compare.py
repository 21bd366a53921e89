#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perf/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

Each file is a JSON list of run records written by ``perf/run.py --out``.
For every (end-to-end metric, workload) row this prints the median and
quartiles of set A and set B and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``unresolved`` — either set's spread (quartile distance over median) is
  wider than the bound, and the sets overlap;
* ``worse`` — B's median is worse than A's by more than the bound (or,
  when unresolved, every B run is worse than every A run);
* ``better`` — B's median is better than A's by more than both spreads
  (or every B run is better than every A run);
* ``same`` — otherwise.

Traced runs are compared per layer by median, and every count (unit
``count`` or ``B``) must repeat exactly among the runs of one seed within
a set.  The exit status is non-zero if a row is worse or a count differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT_UNITS = ("count", "B")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics.quantiles`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def spread(values: list[float]) -> float:
    first, median, third = quartiles(values)
    return (third - first) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """Classify B against A for one metric (see the module docstring)."""
    sign = 1.0 if better == "higher" else -1.0
    a_median, b_median = statistics.median(a), statistics.median(b)
    gain = sign * (b_median - a_median) / abs(a_median) if a_median else 0.0
    noise = max(spread(a), spread(b))
    if noise > bound:
        if all(sign * y > sign * x for x in a for y in b):
            return "better"
        if all(sign * y < sign * x for x in a for y in b):
            return "worse"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > noise:
        return "better"
    return "same"


def load(paths: list[str]) -> list[dict]:
    records: list[dict] = []
    for path in paths:
        records += json.loads(Path(path).read_text())
    return records


def _values(records: list[dict], workload: str, metric: str, trace: bool) -> list[float]:
    return [
        record["result"]["metrics"][metric]["value"]
        for record in records
        if record["workload"] == workload and record["trace"] == trace
    ]


def count_mismatches(records: list[dict], metrics: list[dict]) -> list[str]:
    """Counts that differ between traced runs of one workload and seed."""
    groups: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for record in records:
        if record["trace"]:
            groups[record["workload"], record["seed"]].append(record)
    problems = []
    for (workload, seed), runs in sorted(groups.items()):
        for metric in metrics:
            if metric["unit"] not in EXACT_UNITS:
                continue
            seen = {run["result"]["metrics"][metric["name"]]["value"] for run in runs}
            if len(seen) > 1:
                problems.append(f"{workload} seed {seed} {metric['name']}: {sorted(seen)}")
    return problems


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    sets = load(argv[:split]), load(argv[split + 1:])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    status = 0

    header = ("metric", "workload", "A q1/median/q3", "B q1/median/q3")
    print(f"{header[0]:16} {header[1]:15} {header[2]:>32} {header[3]:>32}  verdict")
    for metric in spec["end_to_end"]:
        for workload in workloads:
            a, b = (_values(records, workload, metric["name"], False) for records in sets)
            if not a or not b:
                continue
            row = verdict(a, b, metric["better"], metric["bound"])
            status |= row == "worse"
            cells = [
                "/".join(f"{value:.4g}" for value in quartiles(values)) for values in (a, b)
            ]
            print(f"{metric['name']:16} {workload:15} {cells[0]:>32} {cells[1]:>32}  {row}"
                  f" (bound {metric['bound']:.0%}, n={len(a)}/{len(b)})")

    for workload in workloads:
        rows = []
        for metric in spec["per_layer"]:
            a, b = (_values(records, workload, metric["name"], True) for records in sets)
            if a and b:
                rows.append(f"  {metric['name']:36} {statistics.median(a):>14.6g}"
                            f" {statistics.median(b):>14.6g} {metric['unit']}")
        if rows:
            print(f"\n{workload} per layer (median A, median B):")
            print("\n".join(rows))

    for label, records in zip("AB", sets):
        for problem in count_mismatches(records, spec["per_layer"]):
            status = 1
            print(f"count differs in set {label}: {problem}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

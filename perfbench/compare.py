#!/usr/bin/env python3
"""Compare two sets of benchmark results metric by metric, or summarise one.

    python3 perfbench/compare.py BEFORE_DIR [AFTER_DIR]

A result set is a directory of the result files ``run.py`` writes (its
``--out``). For every workload, trace mode and metric the report gives each
side's median, quartiles and spread, (Q3 - Q1) / median, with the quartiles
taken as ``statistics.quantiles(values, n=4)`` gives them. With two sets it
adds the fraction of pairs the AFTER side won (runs are paired by seed; ties
count for neither side) and, for end-to-end metrics, a verdict against the
metric's bound in ``BENCHMARK.json``:

- ``unresolved``: a side's spread is wider than the bound, unless every
  AFTER run is better than every BEFORE run;
- ``worse``: the AFTER median is worse than the BEFORE median by more than
  the bound;
- ``better``: AFTER won at least nine tenths of the pairs and the medians
  differ by more than the BEFORE quartile distance;
- ``same``: none of these.

Count metrics must repeat exactly between runs of one seed on one version
of the code; a seed whose counts differ within a set is listed. A set
holding both trace modes also reports the tracing overhead: the untraced
``throughput_inst_s`` median less the traced ``trace.throughput_inst_s``
median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: str) -> dict:
    """{(workload, trace): [result, ...]} from one result directory."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        result = json.loads(path.read_text(encoding="utf-8"))
        if "header" in result:
            runs[(result["header"]["workload"], result["header"]["trace"])].append(result)
    if not runs:
        sys.exit(f"error: no result files in {directory}")
    return runs


def stats(values: list[float]) -> tuple[float, float, float, float]:
    """Median, Q1, Q3 and spread (Q3 - Q1) / median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return median, q1, q3, (q3 - q1) / abs(median) if median else 0.0


def values_of(runs: list, metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def count_mismatches(runs: list, metric: str) -> list[int]:
    """Seeds whose runs disagree on a count metric."""
    by_seed = defaultdict(set)
    for r in runs:
        if metric in r["metrics"]:
            by_seed[r["header"]["seed"]].add(r["metrics"][metric]["value"])
    return sorted(seed for seed, seen in by_seed.items() if len(seen) > 1)


def pairs_won(before: list, after: list, metric: str, higher_is_better: bool) -> tuple[int, int]:
    """(pairs AFTER won, pairs) with runs paired by seed, else in file order."""
    b = {r["header"]["seed"]: r["metrics"][metric]["value"] for r in before if metric in r["metrics"]}
    a = {r["header"]["seed"]: r["metrics"][metric]["value"] for r in after if metric in r["metrics"]}
    common = sorted(set(b) & set(a))
    pairs = [(b[s], a[s]) for s in common] if common else list(zip(b.values(), a.values()))
    won = sum(1 for x, y in pairs if (y > x if higher_is_better else y < x))
    return won, len(pairs)


def verdict(before: list[float], after: list[float], bound: float, higher: bool,
            won: int, pairs: int) -> str:
    mb, q1b, q3b, sb = stats(before)
    ma, _, _, sa = stats(after)
    better_all = min(after) > max(before) if higher else max(after) < min(before)
    if (sb > bound or sa > bound) and not better_all:
        return "unresolved"
    worse_by = (mb - ma) / mb if higher else (ma - mb) / mb
    if worse_by > bound:
        return "worse"
    if pairs and won >= 0.9 * pairs and abs(ma - mb) > q3b - q1b:
        return "better"
    return "same"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after", nargs="?")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets = [load(args.before)] + ([load(args.after)] if args.after else [])

    for key in sorted(set().union(*sets)):
        workload, trace = key
        sides = [s.get(key, []) for s in sets]
        print(f"\n## {workload}, trace {trace}: " + " vs ".join(f"{len(r)} runs" for r in sides))
        for name, m in metrics.items():
            columns = [values_of(runs, name) for runs in sides]
            if not all(columns):
                continue
            line = f"{name:34s} {m['unit']:8s}"
            for values in columns:
                median, q1, q3, spread = stats(values)
                line += f" | {median:12.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}"
            if "bound" in m:
                line += f" (bound {m['bound']})"
                if len(columns) == 1 and stats(columns[0])[3] > m["bound"] / 3:
                    line += " SPREAD ABOVE A THIRD OF THE BOUND"
            if len(columns) == 2:
                higher = m["better"] == "higher"
                won, pairs = pairs_won(sides[0], sides[1], name, higher)
                line += f" | won {won}/{pairs}"
                if "bound" in m:
                    line += " " + verdict(columns[0], columns[1], m["bound"], higher, won, pairs)
            print(line)
            for label, runs in zip(("before", "after"), sides):
                seeds = count_mismatches(runs, name) if m["unit"] == "count" else []
                if seeds:
                    print(f"  COUNT DIFFERS between runs of one seed ({label}): seeds {seeds}")
        for label, runs in zip(("before", "after"), sets):
            untraced = values_of(runs.get((workload, 0), []), "throughput_inst_s")
            traced = values_of(runs.get((workload, 1), []), "trace.throughput_inst_s")
            if trace == 1 and untraced and traced:
                u, t = statistics.median(untraced), statistics.median(traced)
                print(f"tracing overhead ({label}): {u - t:.6g} inst/s, {(u - t) / u:.1%} of untraced")
    return 0


if __name__ == "__main__":
    sys.exit(main())

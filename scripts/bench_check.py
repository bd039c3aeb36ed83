#!/usr/bin/env python3
"""Compares the newest perf-ledger runs of each workload with the runs before.

    python3 scripts/bench_check.py [--ledger BENCH_perfbench.json]

For each workload in the ledger (`BENCH_perfbench.json` at the repository
root, written by `scripts/bench_record.py`), the newest side is compared
with the side before it. A side is an entry's `label` when it has one, else
its `commit`; sides are ordered by their first entry, so the alternating
parent/change pairs of one A/B compare change against parent whichever ran
last. Only entries with the seed and seconds of the workload's newest entry
count. Each side's value of a metric is the median over its entries, so a
ledger holding one run per side compares those two runs.

For every end-to-end metric of `BENCHMARK.json` it prints both values, the
change, the number of runs per side and a verdict, from the metric's
`better` direction and `bound` (a fraction of the older value):

    better   the newer side is better
    same     the values are equal
    worse    the newer side is worse, by no more than the bound
    BOUND    the newer side is worse by more than the bound

It exits 1 when any metric reads BOUND, 2 on an unreadable ledger, else 0.
The check is advisory: single runs on a shared host drift by tens of
percent, which is why A/B comparisons alternate many pairs.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def side(entry):
    return entry.get("label") or entry["commit"]


def verdict(old, new, better, bound):
    if new == old:
        return "same"
    improved = new < old if better == "lower" else new > old
    if improved:
        return "better"
    worse_by = abs(new - old) / abs(old) if old else float("inf")
    return "worse" if worse_by <= bound else "BOUND"


def compare(entries, metrics):
    """Prints one workload's comparison; returns whether a bound broke."""
    newest = entries[-1]
    key = (newest["seed"], newest["seconds"])
    same_setup = [e for e in entries if (e["seed"], e["seconds"]) == key]
    sides = list(dict.fromkeys(side(e) for e in same_setup))
    workload = newest["workload"]
    if len(sides) < 2:
        print(f"{workload}: no runs of another side at seed {key[0]}, "
              f"{key[1]} s to compare with")
        return False
    old_side, new_side = sides[-2:]
    runs = {
        s: [e for e in same_setup if side(e) == s] for s in (old_side, new_side)
    }
    print(f"{workload} (seed {key[0]}, {key[1]} s): "
          f"{old_side} ({len(runs[old_side])} runs) -> "
          f"{new_side} ({len(runs[new_side])} runs)")
    broke = False
    for metric in metrics:
        name = metric["name"]
        values = {
            s: [e["end_to_end"][name] for e in runs[s] if name in e["end_to_end"]]
            for s in runs
        }
        if not values[old_side] or not values[new_side]:
            print(f"  {name:<12} missing on one side")
            continue
        old = statistics.median(values[old_side])
        new = statistics.median(values[new_side])
        change = (new - old) / abs(old) * 100 if old else float("nan")
        v = verdict(old, new, metric["better"], metric["bound"])
        broke |= v == "BOUND"
        print(f"  {name:<12} {old:>14.6g} -> {new:<14.6g} {change:+7.2f}%  "
              f"{v} ({metric['better']} is better, bound "
              f"{metric['bound'] * 100:.0f}%)")
    return broke


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ledger", default=os.path.join(ROOT, "BENCH_perfbench.json")
    )
    parser.add_argument(
        "--benchmark", default=os.path.join(ROOT, "BENCHMARK.json")
    )
    args = parser.parse_args()
    try:
        with open(args.ledger) as f:
            ledger = json.load(f)
        with open(args.benchmark) as f:
            metrics = json.load(f)["end_to_end"]
    except (OSError, ValueError, KeyError) as err:
        print(f"bench_check.py: {err}", file=sys.stderr)
        sys.exit(2)
    workloads = {}
    for entry in ledger:
        workloads.setdefault(entry["workload"], []).append(entry)
    broke = False
    for entries in workloads.values():
        broke |= compare(entries, metrics)
    sys.exit(1 if broke else 0)


if __name__ == "__main__":
    main()

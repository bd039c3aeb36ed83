#!/usr/bin/env python3
"""Compares the newest two sides of each workload in the perf ledger, pair by pair.

    python3 scripts/bench_check.py [--ledger BENCH_perfbench.json]

For each workload in the ledger (`BENCH_perfbench.json` at the repository
root, written by `scripts/bench_record.py`), the two sides with the newest
entries are compared. A side is an entry's `label` when it has one, else its
`commit`. Of the two, the older side is the one whose first entry, over all
of its seeds, comes first in the ledger, so the alternating parent/change
runs of one A/B compare change against parent whichever of them ran first on
any one seed.

The entries of the two sides are paired by `(seed, seconds)`, in ledger
order within a key; an entry with no partner on the other side is left out.
For every end-to-end metric of `BENCHMARK.json` it prints each side's median
over all pairs, the change, how many pairs the newer side won (was strictly
better in) and a verdict on the medians, from the metric's `better`
direction and `bound` (a fraction of the older value):

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
    if improved(old, new, better):
        return "better"
    worse_by = abs(new - old) / abs(old) if old else float("inf")
    return "worse" if worse_by <= bound else "BOUND"


def improved(old, new, better):
    return new < old if better == "lower" else new > old


def newest_sides(entries):
    """The two sides with the newest entries, older side first, or None."""
    last = {}
    first = {}
    for i, entry in enumerate(entries):
        first.setdefault(side(entry), i)
        last[side(entry)] = i
    if len(last) < 2:
        return None
    pair = sorted(last, key=last.get)[-2:]
    return tuple(sorted(pair, key=first.get))


def pairs(entries, old_side, new_side):
    """The two sides' entries paired by (seed, seconds), in ledger order."""
    runs = {old_side: {}, new_side: {}}
    for entry in entries:
        if side(entry) in runs:
            key = (entry["seed"], entry["seconds"])
            runs[side(entry)].setdefault(key, []).append(entry)
    paired = []
    for key, olds in runs[old_side].items():
        paired.extend(zip(olds, runs[new_side].get(key, [])))
    return paired


def compare(entries, metrics):
    """One workload's report lines, and whether a bound broke."""
    workload = entries[-1]["workload"]
    sides = newest_sides(entries)
    if sides is None:
        return [f"{workload}: only one side in the ledger"], False
    old_side, new_side = sides
    paired = pairs(entries, old_side, new_side)
    lines = [f"{workload}: {old_side} -> {new_side} ({len(paired)} pairs)"]
    if not paired:
        lines.append("  no (seed, seconds) run on both sides")
        return lines, False
    broke = False
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        values = [
            (o["end_to_end"][name], n["end_to_end"][name])
            for o, n in paired
            if name in o["end_to_end"] and name in n["end_to_end"]
        ]
        if not values:
            lines.append(f"  {name:<12} missing on one side")
            continue
        old = statistics.median(o for o, _ in values)
        new = statistics.median(n for _, n in values)
        won = sum(improved(o, n, better) for o, n in values)
        change = (new - old) / abs(old) * 100 if old else float("nan")
        v = verdict(old, new, better, metric["bound"])
        broke |= v == "BOUND"
        lines.append(
            f"  {name:<12} {old:>14.6g} -> {new:<14.6g} {change:+7.2f}%  "
            f"won {won}/{len(values)}  {v} ({better} is better, bound "
            f"{metric['bound'] * 100:.0f}%)"
        )
    return lines, broke


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
        lines, workload_broke = compare(entries, metrics)
        print("\n".join(lines))
        broke |= workload_broke
    sys.exit(1 if broke else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Unit tests for scripts/bench_check.py (stdlib only).

    python3 scripts/test_bench_check.py
"""

import importlib.util
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = importlib.util.spec_from_file_location(
    "bench_check", os.path.join(HERE, "bench_check.py")
)
bench_check = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_check)

METRICS = [
    {"name": "op_us_p50", "better": "lower", "bound": 0.25},
    {"name": "lu_sent_pct", "better": "lower", "bound": 0.1},
]


def entry(label, seed, op_us, seconds=30):
    return {
        "commit": "01dca9dd",
        "label": label,
        "workload": "sim_idle",
        "seed": seed,
        "seconds": seconds,
        "end_to_end": {"op_us_p50": op_us, "lu_sent_pct": 0.8},
    }


def alternating_ledger():
    """Six seeds of an A/B, odd seeds run the parent first, after an
    older side's runs; the change is faster on every seed but seed 4."""
    ledger = [entry("exact-ring", 7, 80.0), entry("parent-6c11ecc", 7, 90.0)]
    for seed in range(1, 7):
        parent = entry("parent-01dca9d", seed, 44.0 + seed)
        change = entry("one-sweep", seed, 40.0 + seed + (9.0 if seed == 4 else 0.0))
        ledger += [parent, change] if seed % 2 else [change, parent]
    return ledger


class BenchCheckTest(unittest.TestCase):
    def test_alternating_pairs_read_parent_to_change(self):
        lines, broke = bench_check.compare(alternating_ledger(), METRICS)
        self.assertEqual(lines[0], "sim_idle: parent-01dca9d -> one-sweep (6 pairs)")
        self.assertFalse(broke)
        op = next(line for line in lines if "op_us_p50" in line)
        # Medians over the pairs: parent 47.5, change 44 (seed 4 reads 53).
        self.assertIn("47.5 -> 44 ", op)
        self.assertIn("won 5/6", op)
        self.assertIn("better", op)
        sent = next(line for line in lines if "lu_sent_pct" in line)
        self.assertIn("won 0/6", sent)
        self.assertIn("same", sent)

    def test_a_single_pair(self):
        ledger = [entry("parent", 1, 50.0), entry("change", 1, 70.0)]
        lines, broke = bench_check.compare(ledger, METRICS)
        self.assertEqual(lines[0], "sim_idle: parent -> change (1 pairs)")
        op = next(line for line in lines if "op_us_p50" in line)
        self.assertIn("won 0/1", op)
        self.assertIn("BOUND", op)
        self.assertTrue(broke)

    def test_unpaired_runs_are_left_out(self):
        ledger = [
            entry("parent", 1, 50.0),
            entry("parent", 2, 10.0),
            entry("change", 1, 45.0),
            entry("change", 1, 45.0, seconds=15),
        ]
        lines, _ = bench_check.compare(ledger, METRICS)
        self.assertEqual(lines[0], "sim_idle: parent -> change (1 pairs)")

    def test_one_side_has_nothing_to_compare(self):
        lines, broke = bench_check.compare([entry("parent", 1, 50.0)], METRICS)
        self.assertEqual(lines, ["sim_idle: only one side in the ledger"])
        self.assertFalse(broke)


if __name__ == "__main__":
    unittest.main()

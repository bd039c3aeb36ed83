#!/usr/bin/env python3
"""Unit tests for scripts/mutants.py and its ledger (stdlib only).

    python3 scripts/test_mutants.py

Checks that every ledger entry is well formed and its snippet still
matches its file exactly once, and that the apply step refuses a snippet
that matches no time or twice. Builds and runs nothing.
"""

import importlib.util
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = importlib.util.spec_from_file_location("mutants", os.path.join(HERE, "mutants.py"))
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


class LedgerTest(unittest.TestCase):
    def setUp(self):
        self.entries = mutants.load()

    def test_every_snippet_matches_exactly_once(self):
        for entry in self.entries:
            with self.subTest(entry["name"]):
                path = os.path.join(mutants.ROOT, entry["file"])
                with open(path, encoding="utf-8") as f:
                    text = f.read()
                self.assertEqual(text.count(entry["snippet"]), 1)

    def test_entries_are_well_formed(self):
        names = [entry["name"] for entry in self.entries]
        self.assertEqual(len(names), len(set(names)), "duplicate mutation names")
        for entry in self.entries:
            with self.subTest(entry["name"]):
                self.assertNotEqual(entry["snippet"], entry["replacement"])
                self.assertTrue(entry["tests"], "no test is expected to kill it")
                for spec in entry["tests"]:
                    crate, target, name = mutants.parse_test(spec)
                    self.assertTrue(crate.startswith("mobigrid-"), crate)
                    self.assertTrue(target and name)


class ApplyTest(unittest.TestCase):
    def test_applies_a_unique_snippet(self):
        text = "let a = 1;\nlet b = 2;\n"
        self.assertEqual(
            mutants.apply_mutation(text, "let b = 2;", "let b = 3;"),
            "let a = 1;\nlet b = 3;\n",
        )

    def test_refuses_a_snippet_that_matches_nothing(self):
        with self.assertRaisesRegex(mutants.LedgerError, "matches 0 times"):
            mutants.apply_mutation("let a = 1;\n", "let b = 2;", "")

    def test_refuses_a_snippet_that_matches_twice(self):
        with self.assertRaisesRegex(mutants.LedgerError, "matches 2 times"):
            mutants.apply_mutation("x += 1;\nx += 1;\n", "x += 1;", "x += 2;")

    def test_parses_crate_target_and_name(self):
        self.assertEqual(
            mutants.parse_test("mobigrid-bench lib tests::t"),
            ("mobigrid-bench", "lib", "tests::t"),
        )
        with self.assertRaises(mutants.LedgerError):
            mutants.parse_test("lib tests::t")


if __name__ == "__main__":
    unittest.main()

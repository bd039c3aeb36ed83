#!/usr/bin/env python3
"""Run the in-tree mutation ledger, scripts/mutants.json (stdlib only).

    python3 scripts/mutants.py

Each ledger entry names one mutation: a source `file`, an exact `snippet`
of it that must occur exactly once, its `replacement` and the `tests`
expected to kill it. A test is written "<crate> <target> <name>", where
<target> is `lib` for the crate's unit tests or the name of one of its
integration-test files, and <name> is the test's exact path.

The script copies the tracked (and untracked, not ignored) files of the
working tree into a temporary directory and never edits the working tree.
It first runs every named test on the unmutated copy, all of which must
pass. Then it applies one mutation at a time, runs only that mutation's
tests (debug builds, so debug-only checks count), reports the mutation as
killed when any of them fails and as survived when all pass, and restores
the file. All builds share one target directory ($CARGO_TARGET_DIR, default
target/mutants), so only the mutated crate and its dependents rebuild.

Exit status: 0 when every mutation was killed, 1 when one survived, 2 when
the ledger is broken (a snippet that does not match exactly once, a named
test that does not exist or fails unmutated).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LEDGER = os.path.join(HERE, "mutants.json")
FIELDS = ("name", "file", "snippet", "replacement", "tests")
TIMEOUT_S = 1800


class LedgerError(Exception):
    """The ledger no longer matches the source tree."""


def load(path=LEDGER):
    with open(path, encoding="utf-8") as f:
        entries = json.load(f)
    for entry in entries:
        missing = [field for field in FIELDS if field not in entry]
        if missing:
            raise LedgerError(f"{entry.get('name', entry)}: missing {missing}")
    return entries


def apply_mutation(text, snippet, replacement, name="mutation"):
    """`text` with `snippet` replaced; refuses unless it occurs exactly once."""
    count = text.count(snippet)
    if count != 1:
        raise LedgerError(f"{name}: snippet matches {count} times, not once")
    return text.replace(snippet, replacement)


def parse_test(spec):
    """(crate, target, name) of a test written "crate target name"."""
    parts = spec.split()
    if len(parts) != 3:
        raise LedgerError(f"test {spec!r}: expected 'crate target name'")
    return tuple(parts)


def check_snippets(entries, root=ROOT):
    """Raises LedgerError unless every snippet matches exactly once."""
    for entry in entries:
        with open(os.path.join(root, entry["file"]), encoding="utf-8") as f:
            apply_mutation(f.read(), entry["snippet"], entry["replacement"], entry["name"])


def copy_tree(dest):
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.decode().split("\0")
    for rel in filter(None, listed):
        src = os.path.join(ROOT, rel)
        if os.path.isfile(src):
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def run_tests(tree, target_dir, tests):
    """{test: verdict} for (crate, target, name) tests: "ok", "FAILED",
    "timeout", "unbuilt" (the code did not compile) or "missing" (the
    test binary never reported it: no such test, or the binary aborted)."""
    groups = {}
    for crate, target, name in tests:
        groups.setdefault((crate, target), []).append(name)
    verdicts = {}
    for (crate, target), names in groups.items():
        select = ["--lib"] if target == "lib" else ["--test", target]
        cmd = ["cargo", "test", "-p", crate, *select, "--", "--exact", "--format", "pretty", *names]
        env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
        try:
            run = subprocess.run(
                cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            verdicts.update({(crate, target, n): "timeout" for n in names})
            continue
        missing = "unbuilt" if "could not compile" in run.stderr else "missing"
        results = dict(re.findall(r"^test (\S+) \.\.\. (ok|FAILED)", run.stdout, re.M))
        for n in names:
            verdicts[(crate, target, n)] = results.get(n, missing)
    return verdicts


def main():
    target_dir = os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, "target", "mutants"))
    try:
        entries = load()
        check_snippets(entries)
        for entry in entries:
            entry["parsed"] = [parse_test(t) for t in entry["tests"]]
    except LedgerError as err:
        print(f"ledger error: {err}", file=sys.stderr)
        return 2

    tree = tempfile.mkdtemp(prefix="mobigrid-mutants-")
    try:
        copy_tree(tree)
        baseline = run_tests(tree, target_dir, {t for e in entries for t in e["parsed"]})
        broken = {t: v for t, v in baseline.items() if v != "ok"}
        for test, verdict in sorted(broken.items()):
            print(f"ledger error: {' '.join(test)} is {verdict} without a mutation", file=sys.stderr)
        if broken:
            return 2
        survived = 0
        for entry in entries:
            path = os.path.join(tree, entry["file"])
            with open(path, encoding="utf-8") as f:
                original = f.read()
            with open(path, "w", encoding="utf-8") as f:
                f.write(apply_mutation(original, entry["snippet"], entry["replacement"], entry["name"]))
            try:
                verdicts = run_tests(tree, target_dir, entry["parsed"])
            finally:
                with open(path, "w", encoding="utf-8") as f:
                    f.write(original)
            if "unbuilt" in verdicts.values():
                print(f"ledger error: {entry['name']} does not compile", file=sys.stderr)
                return 2
            # A test the mutated binary never reported crashed it.
            killers = [t[2] for t, v in verdicts.items() if v != "ok"]
            if killers:
                print(f"killed    {entry['name']}  (by {', '.join(killers)})")
            else:
                survived += 1
                print(f"SURVIVED  {entry['name']}")
            sys.stdout.flush()
        print(f"{len(entries) - survived} of {len(entries)} mutations killed")
        return 1 if survived else 0
    finally:
        shutil.rmtree(tree, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

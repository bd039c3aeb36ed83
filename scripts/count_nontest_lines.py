#!/usr/bin/env python3
"""Counts the workspace's non-test Rust lines.

Usage: count_nontest_lines.py [REPO_ROOT]

Sums every line (code, comments and blank lines alike) of the `.rs` files
under `crates/*/src`, `src/` and `examples/`, leaving out each item, statement or
field marked `#[cfg(test)]` (the attribute line through the item's closing
brace, or its closing semicolon or comma).
Integration tests and benches live outside those directories and are not
counted. Run it on two checkouts to compare them.
"""
import pathlib
import sys


def count(path):
    lines = path.read_text().splitlines()
    kept, i = 0, 0
    while i < len(lines):
        if lines[i].strip() != "#[cfg(test)]":
            kept += 1
            i += 1
            continue
        # Skip the attributed item: up to its matching closing brace, or
        # to its semicolon when it has no body, or to its comma when it is
        # a struct field or a field of a struct literal.
        depth, opened, i = 0, False, i + 1
        while i < len(lines):
            depth += lines[i].count("{") - lines[i].count("}")
            opened = opened or "{" in lines[i]
            done = depth <= 0 if opened else lines[i].rstrip().endswith((";", ","))
            i += 1
            if done:
                break
    return kept


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    files = [
        *root.glob("crates/*/src/**/*.rs"),
        *root.glob("src/**/*.rs"),
        *root.glob("examples/**/*.rs"),
    ]
    print(sum(count(f) for f in files))


if __name__ == "__main__":
    main()

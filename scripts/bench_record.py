#!/usr/bin/env python3
"""Runs one perfbench workload and appends its result to the perf ledger.

    python3 scripts/bench_record.py --workload sim_idle --seed 17 --seconds 20

It runs `perfbench/run.py --trace 0` of a checkout (this repository by
default, or `--root DIR`, e.g. an exported parent commit to compare
against) and appends one entry to the ledger, `BENCH_perfbench.json` at
this repository's root by default:

    {"commit", "workload", "seed", "seconds", "end_to_end", "host_steal",
     "diagnostics"}

plus `"label"` when `--label` is given. `commit` is the checkout's
`git rev-parse HEAD`, suffixed `-dirty` when its tracked files differ from
that commit; a checkout without git history needs `--commit`. `--label`
names an uncommitted change, so runs of different changes on top of one
parent do not all read `<parent>-dirty`; `scripts/bench_check.py` tells
runs apart by label first, then by commit. `end_to_end` maps each end-to-end metric to its value (units are
in `BENCHMARK.json`); `host_steal` is the run's host steal in percent, or
null when the run did not report it. `diagnostics` maps the name of every
`# <workload> <name> = <value> <unit>` line the run printed to its value
(a finite one; others are left out), in the printed unit (`sim_city`'s 2-thread `tick_us_p50_2t`, the tick
percentiles, the host hygiene readings and so on);
`scripts/bench_check.py` does not read it. The ledger is a JSON list, oldest entry
first. The script only reads `perfbench/` and `BENCHMARK.json`; it writes
nothing but the ledger. It exits with run.py's code when the run fails, and
records nothing then.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIAGNOSTIC = re.compile(r"^# \S+ (\S+) = (\S+) \S+$")


def commit_of(root):
    def git(*args):
        return subprocess.run(
            ["git", "-C", root, *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        head = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        sys.exit(f"bench_record.py: {root} has no git history; pass --commit")
    return head + ("-dirty" if dirty else "")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--root", default=ROOT, help="checkout to benchmark")
    parser.add_argument("--commit", help="commit label (default: from git)")
    parser.add_argument("--label", help="name of the uncommitted change")
    parser.add_argument(
        "--ledger", default=os.path.join(ROOT, "BENCH_perfbench.json")
    )
    args = parser.parse_args()
    root = os.path.abspath(args.root)
    commit = args.commit or commit_of(root)

    run = subprocess.run(
        [
            sys.executable,
            os.path.join(root, "perfbench", "run.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "0",
        ],
        cwd=root,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        sys.exit(run.returncode or 1)
    result = json.loads(lines[-1])
    diagnostics = {
        m.group(1): float(m.group(2)) for m in map(DIAGNOSTIC.match, lines) if m
    }
    # A reading that is not a finite number has no JSON form.
    diagnostics = {k: v for k, v in diagnostics.items() if math.isfinite(v)}
    entry = {
        "commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "end_to_end": {k: v["value"] for k, v in result["metrics"].items()},
        "host_steal": diagnostics.get("host.steal_pct"),
        "diagnostics": diagnostics,
    }
    if args.label:
        entry["label"] = args.label

    ledger = []
    if os.path.exists(args.ledger):
        with open(args.ledger) as f:
            ledger = json.load(f)
    ledger.append(entry)
    with open(args.ledger + ".tmp", "w") as f:
        json.dump(ledger, f, indent=1)
        f.write("\n")
    os.replace(args.ledger + ".tmp", args.ledger)
    print(json.dumps(entry))


if __name__ == "__main__":
    main()

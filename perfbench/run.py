#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It builds the `serve` binary from the
repository's workspace and the benchmark crate beside this script, both in
release mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
benchmark. The benchmark prints the run's result as one JSON object on the
last line of standard output; build output goes to standard error. The exit
code is the benchmark's: 0 when every correctness check passed, 1 when one
failed, 2 when the repository or the arguments are missing or wrong.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim_city", "sim_idle", "serve_mixed")
# The benchmark measures at most 60 s per run; anything past this is a hang.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build(cmd, env):
    # Cargo's own output would otherwise land on standard output, where the
    # result line must come last.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")
    if args.seed < 0:
        fail("--seed must not be negative")

    for needed in ("Cargo.toml", "crates/serve/Cargo.toml", "perfbench/Cargo.toml"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found under {ROOT}: not a mobigrid checkout")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    build(cargo + ["-p", "mobigrid-broker-serve", "--bin", "serve"], env)
    build(cargo + ["--manifest-path", "perfbench/Cargo.toml", "--bin", "perfbench"], env)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--serve", os.path.join(release, "serve"),
        "--out", os.path.join(target, "perfbench"),
    ]
    if args.workload == "serve_mixed":
        # The closed-loop client and the server it waits on share one CPU,
        # which the server child inherits. Across two CPUs every hand-off
        # wakes the other vCPU, and on a busy host that wake-up alone
        # doubled the point-read round trip (24-28 us against 11-15 us
        # pinned, alternating runs on a 2-vCPU VM).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # A session of its own, so a hung run is stopped with every server it
    # started.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"the run did not end within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()

#!/usr/bin/env bash
# The CI gate: the GitHub workflow's build-test-lint job runs this script.
#
#   ./ci.sh
#
# Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
# Every crate's unit, property and integration tests, the zero-alloc pin,
# golden-trace conformance and the equivalence suites included; it also
# builds every example.
cargo test -q --workspace

echo "==> fault_matrix smoke"
cargo run --release -p mobigrid-experiments --bin experiment -- \
  --experiment fault_matrix --ticks 60 > /dev/null

echo "==> examples smoke"
# The root examples are the only callers of Schedule, PathFollower and most
# of the HLA API outside the tests: each must run to completion.
for example in quickstart campus_day traffic_reduction location_estimation hla_federation; do
  cargo run --release -q --example "$example" > /dev/null
done

echo "==> seed sweep smoke (2 campaign threads)"
# The seeds fan out over the campaign thread budget.
cargo run --release -p mobigrid-experiments --bin experiment -- \
  --experiment seeds --ticks 30 --campaign-threads 2 > /dev/null

echo "==> telemetry export smoke"
smoke_jsonl="$(mktemp -t mobigrid-telemetry.XXXXXX.jsonl)"
cargo run --release -p mobigrid-experiments --bin experiment -- \
  --experiment fig4 --ticks 60 --telemetry "$smoke_jsonl" > /dev/null
test -s "$smoke_jsonl"
if command -v python3 > /dev/null; then
  # Independent parser: every exported line must be valid JSON.
  python3 -c 'import json,sys; [json.loads(l) for l in open(sys.argv[1]) if l.strip()]' "$smoke_jsonl"
fi
rm -f "$smoke_jsonl"

echo "==> flight-recorder smoke"
# Record a campus run with a ring big enough to retain every event, then
# replay the invariant monitors offline; any violation fails the build.
flight_jsonl="$(mktemp -t mobigrid-flight.XXXXXX.jsonl)"
cargo run --release -p mobigrid-experiments --bin experiment -- \
  --experiment fig4 --ticks 120 --telemetry "$flight_jsonl" --events 2097152 > /dev/null
cargo run --release -p mobigrid-experiments --bin trace -- "$flight_jsonl" --check
rm -f "$flight_jsonl"

echo "==> benchmark harness contract tests"
# perfbench is a workspace of its own; its tests run a short version of
# every workload against BENCHMARK.json.
cargo test --release --manifest-path perfbench/Cargo.toml

echo "==> non-test line count (informational)"
# The number the code-size aim is counted by: every line of the non-test
# Rust sources (scripts/count_nontest_lines.py says which).
python3 scripts/count_nontest_lines.py || echo "count_nontest_lines.py: informational only"

echo "==> per-node footprint (informational)"
# Live heap bytes per node after build and warm-up, warm-up allocations per
# node and peak RSS, for city_1140 and the sim_idle population.
cargo run --release -q -p mobigrid-bench --example footprint || echo "footprint: informational only"

echo "==> perf ledger check (advisory)"
# Compares the newest two sides of each workload in BENCH_perfbench.json,
# pair by pair, inside BENCHMARK.json's bounds. Ledger runs come from
# a noisy shared host, so this step reports and never fails the build.
python3 scripts/bench_check.py || echo "bench_check.py: advisory only, not a gate"

echo "==> perf ledger check's own tests"
# The comparison logic itself is a gate: side order, (seed, seconds)
# pairing and the per-pair win counts, on fixed ledger fixtures.
python3 scripts/test_bench_check.py

echo "==> mutation ledger's own tests"
# Every entry of scripts/mutants.json must still match its file exactly
# once, so a change that moves mutated code updates its entry; builds
# nothing (the workflow's advisory mutants job runs the ledger itself).
python3 scripts/test_mutants.py

echo "==> metro_100k smoke (scale sweep, 50-tick cap)"
# Drives the columnar engine through campus_140 -> city_1140 -> metro_100k;
# the 100k-node city must build and tick. The printed ns/tick is advisory
# (CI containers are noisy); completion is the gate.
cargo run --release -p mobigrid-experiments --bin experiment -- \
  --experiment scale --ticks 50

echo "==> metro_100k smoke, sparse driver"
# The same sweep under the event-driven wake-wheel driver; results are
# bit-identical to the dense leg, only wall-clock differs.
cargo run --release -p mobigrid-experiments --bin experiment -- \
  --experiment scale --ticks 50 --driver sparse

echo "==> broker service end-to-end (serve + loadgen + live observability)"
# Start the broker service with its admin plane, replay 200 campus ticks
# at 50x through the load generator (it exits non-zero on a digest
# mismatch or a zero sustained LU/s), scrape /metrics mid-replay, then
# check the server's export and stitch it against the client's.
serve_jsonl="$(mktemp -t mobigrid-serve.XXXXXX.jsonl)"
client_jsonl="$(mktemp -t mobigrid-client.XXXXXX.jsonl)"
cargo run --release -q -p mobigrid-broker-serve --bin serve -- \
  --ingest 127.0.0.1:47471 --query 127.0.0.1:47472 --admin 127.0.0.1:47473 \
  --nodes 140 --telemetry "$serve_jsonl" --events 2097152 &
serve_pid=$!
# loadgen's clients connect once and do not retry, so wait until the server
# listens: its admin plane binds after ingest and query, so a 200 from
# /health means all three are up. Poll every 0.2 s, for up to 30 s (cargo
# may still be building serve), and fail if it never answers.
serve_up=0
for _ in $(seq 150); do
  if python3 -c 'import sys, urllib.request as u; sys.exit(u.urlopen(sys.argv[1], timeout=2).status != 200)' \
    http://127.0.0.1:47473/health 2> /dev/null; then
    serve_up=1
    break
  fi
  sleep 0.2
done
if [ "$serve_up" != 1 ]; then
  echo "serve never answered /health" >&2
  kill "$serve_pid" 2> /dev/null || true
  exit 1
fi
cargo run --release -q -p mobigrid-broker-serve --bin loadgen -- \
  --ingest 127.0.0.1:47471 --query 127.0.0.1:47472 --ticks 200 --speed 50 \
  --telemetry "$client_jsonl" --events 2097152 &
loadgen_pid=$!
# Live scrape while the replay is in flight: /health must answer 200
# and /metrics must be valid Prometheus text exposition — validated by
# an independent python parser, not the renderer's own code. The ingest
# metric families appear with the first applied batch, so poll /metrics
# (every 0.2 s, for up to 30 s) until one has arrived, however long
# loadgen takes to build and start; the check then runs as strictly as
# ever, and fails if the deadline passed without a batch.
if command -v python3 > /dev/null; then
  for _ in $(seq 150); do
    if python3 -c 'import sys, urllib.request as u; sys.exit(b"serve_batches_total" not in u.urlopen(sys.argv[1], timeout=2).read())' \
      http://127.0.0.1:47473/metrics 2> /dev/null; then
      break
    fi
    sleep 0.2
  done
  python3 scripts/check_exposition.py http://127.0.0.1:47473
fi
wait "$loadgen_pid"
wait "$serve_pid"
test -s "$serve_jsonl"
test -s "$client_jsonl"
cargo run --release -p mobigrid-experiments --bin trace -- "$serve_jsonl" --check
# Cross-process reconciliation: every LU the client shipped must be
# accounted for by a server apply, NAK, or carried in-flight record.
cargo run --release -p mobigrid-experiments --bin trace -- \
  --stitch "$client_jsonl" "$serve_jsonl" --check
rm -f "$serve_jsonl" "$client_jsonl"

echo "==> cargo clippy --workspace --all-targets -- -D warnings -D missing-docs"
# Every public item in every crate needs a doc comment; tests and
# examples are linted too.
cargo clippy --workspace --all-targets -- -D warnings -D missing-docs

echo "==> rustdoc --workspace with -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "CI OK"

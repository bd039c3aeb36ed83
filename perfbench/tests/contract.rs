//! Short runs of every workload against the benchmark's output contract:
//! an untraced run reports exactly the `end_to_end` metrics of
//! `BENCHMARK.json`, a traced run exactly its `per_layer` metrics.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`:
//! each run makes a few full segments or epochs, which a debug build
//! makes slow. `serve_mixed` runs its server in process here, over the
//! same TCP front-ends the `serve` binary uses.

use perfbench::report::Report;
use perfbench::serve_mixed::{self, RoundTrips, WARMUP_FRAMES};
use perfbench::tracer::Tracer;
use perfbench::{Backend, Opts};

use mobigrid_telemetry::json::Value;

fn opts(trace: bool) -> Opts {
    Opts {
        seed: 7,
        seconds: 0.2,
        trace,
        out: Some(std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))),
        backend: Backend::InProcess,
    }
}

fn run(workload: &str, trace: bool) -> Report {
    let report = perfbench::run(workload, &opts(trace)).expect("known workload");
    assert!(
        report.correct(),
        "{workload} (trace {trace}) failed: {:?}\n{}",
        report.failures,
        report.to_json()
    );
    assert!(report.attempted > 0);
    report
}

/// The `(name, unit)` pairs of one metric list of `BENCHMARK.json`,
/// which sits at the root of the repository.
fn manifest(list: &str) -> Vec<(String, String)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let json = mobigrid_telemetry::json::parse(&text).expect("BENCHMARK.json is JSON");
    let Some(Value::Arr(metrics)) = json.get(list) else {
        panic!("BENCHMARK.json has no {list} list");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Value::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Asserts the report carries exactly the manifest's metrics of `list`,
/// each with its unit and a finite value.
fn assert_metrics(report: &Report, list: &str) {
    let mut got: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|(name, _, unit)| (name.clone(), (*unit).to_string()))
        .collect();
    let mut want = manifest(list);
    got.sort_unstable();
    want.sort_unstable();
    assert_eq!(got, want, "{list}");
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
}

#[test]
fn sim_city_emits_every_end_to_end_metric() {
    assert_metrics(&run("sim_city", false), "end_to_end");
}

#[test]
fn sim_idle_emits_every_end_to_end_metric() {
    assert_metrics(&run("sim_idle", false), "end_to_end");
}

#[test]
fn serve_mixed_emits_every_end_to_end_metric() {
    assert_metrics(&run("serve_mixed", false), "end_to_end");
}

/// The traced `sim_city` run fails unless its layer replay is
/// bit-faithful: zero decision mismatches and both replica digests equal
/// to the real sim's brokers.
#[test]
fn sim_city_layer_replay_is_bit_faithful() {
    assert_metrics(&run("sim_city", true), "per_layer");
    let spans =
        std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("spans-sim_city-seed7.jsonl");
    let text = std::fs::read_to_string(spans).expect("the traced run writes its spans");
    assert!(text
        .lines()
        .any(|l| l.contains("\"name\":\"policy.process_tick\"")));
}

/// The traced `sim_idle` run fails unless the sparse and dense drivers
/// end with equal digests.
#[test]
fn sim_idle_trace_reads_the_wake_wheel() {
    assert_metrics(&run("sim_idle", true), "per_layer");
}

#[test]
fn serve_mixed_trace_splits_the_serve_path() {
    assert_metrics(&run("serve_mixed", true), "per_layer");
}

#[test]
fn a_corrupted_frame_is_a_failed_operation() {
    let mut inputs = serve_mixed::generate(3, WARMUP_FRAMES + 20, &mut Tracer::new());

    let mut clean = Report::default();
    serve_mixed::epoch(
        &Backend::InProcess,
        &inputs,
        &mut RoundTrips::default(),
        &mut clean,
        None,
    )
    .expect("an intact epoch completes");
    assert!(clean.correct(), "{:?}", clean.failures);
    assert_eq!(clean.failed, 0);

    // Overwrite the first record's opcode of a timed frame: the server
    // must NAK the batch, and the benchmark must count it as failed.
    inputs.frames[WARMUP_FRAMES + 5][4] = 0xee;
    let mut report = Report::default();
    let result = serve_mixed::epoch(
        &Backend::InProcess,
        &inputs,
        &mut RoundTrips::default(),
        &mut report,
        None,
    );
    assert!(result.is_err(), "a NAKed batch must abort the epoch");
    assert!(report.failed >= 1);
    assert!(!report.correct());
    assert!(report.to_json().contains("\"correct\": false"));
}

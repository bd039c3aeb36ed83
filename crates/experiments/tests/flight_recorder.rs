//! Acceptance tests for the causal flight recorder: a recorded campus
//! campaign must export a trace from which every node's LU lifecycle can
//! be reconstructed, the offline invariant replay must pass on healthy
//! runs (faultless and faulted) and flag doctored exports, and recording
//! must not disturb the determinism contract — exports stay bit-identical
//! at every thread count even with a full event ring.

use std::sync::OnceLock;

use mobigrid_experiments::campaign::run_campaign_recorded;
use mobigrid_experiments::cli::{self, Cli};
use mobigrid_experiments::config::ExperimentConfig;
use mobigrid_experiments::trace::{self, TraceCli};
use mobigrid_telemetry::{MemoryRecorder, MonitorKind};

/// A ring big enough that a short campaign drops nothing.
const FULL_RING: usize = 1 << 21;

fn recorded_export(threads: usize, campaign_threads: usize, ticks: u64) -> String {
    let mut cfg = ExperimentConfig {
        duration_ticks: ticks,
        ..ExperimentConfig::default()
    };
    cfg.runtime.threads = threads;
    cfg.campaign_threads = campaign_threads;
    let mut rec = MemoryRecorder::with_capacity(4096, FULL_RING);
    let _ = run_campaign_recorded(&cfg, &mut rec);
    rec.to_jsonl()
}

/// One shared 90-tick campus campaign export for the read-only tests.
fn shared_export() -> &'static str {
    static EXPORT: OnceLock<String> = OnceLock::new();
    EXPORT.get_or_init(|| recorded_export(2, 1, 90))
}

#[test]
fn campus_run_reconstructs_a_complete_chain_for_every_node() {
    let trace = trace::parse_trace(shared_export()).expect("export parses");
    assert_eq!(trace.events_dropped, 0, "ring too small for this test");
    let segments = trace.segments();
    // The campaign records the ideal arm plus three ADF arms in order.
    assert!(segments.len() >= 4, "got {} segments", segments.len());
    for (si, seg) in segments.iter().enumerate() {
        let chains = trace::chains(seg);
        let nodes = chains
            .keys()
            .map(|(node, _)| *node as usize + 1)
            .max()
            .unwrap_or(0);
        assert_eq!(
            nodes,
            140,
            "segment {} is not the campus population",
            si + 1
        );
        let mut complete = vec![false; nodes];
        for ((node, _), chain) in &chains {
            if chain.is_complete(true) {
                complete[*node as usize] = true;
            }
        }
        for (node, ok) in complete.iter().enumerate() {
            assert!(
                ok,
                "segment {}: node {node} has no complete causal chain",
                si + 1
            );
        }
    }
}

#[test]
fn offline_invariant_replay_passes_a_healthy_campaign() {
    let trace = trace::parse_trace(shared_export()).expect("export parses");
    let report = trace::check(&trace).unwrap();
    assert!(
        report.ticks_checked >= 4 * 89,
        "checked {}",
        report.ticks_checked
    );
    assert_eq!(report.stream_violations, 0, "online monitors fired");
    assert!(
        report.is_clean(),
        "offline replay found: {:?}",
        report.violations
    );

    let check_cli = TraceCli {
        path: "unused".into(),
        check: true,
        ..TraceCli::default()
    };
    let (out, code) = trace::run_queries(&check_cli, &trace).unwrap();
    assert_eq!(code, 0, "clean trace must exit 0:\n{out}");
    assert!(out.contains("all invariants hold"), "{out}");
}

#[test]
fn offline_replay_flags_a_doctored_export() {
    let export = shared_export();
    // Erase one filter decision: its tick now generates more updates than
    // it decides about, breaking filter conservation.
    let victim = export
        .lines()
        .position(|l| l.contains("\"kind\":\"lu_decision\""))
        .expect("export contains decisions");
    let doctored: String = export
        .lines()
        .enumerate()
        .filter(|(i, _)| *i != victim)
        .map(|(_, l)| format!("{l}\n"))
        .collect();

    let trace = trace::parse_trace(&doctored).expect("doctored export still parses");
    let report = trace::check(&trace).unwrap();
    assert!(!report.is_clean(), "the doctored trace must not pass");
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.monitor == MonitorKind::FilterConservation),
        "expected a filter-conservation violation, got {:?}",
        report.violations
    );

    let check_cli = TraceCli {
        path: "unused".into(),
        check: true,
        ..TraceCli::default()
    };
    let (out, code) = trace::run_queries(&check_cli, &trace).unwrap();
    assert_eq!(code, 1, "violations must exit non-zero");
    assert!(out.contains("VIOLATION"), "{out}");
}

#[test]
fn offline_replay_passes_a_faulted_run() {
    // The fault matrix exercises drops, corruption, delay and duplication
    // with retries — the replay must follow deferred frames, late
    // arrivals and staleness episodes without false positives.
    let dir = std::env::temp_dir().join("mobigrid-flight-recorder-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("faults.jsonl");
    let run_cli = Cli {
        config: ExperimentConfig {
            duration_ticks: 60,
            ..ExperimentConfig::default()
        },
        telemetry: Some(path.to_string_lossy().into_owned()),
        events: Some(FULL_RING),
        ..Cli::default()
    };
    cli::execute(&run_cli, "fault_matrix").expect("fault matrix runs");
    let exported = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let trace = trace::parse_trace(&exported).expect("export parses");
    let retries = trace
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                mobigrid_telemetry::EventKind::LuChannel { attempt, .. } if attempt > 0
            )
        })
        .count();
    assert!(retries > 0, "the fault matrix injected no retries");
    let report = trace::check(&trace).unwrap();
    assert!(
        report.is_clean(),
        "faulted replay found: {:?}",
        report.violations
    );
}

#[test]
fn trace_cli_end_to_end_over_a_recorded_file() {
    let dir = std::env::temp_dir().join("mobigrid-flight-recorder-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("campus.jsonl");
    std::fs::write(&path, shared_export()).unwrap();
    let arg = path.to_string_lossy().into_owned();

    let (summary, code) = trace::run_main([arg.clone()]).expect("summary runs");
    assert_eq!(code, 0);
    assert!(summary.contains("complete"), "{summary}");

    let (checked, code) =
        trace::run_main([arg.clone(), "--check".to_string()]).expect("check runs");
    assert_eq!(code, 0, "{checked}");

    let (node0, code) = trace::run_main([arg.clone(), "--node".to_string(), "0".to_string()])
        .expect("node timeline runs");
    assert_eq!(code, 0);
    assert!(node0.contains("tick"), "{node0}");

    let (stats, code) = trace::run_main([
        arg,
        "--latency".to_string(),
        "--suppression".to_string(),
        "--staleness".to_string(),
    ])
    .expect("stat queries run");
    assert_eq!(code, 0);
    assert!(stats.contains("delivery latency"), "{stats}");
    assert!(stats.contains("suppression runs"), "{stats}");
    assert!(stats.contains("staleness episodes"), "{stats}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn recorded_exports_stay_bit_identical_across_thread_counts() {
    let baseline = recorded_export(1, 1, 60);
    for (threads, campaign_threads) in [(2, 1), (4, 2)] {
        assert_eq!(
            recorded_export(threads, campaign_threads, 60),
            baseline,
            "threads={threads} campaign_threads={campaign_threads} changed the event stream"
        );
    }
}

//! Conformance tests for the telemetry subsystem at the experiment level:
//! the exported counters must mirror the `TickStats` the experiments are
//! built on, the JSONL export must be syntactically valid, and — like
//! every other observable of this codebase — the whole export must be
//! bit-identical at every thread count.

use mobigrid_experiments::campaign::{run_campaign_recorded, CampaignData};
use mobigrid_experiments::config::ExperimentConfig;
use mobigrid_telemetry::{json, MemoryRecorder};

fn quick(threads: usize, campaign_threads: usize) -> ExperimentConfig {
    let mut cfg = ExperimentConfig {
        duration_ticks: 90,
        ..ExperimentConfig::default()
    };
    cfg.runtime.threads = threads;
    cfg.campaign_threads = campaign_threads;
    cfg
}

fn record(threads: usize, campaign_threads: usize) -> (CampaignData, MemoryRecorder) {
    let mut rec = MemoryRecorder::new();
    let data = run_campaign_recorded(&quick(threads, campaign_threads), &mut rec);
    (data, rec)
}

#[test]
fn counters_mirror_tick_stats_exactly() {
    let (data, rec) = record(1, 1);
    let runs = std::iter::once(&data.ideal).chain(data.adf.iter().map(|(_, r)| r));
    let mut sent = 0u64;
    let mut observed = 0u64;
    let mut lost = 0u64;
    let mut late = 0u64;
    let mut retries = 0u64;
    let mut ticks = 0u64;
    for run in runs {
        ticks += run.ticks.len() as u64;
        for t in &run.ticks {
            sent += u64::from(t.sent);
            observed += u64::from(t.observed);
            lost += u64::from(t.lost);
            late += u64::from(t.late);
            retries += u64::from(t.retries);
        }
    }
    assert_eq!(rec.counter("sim.ticks"), ticks);
    assert_eq!(rec.counter("sim.sent"), sent);
    assert_eq!(rec.counter("sim.observed"), observed);
    assert_eq!(rec.counter("sim.lost"), lost);
    assert_eq!(rec.counter("sim.late"), late);
    assert_eq!(rec.counter("sim.retries"), retries);
    // The per-kind split covers every observation and every send.
    assert_eq!(
        rec.counter("sim.road.observed") + rec.counter("sim.building.observed"),
        observed
    );
    assert_eq!(
        rec.counter("sim.road.sent") + rec.counter("sim.building.sent"),
        sent
    );
    // One error sample per observation lands in each histogram.
    for name in ["sim.err_with_le", "sim.err_without_le"] {
        let hist = rec.histogram(name).expect("recorded histogram");
        assert_eq!(hist.count(), observed, "{name} sample count");
    }
}

#[test]
fn jsonl_export_is_valid_and_csv_is_rectangular() {
    let (_, rec) = record(1, 1);
    let jsonl = rec.to_jsonl();
    let lines = json::validate_jsonl(&jsonl).expect("well-formed JSONL");
    assert!(lines > 10, "suspiciously small export: {lines} lines");
    assert!(jsonl.contains("\"sim.sent\""));
    assert!(jsonl.contains("\"sim.err_with_le\""));

    let csv = rec.to_csv();
    let mut rows = csv.lines();
    let header = rows.next().expect("header row");
    let cols = header.split(',').count();
    for row in rows {
        assert_eq!(row.split(',').count(), cols, "ragged CSV row: {row}");
    }
}

/// The telemetry determinism contract at full depth: tick-level threads,
/// campaign-level threads, and both together must leave every exported
/// byte unchanged.
#[test]
fn telemetry_export_is_bit_identical_across_thread_counts() {
    let (_, baseline) = record(1, 1);
    let baseline_jsonl = baseline.to_jsonl();
    let baseline_csv = baseline.to_csv();
    for (threads, campaign_threads) in [(2, 1), (4, 1), (1, 2), (1, 4), (4, 4)] {
        let (_, rec) = record(threads, campaign_threads);
        assert_eq!(
            rec.to_jsonl(),
            baseline_jsonl,
            "threads={threads} campaign_threads={campaign_threads} changed the JSONL export"
        );
        assert_eq!(
            rec.to_csv(),
            baseline_csv,
            "threads={threads} campaign_threads={campaign_threads} changed the CSV export"
        );
    }
}

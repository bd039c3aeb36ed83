//! Golden-trace conformance: the paper-scale campus run is pinned, sample
//! by sample, against committed snapshots — once at zero faults and once
//! under a fixed [`FaultPlan`] — and must replay **bit-identically** on
//! 1, 2 and 4 worker threads.
//!
//! Every 100th tick's full [`TickStats`] is rendered to a stable text
//! line (floats as 16-hex-digit IEEE-754 bit patterns, so equality is
//! bit-exact by construction) and compared against
//! `tests/golden/{zero_fault,fault_plan}.txt`. Any change to the
//! simulation pipeline, the estimators, the workload generator or the
//! fault channel that shifts a single bit of any sampled counter or RMSE
//! shows up as a diff here.
//!
//! To regenerate after an *intentional* behaviour change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p mobigrid-experiments --test golden_trace
//! ```
//!
//! then commit the updated files with the change that explains them.
//!
//! [`TickStats`]: mobigrid_adf::TickStats

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use mobigrid_adf::{
    AdaptiveDistanceFilter, AdfConfig, FaultSpec, MobileGridSim, RuntimeOptions, SimBuilder,
    TickDriver, TickStats,
};
use mobigrid_campus::Campus;
use mobigrid_experiments::workload;
use mobigrid_wireless::{FaultPlan, RetryPolicy};

/// Paper-scale run length (§4: 1800 s at 1 s ticks).
const TICKS: u64 = 1800;
/// Sampling stride: every 100th tick lands in the snapshot.
const SAMPLE_EVERY: u64 = 100;
/// Workload seed (the campaign default).
const WORKLOAD_SEED: u64 = 42;
/// Fault-channel seed, deliberately distinct from the workload seed.
const FAULT_SEED: u64 = 0xFEED_FACE;

/// The pinned fault mix for the faulty trace: a moderate blend of every
/// fault class the channel implements.
fn fault_plan() -> FaultPlan {
    FaultPlan {
        drop_rate: 0.10,
        corrupt_rate: 0.03,
        delay_rate: 0.05,
        max_delay_ticks: 4,
        duplicate_rate: 0.02,
        flaps: Vec::new(),
    }
}

fn build(threads: usize, faults: Option<FaultPlan>, driver: TickDriver) -> MobileGridSim {
    let campus = Campus::inha_like();
    let mut nodes = workload::populate(&campus, WORKLOAD_SEED);
    if faults.is_some() {
        nodes = nodes
            .into_iter()
            .map(|n| n.with_retry_policy(RetryPolicy::default()))
            .collect();
    }
    SimBuilder::new()
        .nodes(nodes)
        .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).expect("valid config"))
        .network(workload::default_network(&campus))
        .runtime(RuntimeOptions {
            threads,
            driver,
            faults: faults.map(|plan| FaultSpec {
                plan,
                seed: FAULT_SEED,
            }),
            ..RuntimeOptions::default()
        })
        .build()
        .expect("valid simulation")
}

/// An `f64` as its exact bit pattern — equality on the rendered form is
/// bit-exact equality on the value.
fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn render(tick: u64, s: &TickStats) -> String {
    format!(
        "tick={tick} time={} sent={} observed={} retries={} lost={} late={} stale={} \
         road_sent={} road_obs={} bld_sent={} bld_obs={} \
         rmse_le={} rmse_raw={} road_le={} road_raw={} bld_le={} bld_raw={}",
        hex(s.time_s),
        s.sent,
        s.observed,
        s.retries,
        s.lost,
        s.late,
        s.stale_nodes,
        s.region.road.sent,
        s.region.road.observed,
        s.region.building.sent,
        s.region.building.observed,
        hex(s.rmse_with_le),
        hex(s.rmse_without_le),
        hex(s.road_rmse_with_le),
        hex(s.road_rmse_without_le),
        hex(s.building_rmse_with_le),
        hex(s.building_rmse_without_le),
    )
}

fn trace(threads: usize, faults: Option<FaultPlan>, driver: TickDriver) -> String {
    let mut sim = build(threads, faults, driver);
    let mut out = String::new();
    for tick in 1..=TICKS {
        let s = sim.step();
        if tick % SAMPLE_EVERY == 0 {
            writeln!(out, "{}", render(tick, &s)).expect("writing to a String");
        }
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check(name: &str, faults: Option<FaultPlan>) {
    let path = golden_path(name);
    let fresh = trace(1, faults.clone(), TickDriver::Dense);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        fs::write(&path, &fresh).expect("write golden file");
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden file {}; generate it with UPDATE_GOLDEN=1",
            path.display()
        )
    });
    assert_eq!(
        golden, fresh,
        "{name}: the single-threaded trace diverged from the committed golden"
    );
    for threads in [2, 4] {
        assert_eq!(
            golden,
            trace(threads, faults.clone(), TickDriver::Dense),
            "{name}: the {threads}-thread trace diverged from the committed golden"
        );
    }
    // The sparse driver must replay the SAME committed snapshots — no
    // separate sparse goldens exist, by design: sparse is an execution
    // strategy, not a model change.
    for threads in [1, 2, 4] {
        assert_eq!(
            golden,
            trace(threads, faults.clone(), TickDriver::Sparse),
            "{name}: the sparse {threads}-thread trace diverged from the committed golden"
        );
    }
}

#[test]
fn zero_fault_trace_matches_golden_at_every_thread_count() {
    check("zero_fault.txt", None);
}

#[test]
fn fault_plan_trace_matches_golden_at_every_thread_count() {
    check("fault_plan.txt", Some(fault_plan()));
}

//! The executable contract behind the sparse tick driver
//! (`TickDriver::Sparse`): event-driven ticking over the wake wheel —
//! sleeping quiescent nodes, replaying cached idle broker evaluations,
//! staleness-refresh wakes — must be **invisible** in every observable.
//!
//! Proptest drives arbitrary mixed populations (parked, zero-speed and
//! moving random walkers, slow and fast path followers, road and
//! building kinds), with and without a fault-injecting access network,
//! through both drivers and demands:
//!
//! * bit-identical per-node ground-truth positions every tick,
//! * equality of every `TickStats` field every tick (whole struct),
//! * equal state digests of both brokers every tick (every record's
//!   position, time and staleness, and the lifetime counters),
//! * byte-identical telemetry JSONL and CSV exports,
//! * all of the above with the sparse driver on 1, 2 and 4 worker
//!   threads against the dense single-threaded baseline.
//!
//! This mirrors `soa_equivalence.rs`, which pins the columnar engine to
//! the archaic array-of-structs driver; here the dense driver is the
//! reference and sparse is the implementation on trial.

use mobigrid_adf::{
    AdaptiveDistanceFilter, AdfConfig, MobileGridSim, MobileNode, SimBuilder, TickDriver,
};
use mobigrid_campus::{Campus, RegionId, RegionKind};
use mobigrid_experiments::workload;
use mobigrid_geo::{Point, Polyline, Rect};
use mobigrid_mobility::{LoopMode, MobilityModel, MobilityPattern, NodeType, PathFollower, RandomWalk, StopModel};
use mobigrid_telemetry::MemoryRecorder;
use mobigrid_wireless::{FaultPlan, MnId, RetryPolicy};
use proptest::prelude::*;

/// Node `i`'s mobility: a mix chosen so every sparse mechanism fires —
/// `Stop` and zero-speed walkers sleep forever, slow walkers exercise
/// idle-replay caches under an active mobility kernel, path followers
/// stay fully dense.
fn model_for(i: u32, seed: u64) -> (Box<dyn MobilityModel + Send>, MobilityPattern, RegionKind) {
    let y = f64::from(i) * 13.0;
    match (i.wrapping_add(seed as u32)) % 5 {
        0 => (
            Box::new(StopModel::new(Point::new(40.0, y))),
            MobilityPattern::Stop,
            RegionKind::Building,
        ),
        1 => {
            // A zero-speed walker: quiescent forever without being a
            // `Stop` node — the hard case for the wake taxonomy.
            let room = Rect::centered(Point::new(25.0, y + 4.0), 40.0, 8.0);
            let start = room.center();
            (
                Box::new(RandomWalk::new(room, start, 0.0)),
                MobilityPattern::Random,
                RegionKind::Building,
            )
        }
        2 => {
            let room = Rect::centered(Point::new(30.0, y + 5.0), 60.0, 10.0);
            let start = room.center();
            let max_speed = 0.2 + f64::from(i % 5) * 0.3;
            (
                Box::new(RandomWalk::new(room, start, max_speed)),
                MobilityPattern::Random,
                RegionKind::Building,
            )
        }
        3 => {
            let path = Polyline::new(vec![Point::new(0.0, y), Point::new(500.0, y)])
                .expect("two distinct points");
            (
                Box::new(PathFollower::new(path, 0.4 + f64::from(i % 3) * 0.3, LoopMode::PingPong)),
                MobilityPattern::Linear,
                RegionKind::Road,
            )
        }
        _ => {
            let path = Polyline::new(vec![Point::new(0.0, y), Point::new(900.0, y)])
                .expect("two distinct points");
            (
                Box::new(PathFollower::new(path, 1.0 + f64::from(i % 7), LoopMode::PingPong)),
                MobilityPattern::Linear,
                RegionKind::Road,
            )
        }
    }
}

fn population(node_count: usize, seed: u64, with_retry: bool) -> Vec<MobileNode> {
    (0..node_count as u32)
        .map(|i| {
            let (model, pattern, kind) = model_for(i, seed);
            let node = MobileNode::new(
                MnId::new(i),
                RegionId::from_index(0),
                kind,
                NodeType::Human,
                pattern,
                model,
                seed ^ (u64::from(i) << 17),
            );
            if with_retry {
                node.with_retry_policy(RetryPolicy::default())
            } else {
                node
            }
        })
        .collect()
}

/// A moderate blend of every fault class the channel implements.
fn fault_plan() -> FaultPlan {
    FaultPlan {
        drop_rate: 0.12,
        corrupt_rate: 0.04,
        delay_rate: 0.06,
        max_delay_ticks: 3,
        duplicate_rate: 0.03,
        flaps: Vec::new(),
    }
}

fn build(
    node_count: usize,
    seed: u64,
    threads: usize,
    driver: TickDriver,
    with_faults: bool,
) -> MobileGridSim {
    let builder = SimBuilder::new()
        .nodes(population(node_count, seed, with_faults))
        .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).expect("valid"))
        .threads(threads)
        .driver(driver);
    let builder = if with_faults {
        builder
            .network(workload::default_network(&Campus::inha_like()))
            .faults(fault_plan(), seed ^ 0xFEED_FACE)
    } else {
        builder
    };
    builder.build().expect("valid simulation")
}

proptest! {
    /// Dense and sparse runs, stepped in lockstep on one thread, agree on
    /// every ground-truth position bit, every `TickStats` field, both
    /// brokers' state and every exported telemetry byte — with and
    /// without fault injection.
    #[test]
    fn sparse_matches_dense_bit_for_bit(
        node_count in 1usize..56,
        seed in any::<u64>(),
        ticks in 1u64..40,
        with_faults in any::<bool>(),
    ) {
        let mut dense = build(node_count, seed, 1, TickDriver::Dense, with_faults);
        let mut sparse = build(node_count, seed, 1, TickDriver::Sparse, with_faults);
        let mut dense_rec = MemoryRecorder::new();
        let mut sparse_rec = MemoryRecorder::new();
        for t in 1..=ticks {
            let d = dense.step_recorded(&mut dense_rec);
            let s = sparse.step_recorded(&mut sparse_rec);
            prop_assert_eq!(d, s, "TickStats diverged at tick {} (faults={})", t, with_faults);
            for i in 0..node_count {
                let (dp, sp) = (dense.node(i).position(), sparse.node(i).position());
                prop_assert_eq!(
                    (dp.x.to_bits(), dp.y.to_bits()),
                    (sp.x.to_bits(), sp.y.to_bits()),
                    "node {} position diverged at tick {}", i, t
                );
            }
            let digests = |sim: &MobileGridSim| {
                (
                    sim.broker_with_le().state_digest(),
                    sim.broker_without_le().state_digest(),
                )
            };
            prop_assert_eq!(
                digests(&dense),
                digests(&sparse),
                "broker state diverged at tick {}", t
            );
        }
        prop_assert_eq!(dense_rec.to_jsonl(), sparse_rec.to_jsonl(), "JSONL diverged");
        prop_assert_eq!(dense_rec.to_csv(), sparse_rec.to_csv(), "CSV diverged");
    }

    /// The sparse driver on 2 and 4 worker threads reproduces the dense
    /// single-threaded baseline exactly: thread count and driver compose
    /// without breaking the determinism contract.
    #[test]
    fn sparse_is_thread_invariant_against_the_dense_baseline(
        node_count in 1usize..56,
        seed in any::<u64>(),
        ticks in 1u64..25,
        with_faults in any::<bool>(),
    ) {
        let run = |threads: usize, driver: TickDriver| {
            let mut sim = build(node_count, seed, threads, driver, with_faults);
            let mut rec = MemoryRecorder::new();
            let stats: Vec<_> = (0..ticks).map(|_| sim.step_recorded(&mut rec)).collect();
            (stats, rec.to_jsonl(), rec.to_csv())
        };
        let (base_stats, base_jsonl, base_csv) = run(1, TickDriver::Dense);
        for threads in [1usize, 2, 4] {
            let (stats, jsonl, csv) = run(threads, TickDriver::Sparse);
            prop_assert_eq!(&stats, &base_stats, "TickStats diverged at threads={}", threads);
            prop_assert_eq!(&jsonl, &base_jsonl, "JSONL diverged at threads={}", threads);
            prop_assert_eq!(&csv, &base_csv, "CSV diverged at threads={}", threads);
        }
    }
}

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
//!   threads against the dense single-threaded baseline,
//! * for whole shards of parked nodes under a mix of plain and
//!   recorded ticks, that the per-shard replay memo fires and stays
//!   exact through refresh rounds, hops and recorded ticks,
//! * and that a quiet shard — served by the memo's O(1) proof and
//!   dozing whole in the ADF's block clock — stays exact when a hop, a
//!   refresh round, a retry, a late frame or a reclustering breaks it.
//!
//! This mirrors `soa_equivalence.rs`, which pins the columnar engine to
//! the archaic array-of-structs driver; here the dense driver is the
//! reference and sparse is the implementation on trial.

use mobigrid_adf::{
    AdaptiveDistanceFilter, AdfConfig, FaultSpec, MobileGridSim, MobileNode, RuntimeOptions,
    SimBuilder, TickDriver,
};
use mobigrid_campus::{Campus, RegionId, RegionKind};
use mobigrid_experiments::workload;
use mobigrid_geo::{Point, Polyline, Rect};
use mobigrid_mobility::{
    LoopMode, MobilityEngine, MobilityPattern, NodeType, PathFollower, Phase, RandomWalk, Schedule,
    StopModel,
};
use mobigrid_telemetry::MemoryRecorder;
use mobigrid_wireless::{FaultPlan, MnId, RetryPolicy};
use proptest::prelude::*;

/// Node `i`'s mobility: a mix chosen so every sparse mechanism fires —
/// `Stop` and zero-speed walkers sleep forever, slow walkers exercise
/// idle-replay caches under an active mobility kernel, path followers
/// stay fully dense.
fn model_for(i: u32, seed: u64) -> (MobilityEngine, MobilityPattern, RegionKind) {
    let y = f64::from(i) * 13.0;
    match (i.wrapping_add(seed as u32)) % 5 {
        0 => (
            StopModel::new(Point::new(40.0, y)).into(),
            MobilityPattern::Stop,
            RegionKind::Building,
        ),
        1 => {
            // A zero-speed walker: quiescent forever without being a
            // `Stop` node — the hard case for the wake taxonomy.
            let room = Rect::centered(Point::new(25.0, y + 4.0), 40.0, 8.0);
            let start = room.center();
            (
                RandomWalk::new(room, start, 0.0).into(),
                MobilityPattern::Random,
                RegionKind::Building,
            )
        }
        2 => {
            let room = Rect::centered(Point::new(30.0, y + 5.0), 60.0, 10.0);
            let start = room.center();
            let max_speed = 0.2 + f64::from(i % 5) * 0.3;
            (
                RandomWalk::new(room, start, max_speed).into(),
                MobilityPattern::Random,
                RegionKind::Building,
            )
        }
        3 => {
            let path = Polyline::new(vec![Point::new(0.0, y), Point::new(500.0, y)])
                .expect("two distinct points");
            (
                PathFollower::new(path, 0.4 + f64::from(i % 3) * 0.3, LoopMode::PingPong).into(),
                MobilityPattern::Linear,
                RegionKind::Road,
            )
        }
        _ => {
            let path = Polyline::new(vec![Point::new(0.0, y), Point::new(900.0, y)])
                .expect("two distinct points");
            (
                PathFollower::new(path, 1.0 + f64::from(i % 7), LoopMode::PingPong).into(),
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

/// Nodes per shard of the tick's parallel phases.
const SHARD: u32 = 64;

/// Whole shards of `StopModel` nodes at the head of the memo population.
const PARKED_SHARDS: u32 = 3;

/// A parked node that hops: it stays at `at` for a few seconds, takes a
/// sub-metre step, stays, steps back, and so on, then parks. Each hop
/// re-evaluates one node of an otherwise replaying shard and changes its
/// cached error, so the shard's replay memo must be dropped and rebuilt.
fn hopper(i: u32, at: Point) -> Schedule {
    let there = Point::new(at.x + 0.3, at.y);
    let hop = |from: Point, to: Point| {
        let path = Polyline::new(vec![from, to]).expect("two distinct points");
        PathFollower::new(path, 0.5, LoopMode::Once)
    };
    let mut phases = Vec::new();
    for k in 0..4 {
        let (from, to) = if k % 2 == 0 { (at, there) } else { (there, at) };
        let stay = f64::from(3 + (i + 5 * k) % 13);
        phases.push(Phase::timed("stay", stay, StopModel::new(from)));
        phases.push(Phase::until_arrival("hop", hop(from, to)));
    }
    Schedule::new(phases)
}

/// The memo population: `PARKED_SHARDS` shards of `StopModel` nodes, a
/// shard of parked nodes of which every eighth hops, then `walkers`
/// nodes of the mixed population above.
fn memo_population(walkers: usize, seed: u64, with_retry: bool) -> Vec<MobileNode> {
    let parked = (PARKED_SHARDS + 1) * SHARD;
    (0..parked + walkers as u32)
        .map(|i| {
            let at = Point::new(f64::from(i % 40) * 3.0, f64::from(i / 40) * 3.0);
            let (model, pattern, kind): (MobilityEngine, _, _) = if i >= parked {
                model_for(i, seed)
            } else {
                let kind = if i % 3 == 0 {
                    RegionKind::Road
                } else {
                    RegionKind::Building
                };
                if i >= PARKED_SHARDS * SHARD && i % 8 == 5 {
                    (hopper(i, at).into(), MobilityPattern::Stop, kind)
                } else {
                    (StopModel::new(at).into(), MobilityPattern::Stop, kind)
                }
            };
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

/// A parked node that breaks its quiet shard twice: it stays `quiet`
/// seconds, hops `hop` metres in one tick (a mobility wake; a long hop is
/// an update the filter sends, a tiny one a move it suppresses), stays
/// `quiet / 2 + 9` seconds, hops back, then parks for good.
fn breaker(at: Point, quiet: f64, hop: f64) -> Schedule {
    let there = Point::new(at.x + hop, at.y);
    let leg = |from: Point, to: Point| {
        let path = Polyline::new(vec![from, to]).expect("two distinct points");
        PathFollower::new(path, hop, LoopMode::Once)
    };
    Schedule::new(vec![
        Phase::timed("stay", quiet, StopModel::new(at)),
        Phase::until_arrival("hop", leg(at, there)),
        Phase::timed("stay", (quiet / 2.0).floor() + 9.0, StopModel::new(there)),
        Phase::until_arrival("hop back", leg(there, at)),
    ])
}

/// The quiet-shard population: `PARKED_SHARDS` shards of `StopModel`
/// nodes, the first two each holding one [`breaker`] at `slot` (the
/// second one quiet 17 s longer) hopping `hop` metres, then `walkers`
/// nodes of the mixed
/// population. Every node retries lost frames after a long backoff, so a
/// retry can come due while its shard is quiet again.
fn quiet_population(walkers: usize, seed: u64, slot: u32, quiet: f64, hop: f64) -> Vec<MobileNode> {
    let parked = PARKED_SHARDS * SHARD;
    let retry = RetryPolicy {
        max_retries: 3,
        base_backoff_ticks: 6,
        max_backoff_ticks: 24,
        jitter_ticks: 2,
    };
    (0..parked + walkers as u32)
        .map(|i| {
            let at = Point::new(f64::from(i % 40) * 3.0, f64::from(i / 40) * 3.0);
            let (model, pattern, kind): (MobilityEngine, _, _) = if i >= parked {
                model_for(i, seed)
            } else if i % SHARD == slot && i < 2 * SHARD {
                let quiet = quiet + f64::from(17 * (i / SHARD));
                (
                    breaker(at, quiet, hop).into(),
                    MobilityPattern::Stop,
                    RegionKind::Building,
                )
            } else {
                (
                    StopModel::new(at).into(),
                    MobilityPattern::Stop,
                    RegionKind::Building,
                )
            };
            MobileNode::new(
                MnId::new(i),
                RegionId::from_index(0),
                kind,
                NodeType::Human,
                pattern,
                model,
                seed ^ (u64::from(i) << 17),
            )
            .with_retry_policy(retry)
        })
        .collect()
}

/// Faults with long deferrals, so a deferred hop can arrive late into a
/// shard that has fallen quiet again.
fn late_fault_plan() -> FaultPlan {
    FaultPlan {
        drop_rate: 0.25,
        corrupt_rate: 0.05,
        delay_rate: 0.3,
        max_delay_ticks: 25,
        duplicate_rate: 0.05,
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
    build_faulty(
        population(node_count, seed, with_faults),
        seed,
        threads,
        driver,
        with_faults.then(fault_plan),
    )
}

fn build_faulty(
    nodes: Vec<MobileNode>,
    seed: u64,
    threads: usize,
    driver: TickDriver,
    faults: Option<FaultPlan>,
) -> MobileGridSim {
    let mut runtime = RuntimeOptions {
        threads,
        driver,
        ..RuntimeOptions::default()
    };
    let mut builder = SimBuilder::new()
        .nodes(nodes)
        .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).expect("valid"));
    if let Some(plan) = faults {
        runtime.faults = Some(FaultSpec {
            plan,
            seed: seed ^ 0xFEED_FACE,
        });
        builder = builder.network(workload::default_network(&Campus::inha_like()));
    }
    builder.runtime(runtime).build().expect("valid simulation")
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
        // A parked or zero-speed node falls asleep on its first tick, so
        // from the second tick on the sparse driver must be skipping work.
        let quiescent = (0..node_count as u32).any(|i| i.wrapping_add(seed as u32) % 5 < 2);
        if quiescent && ticks >= 2 {
            let wake = sparse.wake_stats().expect("sparse run");
            prop_assert!(wake.slept_node_ticks > 0, "no node ever slept");
        }
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

    /// Whole shards of parked nodes, stepped through two staleness-refresh
    /// rounds with a random mix of plain and recorded ticks (always
    /// including a recorded refresh tick followed by a plain one), agree
    /// with the dense driver on every `TickStats` field, position bit and
    /// broker digest every tick at 1 and 2 threads, and the shard-level
    /// replay memo serves some of those shard-ticks.
    #[test]
    fn the_shard_replay_memo_matches_dense(
        walkers in 1usize..40,
        seed in any::<u64>(),
        recorded_mask in any::<u64>(),
        with_faults in any::<bool>(),
    ) {
        const TICKS: u64 = 75;
        let make = |threads: usize, driver: TickDriver| {
            let nodes = memo_population(walkers, seed, with_faults);
            build_faulty(nodes, seed, threads, driver, with_faults.then(fault_plan))
        };
        // The first tick that fires refresh wakes, from a plain probe run
        // (recording does not change what a tick does).
        let mut probe = make(1, TickDriver::Sparse);
        let refresh_tick = (1..=TICKS)
            .find(|_| {
                let before = probe.wake_stats().expect("sparse").refresh_wakes;
                probe.step();
                probe.wake_stats().expect("sparse").refresh_wakes > before
            })
            .expect("a refresh round within the run");
        let recorded = |t: u64| {
            t == refresh_tick || (t != refresh_tick + 1 && recorded_mask >> (t % 64) & 1 == 1)
        };
        let digests = |sim: &MobileGridSim| {
            (
                sim.broker_with_le().state_digest(),
                sim.broker_without_le().state_digest(),
            )
        };

        let mut dense = make(1, TickDriver::Dense);
        let mut sparse = [make(1, TickDriver::Sparse), make(2, TickDriver::Sparse)];
        let mut dense_rec = MemoryRecorder::new();
        let mut sparse_rec = [MemoryRecorder::new(), MemoryRecorder::new()];
        let node_count = dense.node_count();
        for t in 1..=TICKS {
            let d = if recorded(t) { dense.step_recorded(&mut dense_rec) } else { dense.step() };
            for (sim, rec) in sparse.iter_mut().zip(&mut sparse_rec) {
                let threads = sim.threads();
                let s = if recorded(t) { sim.step_recorded(rec) } else { sim.step() };
                prop_assert_eq!(d, s, "TickStats diverged at tick {} ({} threads)", t, threads);
                for i in 0..node_count {
                    let (dp, sp) = (dense.node(i).position(), sim.node(i).position());
                    prop_assert_eq!(
                        (dp.x.to_bits(), dp.y.to_bits()),
                        (sp.x.to_bits(), sp.y.to_bits()),
                        "node {} position diverged at tick {}", i, t
                    );
                }
                prop_assert_eq!(
                    digests(&dense),
                    digests(sim),
                    "broker state diverged at tick {} ({} threads)", t, threads
                );
            }
        }
        for (sim, rec) in sparse.iter().zip(&sparse_rec) {
            prop_assert_eq!(dense_rec.to_jsonl(), rec.to_jsonl(), "JSONL diverged");
            let wake = sim.wake_stats().expect("sparse");
            prop_assert!(wake.replayed_shard_ticks > 0, "the replay memo never fired");
        }
    }

}

proptest! {
    // A quiet shard breaks only under a rare mix of inputs (a hop landing
    // on a refresh round, a late frame into a shard quiet again), so this
    // property runs four times the default cases.
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Quiet shards broken every way. Whole shards of parked nodes fall
    /// quiet — the replay memo serves them from its O(1) proof and the
    /// ADF absorbs them on its block doze clock — and are then broken: a
    /// parked node woken mid-run by a mobility wake hops out and back
    /// (far, so its update is sent, or by a millimetre, so it is not),
    /// refresh rounds force full evaluations,
    /// under faults a dropped hop is retried and a deferred one arrives
    /// late into a shard quiet again, and reclustering ticks wake every
    /// dozer. Every `TickStats` field and both broker digests match the
    /// dense driver every tick at 1 and 2 threads.
    #[test]
    fn quiet_shards_broken_every_way_match_dense(
        walkers in 1usize..40,
        seed in any::<u64>(),
        slot in 0u32..SHARD,
        quiet in 15u32..50,
        tiny_hop in any::<bool>(),
        with_faults in any::<bool>(),
    ) {
        // Past three reclusterings (ticks 30, 60, 90) and two refresh
        // rounds.
        const TICKS: u64 = 100;
        let make = |threads: usize, driver: TickDriver| {
            let hop = if tiny_hop { 1e-3 } else { 25.0 };
            let nodes = quiet_population(walkers, seed, slot, f64::from(quiet), hop);
            build_faulty(nodes, seed, threads, driver, with_faults.then(late_fault_plan))
        };
        let digests = |sim: &MobileGridSim| {
            (
                sim.broker_with_le().state_digest(),
                sim.broker_without_le().state_digest(),
            )
        };
        let mut dense = make(1, TickDriver::Dense);
        let mut sparse = [make(1, TickDriver::Sparse), make(2, TickDriver::Sparse)];
        for t in 1..=TICKS {
            let d = dense.step();
            for sim in &mut sparse {
                let threads = sim.threads();
                prop_assert_eq!(d, sim.step(), "TickStats diverged at tick {} ({} threads)", t, threads);
                prop_assert_eq!(
                    digests(&dense),
                    digests(sim),
                    "broker state diverged at tick {} ({} threads)", t, threads
                );
            }
        }
        for sim in &sparse {
            let wake = sim.wake_stats().expect("sparse");
            prop_assert!(wake.replayed_shard_ticks > 0, "the replay memo never fired");
            prop_assert!(wake.dozed_blocks > 0, "no block dozed whole");
            prop_assert!(wake.mobility_wakes >= 2, "the breakers never woke");
            prop_assert!(wake.refresh_wakes > 0, "no refresh round");
            prop_assert!(sim.invariant_violations().is_empty());
        }
    }
}

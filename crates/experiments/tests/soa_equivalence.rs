//! The executable contract behind the columnar node-state engine
//! (`crates/adf/src/columns.rs`): decomposing `MobileNode`s into
//! structure-of-arrays columns and dispatching mobility through the
//! `MobilityEngine` enum must be **invisible** in every observable.
//!
//! The reference implementation here is deliberately archaic — one
//! `Box<dyn MobilityModel + Send>` (the concrete in-tree model, unwrapped
//! from its engine) plus one `StdRng` per node, stepped node-by-node the
//! way `MobileNode::step` worked before the columnar refactor. Proptest drives arbitrary small populations, seeds and tick
//! counts through both the reference and the real pipeline and demands:
//!
//! * bit-identical per-node positions every tick (the movement kernel),
//! * bit-identical filter decisions when the reference observation
//!   stream is fed to a standalone policy (the observation order),
//! * `TickStats`-equality and byte-identical telemetry exports across
//!   worker-thread counts 1/2/4 (every downstream observable).

use mobigrid_adf::{
    AdaptiveDistanceFilter, AdfConfig, FilterPolicy, MobileGridSim, MobileNode, RuntimeOptions,
    SimBuilder,
};
use mobigrid_campus::{RegionId, RegionKind};
use mobigrid_geo::{Point, Polyline, Rect};
use mobigrid_mobility::{
    LoopMode, MobilityEngine, MobilityModel, MobilityPattern, NodeType, PathFollower, RandomWalk,
    StopModel,
};
use mobigrid_telemetry::MemoryRecorder;
use mobigrid_wireless::MnId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The concrete mobility model node `i` gets: a deterministic mix of
/// parked, random-walking and path-following nodes. Called twice per
/// node — once for the simulation, once for the AoS reference — so both
/// sides start from identical model state.
fn model_for(i: u32, seed: u64) -> MobilityEngine {
    let y = f64::from(i) * 11.0;
    match (i.wrapping_add(seed as u32)) % 3 {
        0 => StopModel::new(Point::new(40.0, y)).into(),
        1 => {
            let room = Rect::centered(Point::new(30.0, y + 5.0), 60.0, 10.0);
            let start = room.center();
            let max_speed = 0.3 + f64::from(i % 5) * 0.2;
            RandomWalk::new(room, start, max_speed).into()
        }
        _ => {
            let path = Polyline::new(vec![Point::new(0.0, y), Point::new(700.0, y)])
                .expect("two distinct points");
            let speed = 0.5 + f64::from(i % 7);
            PathFollower::new(path, speed, LoopMode::PingPong).into()
        }
    }
}

/// Node `i`'s concrete model, unwrapped from its engine and boxed, so the
/// reference dispatches through the trait's vtable and never through the
/// engine enum.
fn boxed_model_for(i: u32, seed: u64) -> Box<dyn MobilityModel + Send> {
    match model_for(i, seed) {
        MobilityEngine::Stop(m) => Box::new(m),
        MobilityEngine::RandomWalk(m) => Box::new(m),
        MobilityEngine::Path(m) => Box::new(m),
        other => unreachable!("model_for never builds {:?}", other.kind()),
    }
}

fn pattern_for(i: u32, seed: u64) -> MobilityPattern {
    match (i.wrapping_add(seed as u32)) % 3 {
        0 => MobilityPattern::Stop,
        1 => MobilityPattern::Random,
        _ => MobilityPattern::Linear,
    }
}

fn rng_seed_for(i: u32, seed: u64) -> u64 {
    seed ^ (u64::from(i) << 17)
}

fn population(node_count: usize, seed: u64) -> Vec<MobileNode> {
    (0..node_count as u32)
        .map(|i| {
            MobileNode::new(
                MnId::new(i),
                RegionId::from_index(0),
                RegionKind::Building,
                NodeType::Human,
                pattern_for(i, seed),
                model_for(i, seed),
                rng_seed_for(i, seed),
            )
        })
        .collect()
}

fn build_sim(node_count: usize, seed: u64, threads: usize) -> MobileGridSim {
    SimBuilder::new()
        .nodes(population(node_count, seed))
        .policy(AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).expect("valid"))
        .runtime(RuntimeOptions {
            threads,
            ..RuntimeOptions::default()
        })
        .build()
        .expect("valid simulation")
}

/// The pre-columnar array-of-structs driver: per-node boxed model +
/// `StdRng`, stepped sequentially in node order.
struct AosReference {
    models: Vec<Box<dyn MobilityModel + Send>>,
    rngs: Vec<StdRng>,
}

impl AosReference {
    fn new(node_count: usize, seed: u64) -> Self {
        AosReference {
            models: (0..node_count as u32)
                .map(|i| boxed_model_for(i, seed))
                .collect(),
            rngs: (0..node_count as u32)
                .map(|i| StdRng::seed_from_u64(rng_seed_for(i, seed)))
                .collect(),
        }
    }

    /// One tick of ground truth: returns the observation stream in node
    /// order, exactly as `MobileNode::step` produced it.
    fn tick(&mut self, dt: f64) -> Vec<(MnId, Point)> {
        self.models
            .iter_mut()
            .zip(self.rngs.iter_mut())
            .enumerate()
            .map(|(i, (model, rng))| (MnId::new(i as u32), model.step(dt, rng)))
            .collect()
    }
}

proptest! {
    /// The columnar movement kernel and the per-column `SplitMix64` RNG
    /// reproduce the boxed-model/`StdRng` trajectories bit for bit, and
    /// feeding the reference observation stream to a standalone policy
    /// reproduces the pipeline's per-tick sent counts.
    #[test]
    fn columnar_engine_matches_the_aos_reference(
        node_count in 1usize..48,
        seed in any::<u64>(),
        ticks in 1u64..30,
    ) {
        let mut sim = build_sim(node_count, seed, 1);
        let mut reference = AosReference::new(node_count, seed);
        let mut policy = AdaptiveDistanceFilter::new(AdfConfig::new(1.0)).expect("valid");
        let dt = 1.0;

        for t in 1..=ticks {
            let stats = sim.step();
            let obs = reference.tick(dt);

            // Movement: every node's position, bit for bit.
            for (id, pos) in &obs {
                let node = sim.node(id.index());
                prop_assert_eq!(
                    node.position().x.to_bits(), pos.x.to_bits(),
                    "node {} x at tick {}", id, t
                );
                prop_assert_eq!(
                    node.position().y.to_bits(), pos.y.to_bits(),
                    "node {} y at tick {}", id, t
                );
            }

            // Filtering: the reference stream drives a fresh policy to the
            // same per-tick decision split the pipeline reported.
            let decisions = policy.decide_tick(t as f64 * dt, &obs);
            let sent = decisions.iter().filter(|d| d.is_sent()).count() as u32;
            prop_assert_eq!(sent, stats.sent, "sent split diverged at tick {}", t);
            prop_assert_eq!(stats.observed as usize, node_count);
        }
    }

    /// Worker-thread counts 1/2/4 are invisible: every `TickStats` field
    /// (the struct is compared whole) and every exported telemetry byte.
    #[test]
    fn tick_stats_and_telemetry_are_thread_invariant(
        node_count in 1usize..80,
        seed in any::<u64>(),
        ticks in 1u64..25,
    ) {
        let run = |threads: usize| {
            let mut sim = build_sim(node_count, seed, threads);
            let mut rec = MemoryRecorder::new();
            let stats: Vec<_> = (0..ticks).map(|_| sim.step_recorded(&mut rec)).collect();
            (stats, rec.to_jsonl(), rec.to_csv())
        };
        let (base_stats, base_jsonl, base_csv) = run(1);
        for threads in [2usize, 4] {
            let (stats, jsonl, csv) = run(threads);
            prop_assert_eq!(&stats, &base_stats, "TickStats diverged at threads={}", threads);
            prop_assert_eq!(&jsonl, &base_jsonl, "JSONL diverged at threads={}", threads);
            prop_assert_eq!(&csv, &base_csv, "CSV diverged at threads={}", threads);
        }
    }
}

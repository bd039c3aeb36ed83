//! Workload builders shared by the benchmark harness (`perfbench/`) and
//! this crate's examples:
//!
//! * `tick_timing` — a best-of steady-state tick timer for interleaved A/B
//!   comparisons,
//! * `ablations` — quality ablations over the design choices (`cargo run
//!   --release -p mobigrid-bench --example ablations` prints comparison
//!   tables).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mobigrid_adf::{
    AdaptiveDistanceFilter, AdfConfig, MobileGridSim, MobileNode, RuntimeOptions, SimBuilder,
    TickDriver,
};
use mobigrid_campus::Campus;
use mobigrid_experiments::workload;

/// Builds an ADF simulation over a [`Campus::grid_city`] of `blocks` with
/// the Table-1 per-region densities — the grid-city workload
/// `tick_timing` runs across thread counts. An 8×8 city holds 1140 nodes.
///
/// # Panics
///
/// Panics if the static configuration is invalid (it is not).
#[must_use]
pub fn build_city_sim(seed: u64, blocks: (usize, usize), threads: usize) -> MobileGridSim {
    let city = Campus::grid_city(blocks.0, blocks.1);
    let runtime = RuntimeOptions {
        threads,
        ..RuntimeOptions::default()
    };
    adf_sim(workload::populate(&city, seed), runtime)
}

/// The default ADF over `nodes`, executed with `runtime`.
fn adf_sim(nodes: Vec<MobileNode>, runtime: RuntimeOptions) -> MobileGridSim {
    SimBuilder::new()
        .nodes(nodes)
        .policy(AdaptiveDistanceFilter::new(AdfConfig::default()).expect("valid config"))
        .runtime(runtime)
        .build()
        .expect("valid simulation")
}

/// Builds an idle-dominated workload for the sparse tick driver: `parked`
/// permanently stationary nodes plus `walkers` ping-pong path followers,
/// under the given [`TickDriver`] on one thread. This is the
/// regime the wake wheel targets — most of the population is provably
/// quiescent, so the sparse driver sleeps it and replays the cached
/// broker evaluations, while the dense driver re-evaluates everything
/// every tick. Both drivers compute bit-identical results.
///
/// # Panics
///
/// Panics if the static configuration is invalid (it is not).
#[must_use]
pub fn build_idle_sim(
    seed: u64,
    parked: usize,
    walkers: usize,
    driver: TickDriver,
) -> MobileGridSim {
    let runtime = RuntimeOptions {
        driver,
        ..RuntimeOptions::default()
    };
    build_idle_sim_with(seed, parked, walkers, runtime)
}

/// [`build_idle_sim`]'s population executed with a whole `runtime`
/// (driver and thread count).
///
/// # Panics
///
/// Panics if `runtime` is invalid.
#[must_use]
pub fn build_idle_sim_with(
    seed: u64,
    parked: usize,
    walkers: usize,
    runtime: RuntimeOptions,
) -> MobileGridSim {
    use mobigrid_campus::{RegionId, RegionKind};
    use mobigrid_geo::{Point, Polyline};
    use mobigrid_mobility::{LoopMode, MobilityPattern, NodeType, PathFollower, StopModel};
    use mobigrid_wireless::MnId;

    let mut nodes = Vec::with_capacity(parked + walkers);
    for i in 0..parked as u32 {
        let (x, y) = (f64::from(i % 1000) * 3.0, f64::from(i / 1000) * 3.0);
        nodes.push(MobileNode::new(
            MnId::new(i),
            RegionId::from_index(0),
            RegionKind::Building,
            NodeType::Human,
            MobilityPattern::Stop,
            StopModel::new(Point::new(x, y)),
            seed ^ u64::from(i),
        ));
    }
    for j in 0..walkers as u32 {
        let i = parked as u32 + j;
        let y = f64::from(j) * 7.0;
        let path = Polyline::new(vec![Point::new(0.0, y), Point::new(800.0, y)])
            .expect("two distinct points");
        nodes.push(MobileNode::new(
            MnId::new(i),
            RegionId::from_index(0),
            RegionKind::Road,
            NodeType::Vehicle,
            MobilityPattern::Linear,
            PathFollower::new(path, 1.0 + f64::from(j % 5), LoopMode::PingPong),
            seed ^ u64::from(i),
        ));
    }
    adf_sim(nodes, runtime)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mobigrid_adf::WakeStats;

    #[test]
    fn city_helper_reaches_bench_scale() {
        let mut sim = build_city_sim(1, (8, 8), 2);
        let s = sim.step();
        assert!(s.observed >= 1000, "observed {}", s.observed);
        assert_eq!(sim.threads(), 2);
    }

    #[test]
    fn idle_helper_is_driver_invariant() {
        let mut dense = build_idle_sim(5, 300, 10, TickDriver::Dense);
        let mut sparse = build_idle_sim(5, 300, 10, TickDriver::Sparse);
        for t in 0..60 {
            assert_eq!(dense.step(), sparse.step(), "diverged at tick {t}");
        }
        let wake = sparse.wake_stats().expect("sparse run");
        assert_eq!(wake.asleep, 300, "all parked nodes sleep");
    }

    /// Pins every wake counter after 100 sparse ticks of 1,000 parked
    /// nodes and 40 walkers (three reclusterings and two memo expiries),
    /// at 1 and 2 threads. Shards 0–14 are whole parked shards; shard 15
    /// mixes the last 40 parked nodes with 24 walkers and is evaluated
    /// every tick, so only the 960 nodes of the memo shards replay.
    /// perfbench's traced `wheel.*` readings come from these counters: a
    /// change that moves them changes what those readings mean, and must
    /// say so.
    #[test]
    fn idle_wake_stats_are_pinned() {
        let expected = WakeStats {
            mobility_wakes: 0,
            refresh_wakes: 1920,
            asleep: 1000,
            slept_node_ticks: 99_000,
            replayed_node_ticks: 89_280,
            replayed_shard_ticks: 1395,
            dozed_blocks: 1230,
            wheel_occupancy: 960,
            max_eval_gap: 32,
        };
        for threads in [1, 2] {
            let runtime = RuntimeOptions {
                driver: TickDriver::Sparse,
                threads,
                ..RuntimeOptions::default()
            };
            let mut sim = build_idle_sim_with(3, 1000, 40, runtime);
            sim.run(100);
            assert_eq!(sim.wake_stats(), Some(expected), "{threads} threads");
        }
    }
}

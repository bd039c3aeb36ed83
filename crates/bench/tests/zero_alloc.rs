//! Proof that the steady-state tick path is allocation-free.
//!
//! A counting global allocator wraps [`std::alloc::System`] and tallies
//! every `alloc`/`alloc_zeroed`/`realloc` on a thread-local counter. After
//! warming a single-threaded 140-node ADF simulation past its one-time
//! setup (first-contact broker registrations, classifier-window fill,
//! initial clustering, high-water marks of the reused scratch buffers),
//! every further [`MobileGridSim::step`] must leave the counter untouched.
//!
//! Scope of the claim, as documented in `DESIGN.md` ("Tick memory model"):
//!
//! * **threads = 1** — with more worker threads the executor's transient
//!   spawn scaffolding allocates; the simulation state itself still does
//!   not.
//! * **reclusterings included** — the periodic BSAS recluster refills the
//!   ADF's reused clusterer, which allocates only when a round forms more
//!   clusters than any before it; the dense pin's window spans a
//!   recluster tick, the other pins sit between reclusterings.
//! * **synthetic mobility** — `PathFollower`/`StopModel` ground truth; the
//!   campus workload's occasional route re-planning allocates by design.
//!
//! This lives in its own integration-test binary because installing a
//! `#[global_allocator]` is process-wide and needs `unsafe`, which the
//! bench library itself forbids.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mobigrid_adf::{
    AdaptiveDistanceFilter, AdfConfig, MobileGridSim, MobileNode, RuntimeOptions, SimBuilder,
};
use mobigrid_campus::{RegionId, RegionKind};
use mobigrid_geo::{Point, Polyline};
use mobigrid_mobility::{LoopMode, MobilityPattern, NodeType, PathFollower, StopModel};
use mobigrid_wireless::{AccessNetwork, Gateway, GatewayKind, MnId};

/// Counts allocations made by the current thread. Frees are deliberately
/// not counted: a steady-state tick must not *request* memory; returning
/// it would equally be a violation of "no heap traffic", but alloc-side
/// counting alone already catches every alloc/free pair.
struct CountingAllocator;

thread_local! {
    // `const` init keeps first access from allocating (lazy TLS would
    // recurse into the allocator under measurement).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

fn walker(id: u32, speed: f64) -> MobileNode {
    let y = f64::from(id) * 10.0;
    let path = Polyline::new(vec![Point::new(0.0, y), Point::new(2000.0, y)])
        .expect("two distinct points");
    MobileNode::new(
        MnId::new(id),
        RegionId::from_index(6),
        RegionKind::Road,
        NodeType::Human,
        MobilityPattern::Linear,
        PathFollower::new(path, speed, LoopMode::PingPong),
        u64::from(id),
    )
}

fn parked(id: u32) -> MobileNode {
    MobileNode::new(
        MnId::new(id),
        RegionId::from_index(0),
        RegionKind::Building,
        NodeType::Human,
        MobilityPattern::Stop,
        StopModel::new(Point::new(500.0, f64::from(id) * 10.0)),
        u64::from(id),
    )
}

/// A 140-node single-threaded ADF simulation with an access network, like
/// the paper's evaluation but over allocation-free synthetic mobility,
/// reclustering every `recluster_interval` ticks.
fn steady_state_sim(recluster_interval: u64) -> MobileGridSim {
    let nodes: Vec<MobileNode> = (0..140u32)
        .map(|i| {
            if i % 4 == 3 {
                parked(i)
            } else {
                walker(i, 0.5 + f64::from(i % 7))
            }
        })
        .collect();
    let adf = AdfConfig {
        recluster_interval,
        ..AdfConfig::new(1.0)
    };
    let network = AccessNetwork::new(vec![Gateway::new(
        0,
        GatewayKind::BaseStation,
        Point::new(1000.0, 700.0),
        10_000.0,
    )]);
    SimBuilder::new()
        .nodes(nodes)
        .policy(AdaptiveDistanceFilter::new(adf).expect("valid config"))
        .network(network)
        .build()
        .expect("valid simulation")
}

/// The dense tick, reclustering ticks included: the ADF reuses its
/// clusterer's buffers, so a reclustering that forms no more clusters
/// than an earlier one allocates nothing.
#[test]
fn post_warmup_ticks_do_not_allocate() {
    // The default 30-tick period: the warm-up reclusters at ticks 5, 30
    // and 60, the measured window (ticks 61-90) at tick 90.
    let mut sim = steady_state_sim(30);

    // Warmup: classifier windows fill, the initial clustering runs, every
    // node makes first contact with the brokers and the network, and the
    // scratch buffers reach their high-water capacity.
    for _ in 0..60 {
        sim.step();
    }

    let before = allocation_count();
    let mut sent = 0u64;
    for _ in 0..30 {
        sent += u64::from(sim.step().sent);
    }
    let allocations = allocation_count() - before;

    assert_eq!(
        allocations, 0,
        "steady-state ticks allocated {allocations} times"
    );
    // The window did real work: the filter let some updates through and
    // the network carried them.
    assert!(sent > 0, "measured window transmitted nothing");
    assert!(sim.network().expect("attached").meter().messages() > 0);
}

/// The telemetry hooks must not cost the tick path its zero-allocation
/// property: with the default no-op recorder explicitly installed,
/// [`MobileGridSim::step_recorded`] is the same allocation-free loop as
/// [`MobileGridSim::step`].
#[test]
fn post_warmup_recorded_ticks_with_noop_recorder_do_not_allocate() {
    use mobigrid_telemetry::NoopRecorder;
    let mut sim = steady_state_sim(10_000);
    let mut rec = NoopRecorder;
    for _ in 0..60 {
        sim.step_recorded(&mut rec);
    }

    let before = allocation_count();
    let mut sent = 0u64;
    for _ in 0..30 {
        sent += u64::from(sim.step_recorded(&mut rec).sent);
    }
    let allocations = allocation_count() - before;

    assert_eq!(
        allocations, 0,
        "steady-state recorded ticks allocated {allocations} times"
    );
    assert!(sent > 0, "measured window transmitted nothing");
}

/// The columnar (SoA) engine is what makes the steady state allocation-
/// free, and this pins it directly: a population big enough for several
/// full 64-node shards plus a ragged tail, mixing enum-dispatched engine
/// variants, must sweep its position/RNG/engine columns without a single
/// allocation — no boxing in the dispatch, no per-tick column growth, no
/// scratch reallocation at shard boundaries.
#[test]
fn columnar_shard_sweep_does_not_allocate() {
    use mobigrid_mobility::MobilityKind;

    // 203 nodes = 3 full shards + a 11-node ragged tail.
    let nodes: Vec<MobileNode> = (0..203u32)
        .map(|i| {
            if i % 3 == 0 {
                parked(i)
            } else {
                walker(i, 0.75 + f64::from(i % 5))
            }
        })
        .collect();
    let adf = AdfConfig {
        recluster_interval: 10_000,
        ..AdfConfig::new(1.0)
    };
    let mut sim = SimBuilder::new()
        .nodes(nodes)
        .policy(AdaptiveDistanceFilter::new(adf).expect("valid config"))
        .build()
        .expect("valid simulation");

    // This is really the columnar engine: the enum-dispatched kind column
    // spans both variants and the shard count covers a ragged tail.
    let kinds = sim.columns().mobility_kinds();
    assert!(kinds.contains(&MobilityKind::Path));
    assert!(kinds.contains(&MobilityKind::Stop));
    assert_eq!(sim.columns().len(), 203);

    for _ in 0..60 {
        sim.step();
    }

    let before = allocation_count();
    for _ in 0..30 {
        sim.step();
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "columnar shard sweep allocated"
    );
}

/// The sparse (wake-wheel) driver keeps the same promise: with most of
/// the population parked — asleep in the wheel, served from the shard
/// replay memo and dozing in the ADF — and a few walkers keeping the dense
/// paths busy, a steady-state tick allocates nothing. The warmup covers
/// the initial clustering, the nodes falling asleep and several memo
/// expiries, so every reused buffer has reached its high-water capacity.
#[test]
fn sparse_driver_ticks_do_not_allocate() {
    use mobigrid_adf::TickDriver;

    // 1,000 parked nodes and 64 walkers: 17 shards, the last one ragged.
    let nodes: Vec<MobileNode> = (0..1064u32)
        .map(|i| {
            if i < 1000 {
                parked(i)
            } else {
                walker(i, 0.75 + f64::from(i % 5))
            }
        })
        .collect();
    let adf = AdfConfig {
        recluster_interval: 10_000,
        ..AdfConfig::new(1.0)
    };
    let mut sim = SimBuilder::new()
        .nodes(nodes)
        .policy(AdaptiveDistanceFilter::new(adf).expect("valid config"))
        .runtime(RuntimeOptions {
            driver: TickDriver::Sparse,
            ..RuntimeOptions::default()
        })
        .build()
        .expect("valid simulation");

    for _ in 0..200 {
        sim.step();
    }
    let wake_before = sim.wake_stats().expect("sparse driver");

    let before = allocation_count();
    let mut sent = 0u64;
    for _ in 0..100 {
        sent += u64::from(sim.step().sent);
    }
    let allocations = allocation_count() - before;

    assert_eq!(
        allocations, 0,
        "steady-state sparse ticks allocated {allocations} times"
    );
    // The window exercised both halves of the sparse tick: the walkers
    // transmitted and the parked nodes were replayed, and the O(1) paths
    // ran: most shard-ticks were served whole from the shard replay memo,
    // and the ADF absorbed whole blocks through its block doze clock.
    let wake = sim.wake_stats().expect("sparse driver");
    assert!(sent > 0, "measured window transmitted nothing");
    assert!(wake.asleep >= 1000, "only {} nodes asleep", wake.asleep);
    assert!(
        wake.replayed_node_ticks - wake_before.replayed_node_ticks > 50_000,
        "the parked nodes were not replayed"
    );
    let shard_ticks = 100 * 1064u64.div_ceil(64);
    let memo_hits = wake.replayed_shard_ticks - wake_before.replayed_shard_ticks;
    assert!(
        2 * memo_hits > shard_ticks,
        "only {memo_hits} of {shard_ticks} shard-ticks were memo hits"
    );
    let dozed = wake.dozed_blocks - wake_before.dozed_blocks;
    assert!(
        2 * dozed > shard_ticks,
        "only {dozed} of {shard_ticks} block-ticks dozed whole"
    );
}

#[test]
fn warmup_is_where_the_allocations_happen() {
    // Sanity check on the methodology: the same counter does see the
    // build and warmup phase allocate, so a zero reading above is a real
    // property of the steady state, not a broken counter.
    let before = allocation_count();
    let mut sim = steady_state_sim(10_000);
    sim.step();
    assert!(
        allocation_count() > before,
        "building and first-stepping the sim must allocate"
    );
}

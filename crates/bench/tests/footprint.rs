//! Pins the heap a node holds, which `size_of` budgets cannot see.
//!
//! A counting global allocator wraps [`std::alloc::System`] and tallies,
//! on a thread-local counter, every allocation and the bytes currently
//! live. Over the `sim_idle` population shape at a small scale (1,000
//! parked nodes and 64 walkers, sparse driver, one thread) it pins:
//!
//! * that first sight allocates nothing per node: a node's classifier ring
//!   and its broker slot's Brown estimator are built at its first
//!   motion, so only the walkers pay for them, once each, afterwards;
//! * the live heap bytes per node once the population is warm.
//!
//! It also pins, on a classifier and a broker driven directly, that a
//! parked node allocates nothing until it first moves and then allocates
//! its ring and its estimator once.
//!
//! Like `zero_alloc.rs`, this lives in its own integration-test binary
//! because a `#[global_allocator]` is process-wide and needs `unsafe`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mobigrid_adf::{AdfConfig, GridBroker, MobilityClassifier, RuntimeOptions, TickDriver};
use mobigrid_bench::build_idle_sim_with;
use mobigrid_geo::Point;
use mobigrid_wireless::{IngestRecord, LocationUpdate, MnId};

/// Counts allocations and live bytes made by the current thread. With one
/// simulation thread every byte the sim holds is allocated and freed on
/// the test's own thread.
struct CountingAllocator;

thread_local! {
    // `const` init keeps first access from allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

fn count(allocated: usize, freed: usize) {
    LIVE_BYTES.with(|b| b.set(b.get() + allocated as i64 - freed as i64));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        count(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        count(layout.size(), 0);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        count(new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

const PARKED: usize = 1_000;
const WALKERS: usize = 64;
const NODES: f64 = (PARKED + WALKERS) as f64;

#[test]
fn a_node_costs_what_it_holds() {
    let base = live_bytes();
    let mut sim = build_idle_sim_with(
        1,
        PARKED,
        WALKERS,
        RuntimeOptions {
            driver: TickDriver::Sparse,
            ..RuntimeOptions::default()
        },
    );

    // First sight: the ADF creates every node's state and the with-LE
    // broker hears from every node (the filter passes every first
    // update), but no node has moved yet, so none allocates. The tick's
    // allocations are shared: the ADF's table (one exact-size block), one
    // new-sleeper list per shard and a few one-off buffers, under 0.05
    // per node together.
    let before = allocation_count();
    let first = sim.step();
    let first_sight = (allocation_count() - before) as f64 / NODES;
    assert_eq!(
        first.sent as usize,
        PARKED + WALKERS,
        "every node heard from"
    );
    assert!(
        first_sight <= 0.05,
        "first sight allocated {first_sight:.3} times per node (budget: shared buffers only)"
    );

    // Warm: windows full, the parked nodes asleep, four reclusterings and
    // several staleness-refresh rounds behind. Each walker has built its
    // ring and its estimator, once; the parked nodes hold nothing more.
    let before = allocation_count();
    for _ in 1..100 {
        sim.step();
    }
    let later = (allocation_count() - before) as f64 / NODES;
    let walkers_share = 2.0 * WALKERS as f64 / NODES;
    assert!(
        later <= walkers_share + 0.05,
        "99 ticks after first sight allocated {later:.3} times per node \
         (budget: a ring and an estimator per walker, {walkers_share:.3})"
    );
    let held = (live_bytes() - base) as f64 / NODES;
    assert!(
        held <= 382.6,
        "a warm node holds {held:.1} B of heap (budget 382.6 B)"
    );
    drop(sim);
}

/// A node's classifier and with-LE broker slot allocate nothing while
/// the node sits still, however long, and its first motion builds the
/// ring and the estimator box once each.
#[test]
fn a_parked_node_allocates_nothing_until_it_first_moves() {
    let cfg = AdfConfig::default();
    let mut broker = GridBroker::new(Default::default()).expect("the paper's estimator");
    broker.ensure_nodes(1);
    let node = MnId::new(0);
    let mut classifier = MobilityClassifier::new(&cfg);
    let mut seq = 0;
    let mut report = |broker: &mut GridBroker, time_s: f64, position: Point| {
        seq += 1;
        let lu = LocationUpdate::new(node, time_s, position, seq);
        broker.apply(&IngestRecord::Update(lu));
        broker.apply(&IngestRecord::Filtered {
            node,
            time_s: time_s + 0.5,
        });
    };

    let parked = Point::new(12.0, -3.5);
    broker.set_home_anchor(node, Point::new(10.0, 0.0));
    let before = allocation_count();
    for t in 0..200 {
        // One-second reports with a silence every tenth.
        let time_s = f64::from(t) + f64::from(t / 10) * 2.0;
        classifier.observe(time_s, parked);
        report(&mut broker, time_s, parked);
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "a parked node allocated before it moved"
    );

    let before = allocation_count();
    classifier.observe(300.0, Point::new(13.0, -3.5));
    report(&mut broker, 300.0, Point::new(13.0, -3.5));
    assert_eq!(
        allocation_count() - before,
        2,
        "the first motion builds the ring and the estimator, once each"
    );

    let before = allocation_count();
    for t in 301..400 {
        let position = Point::new(f64::from(t) - 287.0, -3.5);
        classifier.observe(f64::from(t), position);
        report(&mut broker, f64::from(t), position);
    }
    assert_eq!(
        allocation_count() - before,
        0,
        "a moving node allocated again"
    );
}
